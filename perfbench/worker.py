"""One workload process: set-up, the ops, their checks and the fingerprints.

    python3 perfbench/worker.py WORKLOAD SEED MODE COUNT ROUND CAP_S TRACE SPAWNED_AT

MODE is ``setup`` (stop once set-up is done) or ``ops`` (run ops 0 to
COUNT - 1, in rounds of ROUND ops; when CAP_S > 0 a round that would likely
end after CAP_S seconds of ops is not started, a guard for a host far slower
than usual).  SPAWNED_AT is the parent's ``time.perf_counter()`` just before
it started this interpreter; on Linux that clock is CLOCK_MONOTONIC, shared
by all processes, so set-up time counts interpreter start-up too.

The reference (``speed.reference``) is timed right after the package import
(its time is left out of set-up time), after set-up and after every op.
Set-up and each op are also reported scaled by ``NOMINAL_S`` over the mean
of the two reference times around them (see ``speed.py``).  A cli-cold
command takes its reference times itself (``cli_speed.py``), and the time it
spent on them is left out of its op time.

With TRACE = 1 every layer boundary is wrapped (see ``layers.py``).  The
last line of standard output is one JSON object.
``run.py`` starts this script with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench"


def machine_facts() -> str:
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS threads {blas_threads()}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def layer_report(self_times: dict, counters: dict, cache: tuple, import_times: list,
                 absent: dict) -> dict:
    from layers import LAYERS
    per_layer = {f"{layer}.self_s": sum(t for name, t in self_times.items()
                                        if name.startswith(layer + "."))
                 for layer in LAYERS}
    hits, misses = cache
    per_layer["angular.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if not hits + misses:
        absent["angular.cache_hit_ratio"] = "no cache_info on the Wigner-symbol functions"
    extractions = counters.get("readout.extractions", 0)
    per_layer["readout.informative_ratio"] = (
        counters.get("readout.informative", 0) / extractions if extractions else 0.0)
    per_layer["cli.import_s"] = statistics.median(import_times)
    for name, value in counters.items():
        if name != "readout.informative":
            per_layer[name] = value
    return {"metrics": per_layer, "absent": absent}


def main(argv) -> int:
    workload_name, seed, mode, count, per_round, cap_s, trace, spawned_at = argv
    seed, count, per_round, cap_s = int(seed), int(count), int(per_round), float(cap_s)
    trace, spawned_at = trace == "1", float(spawned_at)

    start = time.perf_counter()
    import odfprobe.cli  # noqa: F401  the whole package, as a command pays for it
    import_s = time.perf_counter() - start
    # after the import above, so that it still pays for numpy like a command does
    from speed import NOMINAL_S, reference
    begin = time.perf_counter()
    setup_refs = [reference()]
    ref_spent = time.perf_counter() - begin

    tracer = absent = None
    if trace:
        import layers
        from tracing import Tracer, self_check
        tracer = Tracer()
        absent = layers.install(tracer)
    # imported after install() so the library names it binds are the traced ones
    import workloads
    from odfprobe.config import load_config
    from odfprobe.states import enumerate_states

    OUTDIR.mkdir(exist_ok=True)
    workdir = OUTDIR / f"{workload_name}-{os.getpid()}"
    problems = []
    config = load_config()
    ctx = workloads.Context(config, config.catalog(), enumerate_states(8), seed, workdir)
    traced_children = speed_file = None
    if trace and workload_name == "cli-cold":
        traced_children = workdir / "traces"
        traced_children.mkdir(parents=True, exist_ok=True)
        os.environ["PERFBENCH_TRACE_DIR"] = str(traced_children)
        work = workloads.CliCold(ctx, command=[sys.executable, str(HERE / "cli_shim.py")])
    elif workload_name == "cli-cold":
        # each command times the reference itself, on the CPU it runs on
        speed_file = workdir / "speed.json"
        os.environ["PERFBENCH_SPEED_FILE"] = str(speed_file)
        work = workloads.CliCold(ctx, command=[sys.executable, str(HERE / "cli_speed.py")])
    else:
        work = workloads.WORKLOADS[workload_name](ctx)
    warm = (work.warmup_inputs() if hasattr(work, "warmup_inputs")
            else work.inputs(workloads.WARMUP_INDEX))
    problems += [f"warm-up: {p}" for p in work.check(warm, work.run(warm))]
    setup_s = time.perf_counter() - spawned_at - ref_spent
    refs = [reference()]
    setup_refs.append(refs[0])
    result = {"setup_s": setup_s,
              "setup_scaled_s": setup_s * NOMINAL_S / (sum(setup_refs) / 2.0),
              "problems": problems}
    if mode == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    latencies, scaled, kinds, completed, failures, identified = [], [], [], [], [], 0
    loop_start = round_start = time.perf_counter()
    for index in range(count):
        if index and index % per_round == 0:
            now = time.perf_counter()
            if cap_s > 0 and now - loop_start + (now - round_start) > cap_s:
                break
            round_start = now
        inputs = work.inputs(index)
        if tracer is not None:
            tracer.op = index
            os.environ["PERFBENCH_OP"] = str(index)   # read by traced CLI children
        if speed_file is not None:
            speed_file.unlink(missing_ok=True)
        begin = time.perf_counter()
        try:
            output = work.run(inputs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output, error = None, exc
        else:
            error = None
        latency = time.perf_counter() - begin
        refs.append(reference())
        around = refs[-2:]
        if speed_file is not None and speed_file.exists():
            child = json.loads(speed_file.read_text())
            latency -= child["spent_s"]
            around = child["refs"]
        latencies.append(latency)
        scaled.append(latency * NOMINAL_S / (sum(around) / 2.0))
        kinds.append(work.kind(inputs))
        completed.append(error is None)
        causes = ([f"raised {type(error).__name__}: {error}"] if error
                  else work.check(inputs, output))
        if causes:
            known = (work.known_defect(inputs, output, error)
                     if hasattr(work, "known_defect") else None)
            failures.append([index, "; ".join(causes), known])
        elif hasattr(work, "identified") and work.identified(output):
            identified += 1

    if tracer is not None:
        tracer.op = "fingerprints"
    problems += workloads.check_fingerprints(workloads.measure_fingerprints(ctx))
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    result.update(
        latencies=latencies,
        scaled=scaled,
        refs=refs,
        kinds=kinds,
        completed=completed,
        failures=failures,
        known_defects={known: workloads.KNOWN_DEFECTS[known]
                       for _, _, known in failures if known},
        identified=identified if hasattr(work, "identified") else None,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        machine=machine_facts(),
    )
    if tracer is not None:
        import layers
        self_times, counters = tracer.self_times(), dict(tracer.counters)
        hits, misses = layers.cache_stats()
        import_times = [import_s]
        for path in sorted(traced_children.glob("*.json")) if traced_children else ():
            child = json.loads(path.read_text())
            for name, value in child["self_times"].items():
                self_times[name] = self_times.get(name, 0.0) + value
            for name, value in child["counters"].items():
                counters[name] = counters.get(name, 0) + value
            hits, misses = hits + child["cache"][0], misses + child["cache"][1]
            import_times.append(child["import_s"])
            offset = len(tracer.spans)
            tracer.spans.extend([name, begin, end, parent + offset if parent >= 0 else -1, op]
                                for name, begin, end, parent, op in child["spans"])
        check = self_check()
        if check:
            problems.append(check)
        result["trace"] = layer_report(self_times, counters, (hits, misses),
                                       import_times, absent)
        tracer.dump(OUTDIR / f"spans-{workload_name}-{seed}.jsonl.gz")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

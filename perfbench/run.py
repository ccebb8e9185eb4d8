"""odfprobe benchmark: one seeded workload per call, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs, op and checks in ``workloads.py``): spectrum-grid,
readout-identify, odf-sweep, cli-cold.  Each runs in fresh interpreters
(``worker.py``) with ``src`` on PYTHONPATH, one at a time, with no pool.
``BENCHMARK.json`` gates readout-identify and cli-cold, which between them
reach every traced layer; spectrum-grid (Stark prediction alone) and
odf-sweep (the simulator alone) run the same way but are not gated.

``--trace 0`` measures the end-to-end metrics.  A set-up-only worker, the
measuring worker and another set-up-only worker start in turn; ``setup_s`` is
the median of their three set-up times.  The measuring worker runs whole
rounds of ops (``ROUNDS``: one round holds every op kind once or more), as
many as ``--seconds`` over a nominal round length.  The op count thus
depends on ``--seconds`` alone and the ops on the seed, so ``attempted``
and ``failed`` repeat exactly for a seed; a faster library makes the run
shorter, not different.  Only on a host far slower than usual does
``CAP_FACTOR`` end a run early, at a round boundary.

The gated latency is ``kind_median_sum_ms``: the median completed op of each
op kind (each cli-cold subcommand shape; plain and refresh readout-identify
ops), summed over the kinds, so every kind weighs in.  An op that raised is
not timed into it (unless no op of its kind completed); it still counts as
failed.  The gated times are scaled to a nominal host speed: each set-up
and each op is timed next to a fixed reference workload (``speed.py``), in
the process that does the work (a cli-cold command times it itself, see
``cli_speed.py``), because the host the benchmark was defined on moves
between speeds about 1.5x apart for seconds to minutes at a time.  Over
five seeds, scaling cut the spread (IQR / median) of readout-identify's gated
latency from 0.20 to 0.10 and of cli-cold's from 0.11 to 0.075 in the same
runs.  The raw medians, ``op_p50_ms``, ``ops_per_s``, the tail percentile,
``failed_frac`` (with each known defect's share) and ``identified_frac`` are
printed in the report but not gated.

``--trace 1`` runs a fixed number of ops (``TRACE_OPS``) from the same seed
three times, untraced, traced and untraced again, and reports the per-layer
metrics of the traced process and its overhead: the traced ops' scaled time
over the mean scaled time of the two untraced runs, which bracket it.
Counts repeat exactly for a seed.

Earlier lines of standard output are a readable report (every metric with
its unit, failed ops by cause, absent boundaries, machine facts).  The last
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A run is correct when every check passes except for failed ops that are
known defects (``workloads.KNOWN_DEFECTS``); those still count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

WORKLOADS = ("spectrum-grid", "readout-identify", "odf-sweep", "cli-cold")
# The metrics of the JSON line, with their units.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed in the report but left out of the JSON line: the CLI's own argparse
# and file writing, 0 on every workload but cli-cold.
REPORTED_ONLY_UNITS = {"cli.self_s": "s"}

TRACE_OPS = {"spectrum-grid": 10, "readout-identify": 10, "odf-sweep": 4, "cli-cold": 11}
# Ops per round, and a nominal round length: a run holds --seconds divided by
# it, rounded (at 30 s, 7 readout-identify rounds and 2 cli-cold rotations,
# whose wall times were 5-7 s and 16-19 s where the benchmark was defined).
ROUNDS = {"spectrum-grid": (8, 1.0), "readout-identify": (5, 4.3), "odf-sweep": (2, 3.4),
          "cli-cold": (11, 12.5)}
# A run starts no round that would likely end after this many times
# --seconds of ops, so a host far slower than usual cannot stretch it much.
CAP_FACTOR = 2.0
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def op_count(workload: str, seconds: float) -> int:
    per_round, round_s = ROUNDS[workload]
    return per_round * max(1, round(seconds / round_s))


def run_worker(workload: str, seed: int, mode: str, count: int, trace: bool,
               cap_s: float = 0.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned_at = time.perf_counter()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
            str(count), str(ROUNDS[workload][0]), repr(cap_s), "1" if trace else "0",
            repr(spawned_at)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker ({mode}) exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples beyond
    it: (percentile, value), or None when there are too few samples."""
    ordered = sorted(samples)
    best = None
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        rank = int(p / 100.0 * len(ordered))
        if len(ordered) - rank - 1 >= 10:
            best = (p, ordered[rank])
    return best


def failure_lines(main: dict) -> list[str]:
    return [f"  failed op {index}: {cause}" + (f" [known defect {known}]" if known else "")
            for index, cause, known in main["failures"]]


def kind_medians(main: dict, key: str) -> dict[str, float]:
    """Median completed op of each kind, in seconds (every op of a kind of
    which none completed)."""
    every, done = {}, {}
    for latency, kind, ok in zip(main[key], main["kinds"], main["completed"]):
        every.setdefault(kind, []).append(latency)
        if ok:
            done.setdefault(kind, []).append(latency)
    return {kind: statistics.median(done.get(kind, ops)) for kind, ops in every.items()}


def untraced(workload: str, seed: int, seconds: float):
    # set-up probes on either side of the measuring worker sample the host at
    # different times
    workers = [run_worker(workload, seed, "setup", 0, False),
               run_worker(workload, seed, "ops", op_count(workload, seconds), False,
                          CAP_FACTOR * seconds),
               run_worker(workload, seed, "setup", 0, False)]
    main = workers[1]
    latencies = main["latencies"]
    problems = [p for w in workers for p in w["problems"]]
    scaled = kind_medians(main, "scaled")
    raw = kind_medians(main, "latencies")
    metrics = {
        "kind_median_sum_ms": 1e3 * sum(scaled.values()),
        "setup_s": statistics.median([w["setup_scaled_s"] for w in workers]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    report = [f"{name} = {value:.6g} {END_TO_END_UNITS[name]}"
              for name, value in metrics.items()]
    report += [f"  median {kind} op = {1e3 * value:.6g} ms scaled, {1e3 * raw[kind]:.6g} ms "
               f"raw ({main['kinds'].count(kind)} ops)" for kind, value in scaled.items()]
    report.append(f"setup_raw_s = {statistics.median([w['setup_s'] for w in workers]):.6g} s")
    report.append(f"reference = {1e3 * statistics.median(main['refs']):.6g} ms median "
                  f"(nominal {1e3 * NOMINAL_S:g} ms)")
    report.append(f"op_p50_ms = {1e3 * statistics.median(latencies):.6g} ms")
    report.append(f"ops_per_s = {len(latencies) / sum(latencies):.6g} 1/s")
    tail = tail_percentile(latencies)
    report.append("op_tail_ms = absent (fewer than 21 ops)" if tail is None else
                  f"op_tail_ms = {1e3 * tail[1]:.6g} ms (p{tail[0]:g}, "
                  f"{len(latencies)} samples)")
    report.append(f"failed_frac = {len(main['failures']) / len(latencies):.6g} "
                  f"({len(main['failures'])}/{len(latencies)} ops)")
    for defect, description in sorted(main["known_defects"].items()):
        count = sum(known == defect for _, _, known in main["failures"])
        report.append(f"  known defect {defect}: {count / len(latencies):.6g} "
                      f"({count}/{len(latencies)} ops; {description})")
    if main["identified"] is not None:
        report.append(f"identified_frac = {main['identified'] / len(latencies):.6g} "
                      "(true state in the k = 2 tier)")
    report += failure_lines(main)
    report.append("machine: " + main["machine"])
    return main, problems, metrics, report


def traced(workload: str, seed: int):
    count = TRACE_OPS[workload]
    before = run_worker(workload, seed, "ops", count, False)
    main = run_worker(workload, seed, "ops", count, True)
    after = run_worker(workload, seed, "ops", count, False)
    problems = before["problems"] + main["problems"] + after["problems"]
    layer = main["trace"]
    untraced_s = (sum(before["scaled"]) + sum(after["scaled"])) / 2.0
    metrics = {"trace.overhead": sum(main["scaled"]) / untraced_s}
    metrics.update(layer["metrics"])
    report = [f"traced {count} ops; per-layer totals over the traced process "
              "(set-up, ops and fingerprints)"]
    for name, unit in {**PER_LAYER_UNITS, **REPORTED_ONLY_UNITS}.items():
        reason = layer["absent"].get(name)
        report.append(f"{name} = absent ({reason})" if reason else
                      f"{name} = {metrics.get(name, 0):.6g} {unit}")
    # A boundary that is gone is reported as absent, never as a measured 0;
    # a counter whose boundary exists but never fired is a measured 0.
    for name in layer["absent"]:
        metrics.pop(name, None)
    for name in PER_LAYER_UNITS:
        if name not in layer["absent"]:
            metrics.setdefault(name, 0)
    report += [f"boundary absent: {name}: {reason}"
               for name, reason in layer["absent"].items()
               if name not in PER_LAYER_UNITS and name not in REPORTED_ONLY_UNITS]
    report += failure_lines(main)
    report.append("machine: " + main["machine"])
    return main, problems, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odfprobe" / "__init__.py").is_file():
        print(f"error: no odfprobe sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        if args.trace:
            main_worker, problems, metrics, report = traced(args.workload, args.seed)
            units = PER_LAYER_UNITS
        else:
            main_worker, problems, metrics, report = untraced(args.workload, args.seed,
                                                              args.seconds)
            units = END_TO_END_UNITS
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = main_worker["failures"]
    unexpected = [f for f in failures if not f[2]]
    for line in [f"workload {args.workload}, seed {args.seed}"] + report:
        print(line)
    for problem in problems:
        print(f"  check failed: {problem}")
    correct = not problems and not unexpected
    absent = main_worker.get("trace", {}).get("absent", {})
    print(json.dumps({
        "correct": correct,
        "attempted": len(main_worker["latencies"]),
        "failed": len(failures),
        "metrics": {name: ({"value": metrics[name], "unit": unit} if name in metrics else
                           {"value": None, "unit": unit, "absent": absent.get(name, "not measured")})
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

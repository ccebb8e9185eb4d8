"""``python -m odfprobe.cli`` with every layer boundary traced.

    python3 perfbench/cli_shim.py SUBCOMMAND [ARGS...]

Behaves like ``python -m odfprobe.cli`` (same exit codes, an uncaught
exception prints its traceback and exits 1) and, on the way out, writes its
self times, counters, Wigner-cache statistics, import time and spans to
``$PERFBENCH_TRACE_DIR/<pid>.json``, stamping spans with ``$PERFBENCH_OP``.
"""

import json
import os
import sys
import time
import traceback

start = time.perf_counter()
import odfprobe.cli  # noqa: E402
import_s = time.perf_counter() - start

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.op = int(os.environ.get("PERFBENCH_OP", -1))
layers.install(tracer)
code = 1
try:
    code = odfprobe.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
except Exception:
    traceback.print_exc()
finally:
    summary = {"self_times": tracer.self_times(), "counters": dict(tracer.counters),
               "cache": list(layers.cache_stats()), "import_s": import_s,
               "spans": tracer.spans}
    path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
sys.exit(code)

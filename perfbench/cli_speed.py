"""``python -m odfprobe.cli`` that also times the host-speed reference.

    python3 perfbench/cli_speed.py SUBCOMMAND [ARGS...]

Behaves like ``python -m odfprobe.cli`` (same exit codes; an uncaught
exception prints its traceback and exits 1).  Right after the import and
again on the way out it times ``speed.reference``, in this process and so on
the CPU the command runs on, and writes both reference times and the time
spent on them to ``$PERFBENCH_SPEED_FILE``.  ``worker.py`` runs cli-cold's
untraced commands through this script.
"""

import json
import os
import sys
import time

import odfprobe.cli
from speed import reference


def timed_reference():
    begin = time.perf_counter()
    value = reference()
    return value, time.perf_counter() - begin


before, spent_before = timed_reference()
try:
    code = odfprobe.cli.main(sys.argv[1:])
finally:
    after, spent_after = timed_reference()
    with open(os.environ["PERFBENCH_SPEED_FILE"], "w", encoding="utf-8") as fh:
        json.dump({"refs": [before, after], "spent_s": spent_before + spent_after}, fh)
sys.exit(code)

"""Run one command, wait for it, and write its exit code, wall time and
rusage as JSON.

    python3 perfbench/launch.py RESULT_JSON COMMAND [ARG ...]

run.py starts every measured process through this small launcher. On Linux
a process's ru_maxrss includes the peak RSS of the process that started it
(recorded when it calls exec), so a command started straight from run.py,
which holds whole scenes and their references, would report run.py's
memory instead of its own.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_, status, ru = os.wait4(proc.pid, 0)
wall_s = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
Path(sys.argv[1]).write_text(json.dumps({
    "rc": proc.returncode,
    "wall_s": wall_s,
    "cpu_s": ru.ru_utime + ru.ru_stime,
    "maxrss_mb": ru.ru_maxrss * 1024 / 1e6,
}), encoding="utf-8")

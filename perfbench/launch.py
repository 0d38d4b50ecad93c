"""Run one command; print its exit code, start and end, wall time, CPU time and
peak RSS as JSON.

    python3 launch.py TIMEOUT STDOUT STDERR -- COMMAND...

The command's output goes to the files STDOUT and STDERR, and it is killed
after TIMEOUT seconds.  Commands are started from this small process, not
from the benchmark's own, because Linux carries the peak RSS of the forking
process into the child's: started from a process that had just parsed a
large embedding file, even a small command would report that much memory.
This file uses the standard library only, to stay small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout, stdout, stderr, separator, *command = sys.argv[1:]
    if separator != "--" or not command:
        sys.exit(__doc__)
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=so, stderr=se)
        watchdog = threading.Timer(float(timeout), proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": proc.returncode, "start": started, "end": ended,
                      "wall_s": ended - started,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()

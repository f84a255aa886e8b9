"""Starts dtk processes for the benchmark and reports each one's own
peak resident set.

Linux carries a process's peak RSS across exec, and a child forked (or
vforked) from a large parent starts from the parent's peak.  The
benchmark process grows while it checks answers, so it starts this
small process first and lets it start every dtk invocation.

Protocol, one JSON object per line: the request holds ``argv``, ``cwd``,
``stdout``, ``stderr`` (file paths) and ``timeout``; the reply holds
``code``, ``wall`` (seconds) and ``rss_kb``.  End of input ends it.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"code": proc.returncode, "wall": wall,
                                  "rss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)

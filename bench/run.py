"""dtk benchmark: one workload, whole rounds of dtk invocations, every
output checked.

    python3 bench/run.py --workload lts-refine --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``), every operation runs as its own process,
``python -m dtk.cli`` with the repository's ``src`` on PYTHONPATH, one at
a time.  Traced (``--trace 1``), the same operations call ``cli.main``
in this process with spans around dtk's public functions.  Rounds repeat
until ``--seconds`` have passed; a round is never cut short, so the
share of failed operations is the same in every run.

One row per operation goes to standard output; the last line is the
JSON result.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUPS_PER_ROUND = 5
OP_TIMEOUT_S = 120
STARTUP_SAMPLES = 5


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """The small process that starts every dtk invocation (launcher.py
    says why); one at a time, with a timeout each."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), text=True)

    def run(self, argv):
        """Returns (exit code, stdout, stderr, wall s, peak RSS MB)."""
        out, err = self.workdir / "op.stdout", self.workdir / "op.stderr"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(self.workdir), "stdout": str(out),
            "stderr": str(err), "timeout": OP_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["code"], out.read_text(errors="replace"),
                err.read_text(errors="replace"), reply["wall"],
                reply["rss_kb"] / 1024)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()


class ChildRunner:
    def __init__(self, launcher):
        self.launcher = launcher
        # let the interpreter write dtk's byte code before anything is timed
        launcher.run([sys.executable, "-c", "import dtk.cli"])

    def __call__(self, op):
        code, out, err, wall, rss = self.launcher.run(
            [sys.executable, "-m", "dtk.cli", *op.argv])
        crashed = "Traceback (most recent call last)" in err or code not in (0, 1)
        reason = err.strip().splitlines()[-1] if crashed and err.strip() else ""
        return code, out, wall, rss, crashed, reason


class InProcessRunner:
    def __init__(self, tracer):
        tracer.install()
        from dtk import cli
        self.main = cli.main

    def __call__(self, op):
        out, err = io.StringIO(), io.StringIO()
        crashed, reason = False, ""
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # a crash of the program under test
                code, crashed = None, True
                reason = f"{type(exc).__name__}: {str(exc)[:80]}"
        wall = time.perf_counter() - start
        crashed = crashed or code not in (0, 1)
        return code, out.getvalue(), wall, None, crashed, reason


def startup_seconds(launcher):
    """Median wall time of a process that only starts and imports dtk."""
    times = [launcher.run([sys.executable, "-c", "import dtk.cli"])[3]
             for _ in range(STARTUP_SAMPLES)]
    return statistics.median(times)


def file_digest(op):
    if op.reads is None or not op.reads.exists():
        return None
    return hashlib.sha256(op.reads.read_bytes()).hexdigest()


def run_round(wl, runner, round_no, log):
    """All operations of one round; returns (op records, wrong messages)."""
    records, wrong, outputs = [], [], {}
    for op in wl.ops():
        code, out, wall, rss, crashed, reason = runner(op)
        if crashed:
            verdict = f"FAILED {reason}"
        elif code != op.expect_exit:
            verdict = f"WRONG exit {code}, expected {op.expect_exit}"
        else:
            msg = wl.cached(("check", op.name, out, file_digest(op)),
                            lambda: op.check(out))
            verdict = "ok" if msg is None else f"WRONG {msg}"
        if verdict.startswith("WRONG"):
            wrong.append(f"{op.name}: {verdict}")
        if not crashed:
            outputs[op.name] = out
        records.append((op, wall, rss, crashed))
        shown = "-" if rss is None else f"{rss:.1f}MB"
        log(f"{round_no:>3} {op.name:<24} {op.kind:<12} size={op.size:<7} "
            f"wall={wall:.4f}s rss={shown} exit={code} {verdict}")
    msg = wl.cached(("cross", tuple(sorted(outputs.items()))),
                    lambda: wl.cross_check(outputs))
    if msg is not None:
        wrong.append(f"round {round_no}: WRONG {msg}")
        log(f"{round_no:>3} cross-check WRONG {msg}")
    return records, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dtk" / "cli.py").is_file():
        print(f"error: no dtk sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    launcher = Launcher(workdir)   # before this process grows
    try:
        return measure(args, workdir, launcher)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            workdir.parent.rmdir()


def measure(args, workdir, launcher) -> int:
    tracer = Tracer() if args.trace else None
    runner = InProcessRunner(tracer) if tracer else ChildRunner(launcher)
    setup_times = []

    def set_up():
        start = time.perf_counter()
        made = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
        return made

    # The first set-up's object keeps the check results; the repeats,
    # spread over the run, rewrite the same files and are only timed.
    wl = set_up()
    round_times, op_times, rss, layers = [], [], [], []
    attempted = failed = 0
    wrong = []
    start = time.perf_counter()
    round_no = 0
    while round_no == 0 or time.perf_counter() - start < args.seconds:
        round_no += 1
        if tracer:
            tracer.reset()   # before the set-ups: they give transforms.encode_s
        for _ in range(SETUPS_PER_ROUND):
            set_up()
        records, bad = run_round(wl, runner, round_no, print)
        wrong += bad
        if tracer:
            layers.append(layer_metrics(tracer))
        round_times.append(sum(wall for (_, wall, _, _) in records))
        op_times += [wall for (_, wall, _, _) in records]
        rss += [r for (_, _, r, _) in records]
        attempted += len(records)
        failed += sum(1 for (_, _, _, crashed) in records if crashed)

    for line in wrong:
        print(line, file=sys.stderr)
    if tracer:
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit(name)} for name in layers[0]}
        metrics["cli.startup_s"] = {"value": startup_seconds(launcher), "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(f"# {round_no} rounds, {len(op_times)} operations, "
          f"{failed} failed, {len(wrong)} wrong", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())

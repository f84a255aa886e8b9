"""Every demo script runs to completion, and prints the same bytes
whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, **env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_does_not_depend_on_the_hash_seed(demo):
    # a set of strings or of Enum members iterates in an order that
    # changes with PYTHONHASHSEED; a demo printing one would differ here
    first, second = (_run(demo, PYTHONHASHSEED=seed) for seed in ("1", "2"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

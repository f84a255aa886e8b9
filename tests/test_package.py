"""The package's lazy name table and which engines each command runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtk
from dtk import figures
from dtk.structures import render_ks, render_l2ts, render_lts
from dtk.transforms import ks_to_l2ts

SRC = str(Path(dtk.__file__).resolve().parent.parent)
ENGINES = ("structures", "graphs", "equivalences", "logic", "transforms",
           "compose", "linear", "generators", "figures")


def test_every_export_is_its_home_modules_attribute():
    for name in dtk.__all__:
        home = importlib.import_module(f"dtk.{dtk._EXPORTS[name]}")
        assert getattr(dtk, name) is getattr(home, name), name


def test_dir_and_star_import_cover_all():
    listed = dir(dtk)
    namespace = {}
    exec("from dtk import *", namespace)
    for name in dtk.__all__:
        assert name in listed, name
        assert namespace[name] is getattr(dtk, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dtk.no_such_name


def test_submodules_are_package_attributes():
    from dtk import figures as fig, logic
    assert logic is sys.modules["dtk.logic"]
    assert fig is sys.modules["dtk.figures"]
    assert callable(logic.parse_formula)


# Runs a command in a fresh interpreter, then reports which dtk engines
# have run their module body (a lazy placeholder is not a ModuleType)
# and which are in sys.modules at all.
PROBE = """
import contextlib, io, json, sys, types
from dtk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
engines = {n[4:]: type(m) is types.ModuleType for n, m in sys.modules.items()
           if n.startswith("dtk.") and n != "dtk.cli"}
print(json.dumps({"code": code, "engines": engines}))
"""


def _probe(cwd, *argv):
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert sorted(report["engines"]) == sorted(ENGINES)
    executed = {name for name, ran in report["engines"].items() if ran}
    return report["code"], executed


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    ks = figures.stuttering_example_ks()
    (root / "k.ks").write_text(render_ks(ks))
    (root / "d.l2ts").write_text(render_l2ts(ks_to_l2ts(ks)))
    (root / "l.lts").write_text(render_lts(figures.deadlock_merge_example_lts()))
    return root


@pytest.mark.parametrize("argv, engines", [
    ((), {"structures"}),
    (("consistency", "--model", "d.l2ts"), {"structures"}),
    (("check-equiv", "--model", "l.lts", "--kind", "lts", "--variant", "ed"),
     {"structures", "graphs", "equivalences"}),
    (("compose", "--left", "l.lts:0", "--right", "l.lts:a"),
     {"structures", "compose"}),
    (("traces", "--model", "l.lts", "--kind", "lts", "--state", "0"),
     {"structures", "graphs", "linear"}),
    (("model-check", "--model", "k.ks", "--formula", "EG p"),
     {"structures", "graphs", "logic"}),
    (("transform", "--op", "eta", "--model", "l.lts"),
     {"structures", "transforms"}),
    (("transform", "--op", "dext", "--model", "k.ks"),
     {"structures", "transforms"}),
])
def test_a_command_runs_only_the_engines_it_uses(models, argv, engines):
    code, executed = _probe(models, *argv)
    assert code == (0 if argv else None)
    assert executed == engines


def test_main_module_runs_without_warnings():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dtk.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: dtk")


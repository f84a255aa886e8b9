"""The package's lazy name table, which engines each command runs,
which module may name the refinement kernel, and that no module needs
the interpreter's teardown."""

import ast
import importlib
import json
import os
import shutil
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
# have run their module body (a lazy placeholder is not a ModuleType),
# which are in sys.modules at all, and every module loaded by the time
# main returned, before the probe imports json itself.
PROBE = """
import contextlib, io, sys, types
from dtk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = sorted(sys.modules)
engines = {n[4:]: type(m) is types.ModuleType for n, m in sys.modules.items()
           if n.startswith("dtk.") and n != "dtk.cli"}
import json
print(json.dumps({"code": code, "engines": engines, "loaded": loaded}))
"""

# modules a command must not load unless a bare interpreter already does
HEAVY = {"dataclasses", "inspect", "json"}


def _run(cwd, *argv):
    done = subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    """What the interpreter loads before it runs any code of dtk."""
    return set(_run(tmp_path_factory.mktemp("bare"), "-c",
                    "import sys; print(*sys.modules)").split())


def _probe(cwd, *argv):
    """The exit code, the engines that ran, and the modules the command
    loaded that a bare interpreter does not."""
    report = json.loads(_run(cwd, "-c", PROBE, *argv))
    assert sorted(report["engines"]) == sorted(ENGINES)
    executed = {name for name, ran in report["engines"].items() if ran}
    return report["code"], executed, set(report["loaded"])


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
def test_a_command_runs_only_the_engines_it_uses(models, bare_modules, argv,
                                                 engines):
    code, executed, loaded = _probe(models, *argv)
    assert code == (0 if argv else None)
    assert executed == engines
    assert not (HEAVY & loaded) - bare_modules


@pytest.mark.parametrize("argv", [
    ("consistency", "--model", "d.l2ts"),
    ("check-equiv", "--model", "l.lts", "--kind", "lts", "--variant", "ed"),
    ("traces", "--model", "l.lts", "--kind", "lts", "--state", "0"),
    ("model-check", "--model", "k.ks", "--formula", "EG p"),
])
def test_only_json_output_loads_json(models, bare_modules, argv):
    assert "json" not in bare_modules
    code, _, loaded = _probe(models, *argv, "--json")
    assert code == 0
    assert "json" in loaded
    assert not {"dataclasses", "inspect"} & loaded - bare_modules


def test_main_module_runs_without_warnings():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dtk.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: dtk")


@pytest.mark.parametrize("argv, expected", [
    (("check-equiv", "--model", "l.lts", "--kind", "lts", "--variant", "ed",
      "--state", "0", "--state", "a"), 1),
    (("compose", "--left", "l.lts:0", "--right", "l.lts:a",
      "-o", "product.lts"), 0),
])
def test_a_command_runs_without_warnings(models, tmp_path, argv, expected):
    # --help leaves through SystemExit, these through cli.run; compose
    # writes beside a copy of the model, not into the shared directory
    shutil.copy(models / "l.lts", tmp_path)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dtk.cli", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (expected, "")


def test_no_module_needs_the_interpreter_teardown():
    # cli.run ends the process with os._exit, which runs no exit handler,
    # no weakref finaliser and no __del__
    for path in Path(dtk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "atexit" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "atexit", path.name
                assert not (node.module == "weakref" and "finalize" in
                            {a.name for a in node.names}), path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "finalize", path.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "__del__", path.name



# the refinement kernel and its observation encoding
KERNEL = {"_block_signatures", "_components", "_colouring_signatures"}


def test_only_equivalences_names_the_refinement_kernel():
    for path in Path(dtk.__file__).parent.glob("*.py"):
        if path.name == "equivalences.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & KERNEL, path.name

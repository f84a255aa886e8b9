"""The names the benchmark looks up in dtk.

``bench/tracing.py`` wraps the functions its ``TRACED`` table names and
``bench/baseline.py`` imports from the package, so renaming one of them
would otherwise first show as a failing benchmark run.  The per-kind
names are aliases of one function each, and ``refinement_history`` is
the list of rounds that ``logic.distinguish`` reads.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import dtk
from dtk import equivalences, structures
from dtk.equivalences import EquivVariant
from tests_helpers import trace_graphs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_is_a_function_of_its_module(monkeypatch):
    # the tracer imports only the standard library; a dataclass needs its
    # module in sys.modules while the class is built
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert "equivalences" in tracing.TRACED
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"dtk.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_every_name_the_baseline_imports_is_exported():
    tree = ast.parse((BENCH / "baseline.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dtk"
             for alias in node.names]
    assert "coarsest_partition_lts" in names
    for name in names:
        assert name in dtk.__all__, name


def test_the_per_kind_names_are_one_function():
    assert (equivalences.coarsest_partition_ks
            is equivalences.coarsest_partition_lts
            is equivalences.coarsest_partition)
    assert structures.render_lts is structures.render_l2ts is structures.render_ks


@settings(max_examples=100, deadline=None)
@given(trace_graphs(), st.sampled_from(list(EquivVariant)))
def test_refinement_history_lists_the_rounds(g, variant):
    assert (equivalences.refinement_history(g, variant)
            == list(equivalences._rounds(g, variant)))

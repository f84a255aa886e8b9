"""Explicit-state toolkit for deadlock-aware temporal equivalences.

Submodules:

* ``structures``    -- state-graph types, text formats, consistency checks
* ``graphs``        -- reachability and strongly connected components
* ``equivalences``  -- partition refinement for the bisimulation family
* ``logic``         -- state-formula ASTs and fixpoint model checking
* ``transforms``    -- structure transformations and formula encodings
* ``compose``       -- interleaving merge and congruence experiments
* ``linear``        -- coloured trace sets and linear-time equivalences
* ``generators``    -- seeded random structures and formulas
* ``figures``       -- the small worked examples used in tests and demos
* ``cli``           -- the ``dtk`` command-line front end

Importing the package runs none of the engines.  Each submodule above
but ``cli`` is registered in ``sys.modules`` with a lazy loader, so its
body runs on first attribute access; ``from dtk import X`` loads only
the module that defines X and what that module imports.
"""

import importlib.util
import sys

# home module -> the names the package re-exports from it
_HOMES = {
    "structures": (
        "ConsistencyReport", "DoublyLabelledTS", "KripkeStructure", "Lts",
        "Path", "TAU", "associated_ks", "associated_lts", "check_consistency",
        "deadlock_states", "disjoint_union_lts", "parse_ks", "parse_l2ts",
        "parse_lts", "render_ks", "render_l2ts", "render_lts"),
    "equivalences": (
        "EquivVariant", "Partition", "check_colouring", "coarsest_partition",
        "coarsest_partition_ks", "coarsest_partition_lts",
        "divergent_states", "equivalent", "oracle_coarsest_partition",
        "refinement_history"),
    "logic": (
        "Semantics", "check", "distinguish", "enumerate_formulas",
        "parse_formula", "render_formula", "sat", "sat_many", "sdelta_eval"),
    "transforms": (
        "deadlock_extension", "encode_D", "encode_E", "eta_midpoint",
        "ks_to_l2ts", "totalize_all_selfloops", "totalize_deadlock_selfloops"),
    "compose": (
        "coarsest_congruence_probe", "congruence_counterexample",
        "congruence_sample", "merge"),
    "linear": (
        "ColouredTrace", "TraceVariant", "complete_traces", "coloured_traces",
        "distinguish_ltl", "eval_path_formula", "interleave_trace_sets",
        "maximal_path_representatives", "trace_equiv"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)

_ENGINES = ("structures", "graphs", "equivalences", "logic", "transforms",
            "compose", "linear", "generators", "figures")


def _register_lazily(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _ENGINES:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

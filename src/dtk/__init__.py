"""Explicit-state toolkit for deadlock-aware temporal equivalences.

Submodules:

* ``structures``    -- state-graph types, text formats, consistency checks
* ``equivalences``  -- partition refinement for the bisimulation family
* ``logic``         -- state-formula ASTs and fixpoint model checking
* ``transforms``    -- structure transformations and formula encodings
* ``compose``       -- interleaving merge and congruence experiments
* ``linear``        -- coloured trace sets and linear-time equivalences
* ``figures``       -- the small worked examples used in tests and demos
* ``cli``           -- the ``dtk`` command-line front end
"""

from .structures import (
    ConsistencyReport,
    DoublyLabelledTS,
    KripkeStructure,
    Lts,
    Path,
    TAU,
    associated_ks,
    associated_lts,
    check_consistency,
    deadlock_states,
    disjoint_union_lts,
    parse_ks,
    parse_l2ts,
    parse_lts,
    render_ks,
    render_l2ts,
    render_lts,
)
from .equivalences import (
    EquivVariant,
    Partition,
    check_colouring,
    coarsest_partition_ks,
    coarsest_partition_lts,
    divergent_states,
    equivalent,
    oracle_coarsest_partition,
    refinement_history,
)
from .logic import (
    Semantics,
    check,
    distinguish,
    enumerate_formulas,
    parse_formula,
    render_formula,
    sat,
    sat_many,
    sdelta_eval,
)
from .transforms import (
    deadlock_extension,
    encode_D,
    encode_E,
    eta_midpoint,
    ks_to_l2ts,
    totalize_all_selfloops,
    totalize_deadlock_selfloops,
)
from .compose import (
    coarsest_congruence_probe,
    congruence_counterexample,
    congruence_sample,
    merge,
)
from .linear import (
    ColouredTrace,
    TraceVariant,
    complete_traces,
    coloured_traces,
    distinguish_ltl,
    eval_path_formula,
    interleave_trace_sets,
    maximal_path_representatives,
    trace_equiv,
)

__all__ = [
    "ColouredTrace",
    "ConsistencyReport",
    "DoublyLabelledTS",
    "EquivVariant",
    "KripkeStructure",
    "Lts",
    "Partition",
    "Path",
    "Semantics",
    "TAU",
    "TraceVariant",
    "associated_ks",
    "associated_lts",
    "check",
    "check_colouring",
    "check_consistency",
    "coarsest_congruence_probe",
    "coarsest_partition_ks",
    "coarsest_partition_lts",
    "coloured_traces",
    "complete_traces",
    "congruence_counterexample",
    "congruence_sample",
    "deadlock_extension",
    "deadlock_states",
    "disjoint_union_lts",
    "distinguish",
    "distinguish_ltl",
    "divergent_states",
    "encode_D",
    "encode_E",
    "enumerate_formulas",
    "equivalent",
    "eta_midpoint",
    "eval_path_formula",
    "interleave_trace_sets",
    "ks_to_l2ts",
    "maximal_path_representatives",
    "merge",
    "oracle_coarsest_partition",
    "parse_formula",
    "parse_ks",
    "parse_l2ts",
    "parse_lts",
    "refinement_history",
    "render_formula",
    "render_ks",
    "render_l2ts",
    "render_lts",
    "sat",
    "sat_many",
    "sdelta_eval",
    "totalize_all_selfloops",
    "totalize_deadlock_selfloops",
    "trace_equiv",
]

"""Spans around calls into dtk's public functions, for the traced run.

``Tracer.install`` wraps the listed functions of each dtk module and
rebinds every module attribute that refers to them, so calls from the
CLI and from one module into another are all recorded.  Spans are kept
in memory; ``layer_metrics`` turns one round's spans into the per-layer
figures.  Nothing is written while the round runs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# module -> public functions that get a span; the layer is the module name
TRACED = {
    "structures": ("parse_ks", "parse_lts", "parse_l2ts", "render_ks",
                   "render_lts", "render_l2ts", "check_consistency"),
    "equivalences": ("coarsest_partition_ks", "coarsest_partition_lts",
                     "refinement_history"),
    "logic": ("parse_formula", "sat", "distinguish"),
    "transforms": ("deadlock_extension", "eta_midpoint", "encode_D"),
    "compose": ("merge",),
    "linear": ("complete_traces",),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str          # module.function
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level


def _formula_nodes(phi) -> int:
    """Distinct nodes of a formula DAG (shared subformulas count once)."""
    seen, stack = set(), [phi]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for attr in ("sub", "lhs", "rhs"):
            if hasattr(f, attr):
                stack.append(getattr(f, attr))
        stack.extend(getattr(f, "items", ()))
    return len(seen)


def _count(name, result, counts):
    """Work counts read off a traced call's result."""
    def add(key, n):
        counts[key] = counts.get(key, 0) + n

    fn = name.split(".", 1)[1]
    if fn.startswith("parse_") and name.startswith("structures"):
        add("structures.transitions", len(result.transitions))
    elif fn == "refinement_history":
        add("equivalences.rounds", len(result) - 1)
    elif fn == "distinguish" and result is not None:
        add("logic.distinguish_nodes", _formula_nodes(result))
    elif fn == "merge":
        add("compose.product_states", len(result[0].states))
        add("compose.product_transitions", len(result[0].transitions))
    elif fn == "complete_traces":
        add("linear.traces", len(result[0]))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}
        self._stack: list[int] = []

    def reset(self):
        self.spans, self.counts, self._stack = [], {}, []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _count(name, result, tracer.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the traced functions in every loaded dtk module."""
        import dtk.cli  # noqa: F401  (loads every module the CLI uses)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dtk" or n.startswith("dtk."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"dtk.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def self_times(self, root=None) -> dict:
        """Self time per span name: span minus its direct children.  With
        ``root``, only spans inside a top-level span of that name count."""
        child = [0.0] * len(self.spans)
        top = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s.parent >= 0:    # a parent is recorded before its children
                child[s.parent] += s.end - s.start
                top[i] = top[s.parent]
        out = {}
        for i, s in enumerate(self.spans):
            if root is None or self.spans[top[i]].name == root:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - child[i])
        return out


def layer_metrics(tracer: Tracer) -> dict:
    """One round's per-layer figures (without cli.startup_s).  They count
    the spans inside ``cli.main``, except ``transforms.encode_s``: no dtk
    command calls encode_D, so that figure times the calls the
    benchmark's set-up makes."""
    st = tracer.self_times("cli.main")
    counts = tracer.counts

    def total(*names):
        return sum(st.get(n, 0.0) for n in names)

    refine = total("equivalences.coarsest_partition_ks",
                   "equivalences.coarsest_partition_lts",
                   "equivalences.refinement_history")
    rounds = counts.get("equivalences.rounds", 0)
    traces_s = total("linear.complete_traces")
    traces = counts.get("linear.traces", 0)
    return {
        "cli.self_s": total("cli.main"),
        "structures.parse_s": total("structures.parse_ks", "structures.parse_lts",
                                    "structures.parse_l2ts"),
        "structures.render_s": total("structures.render_ks",
                                     "structures.render_lts",
                                     "structures.render_l2ts"),
        "structures.transitions": counts.get("structures.transitions", 0),
        "structures.consistency_s": total("structures.check_consistency"),
        "equivalences.refine_s": refine,
        "equivalences.rounds": rounds,
        "equivalences.round_s": refine / rounds if rounds else 0.0,
        "logic.parse_formula_s": total("logic.parse_formula"),
        "logic.sat_s": total("logic.sat"),
        "logic.distinguish_s": total("logic.distinguish"),
        "logic.distinguish_nodes": counts.get("logic.distinguish_nodes", 0),
        "transforms.dext_s": total("transforms.deadlock_extension"),
        "transforms.encode_s": tracer.self_times().get("transforms.encode_D", 0.0),
        "transforms.eta_s": total("transforms.eta_midpoint"),
        "compose.merge_s": total("compose.merge"),
        "compose.product_states": counts.get("compose.product_states", 0),
        "compose.product_transitions": counts.get("compose.product_transitions", 0),
        "linear.traces_s": traces_s,
        "linear.traces": traces,
        "linear.traces_per_s": traces / traces_s if traces_s else 0.0,
    }

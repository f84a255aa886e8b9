"""Structure transformations and the two formula encodings.

Structure side: midpoint insertion (LTS -> doubly labelled system),
Kripke-to-doubly-labelled encoding, the deadlock extension, and the two
self-loop totalisations.  Formula side: the translations between the
infinite-globally fragment and the deadlock-proposition fragment, which
are semantic inverses across the deadlock extension.
"""

from __future__ import annotations

from itertools import chain

from . import logic
from .structures import (
    DELTA_PROP,
    DUMMY_PROP,
    DoublyLabelledTS,
    KripkeStructure,
    Lts,
    StructureError,
    TAU,
    deadlock_states,
    fresh_name,
)


def eta_midpoint(l: Lts):
    """Insert a labelled midpoint along every visible transition.

    Original states keep their identity and share one dummy proposition;
    the midpoint of an ``a``-transition is labelled ``{a}`` and the two
    replacement transitions both carry ``a``.  Silent transitions are
    untouched.  Returns the doubly labelled system.
    """
    dummy = fresh_name(DUMMY_PROP, set(l.actions))
    states = list(l.states)
    taken = set(states)
    # one label object per distinct label: the original states share one,
    # and the midpoints of one action another
    labelling = dict.fromkeys(states, frozenset((dummy,)))
    marks = {}
    trans = []
    for (u, a, v) in l.iter_transitions():
        if a == TAU:
            trans.append((u, a, v))
            continue
        mid = fresh_name(f"m.{u}.{a}.{v}", taken)
        taken.add(mid)
        states.append(mid)
        labelling[mid] = marks.setdefault(a, frozenset((a,)))
        trans.append((u, a, mid))
        trans.append((mid, a, v))
    return DoublyLabelledTS(tuple(states), labelling, tuple(trans))


def _action_for(target_label) -> str:
    return "to_" + ".".join(sorted(target_label))


def ks_to_l2ts(k: KripkeStructure) -> DoublyLabelledTS:
    """Label every step by its target's label set (silent when the label
    does not change).  The result is consistent and projects back to
    ``k`` on the Kripke side."""
    lab = k.labelling
    trans = ((u, TAU if lab[u] == lab[v] else _action_for(lab[v]), v)
             for (u, v) in k.iter_transitions())
    return DoublyLabelledTS(k.states, dict(lab), trans,
                            delta_extended=k.delta_extended)


def deadlock_extension(k: KripkeStructure):
    """Add a fresh sink labelled with the deadlock proposition, looped on
    itself and reachable from every deadlock state.  The result is total
    and flagged, enabling the deadlock proposition in formulas.

    Returns (extended structure, sink id).
    """
    if any(DELTA_PROP in props for props in k.labelling.values()):
        raise StructureError(
            f"input already uses the reserved proposition {DELTA_PROP!r}")
    sink = fresh_name("s_delta", set(k.states))
    states = tuple(k.states) + (sink,)
    labelling = dict(k.labelling)
    labelling[sink] = {DELTA_PROP}
    edges = chain(k.iter_transitions(), ((d, sink) for d in deadlock_states(k)),
                  [(sink, sink)])
    return (KripkeStructure(states, labelling, edges,
                            delta_extended=True), sink)


def totalize_deadlock_selfloops(k: KripkeStructure) -> KripkeStructure:
    """Add a self-loop to every deadlock state.  Maximal-path validity of
    infinity-free formulas is unchanged."""
    edges = chain(k.iter_transitions(), ((d, d) for d in deadlock_states(k)))
    return KripkeStructure(k.states, dict(k.labelling), edges,
                           delta_extended=k.delta_extended)


def totalize_all_selfloops(k: KripkeStructure) -> KripkeStructure:
    """Add a self-loop to every state.  Divergence-blind validity on the
    input matches maximal-path validity on the result, and the blind
    stuttering partition becomes the sensitive one."""
    edges = chain(k.iter_transitions(), ((s, s) for s in k.states))
    return KripkeStructure(k.states, dict(k.labelling), edges,
                           delta_extended=k.delta_extended)


# ---------------------------------------------------------------------------
# Formula encodings
# ---------------------------------------------------------------------------

def encode_D(phi):
    """Translate an infinity formula for evaluation on the deadlock
    extension: truth at a state of the original structure equals truth of
    the image at the same state of the extension.

    Negations pick up a "not deadlocked" guard; an infinite-globally
    becomes a globally confined to non-sink states.  Plain globally goes
    through the maximal-path identity EG phi = EGinf phi | E(phi U AG phi).
    """
    not_delta = logic.Not(logic.Prop(DELTA_PROP))

    def neg(image):     # the image of ~phi from the image of phi
        return logic.And((not_delta, logic.Not(image)))

    def visit(f, kids):
        match f:
            case logic.Prop(name):
                if name == DELTA_PROP:
                    raise logic.FormulaError(
                        f"input may not mention {DELTA_PROP!r}")
                return f
            case logic.Not():
                return neg(kids[0])
            case logic.And():
                return logic.And(kids)
            case logic.ExistsUntil():
                return logic.ExistsUntil(*kids)
        inf = logic.ExistsG(logic.And((not_delta, kids[0])))
        if isinstance(f, logic.ExistsGInf):
            return inf
        all_g = neg(logic.ExistsUntil(logic.TRUE, neg(kids[0])))
        return neg(logic.And((neg(inf), neg(logic.ExistsUntil(kids[0], all_g)))))

    return logic._fold(phi, visit)


def encode_E(phi):
    """Translate a deadlock-proposition formula back: truth at a non-sink
    state of the extension equals truth of the image at the same state of
    the original structure.

    Until and globally branch on whether their relevant subformula holds
    at the sink; when it does, paths that deadlock in the original
    structure may also serve as witnesses.  The fold carries each
    subformula's image and its truth at the sink.
    """
    def visit(f, kids):
        images = [image for image, _ in kids]
        at_sink = logic._at_sink(f, [holds for _, holds in kids])
        match f:
            case logic.Prop(name):
                return (logic.FALSE if name == DELTA_PROP else f), at_sink
            case logic.Not():
                return logic.Not(images[0]), at_sink
            case logic.And():
                return logic.And(images), at_sink
            case logic.ExistsUntil():
                lhs, rhs = images
                image = logic.ExistsUntil(lhs, rhs)
                if at_sink:
                    # rhs holds at the sink, so the witness point may be
                    # the sink: the original path then runs through
                    # lhs-states into a deadlock
                    stuck = logic.And((logic.Not(logic.ExistsGInf(logic.TRUE)),
                                       logic.ExistsG(lhs)))
                    image = logic.Or(image, logic.ExistsUntil(lhs, stuck))
                return image, at_sink
        # the extension is total, so an infinite witness is any maximal
        # witness: EGinf and EG encode alike
        kind = logic.ExistsG if at_sink else logic.ExistsGInf
        return kind(images[0]), at_sink

    return logic._fold(phi, visit)[0]

"""Value semantics of the toolkit's immutable types (``structures.Value``):
field-wise equality and hashing within one type, ``Name(field=value)``
reprs, refused assignment, class patterns, keyword construction with
defaults, and copies."""

import copy
import pickle

import pytest

from dtk.compose import CounterexampleReport, ProbeReport, SampleReport
from dtk.equivalences import EquivVariant, Partition
from dtk.linear import (
    ColouredTrace, LtlWitness, PAnd, PInfinity, PNot, PProp, PUntil,
    TraceVerdict)
from dtk.logic import (
    And, ExistsG, ExistsGInf, ExistsUntil, Not, Prop, parse_formula)
from dtk.structures import (
    ConsistencyReport, DoublyLabelledTS, KripkeStructure, Lts, Path,
    StateIndex, StructureError)

P, Q = Prop("p"), Prop("q")


def _ks():
    return KripkeStructure(("a", "b"), {"a": {"p"}}, (("a", "b"),))


def test_reprs_name_every_field():
    assert repr(And((P, Not(Q)))) == \
        "And(items=(Prop(name='p'), Not(sub=Prop(name='q'))))"
    assert repr(ExistsUntil(P, ExistsGInf(Q))) == (
        "ExistsUntil(lhs=Prop(name='p'), "
        "rhs=ExistsGInf(sub=Prop(name='q')))")
    assert repr(PUntil(PProp("p"), PNot(PInfinity()))) == \
        "PUntil(lhs=PProp(name='p'), rhs=PNot(sub=PInfinity()))"
    assert repr(PAnd(())) == "PAnd(items=())"
    assert repr(_ks()) == (
        "KripkeStructure(states=('a', 'b'), labelling={'a': frozenset({'p'}),"
        " 'b': frozenset()}, transitions=(('a', 'b'),), delta_extended=False)")
    assert repr(Lts(("x",), (), ())) == \
        "Lts(states=('x',), actions=('tau',), transitions=())"
    assert repr(Path("lasso", ["a"], ["b"])) == \
        "Path(kind='lasso', stem=('a',), cycle=('b',))"
    assert repr(Partition({"a": 0})) == "Partition(block_of={'a': 0})"
    assert repr(ColouredTrace(["*"], "deadlock")) == \
        "ColouredTrace(items=('*',), end='deadlock', cycle=())"
    assert repr(TraceVerdict(False, True, ("s", ()))) == \
        "TraceVerdict(equal=False, exact=True, witness=('s', ()))"
    assert repr(ConsistencyReport(True, ())) == \
        "ConsistencyReport(consistent=True, violations=())"
    assert repr(StateIndex({}, [], ["tau"], [])) == (
        "StateIndex(number={}, succ=[], actions=['tau'], sources=[])")
    assert repr(LtlWitness(PInfinity(), "s", "t")) == \
        "LtlWitness(formula=PInfinity(), holds_from='s', fails_from='t')"
    assert repr(SampleReport(EquivVariant.EXPLICIT_DIVERGENCE, 1, 1, (), 7)) \
        == ("SampleReport(variant=<EquivVariant.EXPLICIT_DIVERGENCE: 'ed'>, "
            "trials=1, passed=1, failures=(), seed=7)")


def test_equality_and_hash_follow_type_and_fields():
    assert Not(P) == Not(Prop("p")) and hash(Not(P)) == hash(Not(Prop("p")))
    assert And([P, Q]) == And((P, Q))
    # the same fields in another type are another value
    assert Not(P) != ExistsG(P) != ExistsGInf(P)
    assert PNot(PProp("p")) != Not(P)
    assert Prop("p") != "p" and PInfinity() == PInfinity()
    assert len({Not(P), ExistsG(P), ExistsGInf(P), Not(Prop("p"))}) == 3
    assert _ks() == _ks() and _ks() != DoublyLabelledTS(
        ("a", "b"), {"a": {"p"}}, (("a", "tau", "b"),))
    assert (ColouredTrace(("a", "b"), "lasso", ("b",))
            != ColouredTrace(("a", "b"), "open"))
    assert len({TraceVerdict(True, True), TraceVerdict(True, True)}) == 1
    assert (CounterexampleReport(True, False, True, False)
            == CounterexampleReport(True, False, True, False))
    assert ProbeReport(True, (), "f", True) != ProbeReport(True, (), "g", True)


def test_fields_cannot_be_assigned_or_deleted():
    k = _ks()
    for value, field in ((Not(P), "sub"), (k, "states"), (k, "other"),
                         (ColouredTrace((), "open"), "end"),
                         (Partition({}), "block_of"), (PInfinity(), "x")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    assert k.states == ("a", "b")


def test_class_patterns_bind_fields_in_order():
    match ExistsUntil(P, Q):
        case ExistsUntil(lhs, rhs):
            assert (lhs, rhs) == (P, Q)
    match Not(P):
        case ExistsG(_):
            pytest.fail("a negation is not a globally formula")
        case Not(Prop(name)):
            assert name == "p"
    match ColouredTrace(("a", "b"), "lasso", ("b",)):
        case ColouredTrace(items, "lasso", cycle):
            assert (items, cycle) == (("a", "b"), ("b",))
    match _ks():
        case KripkeStructure(states, _, transitions, extended):
            assert states == ("a", "b") and not extended
    match PInfinity():
        case PInfinity():
            pass
        case _:
            pytest.fail("PInfinity() must match its class")


def test_keyword_construction_and_defaults():
    k = KripkeStructure(states=["a", "a", "b"], labelling={},
                        transitions=[("a", "b"), ("a", "b")])
    assert (k.states, k.transitions, k.delta_extended) == (
        ("a", "b"), (("a", "b"),), False)
    assert k.labelling == {"a": frozenset(), "b": frozenset()}
    d = DoublyLabelledTS(states=("s",), labelling={"s": ["delta"]},
                         transitions=(), delta_extended=True)
    assert d.delta_extended and d.labelling["s"] == {"delta"}
    with pytest.raises(StructureError, match="reserved"):
        DoublyLabelledTS(("s",), {"s": ["delta"]}, ())
    assert Lts(states=("s",), actions=("a",), transitions=()).actions == \
        ("tau", "a")
    path = Path(kind="finite", stem=["a", "b"])
    assert path.cycle == () and path.stem == ("a", "b")
    assert TraceVerdict(equal=True, exact=False).witness == ()
    assert not TraceVerdict(equal=False, exact=True)
    assert ColouredTrace(items=["*"], end="prefix").cycle == ()
    with pytest.raises(ValueError, match="bad end marker"):
        ColouredTrace(("*",), "nowhere")



def test_the_shared_constructor_takes_each_field_once():
    # types without their own __init__ take fields by position or name
    report = CounterexampleReport(True, False, products_db_equivalent=True,
                                  components_ed_equivalent=False)
    assert report == CounterexampleReport(True, False, True, False)
    assert Partition(block_of={}) == Partition({})
    assert PInfinity().__dict__ == {}
    for args, kwargs in (((True,), {}), ((True, ()), {"consistent": True}),
                         ((True, (), 1), {}), ((True,), {"other": ()})):
        with pytest.raises(TypeError):
            ConsistencyReport(*args, **kwargs)
    with pytest.raises(TypeError):
        PInfinity(1)


def test_copies_are_equal_values():
    phi = parse_formula("E (p U ~EG q) & EGinf (p | q)")
    for value in (phi, _ks(), Path("lasso", ("a",), ("b",)),
                  ColouredTrace(("*", "a", "*"), "lasso", ("a", "*")),
                  TraceVerdict(True, True), PInfinity()):
        for twin in (copy.deepcopy(value), copy.copy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == repr(value)
    k = _ks()
    assert k.index is k.index       # built once, with the structure
    twin = copy.deepcopy(k)
    assert twin.index.succ == [[(0, 1)], []]
    assert twin.transitions == (("a", "b"),)

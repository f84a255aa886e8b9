"""Acceptance suite: one test per criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they print.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from dtk import figures
from dtk.cli import main as cli_main
from dtk.compose import (
    coarsest_congruence_probe,
    congruence_counterexample,
    merge,
)
from dtk.equivalences import (
    EquivVariant,
    coarsest_partition_ks,
    coarsest_partition_lts,
    meet,
    oracle_coarsest_partition,
)
from dtk.generators import (
    random_acyclic_lts,
    random_formula,
    random_ks,
    random_lts,
)
from dtk.linear import (
    DEADLOCK,
    DIVERGENCE,
    PInfinity,
    TraceVariant,
    complete_traces,
    eval_path_formula,
    interleave_trace_sets,
    prefix_closure,
    trace_actions,
    trace_equiv,
)
from dtk.logic import (
    Semantics,
    check,
    distinguish,
    enumerate_formulas,
    parse_formula,
    sat_many,
    semantics_for_variant,
)
from dtk.structures import (
    KripkeStructure,
    Path,
    deadlock_states,
    parse_ks,
    render_ks,
    render_l2ts,
    render_lts,
)
from dtk.transforms import (
    deadlock_extension,
    encode_D,
    encode_E,
    eta_midpoint,
    ks_to_l2ts,
)

DB = EquivVariant.DIVERGENCE_BLIND
DS = EquivVariant.DIVERGENCE_SENSITIVE
ED = EquivVariant.EXPLICIT_DIVERGENCE
MAX = Semantics.MAXIMAL_PATH
BLIND = Semantics.DIVERGENCE_BLIND


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


def blocks_of(partition):
    return {frozenset(b) for b in partition.blocks}


def _refines(fine, coarse):
    return all(
        coarse.same_block(s, t)
        for b in fine.blocks
        for s, t in itertools.combinations(sorted(b), 2))


def _criterion4_instances():
    """Fixed-seed instance streams shared by criteria 4, 5 and 6."""
    rng_l = random.Random(20240)
    rng_k = random.Random(20241)
    ltss = [random_lts(rng_l, max_states=6, actions=("a", "b"))
            for _ in range(200)]
    kss = [random_ks(rng_k, max_states=6, props=("p", "q"))
           for _ in range(200)]
    return ltss, kss


def test_criterion_01_stuttering_figure():
    with criterion(1, "stuttering example: partitions and EG check"):
        start = time.monotonic()
        k = figures.stuttering_example_ks()
        assert blocks_of(coarsest_partition_ks(k, DB)) == {
            frozenset("stu"), frozenset("xy")}
        assert blocks_of(coarsest_partition_ks(k, DS)) == {
            frozenset("s"), frozenset("t"), frozenset("u"), frozenset("xy")}
        phi = parse_formula("EG p")
        assert check(k, "t", phi, MAX) is True
        assert check(k, "u", phi, MAX) is False
        assert time.monotonic() - start < 1.0


def test_criterion_02_branching_figure():
    with criterion(2, "branching example: three partitions"):
        start = time.monotonic()
        l = figures.branching_example_lts()
        assert blocks_of(coarsest_partition_lts(l, DB)) == {
            frozenset("stuv"), frozenset("xyz")}
        assert blocks_of(coarsest_partition_lts(l, DS)) == {
            frozenset("s"), frozenset("t"), frozenset("uv"),
            frozenset("xyz")}
        assert blocks_of(coarsest_partition_lts(l, ED)) == {
            frozenset("s"), frozenset("t"), frozenset("u"), frozenset("v"),
            frozenset("xy"), frozenset("z")}
        assert time.monotonic() - start < 1.0


def test_criterion_03_congruence_counterexample():
    with criterion(3, "merge counterexample: four verdicts"):
        report = congruence_counterexample()
        assert report.components_ds_equivalent is True
        assert report.products_ds_equivalent is False
        assert report.products_db_equivalent is True
        assert report.components_ed_equivalent is False


def test_criterion_04_oracle_agreement():
    with criterion(4, "oracle agreement on 200+200 systems, 3 variants"):
        start = time.monotonic()
        ltss, kss = _criterion4_instances()
        mismatches = 0
        for l in ltss:
            for v in (DB, DS, ED):
                if oracle_coarsest_partition(l, v) != coarsest_partition_lts(l, v):
                    mismatches += 1
        for k in kss:
            for v in (DB, DS, ED):
                if oracle_coarsest_partition(k, v) != coarsest_partition_ks(k, v):
                    mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_05_chain_and_coincidence():
    with criterion(5, "refinement chain and deadlock-free coincidence"):
        ltss, kss = _criterion4_instances()
        for l in ltss:
            p_db = coarsest_partition_lts(l, DB)
            p_ds = coarsest_partition_lts(l, DS)
            p_ed = coarsest_partition_lts(l, ED)
            assert _refines(p_ed, p_ds) and _refines(p_ds, p_db)
            if not deadlock_states(l):
                assert p_ds == p_ed
        for k in kss:
            p_db = coarsest_partition_ks(k, DB)
            p_ds = coarsest_partition_ks(k, DS)
            p_ed = coarsest_partition_ks(k, ED)
            assert _refines(p_ed, p_ds) and _refines(p_ds, p_db)
            if not deadlock_states(k):
                assert p_ds == p_ed


def test_criterion_06_modal_characterisation():
    with criterion(6, "class closure and verified distinguishing formulas"):
        _, kss = _criterion4_instances()
        formulas_max = enumerate_formulas(("p", "q"), 2, 500)
        formulas_db = enumerate_formulas(("p", "q"), 2, 500,
                                         include_infinity=False)
        violations = 0
        for k in kss:
            p_ed = coarsest_partition_ks(k, ED)
            p_db = coarsest_partition_ks(k, DB)
            for got in sat_many(k, formulas_max, MAX):
                if not all(b <= got or not (b & got) for b in p_ed.blocks):
                    violations += 1
            for got in sat_many(k, formulas_db, BLIND):
                if not all(b <= got or not (b & got) for b in p_db.blocks):
                    violations += 1
        assert violations == 0

        pairs_done = {DB: 0, DS: 0, ED: 0}
        for k in kss:
            if all(n >= 50 for n in pairs_done.values()):
                break
            parts = {v: coarsest_partition_ks(k, v) for v in pairs_done}
            for v, part in parts.items():
                sem = semantics_for_variant(v)
                for s, t in itertools.combinations(k.states, 2):
                    if part.same_block(s, t):
                        continue
                    phi = distinguish(k, s, t, v)
                    assert phi is not None
                    assert check(k, s, phi, sem) is True
                    assert check(k, t, phi, sem) is False
                    pairs_done[v] += 1
        assert all(n >= 50 for n in pairs_done.values())


def test_criterion_07_deadlock_extension_theorems():
    with criterion(7, "extension: partitions, encodings, deadlock/livelock"):
        rng = random.Random(20242)
        for _ in range(100):
            k = random_ks(rng, max_states=6)
            d, sink = deadlock_extension(k)
            assert (coarsest_partition_ks(d, ED).restrict(k.states)
                    == coarsest_partition_ks(k, ED))
            assert frozenset({sink}) in blocks_of(coarsest_partition_ks(d, ED))

        rng = random.Random(20243)
        checked = 0
        while checked < 200:
            k = random_ks(rng, max_states=5)
            d, _ = deadlock_extension(k)
            phi = random_formula(rng, depth=2)
            img = encode_D(phi)
            for s in k.states:
                assert check(k, s, phi, MAX) == check(d, s, img, MAX)
                checked += 1

        rng = random.Random(20244)
        checked = 0
        while checked < 200:
            k = random_ks(rng, max_states=5)
            d, _ = deadlock_extension(k)
            phi = random_formula(rng, depth=2, include_delta=True,
                                 include_infinity=False)
            img = encode_E(phi)
            for s in k.states:
                assert check(d, s, phi, MAX) == check(k, s, img, MAX)
                checked += 1

        k = figures.deadlock_livelock_ks()
        assert coarsest_partition_ks(k, DS).same_block("d", "l")
        d, _ = deadlock_extension(k)
        assert not coarsest_partition_ks(d, DB).same_block("d", "l")


def test_criterion_08_l2ts_agreement():
    with criterion(8, "label-refined agreement on consistent L2TSs"):
        from dtk.equivalences import Partition
        rng = random.Random(20245)
        for i in range(100):
            if i % 2 == 0:
                d = ks_to_l2ts(random_ks(rng, max_states=5))
            else:
                d = eta_midpoint(random_lts(rng, max_states=4))
            from dtk.structures import associated_ks, associated_lts
            ks, lts = associated_ks(d), associated_lts(d)
            groups = {}
            for s in d.states:
                groups.setdefault(d.labelling[s], []).append(s)
            label_part = Partition.from_blocks(groups.values(), d.states)
            for ks_variant, lts_variant in ((DB, DB), (DS, DS)):
                ks_part = coarsest_partition_ks(ks, ks_variant)
                lts_part = meet(coarsest_partition_lts(lts, lts_variant),
                                label_part)
                assert ks_part == lts_part


def test_criterion_09_linear_time_suite():
    with criterion(9, "trace verdicts, merge equations, stuttering, probe"):
        start = time.monotonic()

        l = figures.deadlock_merge_example_lts()
        assert trace_equiv(l, "0", "Delta0", TraceVariant.COMPLETE).equal
        assert trace_equiv(l, "0", "Delta0", TraceVariant.COMPLETE).exact
        dd = trace_equiv(l, "0", "Delta0", TraceVariant.WITH_DEADLOCK)
        assert not dd.equal
        dead_prod, dead_root = merge(l, "0", l, "a")
        live_prod, live_root = merge(l, "Delta0", l, "a")
        dead_traces, ok1 = complete_traces(dead_prod, dead_root, "trivial", 3)
        live_traces, ok2 = complete_traces(live_prod, live_root, "trivial", 3)
        assert ok1 and ok2
        assert {(t.items, t.end) for t in dead_traces} == {
            (("*", "a", "*"), DEADLOCK)}
        assert {(t.items, t.end) for t in live_traces} == {
            (("*",), DIVERGENCE), (("*", "a", "*"), DIVERGENCE)}

        rng = random.Random(20246)
        for _ in range(50):
            l1 = random_acyclic_lts(rng, max_states=3)
            l2 = random_acyclic_lts(rng, max_states=3)
            s, t = l1.states[0], l2.states[0]
            prod, root = merge(l1, s, l2, t)
            prod_traces, ok = complete_traces(prod, root, "trivial", 10)
            assert ok
            a_traces, ok_a = complete_traces(l1, s, "trivial", 10)
            b_traces, ok_b = complete_traces(l2, t, "trivial", 10)
            assert ok_a and ok_b
            lhs_complete = {tr for tr in prod_traces
                            if tr.end in (DEADLOCK, DIVERGENCE)}
            a_div = {tr for tr in a_traces if tr.end == DIVERGENCE}
            b_div = {tr for tr in b_traces if tr.end == DIVERGENCE}
            div_part = (
                interleave_trace_sets(a_div, prefix_closure(b_traces))
                | interleave_trace_sets(prefix_closure(a_traces), b_div))
            assert lhs_complete == (interleave_trace_sets(a_traces, b_traces)
                                    | div_part)
            lhs_div = {tr.items for tr in prod_traces
                       if tr.end == DIVERGENCE}
            assert lhs_div == {tr.items for tr in div_part
                               if tr.end == DIVERGENCE}
            lhs_all = {trace_actions(tr)
                       for tr in prefix_closure(prod_traces)}
            rhs_all = {trace_actions(tr) for tr in interleave_trace_sets(
                prefix_closure(a_traces), prefix_closure(b_traces))}
            assert lhs_all == rhs_all

        from tests_helpers import random_lasso_ks, random_path_formula
        rng = random.Random(20247)
        for _ in range(500):
            k, path = random_lasso_ks(rng)
            psi = random_path_formula(rng, ["p", "q"], rng.randint(1, 3))
            before = eval_path_formula(k, psi, path)
            i = rng.randrange(len(path.stem))
            dup = path.stem[:i] + (path.stem[i],) + path.stem[i:]
            k2 = KripkeStructure(
                k.states, dict(k.labelling),
                tuple(k.transitions) + ((path.stem[i], path.stem[i]),))
            assert before == eval_path_formula(
                k2, psi, Path("lasso", dup, path.cycle))

        rng = random.Random(20248)
        for _ in range(100):
            l = random_lts(rng, max_states=4)
            s, t = rng.choice(l.states), rng.choice(l.states)
            assert coarsest_congruence_probe(l, s, t).biconditional_holds

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"linear suite took {elapsed:.1f}s"


def _ks_isomorphic(k1: KripkeStructure, k2: KripkeStructure) -> bool:
    if len(k1.states) != len(k2.states):
        return False
    if len(k1.transitions) != len(k2.transitions):
        return False
    for perm in itertools.permutations(k2.states):
        mapping = dict(zip(k1.states, perm))
        if all(k1.labelling[s] == k2.labelling[mapping[s]]
               for s in k1.states) and \
           {(mapping[u], mapping[v]) for (u, v) in k1.transitions} \
           == set(k2.transitions):
            return True
    return False


def test_criterion_10_cli_reproduction(tmp_path, capsys):
    with criterion(10, "CLI: consistency verdicts and deadlock extension"):
        d1, d2, d3 = figures.inconsistent_l2ts_examples()
        for d, cond in ((d1, "i"), (d2, "ii"), (d3, "iii")):
            path = tmp_path / f"fig3_{cond}.l2ts"
            path.write_text(render_l2ts(d))
            code = cli_main(["consistency", "--model", str(path)])
            out = capsys.readouterr().out
            assert code == 1
            assert f"violation ({cond})" in out
        good = tmp_path / "fig3_good.l2ts"
        good.write_text(render_l2ts(figures.consistent_l2ts_example()))
        code = cli_main(["consistency", "--model", str(good)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "consistent"

        src = tmp_path / "fig5.ks"
        src.write_text(render_ks(figures.deadlock_extension_example_ks()))
        out_path = tmp_path / "fig5_dext.ks"
        code = cli_main(["transform", "--op", "dext", "--model", str(src),
                         "-o", str(out_path)])
        assert code == 0
        got = parse_ks(out_path.read_text(), allow_delta=True)
        expected = KripkeStructure(
            ("p", "q", "r", "sink"),
            {"p": {"p"}, "q": {"q"}, "r": {"r"}, "sink": {"delta"}},
            (("p", "p"), ("p", "q"), ("p", "r"),
             ("q", "sink"), ("r", "sink"), ("sink", "sink")),
            delta_extended=True)
        assert _ks_isomorphic(got, expected)

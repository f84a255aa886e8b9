import json

import pytest

from dtk import figures, logic
from dtk.cli import main
from dtk.structures import (
    parse_ks,
    parse_l2ts,
    parse_lts,
    render_ks,
    render_l2ts,
    render_lts,
)
from dtk.transforms import ks_to_l2ts


@pytest.fixture
def stutter_ks(tmp_path):
    path = tmp_path / "stutter.ks"
    path.write_text(render_ks(figures.stuttering_example_ks()))
    return str(path)


@pytest.fixture
def branching_lts(tmp_path):
    path = tmp_path / "branching.lts"
    path.write_text(render_lts(figures.branching_example_lts()))
    return str(path)


@pytest.fixture
def merge_lts(tmp_path):
    path = tmp_path / "merge.lts"
    path.write_text(render_lts(figures.deadlock_merge_example_lts()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equiv_partition_output(capsys, branching_lts):
    code, out, _ = run(capsys, "check-equiv", "--model", branching_lts,
                       "--kind", "lts", "--variant", "ed")
    assert code == 0
    blocks = {frozenset(line.split()) for line in out.strip().splitlines()}
    assert blocks == {
        frozenset("s"), frozenset("t"), frozenset("u"), frozenset("v"),
        frozenset({"x", "y"}), frozenset("z")}


def test_check_equiv_pair_exit_codes(capsys, branching_lts):
    code, out, _ = run(capsys, "check-equiv", "--model", branching_lts,
                       "--kind", "lts", "--variant", "db",
                       "--state", "s", "--state", "t")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "check-equiv", "--model", branching_lts,
                       "--kind", "lts", "--variant", "ed",
                       "--state", "s", "--state", "t")
    assert code == 1 and out.strip() == "distinguished"


def test_check_equiv_oracle_agrees(capsys, branching_lts):
    code, _, err = run(capsys, "check-equiv", "--model", branching_lts,
                       "--kind", "lts", "--variant", "ds", "--oracle")
    assert code == 0 and err == ""


def test_check_equiv_oracle_sweep_on_generated_files(capsys, tmp_path):
    import random

    from dtk.generators import random_lts

    rng = random.Random(990)
    for i in range(50):
        l = random_lts(rng, max_states=5)
        path = tmp_path / f"gen{i}.lts"
        path.write_text(render_lts(l))
        code, _, err = run(capsys, "check-equiv", "--model", str(path),
                           "--kind", "lts", "--variant", "ed", "--oracle")
        assert code == 0 and err == ""


def test_check_equiv_single_block_single_state(capsys, tmp_path):
    path = tmp_path / "one.lts"
    path.write_text("state only\n")
    code, out, _ = run(capsys, "check-equiv", "--model", str(path),
                       "--kind", "lts", "--variant", "ed")
    assert code == 0
    assert out.strip() == "only"


def test_check_equiv_json_envelope(capsys, branching_lts):
    code, out, _ = run(capsys, "check-equiv", "--model", branching_lts,
                       "--kind", "lts", "--variant", "db", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == 1
    assert data["command"] == "check-equiv"
    assert sorted(map(sorted, data["result"]["blocks"]))


def test_model_check_state_and_set(capsys, stutter_ks):
    code, out, _ = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", "EG p", "--semantics", "max",
                       "--state", "t")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", "EG p", "--semantics", "max",
                       "--state", "u")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", "true")
    assert code == 0 and out.split() == ["s", "t", "u", "x", "y"]


def test_model_check_bad_formula_exits_2(capsys, stutter_ks):
    code, _, err = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", "EG (p")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "model-check", "--model", stutter_ks,
                         "--formula", ")")
    assert (code, out) == (2, "")
    assert err.strip() == "error: unexpected ')' at position 0"


def test_distinguish_pipeline_into_model_check(capsys, stutter_ks):
    code, out, _ = run(capsys, "distinguish", "--model", stutter_ks,
                       "--variant", "ds", "--state-a", "t", "--state-b", "u")
    assert code == 1
    formula = out.strip()
    code, out, _ = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", formula, "--state", "t")
    assert code == 0
    code, out, _ = run(capsys, "model-check", "--model", stutter_ks,
                       "--formula", formula, "--state", "u")
    assert code == 1


def test_distinguish_equivalent_pair(capsys, stutter_ks):
    code, out, _ = run(capsys, "distinguish", "--model", stutter_ks,
                       "--variant", "db", "--state-a", "t", "--state-b", "u")
    assert code == 0 and out.strip() == "equivalent"


def test_transform_dext_output_reparses(capsys, tmp_path):
    src = tmp_path / "dl.ks"
    src.write_text(render_ks(figures.deadlock_extension_example_ks()))
    out_path = tmp_path / "dext.ks"
    code, _, _ = run(capsys, "transform", "--op", "dext",
                     "--model", str(src), "-o", str(out_path))
    assert code == 0
    extended = parse_ks(out_path.read_text(), allow_delta=True)
    assert extended.delta_extended
    assert len(extended.states) == 4


def test_transform_eta_and_consistency_roundtrip(capsys, merge_lts, tmp_path):
    out_path = tmp_path / "eta.l2ts"
    code, _, _ = run(capsys, "transform", "--op", "eta",
                     "--model", merge_lts, "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "consistency", "--model", str(out_path))
    assert code == 0 and out.strip() == "consistent"


def test_consistency_detects_violations(capsys, tmp_path):
    d1, d2, d3 = figures.inconsistent_l2ts_examples()
    for d, cond in ((d1, "i"), (d2, "ii"), (d3, "iii")):
        path = tmp_path / f"bad_{cond}.l2ts"
        path.write_text(render_l2ts(d))
        code, out, _ = run(capsys, "consistency", "--model", str(path))
        assert code == 1
        assert f"violation ({cond})" in out
    good = tmp_path / "good.l2ts"
    good.write_text(render_l2ts(figures.consistent_l2ts_example()))
    code, out, _ = run(capsys, "consistency", "--model", str(good))
    assert code == 0 and out.strip() == "consistent"


def test_compose_output_reparses_and_checks(capsys, merge_lts, tmp_path):
    out_path = tmp_path / "product.lts"
    code, _, _ = run(capsys, "compose",
                     "--left", f"{merge_lts}:0",
                     "--right", f"{merge_lts}:a",
                     "-o", str(out_path))
    assert code == 0
    product = parse_lts(out_path.read_text())
    assert len(product.states) == 2
    assert len(product.transitions) == 1


def test_traces_markers(capsys, merge_lts, tmp_path):
    code, out, _ = run(capsys, "traces", "--model", merge_lts,
                       "--kind", "lts", "--state", "Delta0")
    assert code == 0
    assert out.strip() == "~"
    code, out, _ = run(capsys, "traces", "--model", merge_lts,
                       "--kind", "lts", "--state", "a")
    assert code == 0
    assert out.strip() == "a ."


def test_traces_bound_env_override(capsys, tmp_path, monkeypatch):
    path = tmp_path / "loop.lts"
    path.write_text("state a\ntrans a x a\n")
    monkeypatch.setenv("DTK_TRACE_BOUND", "1")
    code, out, _ = run(capsys, "traces", "--model", str(path),
                       "--kind", "lts", "--state", "a")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.endswith("?") for line in lines)
    assert any("@cycle(" in line for line in lines)


def test_traces_ks_colours(capsys, stutter_ks):
    code, out, _ = run(capsys, "traces", "--model", stutter_ks,
                       "--kind", "ks", "--state", "t")
    assert code == 0
    lines = set(out.strip().splitlines())
    assert lines == {"{p} ~", "{p} {q} ."}


def test_unknown_state_exits_2(capsys, merge_lts):
    code, _, err = run(capsys, "traces", "--model", merge_lts,
                       "--kind", "lts", "--state", "zz")
    assert code == 2 and "error" in err


def test_check_equiv_checks_states_before_the_oracle(capsys, tmp_path):
    # nine states: past the oracle's bound, so a late check would report that
    path = tmp_path / "nine.lts"
    path.write_text("".join(f"state s{i}\n" for i in range(9)))
    code, _, err = run(capsys, "check-equiv", "--model", str(path),
                       "--kind", "lts", "--variant", "ed", "--oracle",
                       "--state", "nope", "--state", "s0")
    assert code == 2
    assert err.strip() == "error: unknown state 'nope'"


def test_internal_errors_exit_2(capsys, stutter_ks, monkeypatch):
    # a crash must not read as a verdict (exit 1)
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(logic, "sat", crash)
    code, out, err = run(capsys, "model-check", "--model", stutter_ks,
                         "--formula", "p", "--state", "s")
    assert (code, out) == (2, "")
    assert err.strip() == "error: internal error: RuntimeError"


@pytest.mark.parametrize("formula", ["~" * 3000 + "p",
                                     "(" * 3000 + "p" + ")" * 3000])
def test_deeply_nested_formulas(capsys, stutter_ks, formula):
    # deeper than Python's recursion limit: parser and evaluator loop
    code, out, err = run(capsys, "model-check", "--model", stutter_ks,
                         "--formula", formula, "--state", "s")
    assert (code, out, err) == (0, "true\n", "")


def test_traces_of_a_long_tau_chain(capsys, tmp_path):
    # deeper than Python's recursion limit: the search keeps its own stack
    n = 3000
    chain = tmp_path / "chain.lts"
    chain.write_text("".join(f"state h{i}\n" for i in range(n)) + "".join(
        f"trans h{i} tau h{i + 1}\n" for i in range(n - 1)))
    argv = ("traces", "--model", str(chain), "--kind", "lts",
            "--state", "h0", "--bound", "4")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, ".\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"version": 1, "command": "traces",
                               "result": {"traces": ["."], "exhausted": True}}


def test_ks2l2ts_round_trip_via_files(capsys, stutter_ks, tmp_path):
    out_path = tmp_path / "enc.l2ts"
    code, _, _ = run(capsys, "transform", "--op", "ks2l2ts",
                     "--model", stutter_ks, "-o", str(out_path))
    assert code == 0
    parsed = parse_l2ts(out_path.read_text())
    assert parsed == ks_to_l2ts(figures.stuttering_example_ks())


@pytest.mark.parametrize("command", ["transform", "compose"])
def test_unwritable_output_exits_2(capsys, stutter_ks, merge_lts, tmp_path,
                                   command):
    target = str(tmp_path / "missing" / "out.txt")
    if command == "transform":
        argv = ("transform", "--op", "dext", "--model", stutter_ks)
    else:
        argv = ("compose", "--left", f"{merge_lts}:0",
                "--right", f"{merge_lts}:a")
    code, out, err = run(capsys, *argv, "-o", target)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "internal error" not in err

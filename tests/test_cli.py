import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtk
from dtk import figures, logic
from dtk.cli import _file_lines, _load_model, main
from dtk.equivalences import EquivVariant, coarsest_partition_lts
from dtk.generators import random_lts
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


def test_check_equiv_prints_sorted_members_in_canonical_block_order(
        capsys, tmp_path):
    import random

    l = random_lts(random.Random(17), max_states=60, edge_bias=0.04,
                   actions=("a", "b", "c", "d"))
    path = tmp_path / "many.lts"
    path.write_text(render_lts(l))
    part = coarsest_partition_lts(l, EquivVariant.EXPLICIT_DIVERGENCE)
    # canonical order: by each block's first state in declaration order
    blocks = sorted(part.blocks, key=lambda b: min(map(l.states.index, b)))
    expected = [sorted(b) for b in blocks]
    assert len(expected) >= 20 and any(len(b) > 1 for b in expected)
    code, out, _ = run(capsys, "check-equiv", "--model", str(path),
                       "--kind", "lts", "--variant", "ed")
    assert code == 0 and out.splitlines() == list(map(" ".join, expected))
    code, out, _ = run(capsys, "check-equiv", "--model", str(path),
                       "--kind", "lts", "--variant", "ed", "--json")
    assert code == 0 and json.loads(out)["result"]["blocks"] == expected


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


@pytest.mark.parametrize("formula, message", [
    ("E (p U q", "expected ')' at position 8, got end of input"),
    ("E", "expected '(' at position 1, got end of input")])
def test_a_formula_cut_short_names_the_end_of_input(capsys, stutter_ks,
                                                    formula, message):
    code, out, err = run(capsys, "model-check", "--model", stutter_ks,
                         "--formula", formula)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


def test_compose_root_header_names_a_state_of_the_file(capsys, merge_lts,
                                                      tmp_path):
    out_path = tmp_path / "product.lts"
    code, _, _ = run(capsys, "compose",
                     "--left", f"{merge_lts}:0",
                     "--right", f"{merge_lts}:a",
                     "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    header = text.splitlines()[0]
    assert header.startswith("# root: ")
    root = header[len("# root: "):]
    assert root in parse_lts(text).states
    code, _, _ = run(capsys, "traces", "--model", str(out_path),
                     "--kind", "lts", "--state", root)
    assert code == 0


def test_traces_markers(capsys, merge_lts, tmp_path):
    code, out, _ = run(capsys, "traces", "--model", merge_lts,
                       "--kind", "lts", "--state", "Delta0")
    assert code == 0
    assert out.strip() == "~"
    code, out, _ = run(capsys, "traces", "--model", merge_lts,
                       "--kind", "lts", "--state", "a")
    assert code == 0
    assert out.strip() == "a ."


def test_traces_bound_override(capsys, tmp_path):
    path = tmp_path / "loop.lts"
    path.write_text("state a\ntrans a x a\n")
    code, out, _ = run(capsys, "traces", "--model", str(path),
                       "--kind", "lts", "--state", "a", "--bound", "1")
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


@pytest.mark.parametrize("command, suffix", [
    ("check-equiv", ""), ("model-check", ""), ("distinguish", ""),
    ("compose", " in {model}"), ("traces", "")])
def test_unknown_state_message(capsys, stutter_ks, merge_lts, command, suffix):
    model = merge_lts if command == "compose" else stutter_ks
    argv = {
        "check-equiv": ("--kind", "ks", "--variant", "ed",
                        "--state", "s", "--state", "nope"),
        "model-check": ("--formula", "~(", "--state", "nope"),
        "distinguish": ("--variant", "ed", "--state-a", "s",
                        "--state-b", "nope"),
        "compose": ("--left", f"{merge_lts}:0", "--right", f"{model}:nope"),
        "traces": ("--kind", "ks", "--state", "nope"),
    }[command]
    if command != "compose":
        argv = ("--model", model) + argv
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.strip() == "error: unknown state 'nope'" + suffix.format(
        model=model)


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


@pytest.mark.parametrize("flag, command", [
    ("--json", "transform"), ("--json", "compose"),
    ("--allow-delta", "compose"), ("--allow-delta", "dext"),
    ("--allow-delta", "eta"), ("--allow-delta", "check-equiv"),
    ("--allow-delta", "traces")])
def test_a_flag_a_command_ignores_is_a_usage_error(capsys, stutter_ks,
                                                   merge_lts, flag, command):
    # transform and compose write model text, never an envelope, compose
    # reads only LTSs, of transform's ops eta reads an LTS and dext does
    # not extend its own output, and an LTS has no proposition to allow
    message = f"unrecognized arguments: {flag}"
    if command in ("check-equiv", "traces"):
        rest = (("--variant", "db") if command == "check-equiv"
                else ("--state", "0"))
        argv = (command, "--model", merge_lts, "--kind", "lts", *rest)
        message = f"argument {flag}: not allowed with --kind lts"
    elif command == "transform":
        argv = ("transform", "--op", "dext", "--model", stutter_ks)
    elif command == "compose":
        argv = ("compose", "--left", f"{merge_lts}:0",
                "--right", f"{merge_lts}:a")
    else:
        model = stutter_ks if command == "dext" else merge_lts
        argv = ("transform", "--op", command, "--model", model)
        message = f"argument {flag}: not allowed with --op {command}"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, flag])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert message in captured.err


# --- model files are parsed as they are read ------------------------------

# every line break str.splitlines knows
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", " ", "#", *BREAKS]), max_size=40),
       st.integers(1, 8))
def test_file_lines_split_as_splitlines(pieces, size):
    # small chunks: a "\r\n" or a line may straddle any chunk boundary
    text = "".join(pieces)
    lines = list(_file_lines(io.StringIO(text, newline=""), size))
    assert lines == text.splitlines(keepends=True)


def _read_outcome(capsys, path, kind):
    """The structure the CLI reads from ``path``, or its error line."""
    delta = () if kind == "lts" else ("--allow-delta",)
    code, out, err = run(capsys, "check-equiv", "--model", str(path),
                         "--kind", "lts" if kind == "lts" else "ks",
                         "--variant", "db", *delta)
    if code == 2:
        return out, err
    return _load_model(str(path), kind, allow_delta=True)


def _text_outcome(path, kind, text):
    try:
        if kind == "lts":
            return parse_lts(text)
        return parse_ks(text, allow_delta=True)
    except ValueError as err:
        return "", f"error: {path}: {err}\n"


LONG = " ".join(f"p{i}" for i in range(20000))   # longer than a read chunk
MODELS = [
    ("lts", ["state a", "# comment", "", "state b", "trans a go b",
             "trans b tau a"]),
    ("lts", ["state a", "state b", "trans a go b", "trans a go c"]),
    ("ks", ["state a { p q }", "state b { }", "edge a b", "edge b b"]),
    ("ks", ["state a { p }", "state b { delta }", "state a { q }"]),
    ("ks", [f"state a {{ {LONG} }}", "state b { q }", "edge a b"]),
    ("ks", ["state a { p }", f"state b {{ {LONG} - }}"]),
]


@pytest.mark.parametrize("kind, lines", MODELS)
@pytest.mark.parametrize("brk", BREAKS)
@pytest.mark.parametrize("final", [True, False])
def test_cli_reads_a_model_as_the_parser_reads_its_text(capsys, tmp_path,
                                                        kind, lines, brk,
                                                        final):
    text = brk.join(lines) + (brk if final else "")
    path = tmp_path / f"model.{kind}"
    path.write_bytes(text.encode("utf-8"))
    assert (_read_outcome(capsys, path, kind)
            == _text_outcome(path, kind, text))


@pytest.mark.parametrize("states", [1, 20000])
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, states):
    # the error names the byte's offset in the file, also past a chunk
    data = b"".join(b"state s%d\n" % i for i in range(states))
    data += b"state \xff\n"
    path = tmp_path / "bad.lts"
    path.write_bytes(data)
    code, out, err = run(capsys, "check-equiv", "--model", str(path),
                         "--kind", "lts", "--variant", "db")
    with pytest.raises(UnicodeDecodeError) as decode:
        data.decode("utf-8")
    assert (code, out, err) == (2, "", f"error: {decode.value}\n")


@pytest.mark.parametrize("argv", [
    ["check-equiv", "--kind", "lts", "--variant", "ed"],
    ["check-equiv", "--kind", "lts", "--variant", "ed", "--json"],
    ["traces", "--kind", "lts", "--state", "s0", "--bound", "2"],
    ["transform", "--op", "eta"],
])
def test_a_reader_closing_the_pipe_ends_the_output_not_the_command(tmp_path,
                                                                   argv):
    # 20 000 states that each loop on an action of their own: every
    # output below is larger than a pipe holds
    n = 20000
    path = tmp_path / "wide.lts"
    path.write_text("".join(f"state s{i}\n" for i in range(n))
                    + "".join(f"trans s0 a{i} s{i}\n" for i in range(n))
                    + "".join(f"trans s{i} a{i} s{i}\n" for i in range(1, n)))
    src = str(Path(dtk.__file__).resolve().parent.parent)
    with subprocess.Popen(
            [sys.executable, "-m", "dtk.cli", *argv, "--model", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src)) as proc:
        proc.stdout.close()     # the reader goes away before reading a byte
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")

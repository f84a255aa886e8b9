"""``python -m dtk.cli`` as a process: ``run`` ends it with ``os._exit``
once the output is flushed, so every byte of a printed result or of a
written file must be out by then, and the exit code must be ``main``'s."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dtk
from dtk import cli, compose, logic, transforms
from dtk.equivalences import EquivVariant
from dtk.generators import random_ks
from dtk.structures import (
    KripkeStructure,
    Lts,
    _render,
    _sanitize_ids,
    render_ks,
    render_lts,
)

SRC = str(Path(dtk.__file__).resolve().parent.parent)


def dtk_process(*argv, stdout=subprocess.PIPE):
    """Run ``python -m dtk.cli`` with ``argv``: (code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "dtk.cli", *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=SRC), text=True,
                          stdout=stdout, stderr=subprocess.PIPE)
    return done.returncode, done.stdout, done.stderr


def _chain_ks(n):
    # the alternating chain's separating formula doubles every round
    states = tuple(f"c{i}" for i in range(n))
    return KripkeStructure(
        states, {s: {"pq"[i % 2]} for i, s in enumerate(states)},
        tuple(zip(states, states[1:])))


def _chain_lts(prefix, n):
    states = tuple(f"{prefix}{i}" for i in range(n))
    return Lts(states, ("a", "b"),
               tuple((u, "ab"[i % 2], v)
                     for i, (u, v) in enumerate(zip(states, states[1:]))))


def _wide_lts(n):
    # every state loops on an action of its own: n blocks after one round
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple(f"a{i}" for i in range(n))
    return Lts(states, actions, tuple(zip(states, actions, states)))


def test_distinguish_prints_the_whole_formula(tmp_path):
    k = _chain_ks(16)
    text = logic.render_formula(
        logic.distinguish(k, "c0", "c2", EquivVariant.EXPLICIT_DIVERGENCE))
    assert len(text) > 100_000    # far more than one buffer of stdout
    path = tmp_path / "chain.ks"
    path.write_text(render_ks(k))
    assert dtk_process("distinguish", "--model", path, "--variant", "ed",
                       "--state-a", "c0", "--state-b", "c2") == (
        1, text + "\n", "")


def test_model_check_of_a_false_formula_at_a_state(tmp_path):
    path = tmp_path / "chain.ks"
    path.write_text(render_ks(_chain_ks(4)))
    assert dtk_process("model-check", "--model", path, "--formula", "q",
                       "--state", "c0") == (1, "false\n", "")
    assert dtk_process("model-check", "--model", path, "--formula", "p",
                       "--state", "c0") == (0, "true\n", "")


def test_transform_dext_writes_the_rendered_file(tmp_path):
    k = random_ks(random.Random(3), max_states=400, edge_bias=0.004)
    source, target = tmp_path / "k.ks", tmp_path / "dext.ks"
    source.write_text(render_ks(k))
    extended, sink = transforms.deadlock_extension(k)
    expected = f"# deadlock sink: {sink}\n" + "".join(_render(extended))
    assert dtk_process("transform", "--op", "dext", "--model", source,
                       "-o", target) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def test_compose_writes_the_rendered_product(tmp_path):
    l1, l2 = _chain_lts("c", 50), _chain_lts("d", 50)
    left, right = tmp_path / "l.lts", tmp_path / "r.lts"
    left.write_text(render_lts(l1))
    right.write_text(render_lts(l2))
    product, root = compose.merge(l1, "c0", l2, "d0")
    expected = (f"# root: {_sanitize_ids([root])[0]}\n"
                + "".join(_render(product)))
    assert len(expected) > 1 << 16
    target = tmp_path / "product.lts"
    assert dtk_process("compose", "--left", f"{left}:c0",
                       "--right", f"{right}:d0", "-o", target) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def test_json_output_is_one_envelope(tmp_path):
    path = tmp_path / "wide.lts"
    path.write_text(render_lts(_wide_lts(3000)))
    code, out, err = dtk_process("check-equiv", "--model", path,
                                 "--kind", "lts", "--variant", "ed", "--json")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and out.endswith("\n")
    envelope = json.loads(out)
    assert (envelope["version"], envelope["command"]) == (1, "check-equiv")
    assert len(envelope["result"]["blocks"]) == 3000


def test_printed_blocks_match_main_in_process(tmp_path, capsys):
    # stdout a regular file: fully buffered, flushed only by run
    path = tmp_path / "wide.lts"
    path.write_text(render_lts(_wide_lts(3000)))
    argv = ("check-equiv", "--model", str(path), "--kind", "lts",
            "--variant", "db")
    assert cli.main(list(argv)) == 0
    expected = capsys.readouterr().out
    assert len(expected) > 1 << 14
    with open(tmp_path / "out.txt", "w+") as out:
        assert dtk_process(*argv, stdout=out) == (0, None, "")
        out.seek(0)
        assert out.read() == expected


@pytest.mark.parametrize("argv", [
    ("check-equiv", "--kind", "lts", "--variant", "ed"),     # no --model
    ("check-equiv", "--model", "m.lts", "--kind", "lts", "--variant", "ed",
     "--allow-delta"),
    ("no-such-command",),
])
def test_a_usage_error_still_exits_2(argv):
    code, out, err = dtk_process(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: dtk")


def test_an_input_error_reaches_stderr(tmp_path):
    missing = tmp_path / "missing.lts"
    code, out, err = dtk_process("check-equiv", "--model", missing,
                                 "--kind", "lts", "--variant", "ed")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


class _Stream(io.StringIO):
    """A text stream that tells whether it holds text not yet flushed."""
    pending = False

    def write(self, text):
        self.pending = True
        return super().write(text)

    def flush(self):
        self.pending = False


def test_run_flushes_both_streams_then_exits_with_mains_code(monkeypatch):
    streams = _Stream(), _Stream()
    exits = []

    class Exited(Exception):
        pass

    def main():
        print("out")
        print("err", file=sys.stderr)
        return 3

    def exit_now(code):
        exits.append((code, [s.pending for s in streams]))
        raise Exited

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(os, "_exit", exit_now)
    monkeypatch.setattr(sys, "stdout", streams[0])
    monkeypatch.setattr(sys, "stderr", streams[1])
    with pytest.raises(Exited):
        cli.run()
    assert exits == [(3, [False, False])]
    assert [s.getvalue() for s in streams] == ["out\n", "err\n"]

"""The exit-code contract under fuzzing: 0 means true or equivalent, 1
false or distinguished, 2 a usage or input error, and no input makes a
command report an internal error.

Each example renders a generated model of up to 5 states, applies up to
four text edits to it, draws a generated or edited formula, and runs
``cli.main`` in-process across six subcommands, sometimes reading the
file as the other kind of model.
"""

import contextlib
import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtk.cli import main
from dtk.generators import random_formula, random_ks, random_lts
from dtk.logic import render_formula
from dtk.structures import render_ks, render_lts

MODEL_TOKENS = ("", "state", "edge", "trans", "{", "}", "#", "tau", "s0",
                "s9", "p", "delta", "a b", "\n", " ", "\t", "\r", "é", "|")
FORMULA_TOKENS = ("", "(", ")", "~", "&", "|", "E", "U", "EG", "EGinf",
                  "AF", "true", "false", "p", "delta", " ", "é")
# mostly states every model (s0) or most models (s1) have
STATES = st.sampled_from(("s0", "s1", "s0", "s1", "s4", "zz"))
VARIANTS = st.sampled_from(("db", "ds", "ed"))


def edits(tokens):
    """No edit, or up to four, each replacing a few characters at a
    relative position by a token (an empty one deletes)."""
    return st.one_of(st.just([]), st.lists(st.tuples(
        st.floats(0, 1), st.integers(0, 3), st.sampled_from(tokens)),
        min_size=1, max_size=4))


def _edit(text, changes):
    for where, span, token in changes:
        i = int(where * len(text))
        text = text[:i] + token + text[i + span:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(("ks", "lts")), seed=st.integers(0, 2**16),
       model_edits=edits(MODEL_TOKENS), formula_edits=edits(FORMULA_TOKENS),
       misread=st.sampled_from((False, False, False, True)), a=STATES,
       b=STATES, variant=VARIANTS,
       bound=st.integers(0, 4), flags=st.sampled_from(
           ((), (), ("--json",), ("--allow-delta",),
            ("--json", "--allow-delta"))))
def test_every_command_keeps_the_exit_code_contract(
        workdir, kind, seed, model_edits, formula_edits, misread, a, b,
        variant, bound, flags):
    rng = random.Random(seed)
    read_as = {"ks": "lts", "lts": "ks"}[kind] if misread else kind
    if kind == "ks":
        text = render_ks(random_ks(rng, max_states=5))
    else:
        text = render_lts(random_lts(rng, max_states=5))
    model = workdir / "model"
    model.write_text(_edit(text, model_edits), encoding="utf-8")
    formula = _edit(render_formula(random_formula(rng)), formula_edits)
    out = str(workdir / "out")
    m = str(model)
    commands = [
        ["check-equiv", "--model", m, "--kind", read_as, "--variant",
         variant, *flags],
        ["check-equiv", "--model", m, "--kind", read_as, "--variant",
         variant, "--state", a, "--state", b],
        ["model-check", "--model", m, "--formula", formula, "--state", a,
         *flags],
        ["model-check", "--model", m, "--formula", formula, "--semantics",
         "db"],
        ["distinguish", "--model", m, "--variant", variant, "--state-a", a,
         "--state-b", b, *flags],
        ["transform", "--op", "eta" if read_as == "lts" else "dext",
         "--model", m, "-o", out],
        ["compose", "--left", f"{m}:{a}", "--right", f"{m}:{b}", "-o", out],
        ["traces", "--model", m, "--kind", read_as, "--state", a,
         "--bound", str(bound), *flags],
    ]
    for argv in commands:
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "internal error" not in err, (argv, err)

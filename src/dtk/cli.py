"""Command-line front end.

One batch command per invocation; exit codes are a stable contract:
0 for success / equivalent / true, 1 for distinguished / false /
inconsistent, 2 for usage or input errors.  ``--json`` wraps any result
in a versioned envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import compose, equivalences, linear, logic, transforms
from .structures import (
    FormatError,
    StructureError,
    check_consistency,
    parse_ks,
    parse_l2ts,
    parse_lts,
    render_ks,
    render_l2ts,
    render_lts,
)

DEFAULT_TRACE_BOUND = 12

# the values of equivalences.EquivVariant and logic.Semantics, which are
# looked up when a command runs: importing the CLI loads no engine
_VARIANTS = ("db", "ds", "ed")
_SEMANTICS = ("db", "max")


class _Failure(Exception):
    """Input or validation problem; terminates with exit code 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise _Failure(f"cannot read {path}: {err}") from err


def _load_model(path, kind, allow_delta=False):
    text = _read(path)
    try:
        if kind == "ks":
            return parse_ks(text, allow_delta=allow_delta)
        if kind == "lts":
            return parse_lts(text)
        return parse_l2ts(text, allow_delta=allow_delta)
    except (FormatError, StructureError) as err:
        raise _Failure(f"{path}: {err}") from err


def _emit(args, command, result, plain_lines):
    if getattr(args, "json", False):
        print(json.dumps({"version": 1, "command": command, "result": result},
                         sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _partition_lines(partition):
    return [" ".join(sorted(block)) for block in partition.blocks]


def cmd_check_equiv(args) -> int:
    kind = args.kind
    model = _load_model(args.model, kind, allow_delta=args.allow_delta)
    variant = equivalences.EquivVariant(args.variant)
    states = args.state or []
    if len(states) not in (0, 2):
        raise _Failure("--state must be given exactly twice or not at all")
    for s in states:
        if s not in set(model.states):
            raise _Failure(f"unknown state {s!r}")
    if kind == "ks":
        partition = equivalences.coarsest_partition_ks(model, variant)
    else:
        partition = equivalences.coarsest_partition_lts(model, variant)
    if args.oracle:
        reference = equivalences.oracle_coarsest_partition(model, variant)
        if reference != partition:
            print("oracle mismatch", file=sys.stderr)
            return 2
    if states:
        same = partition.same_block(states[0], states[1])
        verdict = "equivalent" if same else "distinguished"
        _emit(args, "check-equiv", {"verdict": verdict}, [verdict])
        return 0 if same else 1
    blocks = [sorted(b) for b in partition.blocks]
    _emit(args, "check-equiv", {"blocks": blocks}, _partition_lines(partition))
    return 0


def cmd_model_check(args) -> int:
    model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
    if args.state is not None and args.state not in set(model.states):
        raise _Failure(f"unknown state {args.state!r}")
    phi = logic.parse_formula(args.formula)   # FormulaError exits 2 in main
    satisfied = logic.sat(model, phi, logic.Semantics(args.semantics))
    ordered = [s for s in model.states if s in satisfied]
    if args.state is not None:
        truth = args.state in satisfied
        _emit(args, "model-check", {"state": args.state, "holds": truth},
              ["true" if truth else "false"])
        return 0 if truth else 1
    _emit(args, "model-check", {"satisfying": ordered}, [" ".join(ordered)])
    return 0


def cmd_distinguish(args) -> int:
    model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
    variant = equivalences.EquivVariant(args.variant)
    for s in (args.state_a, args.state_b):
        if s not in set(model.states):
            raise _Failure(f"unknown state {s!r}")
    phi = logic.distinguish(model, args.state_a, args.state_b, variant)
    if phi is None:
        _emit(args, "distinguish", {"verdict": "equivalent"}, ["equivalent"])
        return 0
    text = logic.render_formula(phi)
    _emit(args, "distinguish", {"verdict": "distinguished", "formula": text},
          [text])
    return 1


def cmd_transform(args) -> int:
    op = args.op
    if op == "eta":
        model = _load_model(args.model, "lts")
        result, _ = transforms.eta_midpoint(model)
        text = render_l2ts(result)
    elif op == "ks2l2ts":
        model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
        text = render_l2ts(transforms.ks_to_l2ts(model))
    elif op == "dext":
        model = _load_model(args.model, "ks")
        extended, sink = transforms.deadlock_extension(model)
        text = f"# deadlock sink: {sink}\n" + render_ks(extended)
    elif op == "total-dl":
        model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
        text = render_ks(transforms.totalize_deadlock_selfloops(model))
    else:
        model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
        text = render_ks(transforms.totalize_all_selfloops(model))
    _write_output(args.output, text)
    return 0


def _write_output(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise _Failure(f"cannot write {path}: {err}") from err


def _parse_file_state(spec: str):
    if ":" not in spec:
        raise _Failure(f"expected FILE:STATE, got {spec!r}")
    path, state = spec.rsplit(":", 1)
    return path, state


def cmd_compose(args) -> int:
    left_path, left_state = _parse_file_state(args.left)
    right_path, right_state = _parse_file_state(args.right)
    l1 = _load_model(left_path, "lts")
    l2 = _load_model(right_path, "lts")
    for (l, s, origin) in ((l1, left_state, left_path), (l2, right_state, right_path)):
        if s not in set(l.states):
            raise _Failure(f"unknown state {s!r} in {origin}")
    product, root = compose.merge(l1, left_state, l2, right_state)
    text = f"# root: {root}\n" + render_lts(product)
    _write_output(args.output, text)
    return 0


def cmd_consistency(args) -> int:
    model = _load_model(args.model, "l2ts", allow_delta=args.allow_delta)
    report = check_consistency(model)
    if report.consistent:
        _emit(args, "consistency", {"consistent": True}, ["consistent"])
        return 0
    lines = []
    for cond, witness in report.violations:
        shown = "; ".join("-".join(tr) for tr in witness)
        lines.append(f"violation ({cond}): {shown}")
    _emit(args, "consistency",
          {"consistent": False,
           "violated": report.violated_conditions()},
          lines)
    return 1


def _render_trace(trace, is_lts):
    if is_lts:
        tokens = [str(a) for a in trace.items[1::2]]
        cycle_tokens = [str(a) for a in trace.cycle[0::2]]
    else:
        tokens = ["{" + ",".join(sorted(c)) + "}" for c in trace.items]
        cycle_tokens = ["{" + ",".join(sorted(c)) + "}" for c in trace.cycle]
    body = " ".join(tokens)
    if trace.end == linear.DEADLOCK:
        marker = "."
    elif trace.end == linear.DIVERGENCE:
        marker = "~"
    elif trace.end == linear.LASSO:
        marker = f"@cycle({' '.join(cycle_tokens)})"
    else:
        marker = "?"
    return f"{body} {marker}".strip()


def cmd_traces(args) -> int:
    kind = args.kind
    model = _load_model(args.model, kind, allow_delta=args.allow_delta)
    if args.state not in set(model.states):
        raise _Failure(f"unknown state {args.state!r}")
    bound = args.bound
    if bound is None:
        bound = int(os.environ.get("DTK_TRACE_BOUND", DEFAULT_TRACE_BOUND))
    colouring = "trivial" if kind == "lts" else "labelling"
    traces, exhausted = linear.complete_traces(
        model, args.state, colouring, bound)
    lines = sorted(_render_trace(t, kind == "lts") for t in traces)
    result = {"traces": lines, "exhausted": exhausted}
    _emit(args, "traces", result, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtk",
        description="explicit-state equivalence and deadlock-aware "
                    "temporal-logic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable envelope")
        p.add_argument("--allow-delta", action="store_true",
                       help="accept the reserved deadlock proposition "
                            "(for re-reading dext output)")

    p = sub.add_parser("check-equiv", help="coarsest partition / state pair")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("lts", "ks"), required=True)
    p.add_argument("--variant", choices=_VARIANTS, required=True)
    p.add_argument("--state", action="append")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the exhaustive oracle")
    common(p)
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("model-check", help="satisfaction set or one state")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--semantics", choices=_SEMANTICS, default="max")
    p.add_argument("--state")
    common(p)
    p.set_defaults(func=cmd_model_check)

    p = sub.add_parser("distinguish", help="separating formula for two states")
    p.add_argument("--model", required=True)
    p.add_argument("--variant", choices=_VARIANTS, required=True)
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)
    common(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("transform", help="structure transformations")
    p.add_argument("--op", choices=("eta", "ks2l2ts", "dext", "total-dl",
                                    "total-all"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("compose", help="interleaving merge of two LTS states")
    p.add_argument("--left", required=True, metavar="FILE:STATE")
    p.add_argument("--right", required=True, metavar="FILE:STATE")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("consistency", help="doubly-labelled agreement check")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("traces", help="complete trace set of a state")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("lts", "ks"), required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--bound", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_traces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError covers FormatError, StructureError and FormulaError
    except (_Failure, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:   # never let a crash read as a verdict
        print(f"error: internal error: {type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

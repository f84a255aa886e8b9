"""Command-line front end.

One batch command per invocation; exit codes are a stable contract:
0 for success / equivalent / true, 1 for distinguished / false /
inconsistent, 2 for usage or input errors.  ``--json`` wraps a printed
result in a versioned envelope; model text is never wrapped.  A model
file is parsed as it is read, and model text is written as it is
rendered, so no command holds a model's whole text.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from . import compose, equivalences, linear, logic, transforms
from .structures import (
    FormatError,
    StructureError,
    _render,
    _sanitize_ids,
    check_consistency,
    parse_ks,
    parse_l2ts,
    parse_lts,
)

# the values of equivalences.EquivVariant and logic.Semantics, which are
# looked up when a command runs: importing the CLI loads no engine
_VARIANTS = ("db", "ds", "ed")
_SEMANTICS = ("db", "max")


class _Failure(Exception):
    """Input or validation problem; terminates with exit code 2."""


def _file_lines(handle, size=1 << 16):
    """The lines of an open text file as ``str.splitlines`` gives them on
    the whole text, with their line breaks.  Each chunk is split in one
    call; its last piece is carried into the next chunk, which may end a
    line that ends with "\\r" or continue a line.  A chunk is at least as
    long as the carried piece, so a long line costs linear time."""
    carry = ""
    while chunk := handle.read(max(size, len(carry))):
        lines = (carry + chunk).splitlines(keepends=True)
        carry = lines.pop()
        yield from lines
    if carry:
        yield carry


def _load_model(path, kind, allow_delta=False):
    """Parse a model file as it is read; the text is never held whole."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = _file_lines(handle)
            if kind == "ks":
                return parse_ks(lines, allow_delta=allow_delta)
            if kind == "lts":
                return parse_lts(lines)
            return parse_l2ts(lines, allow_delta=allow_delta)
    except OSError as err:
        raise _Failure(f"cannot read {path}: {err}") from err
    except (FormatError, StructureError) as err:
        raise _Failure(f"{path}: {err}") from err
    except UnicodeDecodeError:
        # the error counts bytes from the start of a chunk; decoding the
        # whole file raises it again with the offset in the file
        with open(path, "rb") as handle:
            handle.read().decode("utf-8")
        raise


def _write_stdout(lines):
    """Write text to stdout as it comes.  A reader that closes the pipe
    ends the output, not the command: stdout then points at the null
    device, so nothing fails later, at exit either."""
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, command, result, plain_lines):
    if args.json:
        import json     # only --json pays for it
        _write_stdout((json.dumps({"version": 1, "command": command,
                                   "result": result}, sort_keys=True),
                       "\n"))
    else:
        _write_stdout(line + "\n" for line in plain_lines)


def cmd_check_equiv(args) -> int:
    model = _load_model(args.model, args.kind, allow_delta=args.allow_delta)
    variant = equivalences.EquivVariant(args.variant)
    states = args.state or []
    if len(states) not in (0, 2):
        raise _Failure("--state must be given exactly twice or not at all")
    for s in states:
        model.check_state(s)
    partition = equivalences.coarsest_partition(model, variant)
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
    blocks = map(sorted, partition.members())
    if args.json:   # the envelope needs every block; plain text streams
        blocks = list(blocks)
    _emit(args, "check-equiv", {"blocks": blocks}, map(" ".join, blocks))
    return 0


def cmd_model_check(args) -> int:
    model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
    if args.state is not None:
        model.check_state(args.state)
    phi = logic.parse_formula(args.formula)   # FormulaError exits 2 in main
    satisfied = logic.sat(model, phi, logic.Semantics(args.semantics))
    if args.state is not None:
        truth = args.state in satisfied
        _emit(args, "model-check", {"state": args.state, "holds": truth},
              ["true" if truth else "false"])
        return 0 if truth else 1
    ordered = [s for s in model.states if s in satisfied]
    _emit(args, "model-check", {"satisfying": ordered}, [" ".join(ordered)])
    return 0


def cmd_distinguish(args) -> int:
    model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
    variant = equivalences.EquivVariant(args.variant)
    phi = logic.distinguish(model, args.state_a, args.state_b, variant)
    if phi is None:
        _emit(args, "distinguish", {"verdict": "equivalent"}, ["equivalent"])
        return 0
    if args.json:
        text = logic.render_formula(phi)
        _emit(args, "distinguish",
              {"verdict": "distinguished", "formula": text}, ())
    else:   # plain text streams the formula, which may be long
        _write_stdout(chain(logic.formula_pieces(phi), ("\n",)))
    return 1


def cmd_transform(args) -> int:
    op = args.op
    if args.allow_delta and op in ("eta", "dext"):
        # eta reads an LTS, and dext does not extend its own output again
        args.usage_error(f"argument --allow-delta: not allowed with --op {op}")
    header = ()
    if op == "eta":
        result = transforms.eta_midpoint(_load_model(args.model, "lts"))
    else:
        model = _load_model(args.model, "ks", allow_delta=args.allow_delta)
        if op == "ks2l2ts":
            result = transforms.ks_to_l2ts(model)
        elif op == "dext":
            result, sink = transforms.deadlock_extension(model)
            header = (f"# deadlock sink: {sink}\n",)
        elif op == "total-dl":
            result = transforms.totalize_deadlock_selfloops(model)
        else:
            result = transforms.totalize_all_selfloops(model)
    _write_output(args.output, chain(header, _render(result)))
    return 0


def _write_output(path, lines):
    """Write model text line by line, as the renderer yields it."""
    if path in (None, "-"):
        _write_stdout(lines)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
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
        try:
            l.check_state(s)
        except ValueError as err:
            raise _Failure(f"{err} in {origin}") from err
    product, root = compose.merge(l1, left_state, l2, right_state)
    # the root is the product's first state, which no clash renames: the
    # file names it by the charset mapping alone
    header = f"# root: {_sanitize_ids([root])[0]}\n"
    _write_output(args.output, chain((header,), _render(product)))
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
    model.check_state(args.state)
    colouring = "trivial" if kind == "lts" else "labelling"
    traces, exhausted = linear.complete_traces(
        model, args.state, colouring, args.bound)
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

    # compose reads neither flag; transform writes model text, not an
    # envelope, so it takes no --json
    def common(p, json=True):
        if json:
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
    p.set_defaults(func=cmd_check_equiv, usage_error=p.error)

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
    common(p, json=False)
    p.set_defaults(func=cmd_transform, usage_error=p.error)

    p = sub.add_parser("compose", help="interleaving merge of two LTS states")
    p.add_argument("--left", required=True, metavar="FILE:STATE")
    p.add_argument("--right", required=True, metavar="FILE:STATE")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("consistency", help="doubly-labelled agreement check")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("traces", help="complete trace set of a state")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("lts", "ks"), required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--bound", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_traces, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an LTS carries no propositions: --allow-delta has nothing to allow
    if getattr(args, "kind", None) == "lts" and args.allow_delta:
        args.usage_error("argument --allow-delta: not allowed with --kind lts")
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

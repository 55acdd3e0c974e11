"""Command-line interface.

    apa states <file> [--sigma <spec>]
    apa transitions <file> --sigma <spec>
    apa semantics <file> --state a2,a3,a4 --which ad|co|pr|st|gr
    apa check <file> <query-file>
    apa dot <file> [--sigma <spec>]

`--sigma` is `all` or a comma-separated list of brace-set literals, e.g.
`{a2},{a1,a3},{}`. Exit codes: 0 success (and true verdicts), 2 formula
false, 1 any error. All output is deterministic; `--json` (states,
transitions, semantics, check) switches the result to a canonical JSON
document.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import dynamics, semantics
from .dot import export_dot, selector_label
from .dynamics import ALL, SelectorFamily
from .errors import ApaError, UnknownName
from .fileformat import parse_framework
from .model import APAFramework, State

_SIGMA_RE = re.compile(r"\{([^{}]*)\}")


def parse_sigma_spec(spec: str) -> SelectorFamily:
    if spec == "all":
        return ALL
    rest = _SIGMA_RE.sub("", spec).replace(",", "").strip()
    if rest:
        raise ApaError(
            f"bad --sigma value {spec!r}: expected 'all' or brace-set "
            "literals like '{a1,a2},{}'"
        )
    refsets = [
        frozenset(t for t in body.replace(",", " ").split() if t)
        for body in _SIGMA_RE.findall(spec)
    ]
    if not refsets:
        raise ApaError(f"bad --sigma value {spec!r}: no selectors")
    return SelectorFamily(tuple(refsets))


def _sigma_family(fw: APAFramework, spec: str) -> SelectorFamily:
    """The `--sigma` family, with every name checked against `fw`."""
    family = parse_sigma_spec(spec)
    unknown = set().union(*family.effective) - set(fw.arguments)
    if unknown:
        raise ApaError(
            f"unknown arguments in --sigma: {', '.join(sorted(unknown))}"
        )
    return family


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ApaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _print_json(doc, out) -> None:
    """Print `doc` as canonical JSON. Only `--json` output imports `json`.

    `transitions --json` is the one document written otherwise: it grows
    with the edge count, not the state count, so `cmd_transitions` writes
    it edge by edge, in the bytes this function would print.
    """
    import json

    print(json.dumps(doc, sort_keys=True), file=out)


def _state_doc(fw: APAFramework, state: State) -> list[str]:
    return list(fw.sort_args(state.visible))


def cmd_states(args, fw, out) -> int:
    lts = dynamics.reachable(fw, _sigma_family(fw, args.sigma), args.max_states)
    if args.json:
        doc = {
            "states": [
                {
                    "visible": _state_doc(fw, s),
                    "initial": s == lts.initial,
                    "deadlock": s in lts.deadlocks,
                }
                for s in lts.states
            ]
        }
        _print_json(doc, out)
        return 0
    for s in lts.states:
        marks = []
        if s == lts.initial:
            marks.append("initial")
        if s in lts.deadlocks:
            marks.append("deadlock")
        suffix = f"  ({', '.join(marks)})" if marks else ""
        print(fw.format_set(s.visible) + suffix, file=out)
    return 0


def cmd_transitions(args, fw, out) -> int:
    lts = dynamics.reachable(fw, _sigma_family(fw, args.sigma), args.max_states)
    if args.json:
        import json

        # each state's members and each selector's reference set are
        # encoded once, not once per edge
        members = {s: json.dumps(_state_doc(fw, s)) for s in lts.states}
        refsets = [
            "null" if lts.family.is_wildcard
            else json.dumps(list(fw.sort_args(refset)))
            for refset in lts.family.effective
        ]
        out.write('{"edges": [')
        sep = ""
        for src, sel, dst in lts.edges:
            out.write(f'{sep}{{"from": {members[src]}, "refset": {refsets[sel]}, '
                      f'"selector": {sel}, "to": {members[dst]}}}')
            sep = ", "
        out.write("]}\n")
        return 0
    names = {s: fw.format_set(s.visible) for s in lts.states}
    for src, sel, dst in lts.edges:
        label = f"#{sel} {selector_label(lts, sel)}"
        print(f"{names[src]} -[{label}]-> {names[dst]}", file=out)
    return 0


def cmd_semantics(args, fw, out) -> int:
    members = [t for t in args.state.replace(",", " ").split() if t]
    try:
        state = fw.state(members)
    except UnknownName as exc:  # listed as typed
        unknown = [t for t in members if t in exc.names]
        raise ApaError(
            f"unknown arguments in --state: {', '.join(unknown)}"
        ) from None
    exts = semantics.extensions(fw, args.which, state, args.max_args)
    if args.json:
        doc = {
            "label": args.which,
            "state": _state_doc(fw, state),
            "extensions": [list(fw.sort_args(e)) for e in exts],
        }
        _print_json(doc, out)
        return 0
    for ext in exts:
        print(fw.format_set(ext), file=out)
    return 0


def cmd_check(args, fw, out) -> int:
    from . import ctl  # only `check` pays for importing the query engine

    query = ctl.parse_query(_read(args.query))
    result = ctl.check(fw, query, args.max_states, args.max_args)
    if args.json:
        witness = None
        if result.witness is not None:
            witness = {
                "prefix": [_state_doc(fw, s) for s in result.witness.prefix],
                "cycle": [_state_doc(fw, s) for s in result.witness.cycle],
            }
        doc = {"value": result.value, "witness": witness}
        _print_json(doc, out)
    else:
        print("true" if result.value else "false", file=out)
        if result.witness is not None:
            fmt = lambda states: " -> ".join(
                fw.format_set(s.visible) for s in states
            )
            kind = "witness" if result.value else "counterexample"
            print(f"{kind} prefix: {fmt(result.witness.prefix) or '(empty)'}",
                  file=out)
            print(f"{kind} cycle:  {fmt(result.witness.cycle)}", file=out)
    return 0 if result.value else 2


def cmd_dot(args, fw, out) -> int:
    lts = dynamics.reachable(fw, _sigma_family(fw, args.sigma), args.max_states)
    out.write(export_dot(lts, args.annotate))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as `ApaError`, so they exit 1 through `main`
    like every other error (status 2 means a false verdict). Subparsers
    inherit the class."""

    def error(self, message: str):
        raise ApaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="apa",
        description="Persuasion-dynamics argumentation: state enumeration, "
        "per-state semantics and temporal queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, sigma=False, as_json=False,
                max_states=False, max_args=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("file", help="framework file")
        if sigma:
            p.add_argument(
                "--sigma",
                default="all",
                help="'all' or comma-separated brace-set literals "
                "(default: all)",
            )
        if as_json:
            p.add_argument("--json", action="store_true",
                           help="emit a canonical JSON document")
        if max_states:
            p.add_argument("--max-states", type=int,
                           default=dynamics.DEFAULT_MAX_STATES,
                           help="override the reachable-state bound")
        if max_args:  # dot --annotate keeps the default
            p.add_argument("--max-args", type=int,
                           default=semantics.DEFAULT_MAX_ENUM_ARGS,
                           help="override the extension-search bound")
        return p

    command("states", "list reachable states", cmd_states,
            sigma=True, as_json=True, max_states=True)
    command("transitions", "list labeled transitions", cmd_transitions,
            sigma=True, as_json=True, max_states=True)
    p = command("semantics", "list extensions at a state", cmd_semantics,
                as_json=True, max_args=True)
    p.add_argument("--state", required=True,
                   help="comma-separated visible arguments")
    p.add_argument("--which", required=True,
                   choices=list(semantics.LABELS))
    p = command("check", "evaluate a query file", cmd_check,
                as_json=True, max_states=True, max_args=True)
    p.add_argument("query", help="query file")
    p = command("dot", "emit the LTS as Graphviz DOT", cmd_dot,
                sigma=True, max_states=True)
    p.add_argument("--annotate", choices=list(semantics.LABELS),
                   default=None,
                   help="annotate each node with this label's extensions")
    return parser


def main(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    try:
        args = build_parser().parse_args(argv)
        for bound in ("max_states", "max_args"):
            if getattr(args, bound, 0) < 0:
                option = "--" + bound.replace("_", "-")
                raise ApaError(f"{option} must not be negative")
        fw = parse_framework(_read(args.file))
        return args.func(args, fw, out)
    except (ApaError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())

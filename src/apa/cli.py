"""Command-line interface.

    apa states <file> [--sigma <spec>]
    apa transitions <file> [--sigma <spec>]
    apa semantics <file> --state a2,a3,a4 --which ad|co|pr|st|gr
    apa check <file> <query-file>
    apa dot <file> [--sigma <spec>]

`--sigma` is `all` (the default) or brace-set literals, e.g.
`{a2},{a1 a3},{}`: names within braces are split at commas and blanks,
and between the literals only commas and blanks may stand, none needed.
Exit codes: 0 success (and true verdicts), 2 formula false, 1 any error,
a closed stdout included. All output is deterministic; `--json` (states,
transitions, semantics, check) switches the result to a canonical JSON
document.

Options take their value as `--opt value` or `--opt=value`; `--help`
prints a usage line. Each CLI call is a fresh process, so this module
loads little: `_COMMANDS` and `_OPTIONS` are the one table of commands and
options that both the parser and the usage lines read, each `cmd_*`
imports only the engine modules it runs, and `_json` writes the JSON
documents without the `json` module.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import ApaError

if TYPE_CHECKING:
    from .model import APAFramework

_SIGMA_SET = r"\{([^{}]*)\}"  # compiled on first use, by `--sigma` commands


def _lts(fw: APAFramework, sigma: str, bounds):
    """The LTS of `fw` under the `--sigma` family, with every name in the
    family checked against `fw`: what `states`, `transitions` and `dot`
    print. One split reads the family: the brace bodies, and the text
    between them, which may hold only commas and blanks."""
    from . import dynamics

    family = dynamics.ALL
    if sigma != "all":
        pieces = re.split(_SIGMA_SET, sigma)  # text, body, text, ... text
        if "".join(pieces[::2]).replace(",", "").strip():
            raise ApaError(
                f"bad --sigma value {sigma!r}: expected 'all' or brace-set "
                "literals like '{a1,a2},{}'"
            )
        refsets = [body.replace(",", " ").split() for body in pieces[1::2]]
        if not refsets:
            raise ApaError(f"bad --sigma value {sigma!r}: no selectors")
        _known(fw, "--sigma", [name for names in refsets for name in names])
        family = dynamics.SelectorFamily(tuple(map(frozenset, refsets)))
    return dynamics.reachable(fw, family, **bounds)


def _known(fw: APAFramework, option: str, names) -> None:
    """Reject the `option` names that `fw` does not declare, listed as
    typed, each once."""
    unknown = [n for n in dict.fromkeys(names) if n not in fw.masks.bit]
    if unknown:
        raise ApaError(f"unknown arguments in {option}: {', '.join(unknown)}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ApaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:  # a NUL in the path
        raise ApaError(f"{path!r}: {exc}") from None


def _json(doc) -> str:
    """`doc` as canonical JSON, the text of `json.dumps(doc, sort_keys=True)`.

    A document holds dicts, lists, tuples, booleans, None and strings. Its
    only strings are fixed keys, semantics labels and argument names that
    match `model.NAME`, so none needs escaping.
    """
    if isinstance(doc, dict):
        return "{" + ", ".join(f'"{key}": {_json(doc[key])}'
                               for key in sorted(doc)) + "}"
    if isinstance(doc, (list, tuple)):
        return "[" + ", ".join(map(_json, doc)) + "]"
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    return f'"{doc}"'


def _write(out, json: bool, doc, lines) -> None:
    """Write `doc` as canonical JSON, or else the text `lines` read off it,
    one per line."""
    out.write(_json(doc) + "\n" if json
              else "".join(f"{line}\n" for line in lines))


def cmd_states(fw, out, sigma, json, **bounds) -> int:
    lts = _lts(fw, sigma, bounds)
    doc = {
        "states": [
            {
                "visible": fw.sort_args(s.visible),
                "initial": s == lts.initial,
                "deadlock": s in lts.deadlocks,
            }
            for s in lts.states
        ]
    }

    def line(entry):
        marks = ", ".join(m for m in ("initial", "deadlock") if entry[m])
        text = fw.format_set(entry["visible"])
        return f"{text}  ({marks})" if marks else text

    _write(out, json, doc, map(line, doc["states"]))
    return 0


def cmd_transitions(fw, out, sigma, json, **bounds) -> int:
    """The edges as text, or as a JSON document, written one source state
    at a time; both walk the LTS's tables, so neither keeps the edges. Each
    state's members and each selector's label are formatted once, not once
    per edge."""
    lts = _lts(fw, sigma, bounds)
    if json:
        members = {s: _json(fw.sort_args(s.visible)) for s in lts.states}
        refsets = [
            "null" if lts.family.is_wildcard else _json(fw.sort_args(refset))
            for refset in lts.family.effective
        ]
        out.write('{"edges": [')
        sep = ""
        for src, edges in lts.walk():
            out.write(sep + ", ".join(
                f'{{"from": {members[src]}, "refset": {refsets[sel]}, '
                f'"selector": {sel}, "to": {members[dst]}}}'
                for sel, dst in edges))
            sep = ", "
        out.write("]}\n")
        return 0
    names = {s: fw.format_set(s.visible) for s in lts.states}
    labels = [f"#{sel} {lts.selector_label(sel)}"
              for sel in range(len(lts.family.effective))]
    for src, edges in lts.walk():
        out.write("".join(f"{names[src]} -[{labels[sel]}]-> {names[dst]}\n"
                          for sel, dst in edges))
    return 0


def cmd_semantics(fw, out, state, which, json, **bounds) -> int:
    from . import semantics

    members = state.replace(",", " ").split()
    _known(fw, "--state", members)
    at = fw.state(members)
    doc = {
        "label": which,
        "state": fw.sort_args(at.visible),
        "extensions": [fw.sort_args(e) for e in
                       semantics.extensions(fw, which, at, **bounds)],
    }
    _write(out, json, doc, map(fw.format_set, doc["extensions"]))
    return 0


def cmd_check(fw, out, query, json, **bounds) -> int:
    from . import ctl

    result = ctl.check(fw, ctl.parse_query(_read(query)), **bounds)
    witness = None if result.witness is None else {
        key: [fw.sort_args(s.visible) for s in states]
        for key, states in result.witness._asdict().items()
    }
    doc = {"value": result.value, "witness": witness}
    lines = ["true" if result.value else "false"]
    if witness is not None:
        kind = "witness" if result.value else "counterexample"
        prefix, cycle = (" -> ".join(map(fw.format_set, witness[key]))
                         for key in ("prefix", "cycle"))
        lines += [f"{kind} prefix: {prefix or '(empty)'}",
                  f"{kind} cycle:  {cycle}"]
    _write(out, json, doc, lines)
    return 0 if result.value else 2


def cmd_dot(fw, out, sigma, annotate, **bounds) -> int:
    from . import dot

    dot.export_dot(_lts(fw, sigma, bounds), out, annotate)
    return 0


#: Each option: its kind and its default. Kinds: "flag" (False unless
#: given); "str"; "label", one of `semantics.LABELS`; and "int", a bound
#: that must not be negative. A bound left out is not passed on, so the
#: engine's own default applies. A default of `_REQUIRED` makes the option
#: required.
_REQUIRED = object()
_OPTIONS = {
    "--sigma": ("str", "all"),
    "--json": ("flag", False),
    "--max-states": ("int", None),
    "--max-args": ("int", None),
    "--state": ("str", _REQUIRED),
    "--which": ("label", _REQUIRED),
    "--annotate": ("label", None),
}

#: Each command: its function, summary, positional arguments and options.
_COMMANDS = {
    "states": (cmd_states, "list reachable states", ("file",),
               ("--sigma", "--json", "--max-states")),
    "transitions": (cmd_transitions, "list labeled transitions", ("file",),
                    ("--sigma", "--json", "--max-states")),
    "semantics": (cmd_semantics, "list extensions at a state", ("file",),
                  ("--json", "--max-args", "--state", "--which")),
    "check": (cmd_check, "evaluate a query file", ("file", "query"),
              ("--json", "--max-states", "--max-args")),
    "dot": (cmd_dot, "emit the LTS as Graphviz DOT", ("file",),
            ("--sigma", "--max-states", "--annotate")),
}


def _usage(name: str | None) -> str:
    """The `--help` text of command `name`, or of `apa` itself."""
    if name is None:
        lines = [f"usage: apa {{{','.join(_COMMANDS)}}} ...", ""]
        lines += [f"  {cmd:<12} {spec[1]}" for cmd, spec in _COMMANDS.items()]
        lines += ["", "apa <command> --help shows the command's options"]
        return "\n".join(lines)
    _, summary, positionals, options = _COMMANDS[name]
    words = ["usage: apa", name]
    for option in options:
        kind, default = _OPTIONS[option]
        if kind == "label":
            from .semantics import LABELS

            option += f" {{{','.join(LABELS)}}}"
        elif kind != "flag":
            option += " " + option[2:].upper().replace("-", "_")
        words.append(option if default is _REQUIRED else f"[{option}]")
    return " ".join(words + list(positionals)) + f"\n\n{summary}"


def _value(option: str, kind: str, text: str):
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise ApaError(f"{option}: invalid int value {text!r}") from None
        if value < 0:
            raise ApaError(f"{option} must not be negative")
        return value
    if kind == "label":
        from .semantics import LABELS

        if text not in LABELS:
            raise ApaError(f"{option}: invalid choice {text!r} "
                           f"(choose from {', '.join(LABELS)})")
    return text


def _parse(argv: list[str]):
    """The command that `argv` names, and its arguments as keyword
    arguments of its `cmd_*` function; None for those when `argv` asks
    for help. Options take their value as `--opt value` or `--opt=value`,
    before, between or after the positionals."""
    if not argv:
        raise ApaError(f"expected a command: {', '.join(_COMMANDS)}")
    name, *rest = argv
    if name in ("-h", "--help"):
        return None, None
    if name not in _COMMANDS:
        raise ApaError(f"unknown command {name!r} "
                       f"(choose from {', '.join(_COMMANDS)})")
    _, _, positionals, options = _COMMANDS[name]
    values, given = [], {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return name, None
        if not token.startswith("-"):
            values.append(token)
            continue
        option, eq, text = token.partition("=")
        if option not in options:
            raise ApaError(f"apa {name} has no option {option}")
        kind = _OPTIONS[option][0]
        if kind == "flag":
            if eq:
                raise ApaError(f"{option} takes no value")
            given[option] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ApaError(f"{option} expects a value")
        given[option] = _value(option, kind, text)
    if len(values) > len(positionals):
        extra = " ".join(values[len(positionals):])
        raise ApaError(f"unexpected arguments: {extra}")
    missing = list(positionals[len(values):]) + [
        option for option in options
        if _OPTIONS[option][1] is _REQUIRED and option not in given
    ]
    if missing:
        raise ApaError(f"missing arguments: {', '.join(missing)}")
    args = dict(zip(positionals, values))
    for option in options:
        kind, default = _OPTIONS[option]
        if option in given or kind != "int":
            args[option[2:].replace("-", "_")] = given.get(option, default)
    return name, args


def main(argv=None, out=None, err=None) -> int:
    """Run one command; `out` and `err` default to `sys.stdout` and
    `sys.stderr` as they are at the call. Only when `out` is `sys.stdout`
    does `main` flush it, and on a broken pipe point fd 1 at the null
    device."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if out is None:  # fd 1 was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        name, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage(name), file=out)
            code = 0
        else:
            from . import fileformat

            fw = fileformat.parse_framework(_read(args.pop("file")))
            code = _COMMANDS[name][0](fw, out, **args)
        if out is sys.stdout:
            out.flush()  # a closed pipe fails here, not at exit
        return code
    except (ApaError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # Python flushes stdout again at exit: send what is left nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())

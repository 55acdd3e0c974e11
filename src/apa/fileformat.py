"""Text format for framework files.

    arguments: a1 a2 a3 a4 a5
    initial: a2 a3 a4
    attack: a2 -> a3
    induce: a3 => a2          # (a3, ~, a2): a3 makes a2 visible
    convert: a3 : a4 => a5    # (a3, a4, a5): a3 drops a4 in favour of a5

Whitespace-insensitive; `#` starts a comment; `arguments:` and `initial:`
may repeat and accumulate. parse_framework(print_framework(fw)) == fw.
"""

from __future__ import annotations

import re

from .errors import QuerySyntaxError
from .model import APAFramework, validate

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ATTACK_RE = re.compile(rf"^({_NAME})\s*->\s*({_NAME})$")
_INDUCE_RE = re.compile(rf"^({_NAME})\s*=>\s*({_NAME})$")
_CONVERT_RE = re.compile(rf"^({_NAME})\s*:\s*({_NAME})\s*=>\s*({_NAME})$")


def parse_framework(text: str) -> APAFramework:
    """Parse and validate a framework file."""
    arguments: list[tuple[str, int]] = []
    initial: list[tuple[str, int]] = []
    attacks: list[tuple[str, str, int]] = []
    induces: list[tuple[str, str, int]] = []
    converts: list[tuple[str, str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise QuerySyntaxError("expected 'section: ...'", lineno, 1)
        section, _, rest = line.partition(":")
        section = section.strip()
        rest = rest.strip()
        if section in ("arguments", "initial"):
            names = arguments if section == "arguments" else initial
            for tok in rest.split():
                if not re.fullmatch(_NAME, tok):
                    raise QuerySyntaxError(
                        f"bad argument name {tok!r}", lineno, 1
                    )
                names.append((tok, lineno))
        elif section == "attack":
            if not rest:
                continue
            m = _ATTACK_RE.match(rest)
            if not m:
                raise QuerySyntaxError("expected 'attack: x -> y'", lineno, 1)
            attacks.append((m.group(1), m.group(2), lineno))
        elif section == "induce":
            if not rest:
                continue
            m = _INDUCE_RE.match(rest)
            if not m:
                raise QuerySyntaxError("expected 'induce: s => t'", lineno, 1)
            induces.append((m.group(1), m.group(2), lineno))
        elif section == "convert":
            if not rest:
                continue
            m = _CONVERT_RE.match(rest)
            if not m:
                raise QuerySyntaxError(
                    "expected 'convert: s : g => t'", lineno, 1
                )
            converts.append((m.group(1), m.group(2), m.group(3), lineno))
        else:
            raise QuerySyntaxError(f"unknown section {section!r}", lineno, 1)

    return validate(arguments, initial, attacks, induces, converts)


def print_framework(fw: APAFramework) -> str:
    """Canonical rendering: one line per relation, declaration order."""
    lines = ["arguments: " + " ".join(fw.arguments)]
    lines.append("initial: " + " ".join(fw.sort_args(fw.initial)))
    key = lambda pair: tuple(fw.index(a) for a in pair)
    for a, b in sorted(fw.attacks, key=key):
        lines.append(f"attack: {a} -> {b}")
    induces = sorted(
        (act for act in fw.persuasions if act.trigger is None),
        key=lambda act: (fw.index(act.source), fw.index(act.target)),
    )
    converts = sorted(
        (act for act in fw.persuasions if act.trigger is not None),
        key=lambda act: (
            fw.index(act.source), fw.index(act.trigger), fw.index(act.target)
        ),
    )
    for act in induces:
        lines.append(f"induce: {act.source} => {act.target}")
    for act in converts:
        lines.append(f"convert: {act.source} : {act.trigger} => {act.target}")
    return "\n".join(lines) + "\n"

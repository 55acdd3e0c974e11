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
from .model import NAME, APAFramework, validate

#: Relation sections: line pattern, usage on mismatch. An act's pattern has
#: three groups, source, trigger and target; an induce's trigger group is
#: empty.
_RELATIONS = {
    "attack": (re.compile(rf"^({NAME})\s*->\s*({NAME})$"), "attack: x -> y"),
    "induce": (re.compile(rf"^({NAME})()\s*=>\s*({NAME})$"), "induce: s => t"),
    "convert": (
        re.compile(rf"^({NAME})\s*:\s*({NAME})\s*=>\s*({NAME})$"),
        "convert: s : g => t",
    ),
}


def parse_framework(text: str) -> APAFramework:
    """Parse and validate a framework file."""
    arguments: list[tuple[str, int]] = []
    initial: list[tuple[str, int]] = []
    attacks: list[tuple[str, str, int]] = []
    # induces and converts in file order, as `validate` reads them
    acts: list[tuple[str, str | None, str, int]] = []

    # lines end at "\n", as in the query tokenizer; `strip` drops a "\r"
    # before it
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
                if not re.fullmatch(NAME, tok):
                    raise QuerySyntaxError(
                        f"bad argument name {tok!r}", lineno, 1
                    )
                names.append((tok, lineno))
        elif section in _RELATIONS:
            if not rest:
                continue
            pattern, usage = _RELATIONS[section]
            m = pattern.match(rest)
            if not m:
                raise QuerySyntaxError(f"expected '{usage}'", lineno, 1)
            # an induce's empty trigger group becomes None
            (attacks if section == "attack" else acts).append(
                (*[g or None for g in m.groups()], lineno)
            )
        else:
            raise QuerySyntaxError(f"unknown section {section!r}", lineno, 1)

    return validate(arguments, initial, attacks, acts)


def print_framework(fw: APAFramework) -> str:
    """Canonical rendering: one line per relation, declaration order."""
    lines = ["arguments: " + " ".join(fw.arguments)]
    lines.append("initial: " + " ".join(fw.sort_args(fw.initial)))
    bit = fw.masks.bit
    for a, b in sorted(fw.attacks, key=lambda atk: (bit[atk[0]], bit[atk[1]])):
        lines.append(f"attack: {a} -> {b}")
    # `masks.acts` lists the induces (no trigger) before the converts
    for act in fw.masks.acts:
        if act.trigger is None:
            lines.append(f"induce: {act.source} => {act.target}")
        else:
            lines.append(
                f"convert: {act.source} : {act.trigger} => {act.target}")
    return "\n".join(lines) + "\n"

import random

import pytest

from apa import semantics
from apa.ctl import (
    _ATOMS,
    And,
    Formula,
    Implies,
    Not,
    Or,
    Query,
    Sigma,
    Temporal,
    Until,
    Visible,
)
from apa.model import framework
from apa.oracle import random_formula


def varying_operand(rng, fw, states):
    """A random formula that tells `states` apart: the visibility of two
    arguments that some of them show and some hide, and a random
    subformula."""
    varying = [
        a for a in fw.arguments
        if 0 < sum(a in s.visible for s in states) < len(states)
    ] or list(fw.arguments)
    x, y = (rng.choice(varying) for _ in "xy")
    sub = random_formula(rng, fw, ("S1", "S2"), 1)
    return Or(Visible(x), And(Not(Visible(y)), sub))


def characteristic(fw, candidate, state):
    """F(candidate): the visible arguments that `candidate` defends at
    `state`, read from the engine's characteristic function on masks."""
    vis = fw.mask(state.visible)
    inn = fw.mask(candidate & state.visible)
    return fw.members(semantics._defended(fw.masks, inn, vis, vis))


def moves(fw):
    """Each act's (drop, add) masks, read from its screening row."""
    masks = fw.masks
    return {act: row[2] for act, row in zip(masks.acts, masks.screens)}


def literal_characteristic(fw, candidate, state):
    """F(candidate) straight from the README's definitions, on names: the
    visible arguments whose every visible threat (an attacker, or the
    source of a convert act that drops it for another argument) is
    attacked by a visible member of `candidate`."""
    visible = state.visible
    members = candidate & visible

    def threats(arg):
        attackers = {b for b, a in fw.attacks if a == arg and b in visible}
        droppers = {
            act.source for act in fw.persuasions
            if act.trigger == arg and act.target != arg and act.source in visible
        }
        return attackers | droppers

    return frozenset(
        arg for arg in visible
        if all(any((m, t) in fw.attacks for m in members) for t in threats(arg))
    )


#: What a mutation inserts or puts in place of a character: the tokens of
#: both text formats, line ends, and characters neither format accepts.
MUTATION_ALPHABET = (
    "\r", "\n", "\r\n", " ", "\t", "#", "->", "=>", "{*}", "\u00e9", "\x00",
    "{", "}", "(", ")", "[", "]", ",", "!", "&", "|", "=", ":", "*", "-",
    "U", "A", "E", "EF", "AG", "in", "sem", "ad", "visible", "exact", "set",
    "formula", "arguments", "attack", "convert", "a2", "S", "_s0",
)


def mutants(texts, count, seed):
    """`count` seeded mutations of `texts`: each applies one to three
    deletions, insertions or replacements drawn from `MUTATION_ALPHABET`
    to one of the texts, taken in turn."""
    rng = random.Random(seed)
    for i in range(count):
        text = texts[i % len(texts)]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(("delete", "insert", "replace"))
            piece = "" if edit == "delete" else rng.choice(MUTATION_ALPHABET)
            cut = 0 if edit == "insert" else rng.randint(1, 3)
            text = text[:at] + piece + text[at + cut:]
        yield text


# The query printer: renders a parsed query back to concrete syntax, for
# the round-trip tests.

_PRECEDENCE = {Implies: 1, Or: 2, And: 3}


def print_formula(node: Formula) -> str:
    """Render a formula back to concrete syntax (reparses to an equal AST).
    A set operand is written as its name: an inline literal's name is its
    own text."""

    def sigma(sig: Sigma) -> str:
        if sig is None:
            return "{*}"
        return "{" + ",".join(sig) + "}"

    def wrap(sub: Formula, limit: int) -> str:
        text = render(sub)
        if _PRECEDENCE.get(type(sub), 9) <= limit:
            return f"({text})"
        return text

    def render(n: Formula) -> str:
        if type(n) in _ATOMS:
            keyword = _ATOMS[type(n)][0]
            operands = ", ".join(n._values())
            return f"{keyword}({operands})" if operands else keyword
        if isinstance(n, Not):
            return "!" + wrap(n.sub, 3)
        if isinstance(n, And):
            # left-assoc: parenthesize a right child of equal precedence
            return f"{wrap(n.left, 2)} & {wrap(n.right, 3)}"
        if isinstance(n, Or):
            return f"{wrap(n.left, 1)} | {wrap(n.right, 2)}"
        if isinstance(n, Implies):
            # right-assoc: parenthesize a left implication, keep the right
            return f"{wrap(n.left, 1)} -> {wrap(n.right, 0)}"
        if isinstance(n, Temporal):
            return f"{n.op}{sigma(n.sigma)} {wrap(n.sub, 3)}"
        if isinstance(n, Until):
            return (
                f"{n.quant}{sigma(n.sigma)}"
                f"[{render(n.left)} U {render(n.right)}]"
            )
        raise TypeError(f"not a formula node: {n!r}")

    return render(node)


def print_query(query: Query) -> str:
    lines = [
        f"set {name} = {{" + ", ".join(sorted(members)) + "}"
        for name, members in query.sets
        if not name.startswith("{")
    ]
    lines.append("formula: " + print_formula(query.formula))
    return "\n".join(lines) + "\n"


@pytest.fixture
def elma():
    """Household debate: one attack, one convert act that the attacker of
    its source can block."""
    return framework(
        arguments=["a2", "a3", "a4", "a5"],
        attacks=[("a2", "a3")],
        persuasions=[("a3", "a4", "a5")],
        initial=["a2", "a3", "a4"],
    )


@pytest.fixture
def alice():
    """Two concurrent convert acts competing for the same trigger.

    Only the initial state and the two acts matter; the extra arguments
    are inert padding and are not asserted on.
    """
    return framework(
        arguments=["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"],
        attacks=[],
        persuasions=[("a2", "a1", "a4"), ("a3", "a1", "a5")],
        initial=["a1", "a2", "a3"],
    )


@pytest.fixture
def oscillator():
    """Oscillating four-argument system: two mutually converting arguments
    plus two inducements that can resurrect them; 7 reachable states."""
    return framework(
        arguments=["a1", "a2", "a3", "a4"],
        attacks=[],
        persuasions=[
            ("a1", "a2", "a4"),
            ("a2", "a1", "a3"),
            ("a3", None, "a2"),
            ("a4", None, "a1"),
        ],
        initial=["a1", "a2"],
    )


@pytest.fixture
def dung_ab():
    """Static one-attack framework a -> b (no persuasion acts)."""
    return framework(
        arguments=["a", "b"],
        attacks=[("a", "b")],
        persuasions=[],
        initial=["a", "b"],
    )

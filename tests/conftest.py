import pytest

from apa.ctl import And, Not, Or, Visible
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

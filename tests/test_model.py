import pytest

from apa.errors import (
    BadInitial,
    DuplicateArgument,
    UndeclaredArgument,
    ValidationError,
)
from apa.model import PersuasionAct, State, framework


def test_elma_framework_valid(elma):
    assert elma.arguments == ("a2", "a3", "a4", "a5")
    assert elma.attacks == {("a2", "a3")}
    assert elma.persuasions == {PersuasionAct("a3", "a4", "a5")}
    assert elma.initial == {"a2", "a3", "a4"}


def test_undeclared_attack_endpoint():
    with pytest.raises(ValidationError) as excinfo:
        framework(["a2"], attacks=[("a9", "a2")])
    issues = excinfo.value.issues
    assert any(
        isinstance(i, UndeclaredArgument) and i.token == "a9" for i in issues
    )


def test_all_violations_reported():
    with pytest.raises(ValidationError) as excinfo:
        framework(
            ["a1", "a1"],
            attacks=[("zz", "a1")],
            initial=["yy"],
        )
    kinds = {type(i) for i in excinfo.value.issues}
    assert kinds == {DuplicateArgument, UndeclaredArgument, BadInitial}


def test_empty_relations_valid():
    fw = framework(["a", "b"], initial=["a"])
    assert fw.attacks == frozenset()
    assert fw.persuasions == frozenset()


def test_epsilon_cannot_be_declared():
    with pytest.raises(ValidationError):
        framework(["a", "~"])


def test_induced_state_elma(elma):
    state = elma.state(["a2", "a3", "a4"])
    assert elma.induced_attacks(state) == {("a2", "a3")}


def test_induced_state_alice(alice):
    state = alice.state(["a1", "a2", "a3"])
    assert alice.induced_attacks(state) == frozenset()


def test_induced_state_empty(elma):
    state = elma.state([])
    assert state.visible == frozenset()
    assert elma.induced_attacks(state) == frozenset()


def test_induced_state_idempotent(elma):
    state = elma.state(["a2", "a5"])
    assert elma.state(state.visible) == state


def test_attackers_of(elma):
    initial = elma.initial_state
    assert elma.attackers_of(initial, "a3") == {"a2"}
    assert elma.attackers_of(initial, "a2") == frozenset()
    # a2 invisible: no visible attacker of a3
    assert elma.attackers_of(elma.state(["a3", "a4"]), "a3") == frozenset()


def test_attackers_subset_of_visible(oscillator):
    for visible in (["a1"], ["a1", "a2"], ["a1", "a2", "a3", "a4"]):
        state = oscillator.state(visible)
        for a in oscillator.arguments:
            assert oscillator.attackers_of(state, a) <= state.visible


def test_state_equality_ignores_order():
    assert State(frozenset(["a", "b"])) == State(frozenset(["b", "a"]))
    assert State(frozenset(["a"])) != State(frozenset(["b"]))


def test_sorted_output_follows_declaration_order():
    fw = framework(["z", "m", "a"])
    assert fw.sort_args(["a", "z", "m"]) == ("z", "m", "a")
    assert fw.format_set(["a", "z"]) == "{z,a}"

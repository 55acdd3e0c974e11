import pytest

from apa.errors import (
    ApaError,
    BadInitial,
    DuplicateArgument,
    UndeclaredArgument,
    UnknownName,
    ValidationError,
)
from apa.model import PersuasionAct, State, framework
from apa.semantics import defends


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


def test_attackers_elma(elma):
    assert elma.attackers == {
        "a2": frozenset(), "a3": {"a2"}, "a4": frozenset(), "a5": frozenset(),
    }


def test_eliminators_elma(elma):
    # convert act (a3, a4, a5): firing it drops a4
    assert elma.eliminators["a4"] == {"a3"}
    assert all(not elma.eliminators[a] for a in ("a2", "a3", "a5"))


def test_relations_without_attacks(alice):
    # two convert acts compete for trigger a1; nothing attacks anything
    assert set(alice.attackers) == set(alice.arguments)
    assert not any(alice.attackers.values())
    assert alice.eliminators["a1"] == {"a2", "a3"}


def test_induced_state_empty(elma):
    state = elma.state([])
    assert state.visible == frozenset()
    assert not any(elma.attackers[a] & state.visible for a in elma.arguments)


def test_convert_to_itself_eliminates_nothing():
    fw = framework(["s", "x", "y"], persuasions=[("s", "x", "x"), ("y", None, "x")])
    assert fw.eliminators == {"s": frozenset(), "x": frozenset(), "y": frozenset()}


def test_induced_state_idempotent(elma):
    state = elma.state(["a2", "a5"])
    assert elma.state(state.visible) == state


def test_attackers_list_invisible_attackers(elma):
    # the maps belong to the framework: a2 stays listed as the attacker of
    # a3 at a state where a2 is invisible, and only the readers restrict it
    state = elma.state(["a3", "a4"])
    assert elma.attackers["a3"] == {"a2"}
    assert elma.attackers["a3"] & state.visible == frozenset()
    assert defends(elma, frozenset(), "a3", state)


def test_state_rejects_undeclared_arguments(elma):
    with pytest.raises(UnknownName, match="zz, zz2") as exc:
        elma.state(["a2", "zz2", "zz"])
    assert isinstance(exc.value, ApaError)
    assert exc.value.names == ("zz", "zz2")
    assert "a2" not in str(exc.value)
    assert elma.state(["a4", "a2"]) == State(frozenset(["a2", "a4"]))


def test_state_equality_ignores_order():
    assert State(frozenset(["a", "b"])) == State(frozenset(["b", "a"]))
    assert State(frozenset(["a"])) != State(frozenset(["b"]))


def test_sorted_output_follows_declaration_order():
    fw = framework(["z", "m", "a"])
    assert fw.sort_args(["a", "z", "m"]) == ("z", "m", "a")
    assert fw.format_set(["a", "z"]) == "{z,a}"

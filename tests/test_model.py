import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import characteristic, moves

from apa.errors import (
    ApaError,
    BadArgumentName,
    BadInitial,
    DuplicateArgument,
    UndeclaredArgument,
    UnknownName,
    ValidationError,
)
from apa.model import PersuasionAct, State, framework


def test_elma_framework_valid(elma):
    assert elma.arguments == ("a2", "a3", "a4", "a5")
    assert elma.attacks == {("a2", "a3")}
    assert elma.persuasions == {PersuasionAct("a3", "a4", "a5")}
    assert elma.initial == {"a2", "a3", "a4"}


def test_undeclared_attack_endpoint():
    # an empty argument list is reported as one undeclared argument too
    for arguments, attacks, token in [
        (["a2"], [("a9", "a2")], "a9"),
        ([], [], "<no arguments declared>"),
    ]:
        with pytest.raises(ValidationError) as excinfo:
            framework(arguments, attacks=attacks)
        issues = excinfo.value.issues
        assert any(
            isinstance(i, UndeclaredArgument) and i.token == token
            for i in issues
        )
        assert token in str(excinfo.value)


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
    with pytest.raises(ValidationError) as excinfo:
        framework(["a", "~"])
    assert [type(i) for i in excinfo.value.issues] == [BadArgumentName]


@pytest.mark.parametrize("name", ["a,b", "~", "1a", 7])
def test_bad_argument_names_rejected(name):
    # names that no output format could print back unambiguously
    with pytest.raises(ValidationError) as excinfo:
        framework(["c", name], attacks=[("c", name)])
    issues = excinfo.value.issues
    assert any(isinstance(i, BadArgumentName) and i.token == name for i in issues)


def relation(fw, name):
    """One per-argument relation of `fw.masks`, decoded to names."""
    masks = getattr(fw.masks, name)
    return {a: fw.members(masks[fw.arguments.index(a)]) for a in fw.arguments}


def test_attackers_elma(elma):
    assert elma.masks.bit == {"a2": 1, "a3": 2, "a4": 4, "a5": 8}
    assert relation(elma, "attackers") == {
        "a2": frozenset(), "a3": {"a2"}, "a4": frozenset(), "a5": frozenset(),
    }
    assert relation(elma, "clash") == {
        "a2": {"a3"}, "a3": {"a2"}, "a4": frozenset(), "a5": frozenset(),
    }


def test_eliminators_elma(elma):
    # convert act (a3, a4, a5): firing it drops a4, so a3 threatens a4
    # without attacking it
    threats = relation(elma, "threats")
    assert threats["a4"] == {"a3"}
    assert threats["a3"] == {"a2"}  # its attacker
    assert all(not threats[a] for a in ("a2", "a5"))
    assert moves(elma) == {PersuasionAct("a3", "a4", "a5"): (4, 8)}


def test_relations_without_attacks(alice):
    # two convert acts compete for trigger a1; nothing attacks anything
    assert set(relation(alice, "attackers")) == set(alice.arguments)
    assert not any(alice.masks.attackers) and not any(alice.masks.clash)
    assert relation(alice, "threats")["a1"] == {"a2", "a3"}


def test_induced_state_empty(elma):
    state = elma.state([])
    assert state.visible == frozenset()
    assert elma.mask(state.visible) == 0
    assert not any(m & elma.mask(state.visible) for m in elma.masks.attackers)


def test_convert_to_itself_eliminates_nothing():
    fw = framework(["s", "x", "y"], persuasions=[("s", "x", "x"), ("y", None, "x")])
    assert fw.masks.threats == (0, 0, 0)
    assert moves(fw)[PersuasionAct("s", "x", "x")] == (2, 2)
    assert moves(fw)[PersuasionAct("y", None, "x")] == (0, 2)


def test_mask_and_members_round_trip(elma):
    for args in (set(), {"a2"}, {"a5", "a3"}, set(elma.arguments)):
        assert elma.members(elma.mask(args)) == args
    assert elma.mask(["a2", "a4"]) == 5 and elma.members(10) == {"a3", "a5"}


def test_induced_state_idempotent(elma):
    state = elma.state(["a2", "a5"])
    assert elma.state(state.visible) == state


def test_attackers_list_invisible_attackers(elma):
    # the masks belong to the framework: a2 stays listed as the attacker of
    # a3 at a state where a2 is invisible, and only the readers restrict it
    state = elma.state(["a3", "a4"])
    attackers = elma.masks.attackers[elma.arguments.index("a3")]
    assert elma.members(attackers) == {"a2"}
    assert attackers & elma.mask(state.visible) == 0
    assert "a3" not in state.visible \
        or "a3" in characteristic(elma, frozenset(), state)


def test_state_rejects_undeclared_arguments(elma):
    with pytest.raises(UnknownName, match="zz, zz2") as exc:
        elma.state(["a2", "zz2", "zz"])
    assert isinstance(exc.value, ApaError)
    assert "a2" not in str(exc.value)
    assert elma.state(["a4", "a2"]) == State(frozenset(["a2", "a4"]))


def test_state_equality_ignores_order():
    assert State(frozenset(["a", "b"])) == State(frozenset(["b", "a"]))
    assert State(frozenset(["a"])) != State(frozenset(["b"]))


def test_sorted_output_follows_declaration_order():
    fw = framework(["z", "m", "a"])
    assert fw.sort_args(["a", "z", "m"]) == ("z", "m", "a")
    assert fw.format_set(["a", "z"]) == "{z,a}"


def test_act_hashes_as_its_field_tuple():
    act = PersuasionAct("a3", "a4", "a5")
    assert hash(act) == hash(("a3", "a4", "a5"))
    assert hash(PersuasionAct("a3", None, "a5")) == hash(("a3", None, "a5"))


def test_frameworks_compare_by_value(elma):
    twin = framework(
        ["a2", "a3", "a4", "a5"], [("a2", "a3")], [("a3", "a4", "a5")],
        ["a2", "a3", "a4"],
    )
    assert twin is not elma and twin == elma and hash(twin) == hash(elma)
    assert len({elma: 1, twin: 2}) == 1
    assert hash(elma) == hash(
        (elma.arguments, elma.attacks, elma.persuasions, elma.initial)
    )
    other = framework(elma.arguments, elma.attacks, elma.persuasions, ["a2"])
    assert other != elma
    assert elma != (elma.arguments, elma.attacks, elma.persuasions, elma.initial)
    assert repr(framework(["a"])) == (
        "APAFramework(arguments=('a',), attacks=frozenset(), "
        "persuasions=frozenset(), initial=frozenset())"
    )


def test_framework_unpickles_with_this_process_hash(elma):
    """A framework pickled under another string-hash seed hashes, once
    loaded, as an equal framework built here, and pickles back here."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from apa.fileformat import parse_framework; "
         "sys.stdout.buffer.write(pickle.dumps(parse_framework("
         "'arguments: a2 a3 a4 a5\\ninitial: a2 a3 a4\\nattack: a2 -> a3\\n"
         "convert: a3 : a4 => a5\\n')))"],
        env=env, capture_output=True, timeout=60,
    )
    twin = pickle.loads(proc.stdout)
    assert twin == elma and hash(twin) == hash(elma)
    assert {elma: 1}[twin] == 1
    again = pickle.loads(pickle.dumps(twin))
    assert again == elma and hash(again) == hash(elma)


def test_act_order_does_not_depend_on_the_hash_seed():
    """`masks.acts` is the same under any string-hash seed, and it is the
    order in which `print_framework` writes the acts."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json; from apa.fileformat import print_framework; "
        "from apa.oracle import RandomInstanceSpec, random_framework; "
        "fw = random_framework(RandomInstanceSpec(10, 0.2, 6, 6, seed=3)); "
        "print(json.dumps(fw.masks.acts)); print(print_framework(fw), end='')"
    )
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    acts, text = out.split("\n", 1)
    written = [line for line in text.splitlines()
               if line.startswith(("induce:", "convert:"))]
    assert len(written) > 6
    assert written == [
        f"induce: {s} => {t}" if g is None else f"convert: {s} : {g} => {t}"
        for s, g, t in json.loads(acts)
    ]

import gc
import random
import weakref

import pytest

from conftest import characteristic, literal_characteristic

from apa import semantics
from apa.dot import export_dot
from apa.dynamics import ALL, reachable
from apa.errors import TooLarge, UnknownName
from apa.model import State, framework
from apa.oracle import (
    RandomInstanceSpec,
    dung_extensions_bruteforce,
    extensions_bruteforce,
    random_framework,
)
from apa.semantics import (
    complete_sets,
    extensions,
    grounded_set,
    holds,
    is_conflict_free,
)


def fs(*args):
    return frozenset(args)


# -- conflict-freeness -------------------------------------------------------


def test_conflict_free_elma(elma):
    init = elma.initial_state
    assert is_conflict_free(elma, fs("a2", "a4"), init)
    assert not is_conflict_free(elma, fs("a2", "a3"), init)
    assert is_conflict_free(elma, fs(), init)


def test_conflict_invisible_members_ignored(elma):
    # a2 invisible: the a2 -> a3 attack cannot fire inside the candidate
    state = elma.state(["a3", "a4"])
    assert is_conflict_free(elma, fs("a2", "a3"), state)


# -- defendedness ------------------------------------------------------------


def test_defended_is_the_literal_characteristic_function():
    """`_defended`, the subset test against the arguments a candidate
    attacks, is F as the definitions state it, restricted to any `among`:
    on every state of random frameworks at the c03, c06 and c07 sizes, for
    random candidates that may hold invisible arguments."""
    rng = random.Random(1995)
    specs = [
        RandomInstanceSpec(n_args=2 + seed % 5, attack_density=0.3 + seed % 3 / 10,
                           n_induce=seed % 3, n_convert=seed % 4, seed=70000 + seed)
        for seed in range(150)
    ]
    defended = 0
    for fw in map(random_framework, specs):
        masks = fw.masks
        for m in range(1 << len(fw.arguments)):
            state = fw.state_of(m)
            for _ in range(4):
                candidate = frozenset(a for a in fw.arguments if rng.random() < 0.4)
                among = rng.getrandbits(len(fw.arguments)) & m  # F ranges over visible arguments
                want = literal_characteristic(fw, candidate, state)
                assert characteristic(fw, candidate, state) == want
                inn = fw.mask(candidate & state.visible)
                assert semantics._defended(masks, inn, m, among) == \
                    fw.mask(want) & among, (fw, candidate, state)
                defended += len(want)
    assert defended > 1000


def test_defends_no_elimination(elma):
    init = elma.initial_state
    # alone, a4 cannot stop the conversion that drops it
    assert not ("a4" not in init.visible
                or "a4" in characteristic(elma, fs("a4"), init))
    # with a2 in the reference set the act is blocked
    assert "a4" not in init.visible \
        or "a4" in characteristic(elma, fs("a2", "a4"), init)


def test_defends_invisible_vacuous(elma):
    init = elma.initial_state
    assert "a5" not in init.visible or "a5" in characteristic(elma, fs(), init)
    assert "a5" not in init.visible \
        or "a5" in characteristic(elma, fs("a3"), init)


def test_defends_counter_attack(dung_ab):
    init = dung_ab.initial_state
    # attacker a unanswered
    assert not ("b" not in init.visible
                or "b" in characteristic(dung_ab, fs(), init))
    assert "a" not in init.visible \
        or "a" in characteristic(dung_ab, fs("a"), init)


# -- holds / extensions ------------------------------------------------------


def test_admissible_elma(elma):
    init = elma.initial_state
    assert holds(elma, "ad", fs("a2", "a4"), init)
    assert holds(elma, "ad", fs(), init)
    assert not holds(elma, "ad", fs("a4"), init)  # elimination
    assert not holds(elma, "ad", fs("a5"), init)  # not proper


def test_admissible_extensions_elma(elma):
    exts = set(extensions(elma, "ad", elma.initial_state))
    assert exts == {fs(), fs("a2"), fs("a2", "a4")}
    assert all("a5" not in e for e in exts)


def test_dung_fixture_labels(dung_ab):
    init = dung_ab.initial_state
    assert set(extensions(dung_ab, "co", init)) == {fs("a")}
    assert set(extensions(dung_ab, "pr", init)) == {fs("a")}
    assert set(extensions(dung_ab, "st", init)) == {fs("a")}
    assert grounded_set(dung_ab, init) == fs("a")
    assert holds(dung_ab, "co", fs("a"), init)
    assert not holds(dung_ab, "co", fs(), init)


def test_grounded_elma(elma):
    # frozen from the enumeration oracle: {a2,a4} is the only complete set
    assert complete_sets(elma, elma.initial_state) == (fs("a2", "a4"),)
    assert grounded_set(elma, elma.initial_state) == fs("a2", "a4")
    assert holds(elma, "gr", fs("a2", "a4"), elma.initial_state)


def test_grounded_empty_state(elma):
    assert grounded_set(elma, State(frozenset())) == fs()


def test_grounded_memo_dies_with_its_framework():
    # the grounded set is kept on the framework, not in a process-wide
    # cache that would keep the framework alive; no other test builds an
    # equal framework, whose cache entry this one could hit instead
    fw = framework(["w1", "w2"], [("w1", "w2")], initial=["w1", "w2"])
    init = fw.initial_state
    assert holds(fw, "gr", fs("w1"), init)
    ref = weakref.ref(fw)
    del fw, init
    gc.collect()
    assert ref() is None


def test_unknown_label_rejected(elma):
    init = elma.initial_state
    calls = (
        lambda: holds(elma, "xx", fs(), init),
        lambda: extensions(elma, "xx", init),
        lambda: export_dot(reachable(elma, ALL), "xx"),
    )
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "unknown semantics label: 'xx'"


def test_grounded_extension_unique(elma, oscillator):
    for fw in (elma, oscillator):
        for state in reachable(fw, ALL).states:
            assert len(extensions(fw, "gr", state)) == 1


def test_eliminator_as_the_only_threat(elma):
    # a4 has no attacker; the convert act a3 : a4 => a5 is its one threat,
    # answered only by a2's attack on a3
    init = elma.initial_state
    a4 = elma.arguments.index("a4")
    assert not elma.masks.attackers[a4]
    assert elma.members(elma.masks.threats[a4]) == fs("a3")
    assert extensions(elma, "ad", init) == (fs(), fs("a2"), fs("a2", "a4"))
    for label in ("co", "pr", "st", "gr"):
        assert extensions(elma, label, init) == (fs("a2", "a4"),), label
    # without a2 nothing answers a3, so no set holding a4 is admissible
    state = elma.state(["a3", "a4"])
    assert extensions(elma, "ad", state) == (fs(), fs("a3"))
    assert extensions(elma, "co", state) == (fs("a3"),)
    assert extensions(elma, "st", state) == ()


def test_undeclared_state_members_rejected(elma):
    with pytest.raises(UnknownName, match="zz"):
        holds(elma, "ad", fs("zz"), elma.state(["zz"]))
    with pytest.raises(UnknownName, match="zz"):
        extensions(elma, "ad", elma.state(["a2", "zz"]))


def test_enumeration_bound():
    fw = framework([f"a{i}" for i in range(25)], initial=[f"a{i}" for i in range(25)])
    with pytest.raises(TooLarge):
        extensions(fw, "ad", fw.initial_state)
    # override allows it on a small visible set
    assert extensions(fw, "ad", fw.state(["a0"]), max_args=1)


# -- order and inclusion properties ------------------------------------------


def test_empty_set_admissible_everywhere(oscillator):
    for state in reachable(oscillator, ALL).states:
        assert holds(oscillator, "ad", fs(), state)


def test_admissible_subset_of_visible(oscillator):
    for state in reachable(oscillator, ALL).states:
        for ext in extensions(oscillator, "ad", state):
            assert ext <= state.visible


def test_label_chain_on_random_instances():
    # st => pr => co => ad, and a complete set exists, at every state
    for seed in range(40):
        fw = random_framework(
            RandomInstanceSpec(n_args=4, attack_density=0.3, seed=1000 + seed)
        )
        for state in reachable(fw, ALL).states:
            ad = set(extensions(fw, "ad", state))
            co = set(extensions(fw, "co", state))
            pr = set(extensions(fw, "pr", state))
            st = set(extensions(fw, "st", state))
            assert st <= pr <= co <= ad
            assert co


def test_dung_coincidence_small():
    for seed in range(30):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=4, attack_density=0.4, n_induce=0, n_convert=0,
                seed=2000 + seed,
            )
        )
        init = fw.initial_state
        vis = init.visible
        sub_args = fw.sort_args(vis)
        sub_atk = {(a, b) for (a, b) in fw.attacks if a in vis and b in vis}
        reference = dung_extensions_bruteforce(sub_args, sub_atk)
        for label in semantics.LABELS:
            assert set(extensions(fw, label, init)) == set(reference[label])


def test_admissibility_not_preserved_by_transition(elma):
    # shipped witness: admissible before the unrestricted transition,
    # not admissible after it
    before = elma.initial_state
    after = elma.state(["a2", "a3", "a5"])
    assert holds(elma, "ad", fs("a2", "a4"), before)
    assert not holds(elma, "ad", fs("a2", "a4"), after)


def test_holds_agrees_with_extensions_on_random_instances():
    # the c03 sweep: at every reachable state, the complete sets the search
    # returns and each label's extensions equal the brute-force reference's,
    # order included, and each listed extension and 3 random subsets of the
    # visible set satisfy `holds` exactly when they are listed (so
    # `sem(pr, X)` agrees with the reference too); the least fixpoint of
    # defence is the intersection of the complete sets
    for seed in range(500):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=2 + seed % 5,
                attack_density=0.3,
                n_induce=1,
                n_convert=2,
                seed=seed,
            )
        )
        rng = random.Random(seed)
        for state in reachable(fw, ALL).states:
            vis = sorted(state.visible)
            randoms = [
                frozenset(a for a in vis if rng.random() < 0.5) for _ in range(3)
            ]
            cos = complete_sets(fw, state)
            assert cos == extensions_bruteforce(fw, "co", state), (seed, state)
            for label in semantics.LABELS:
                exts = extensions(fw, label, state)
                assert exts == extensions_bruteforce(fw, label, state), (
                    seed, state, label,
                )
                for cand in list(exts) + randoms:
                    assert holds(fw, label, cand, state) == (cand in exts), (
                        seed, state, label, cand,
                    )
            # stable by its textbook definition: preferred and attacking
            # every visible non-member
            assert extensions(fw, "st", state) == tuple(
                c for c in extensions(fw, "pr", state)
                if all(
                    any((m, other) in fw.attacks for m in c)
                    for other in state.visible - c
                )
            ), (seed, state)
            assert grounded_set(fw, state) == frozenset.intersection(*cos), (
                seed, state,
            )


@pytest.mark.parametrize(
    "members", [("a2", "a4", "zz"), ("a2", "a4", "a5"), ("zz",)],
    ids=["undeclared", "invisible", "only-undeclared"],
)
def test_membership_ignores_invisible_and_undeclared_members(elma, members):
    # a candidate holding an invisible or undeclared name is no extension,
    # and the building blocks read only its visible members
    init = elma.initial_state
    cand = frozenset(members)
    vis = cand & init.visible
    for label in semantics.LABELS:
        assert holds(elma, label, cand, init) is False, label
    assert is_conflict_free(elma, cand, init) == is_conflict_free(elma, vis, init)
    for arg in elma.arguments + ("zz",):
        assert (arg not in init.visible
                or arg in characteristic(elma, cand, init)) == \
            (arg not in init.visible
             or arg in characteristic(elma, vis, init)), arg

import random
import time
import types

import pytest

from conftest import moves

from apa import ctl, dynamics
from apa.dynamics import (
    ALL,
    SelectorFamily,
    possible_acts,
    reachable,
    successor_states,
)
from apa.errors import TooLarge
from apa.model import PersuasionAct, State, framework
from apa.oracle import (
    RandomInstanceSpec,
    random_framework,
    random_refset,
    successors_bruteforce,
)

ELMA_ACT = PersuasionAct("a3", "a4", "a5")


def visible_sets(states):
    return {frozenset(s.visible) for s in states}


# -- possible_acts -----------------------------------------------------------


def test_possible_acts_alice(alice):
    acts = possible_acts(alice, frozenset(), alice.initial_state)
    assert acts == {
        PersuasionAct("a2", "a1", "a4"),
        PersuasionAct("a3", "a1", "a5"),
    }
    # no attacks at all, so any reference set yields the same acts
    acts = possible_acts(alice, frozenset(alice.arguments), alice.initial_state)
    assert len(acts) == 2


def test_possible_acts_blocked(elma):
    assert possible_acts(elma, frozenset(["a2"]), elma.initial_state) == frozenset()
    assert possible_acts(elma, frozenset(), elma.initial_state) == {ELMA_ACT}


def test_possible_acts_invisible_trigger(elma):
    state = elma.state(["a2", "a3", "a5"])
    assert possible_acts(elma, frozenset(), state) == frozenset()


def test_possible_acts_antitone_blocking(oscillator, elma):
    rng = random.Random(7)
    for fw in (oscillator, elma):
        args = list(fw.arguments)
        for _ in range(30):
            small = frozenset(a for a in args if rng.random() < 0.4)
            big = small | frozenset(a for a in args if rng.random() < 0.4)
            state = fw.state(a for a in args if rng.random() < 0.6)
            assert possible_acts(fw, big, state) <= possible_acts(fw, small, state)


# -- successor_states --------------------------------------------------------

OFFSET = framework(["a1"], persuasions=[("a1", "a1", "a1")], initial=["a1"])
SELF_INDUCE = framework(["a1"], persuasions=[("a1", None, "a1")], initial=["a1"])


def test_neg_set_elma(elma):
    # the convert act drops its trigger a4
    (succ,) = successor_states(elma, frozenset(), elma.initial_state)
    assert elma.initial_state.visible - succ.visible == {"a4"}


def test_neg_set_induce_only():
    # an induce act drops nothing
    fw = framework(["a1", "a2"], persuasions=[("a1", None, "a2")], initial=["a1"])
    (succ,) = successor_states(fw, frozenset(), fw.initial_state)
    assert fw.initial_state.visible - succ.visible == frozenset()
    # without a possible act there is no step at all
    assert successor_states(fw, frozenset(), fw.state(["a2"])) == frozenset()


def test_pos_set_elma(elma):
    # the convert act adds its target a5; blocked by {a2}, nothing is added
    (succ,) = successor_states(elma, frozenset(), elma.initial_state)
    assert succ.visible - elma.initial_state.visible == {"a5"}
    assert successor_states(elma, frozenset(["a2"]), elma.initial_state) == frozenset()


def test_pos_set_visible_target():
    # an induce act whose target is already visible leaves the state as is
    (succ,) = successor_states(SELF_INDUCE, frozenset(), SELF_INDUCE.initial_state)
    assert succ.visible == {"a1"}


def test_apply_elma(elma):
    (succ,) = successor_states(elma, frozenset(), elma.initial_state)
    assert succ.visible == {"a2", "a3", "a5"}


@pytest.mark.parametrize(
    "fw, refset, expected",
    [
        # a2 blocks the source a3 of the convert act
        ("elma", {"a2"}, []),
        # dropping and re-adding the same argument offsets
        (OFFSET, set(), [{"a1"}]),
        # both converts fire at once, or either one alone
        ("oscillator", set(), [{"a3", "a4"}, {"a1", "a4"}, {"a2", "a3"}]),
    ],
    ids=["elma-blocked", "offset", "oscillator-step"],
)
def test_successor_states(request, fw, refset, expected):
    if isinstance(fw, str):
        fw = request.getfixturevalue(fw)
    succ = successor_states(fw, frozenset(refset), fw.initial_state)
    assert visible_sets(succ) == {frozenset(v) for v in expected}


def test_successors_alice_three_branches(alice):
    states = successor_states(alice, frozenset(), alice.initial_state)
    assert visible_sets(states) == {
        frozenset(["a2", "a3", "a4"]),
        frozenset(["a2", "a3", "a5"]),
        frozenset(["a2", "a3", "a4", "a5"]),
    }


def test_successors_count_bound():
    rng = random.Random(11)
    for seed in range(20):
        fw = random_framework(
            RandomInstanceSpec(n_args=4, n_induce=2, n_convert=2, seed=seed)
        )
        state = fw.initial_state
        refset = frozenset(a for a in fw.arguments if rng.random() < 0.3)
        acts = possible_acts(fw, refset, state)
        assert len(successor_states(fw, refset, state)) <= 2 ** len(acts) - 1


def test_successor_visibility_accounting():
    # every visible argument of a successor either survived or is the
    # target of a possible act; every dropped argument is the trigger of a
    # possible convert act
    for seed in range(30):
        fw = random_framework(
            RandomInstanceSpec(n_args=5, n_induce=1, n_convert=3, seed=seed)
        )
        state = fw.initial_state
        acts = possible_acts(fw, frozenset(), state)
        targets = {act.target for act in acts}
        triggers = {act.trigger for act in acts}
        for succ in successor_states(fw, frozenset(), state):
            assert succ.visible <= state.visible | targets
            assert state.visible - succ.visible <= triggers


#: Every shape the grouped fold must get right, in one framework: a1's
#: two converts share the trigger a2; (a5, a3, a4) converts the target a3
#: of one of them (a chain); (a5, a6, a6) converts a6 into itself; the
#: induce (a5, ~, a5) targets a visible argument; and (a7, a8, a9) and
#: the induce (a9, ~, a10) touch arguments no other act does, so they
#: form a group of their own. The attacks make some reference sets block
#: acts.
SHAPES = framework(
    [f"a{i}" for i in range(1, 11)],
    attacks=[("a4", "a1"), ("a6", "a7"), ("a10", "a9")],
    persuasions=[
        ("a1", "a2", "a3"), ("a1", "a2", "a4"), ("a5", "a3", "a4"),
        ("a5", "a6", "a6"), ("a5", None, "a5"),
        ("a7", "a8", "a9"), ("a9", None, "a10"),
    ],
    initial=["a1", "a2", "a3", "a5", "a6", "a7", "a8"],
)


def trigger_ring(k):
    """2k converts s : g_i => g_{i+1} and s : g_i => g_{i+2} (indices mod
    k), every argument visible: each act re-adds triggers that other acts
    drop."""
    triggers = [f"g{i}" for i in range(k)]
    return framework(
        ["s"] + triggers,
        persuasions=[
            ("s", triggers[i], triggers[(i + j) % k])
            for i in range(k) for j in (1, 2)
        ],
        initial=["s"] + triggers,
    )


def _shapes(fw, acts, state):
    """The shapes of the acts possible at `state` that the grouped fold
    has to combine correctly."""
    converts = [act for act in acts if act.trigger is not None]
    triggers = [act.trigger for act in converts]
    move = moves(fw)
    return {
        "shared trigger": len(set(triggers)) < len(triggers),
        "chain": any(
            a.target == b.trigger for a in acts for b in converts if a != b
        ),
        "self-convert": any(act.trigger == act.target for act in converts),
        "visible induce": any(
            act.trigger is None and act.target in state.visible for act in acts
        ),
        "two groups": len(dynamics._groups(move[act] for act in acts)) > 1,
    }


def test_grouped_fold_matches_bruteforce():
    """At every reachable state, under the empty and random reference
    sets, the grouped fold gives exactly the successors of firing every
    nonempty subset of the possible acts."""
    rng = random.Random(9)
    frameworks = [SHAPES, trigger_ring(5)] + [
        random_framework(
            RandomInstanceSpec(
                n_args=3 + seed % 6, attack_density=0.15,
                n_induce=1 + seed % 4, n_convert=2 + seed % 5,
                seed=60000 + seed,
            )
        )
        for seed in range(120)
    ]
    seen = dict.fromkeys(_shapes(SHAPES, (), SHAPES.initial_state), 0)
    for fw in frameworks:
        assert len(fw.persuasions) <= 12
        for state in reachable(fw, ALL).states:
            for refset in (frozenset(), random_refset(rng, fw), random_refset(rng, fw)):
                assert successor_states(fw, refset, state) == \
                    successors_bruteforce(fw, refset, state), (fw, refset, state)
                acts = possible_acts(fw, refset, state)
                for shape, present in _shapes(fw, acts, state).items():
                    seen[shape] += present
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "spec, counts",
    [
        (RandomInstanceSpec(12, 0.15, 6, 6, seed=85), (172, 2446)),
        (RandomInstanceSpec(14, 0.15, 8, 8, seed=164), (152, 2246)),
    ],
    ids=["explore-12", "explore-14"],
)
def test_wildcard_lts_counts_pinned(spec, counts):
    # the two smallest rungs of the benchmark's explore ladder, counted
    # by the subset-folding code before acts were grouped
    lts = reachable(random_framework(spec), ALL)
    assert (len(lts.states), len(lts.edges)) == counts


@pytest.mark.parametrize(
    "spec, sigma",
    [
        (RandomInstanceSpec(14, 0.15, 8, 8, seed=164), ALL),
        (RandomInstanceSpec(10, 0.2, 5, 5, seed=3), None),
    ],
    ids=["explore-14", "two-selectors"],
)
def test_tables_hold_the_successor_sets(spec, sigma):
    # the relation is stored once: states hash and compare in C, and each
    # table entry is the very set `successor_states` returned
    assert not isinstance(State.__hash__, types.FunctionType)
    assert not isinstance(State.__eq__, types.FunctionType)
    fw = random_framework(spec)
    if sigma is None:
        sigma = SelectorFamily((frozenset(), frozenset(fw.arguments[::2])))
    lts = reachable(fw, sigma, max_states=1000)
    assert lts.initial in lts.states
    for i, (refset, table) in enumerate(zip(sigma.effective, lts.tables)):
        assert table.keys() == set(lts.states)
        for state, succs in table.items():
            assert succs is successor_states(fw, refset, state, max_states=1000)
            assert lts.successors_of(state, [i]) is succs


@pytest.mark.parametrize("two_selectors", [False, True],
                         ids=["all", "two-selectors"])
def test_each_state_is_one_object(two_selectors):
    # every edge into a state shares the one `State` the framework decoded
    # for it; the cache is cleared first because it is keyed on framework
    # equality and could hand back States an equal framework decoded
    successor_states.cache_clear()
    fw = random_framework(RandomInstanceSpec(12, 0.15, 6, 6, seed=77))
    sigma = ALL
    if two_selectors:
        args = fw.arguments
        sigma = SelectorFamily((frozenset(args[::2]), frozenset(args[1::3])))
    lts = reachable(fw, sigma)
    canonical = {state: state for state in lts.states}
    assert fw.initial_state is lts.initial
    for table in lts.tables:
        for state, succs in table.items():
            assert canonical[state] is state
            assert all(canonical[succ] is succ for succ in succs)
    assert len(fw._states) == len(lts.states)
    assert all(fw.state(s.visible) is s for s in lts.states)


# -- the fold table ----------------------------------------------------------

#: The frameworks of the acceptance sweeps c03, c06 and c07, by seed.
SWEEP_SIZES = {
    "c03": lambda seed: RandomInstanceSpec(
        n_args=2 + seed % 5, attack_density=0.3, n_induce=1, n_convert=2,
        seed=seed,
    ),
    "c06": lambda seed: RandomInstanceSpec(
        n_args=2 + seed % 5, attack_density=0.35, n_induce=0, n_convert=0,
        initial_density=0.7, seed=30000 + seed,
    ),
    "c07": lambda seed: RandomInstanceSpec(
        n_args=2 + seed % 5, n_induce=2, n_convert=2, seed=40000 + seed,
    ),
}


def counting_folds(monkeypatch):
    """Record the (visible mask, act bits) of every fold that runs."""
    folds = []
    fold = dynamics._fold

    def counted(screens, vis, acts, max_states):
        folds.append((vis, acts))
        return fold(screens, vis, acts, max_states)

    monkeypatch.setattr(dynamics, "_fold", counted)
    return folds


@pytest.mark.parametrize("sweep", sorted(SWEEP_SIZES))
def test_shared_fold_matches_bruteforce(sweep, monkeypatch):
    """At every state of the c03/c06/c07 sweep frameworks, under selectors
    that screen nothing (the empty set, and the arguments that attack no
    source) and selectors that can screen (every argument, a random set),
    the successors are the brute-force ones, though selectors that leave a
    state the same acts share one fold."""
    successor_states.cache_clear()
    folds = counting_folds(monkeypatch)
    rng = random.Random(f"shared-fold/{sweep}")
    screened = 0
    for seed in range(100):
        fw = random_framework(SWEEP_SIZES[sweep](seed))
        sources = {act.source for act in fw.persuasions}
        quiet = frozenset(a for a in fw.arguments
                          if not any((a, s) in fw.attacks for s in sources))
        refsets = (frozenset(), quiet, frozenset(fw.arguments),
                   random_refset(rng, fw))
        before = len(folds)
        for m in range(1 << len(fw.arguments)):
            state = fw.state_of(m)
            for refset in refsets:
                assert successor_states(fw, refset, state) == \
                    successors_bruteforce(fw, refset, state), (fw, refset, state)
            acts = possible_acts(fw, refsets[0], state)
            assert possible_acts(fw, quiet, state) == acts
            screened += possible_acts(fw, refsets[2], state) < acts
        # each fold is kept, and none is done twice for one framework
        assert sorted(folds[before:]) == sorted(fw.folds)
    assert len(folds) < successor_states.cache_info().misses / 2
    assert screened or sweep == "c06"


def test_one_fold_per_visible_set_and_possible_acts(monkeypatch):
    """On the sweep rung, a family of four selectors folds once per
    distinct (visible mask, possible acts) pair: fewer times than
    `successor_states` misses its cache."""
    successor_states.cache_clear()
    folds = counting_folds(monkeypatch)
    fw = random_framework(RandomInstanceSpec(12, 0.15, 6, 6, seed=3))
    family = SelectorFamily((
        frozenset(), frozenset(["a12"]), frozenset(["a11", "a12", "a3"]),
        frozenset(fw.arguments),
    ))
    lts = reachable(fw, family)
    keys = {
        (vis, dynamics._screen(fw, refset, vis))
        for vis in (fw.mask(s.visible) for s in lts.states)
        for refset in family.effective
    }
    misses = successor_states.cache_info().misses
    assert misses == len(lts.states) * len(family.effective)
    assert sorted(folds) == sorted(keys) == sorted(fw.folds)
    assert len(folds) < misses


def raises_too_large(call) -> bool:
    try:
        call()
    except TooLarge:
        return True
    return False


def test_too_large_as_a_fresh_fold_raises_it():
    """A fresh fold and a table hit under a bound both raise TooLarge
    exactly when more distinct successors exist than the bound, also on a
    hit for an entry folded under a larger bound."""
    successor_states.cache_clear()
    # the idle induce of t makes the state itself a successor: its two
    # successors exceed the bound 1
    idle = framework(["s", "t", "u"], persuasions=[("s", None, "t"), ("s", None, "u")],
                     initial=["s", "t"])
    state = idle.initial_state
    assert len(successor_states(idle, frozenset(), state)) == 2
    with pytest.raises(TooLarge):
        successor_states(idle, frozenset(), state, max_states=1)
    # a raising fold leaves no entry behind
    ring = trigger_ring(5)
    key = (ring.mask(ring.arguments), (1 << len(ring.persuasions)) - 1)
    with pytest.raises(TooLarge):
        successor_states(ring, frozenset(), ring.initial_state, max_states=3)
    assert key not in ring.folds
    rng = random.Random(17)
    # `successor_states`' cache is keyed on framework equality, so a
    # framework equal to an earlier one reads that one's sets, not its own
    # fold table: each distinct framework is checked once
    frameworks = dict.fromkeys([idle, ring, SHAPES] + [
        random_framework(SWEEP_SIZES[sweep](seed))
        for sweep in ("c03", "c06", "c07") for seed in range(40)
    ])
    raised = 0
    for fw in frameworks:
        lts = reachable(fw, ALL)
        for state in lts.states:
            vis = fw.mask(state.visible)
            key = (vis, dynamics._screen(fw, frozenset(), vis))
            assert lts.tables[0][state] is fw.folds[key]
        for m in range(1 << len(fw.arguments)):
            state = fw.state_of(m)
            for refset in (frozenset(), random_refset(rng, fw)):
                acts = dynamics._screen(fw, refset, m)
                full = successor_states(fw, refset, state)  # fills the table
                assert fw.folds[(m, acts)] is full
                assert full == successors_bruteforce(fw, refset, state)
                for bound in range(len(full) + 2):
                    fresh = raises_too_large(
                        lambda: dynamics._fold(fw.masks.screens, m, acts, bound))
                    hit = raises_too_large(lambda: successor_states(
                        fw, refset, state, max_states=bound))
                    assert hit == fresh == (len(full) > bound), (fw, refset, state, bound)
                    raised += hit
    assert raised > 100


def test_labeling_shares_one_selector_tables():
    # a one-selector family's stutter-completed table is the LTS's own set
    # wherever it is nonempty; a two-selector family's is their union
    fw = random_framework(RandomInstanceSpec(10, 0.2, 5, 5, seed=5))
    odd = ", ".join(fw.arguments[::2])
    labeling = ctl.Labeling(fw, ctl.parse_query(
        f"set B = {{{odd}}}\nset Z = {{}}\n"
        "formula: EX{B} visible(a1) | EX{Z,B} visible(a2)"
    ))
    lts = labeling.lts
    tables = dict(zip(lts.family.selectors, lts.tables))
    one, empty = tables[frozenset(fw.arguments[::2])], tables[frozenset()]
    stuttered = 0
    for state in lts.states:
        succs = labeling.successors(("B",), state)
        if one[state]:
            assert succs is one[state]
        else:
            stuttered += 1
            assert succs == {state}
        union = one[state] | empty[state]
        assert labeling.successors(("Z", "B"), state) == (union or {state})
    assert 0 < stuttered < len(lts.states)


# -- reachable ---------------------------------------------------------------


def test_reachable_elma_all(elma):
    lts = reachable(elma, ALL)
    assert visible_sets(lts.states) == {
        frozenset(["a2", "a3", "a4"]),
        frozenset(["a2", "a3", "a5"]),
    }
    assert len(lts.edges) == 1
    assert lts.deadlocks == {State(frozenset(["a2", "a3", "a5"]))}


def test_reachable_elma_blocking_selector(elma):
    lts = reachable(elma, SelectorFamily((frozenset({"a2", "a5"}),)))
    assert lts.states == (elma.initial_state,)
    assert lts.deadlocks == {elma.initial_state}


def test_reachable_static_framework(dung_ab):
    lts = reachable(dung_ab, ALL)
    assert lts.states == (dung_ab.initial_state,)
    assert lts.edges == ()


def test_reachable_oscillator(oscillator):
    lts = reachable(oscillator, ALL)
    assert len(lts.states) == 7
    assert visible_sets(lts.states) == {
        frozenset(["a1", "a2"]),
        frozenset(["a1", "a4"]),
        frozenset(["a2", "a3"]),
        frozenset(["a3", "a4"]),
        frozenset(["a2", "a3", "a4"]),
        frozenset(["a1", "a3", "a4"]),
        frozenset(["a1", "a2", "a3", "a4"]),
    }
    assert lts.deadlocks == frozenset()


def test_reachable_deterministic(oscillator):
    a = reachable(oscillator, ALL)
    b = reachable(oscillator, ALL)
    assert a.states == b.states
    assert a.edges == b.edges


def test_shared_trigger_fold_stays_small():
    # 40 converts s : g => t_i with every t_i visible drop g whichever of
    # them fire: one successor, found without a pair per subset of acts
    targets = [f"t{i}" for i in range(40)]
    fw = framework(
        ["s", "g"] + targets,
        persuasions=[("s", "g", t) for t in targets],
        initial=["s", "g"] + targets,
    )
    start = time.perf_counter()
    lts = reachable(fw, ALL, max_states=16)
    assert time.perf_counter() - start < 1.0
    assert visible_sets(lts.states) == {
        frozenset(fw.arguments), frozenset(fw.arguments) - {"g"}
    }


def test_re_added_triggers_fold_stays_small():
    # a pair is kept per distinct effect on the triggers of the acts still
    # to fold, not per effect on every trigger of the group
    fw = trigger_ring(14)
    start = time.perf_counter()
    succs = successor_states(fw, frozenset(), fw.initial_state, max_states=10_000)
    assert time.perf_counter() - start < 1.0
    assert len(succs) == 5071


def test_targets_decoded_once_per_state():
    # 298,494 edges into 2,880 states: the fold decodes each target mask
    # once; decoding it per edge took 3-4 s (Python 3.11, 2 vCPUs)
    successor_states.cache_clear()
    fw = random_framework(RandomInstanceSpec(24, 0.12, 18, 18, seed=9))
    start = time.perf_counter()
    lts = reachable(fw, ALL)
    assert time.perf_counter() - start < 2.0
    (table,) = lts.tables
    assert len(lts.states) == 2880
    assert sum(map(len, table.values())) == 298_494
    assert len({id(t) for succs in table.values() for t in succs}) == 2880


def test_reachable_state_bound(oscillator):
    with pytest.raises(TooLarge):
        reachable(oscillator, ALL, max_states=3)


def test_state_count_bounded_by_powerset():
    for seed in range(20):
        fw = random_framework(
            RandomInstanceSpec(n_args=4, n_induce=2, n_convert=2, seed=100 + seed)
        )
        lts = reachable(fw, ALL)
        assert len(lts.states) <= 2 ** len(fw.arguments)


def test_selector_indices_label_edges(elma):
    family = SelectorFamily((frozenset(), frozenset({"a2"})))
    lts = reachable(elma, family)
    # selector 0 (empty refset) admits the act, selector 1 blocks it
    assert {(s.visible, i) for s, i, _ in lts.edges} == {
        (frozenset(["a2", "a3", "a4"]), 0)
    }


def _derived_views_match_tables(lts):
    """`edges` is every table entry sorted by (source key, selector index,
    target key); `deadlocks` the states whose tables are all empty."""
    key = lambda s: sorted(map(lts.framework.arguments.index, s.visible))
    entries = [
        (s, i, t)
        for i, table in enumerate(lts.tables)
        for s, succs in table.items()
        for t in succs
    ]
    assert lts.edges == tuple(
        sorted(entries, key=lambda e: (key(e[0]), e[1], key(e[2])))
    )
    assert lts.deadlocks == {
        s for s in lts.states if not any(table[s] for table in lts.tables)
    }
    assert list(lts.states) == sorted(lts.states, key=key)


def test_edges_and_deadlocks_derive_from_tables():
    fw = random_framework(RandomInstanceSpec(12, 0.15, 6, 6, seed=5))
    lts = reachable(fw, ALL)
    assert (len(lts.states), len(lts.edges)) == (108, 1934)
    _derived_views_match_tables(lts)
    rng = random.Random(4242)
    for seed in range(200):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=3 + seed % 5, n_induce=1 + seed % 3,
                n_convert=1 + seed % 4, seed=9000 + seed,
            )
        )
        pick = lambda: frozenset(a for a in fw.arguments if rng.random() < 0.4)
        for family in (
            ALL,
            SelectorFamily((pick(),)),
            SelectorFamily((pick(), frozenset(), pick())),
        ):
            _derived_views_match_tables(reachable(fw, family))

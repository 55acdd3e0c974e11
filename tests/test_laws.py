"""Laws of the model that need no oracle, checked on seeded frameworks,
some of them past the sizes the brute-force oracle accepts (12 visible
arguments, 12 acts)."""

import functools
import random

from conftest import varying_operand

from apa import ctl
from apa.ctl import And, Bottom, Not, Or, Query, Temporal, Until
from apa.dynamics import ALL, reachable, successor_states
from apa.model import framework
from apa.oracle import RandomInstanceSpec, random_framework, random_refset
from apa.semantics import extensions

#: Small frameworks in the oracle's range, then larger ones past it: an
#: explore rung of the benchmark's ladder (14 arguments, 16 acts) and three
#: with 18 arguments, up to 17 of them visible, and 16 acts.
PERSISTENCE_SPECS = [
    RandomInstanceSpec(7, 0.2, 2, 4, seed=700 + seed) for seed in range(40)
] + [RandomInstanceSpec(14, 0.15, 8, 8, seed=164)] + [
    RandomInstanceSpec(18, 0.12, 6, 10, 0.8, seed=seed) for seed in (1, 3, 4)
]


def test_persistence_of_admissible_sets():
    """If X is admissible at s, every successor of s under reference set
    X keeps X visible: defence answers every act that could drop a member
    (README, "Concepts"). Checked at every reachable state, and as the
    query AG{*}(sem(ad,X) -> AX{X}(visible(x) & ...)) for the largest
    admissible set found."""
    moves = 0
    for spec in PERSISTENCE_SPECS:
        fw = random_framework(spec)
        largest = frozenset()
        for state in reachable(fw, ALL).states:
            for X in extensions(fw, "ad", state):
                succs = successor_states(fw, X, state)
                assert all(X <= succ.visible for succ in succs), (spec, state, X)
                moves += bool(succs)
                largest = max(largest, X, key=len)
        members = fw.sort_args(largest)
        query = ctl.parse_query(
            f"set X = {{{', '.join(members)}}}\nformula: AG{{*}}(sem(ad,X) -> "
            f"AX{{X}}({' & '.join(f'visible({x})' for x in members)}))"
        )
        assert ctl.check(fw, query).value is True, spec
    assert moves > 1000


#: The static frames of the benchmark's extensions rungs.
EXTENSIONS_SPECS = [
    RandomInstanceSpec(14, 0.15, 0, 0, initial_density=1.0, seed=1),
    RandomInstanceSpec(16, 0.15, 0, 0, initial_density=1.0, seed=2),
]


def random_sets(rng, fw, count):
    return tuple((f"S{i}", random_refset(rng, fw)) for i in range(1, count + 1))


def labelled_together(fw, sets, formulas):
    """One labelling of the conjunction of `formulas`: every one of them is
    labelled over the same states."""
    query = Query(sets=sets, formula=functools.reduce(And, formulas))
    return ctl.Labeling(fw, query)


def unfoldings(sigma, p, q):
    """Pairs of formulas that hold at the same states: the fixpoint
    unfoldings of EF, E[U] and EG, E[p U false] = false (E[U] is the
    least of its fixpoints), and the dualities of AG and A[U]."""
    ef = Temporal("EF", sigma, p)
    eu = Until("E", sigma, p, q)
    eg = Temporal("EG", sigma, p)
    not_p, not_q = Not(p), Not(q)
    return [
        (ef, Or(p, Temporal("EX", sigma, ef))),
        (eu, Or(q, And(p, Temporal("EX", sigma, eu)))),
        (eg, And(p, Temporal("EX", sigma, eg))),
        (Until("E", sigma, p, Bottom()), Bottom()),
        (Temporal("AG", sigma, p), Not(Temporal("EF", sigma, not_p))),
        (
            Until("A", sigma, p, q),
            Not(Or(
                Until("E", sigma, not_q, And(not_p, not_q)),
                Temporal("EG", sigma, not_q),
            )),
        ),
    ]


def test_unfoldings_past_the_oracle():
    """CTL's fixpoint unfoldings and dualities, compared as sets of states
    at every reachable state of the 14- and 18-argument frameworks."""
    rng = random.Random(12)
    proper = 0
    for spec in PERSISTENCE_SPECS[40:]:
        fw = random_framework(spec)
        states = reachable(fw, ALL).states
        for _ in range(6):
            sets = random_sets(rng, fw, 2)
            sigma = rng.choice([("S1",), ("S1", "S2"), None])
            p, q = (varying_operand(rng, fw, states) for _ in "pq")
            laws = unfoldings(sigma, p, q)
            labeling = labelled_together(fw, sets, [f for law in laws for f in law])
            for lhs, rhs in laws:
                assert labeling.sat[lhs] == labeling.sat[rhs], (spec, lhs)
                proper += 0 < len(labeling.sat[lhs]) < len(labeling.everywhere)
    assert proper >= 60


def test_selector_family_laws():
    """EF and E[U] are monotone in the family, since a reference set added
    only adds moves and F is reflexive; the wildcard moves as the family
    of the empty set alone does."""
    rng = random.Random(13)
    ops = ("EX", "AX", "EF", "AF", "EG", "AG", "E", "A")
    grew = 0
    for spec in PERSISTENCE_SPECS:
        fw = random_framework(spec)
        sets = random_sets(rng, fw, 2) + (("E", frozenset()),)
        states = reachable(fw, ALL).states
        p, q = (varying_operand(rng, fw, states) for _ in "pq")
        narrow, wide = ("S1",), ("S1", "S2")
        monotone = [
            (Temporal("EF", narrow, p), Temporal("EF", wide, p)),
            (Until("E", narrow, p, q), Until("E", wide, p, q)),
        ]
        wildcard = [
            tuple(
                Until(op, sigma, p, q) if op in "AE" else Temporal(op, sigma, p)
                for sigma in (None, ("E",))
            )
            for op in ops
        ]
        pairs = monotone + wildcard
        labeling = labelled_together(fw, sets, [f for pair in pairs for f in pair])
        sat = labeling.sat
        for small, large in monotone:
            assert sat[small] <= sat[large], (spec, small)
            grew += sat[small] < sat[large]
        for star, empty in wildcard:
            assert sat[star] == sat[empty], (spec, star)
    assert grew > 0


def test_stutter_loop_is_per_family():
    """A state with no move under a family stutters under that family, so
    EX{R} p holds where p does even when every move under {*} leaves p:
    EX and EG are not monotone in the family (README, "Concepts")."""
    fw = framework(
        ["r", "s", "g", "t"],
        attacks=[("r", "s")],
        persuasions=[("s", "g", "t")],
        initial=["r", "s", "g"],
    )
    query = ctl.parse_query(
        "set R = {r}\nformula: EX{R} visible(g) -> EX{*} visible(g)"
    )
    result = ctl.check(fw, query)
    assert result.value is False
    assert result.labeling.successors(("R",), fw.initial_state) == {fw.initial_state}


def test_label_chain_on_static_frames():
    """st <= pr <= co <= ad as families of sets; the grounded set is
    complete and lies in every complete set; a preferred set exists."""
    for spec in EXTENSIONS_SPECS:
        fw = random_framework(spec)
        state = fw.initial_state
        found = {
            label: set(extensions(fw, label, state))
            for label in ("ad", "co", "pr", "st", "gr")
        }
        assert found["st"] <= found["pr"] <= found["co"] <= found["ad"], spec
        (grounded,) = found["gr"]
        assert grounded in found["co"]
        assert all(grounded <= c for c in found["co"])
        assert found["pr"]

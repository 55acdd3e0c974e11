"""Laws of the model that need no oracle, checked on seeded frameworks,
some of them past the sizes the brute-force oracle accepts (12 visible
arguments, 12 acts)."""

from apa import ctl
from apa.dynamics import ALL, reachable, successor_states
from apa.oracle import RandomInstanceSpec, random_framework
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

"""State-wise admissibility semantics.

A candidate set is admissible at a state when it is proper (a subset of
the visible arguments), conflict-free, and defends each of its members.
Defence answers persuasion as well as attack: a member's threats are its
visible attackers and the visible sources of the convert acts that drop
it (`APAFramework.attackers`, `.eliminators`), and the candidate defends
it when a visible member attacks every threat, which also screens those
acts out under the candidate as reference set. Complete / preferred /
stable / grounded refine this in the usual way, with completeness closure
restricted to visible arguments.

Defence is monotone in the candidate, so Dung's fundamental lemma carries
over: the grounded set is the least fixpoint of the characteristic
function R -> {visible a : R defends a}, reached by iteration from the
empty set without enumeration, and a stable set is an admissible set
attacking every visible non-member (such a set is maximal admissible,
hence preferred). `holds` is the one definition of each label;
`extensions` filters the candidates through it. Listing the
`ad`/`co`/`pr`/`st` extensions and testing `pr` enumerate the 2^|V|
visible subsets, bounded by `max_args`.
"""

from __future__ import annotations

import functools
import itertools

from .errors import TooLarge
from .model import APAFramework, State

LABELS = ("ad", "co", "pr", "st", "gr")

#: Refuse 2^n candidate enumeration beyond this many visible arguments.
DEFAULT_MAX_ENUM_ARGS = 20


def is_conflict_free(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    """No attack between visible members of the candidate."""
    vis = candidate & state.visible
    return not any(fw.attackers[a] & vis for a in vis)


def defends(fw: APAFramework, candidate: frozenset[str], arg: str, state: State) -> bool:
    """Whether `candidate`, used as a reference set, defends `arg` at
    `state`: a visible candidate member attacks every visible attacker of
    `arg` and every visible source of a convert act that drops it.
    Invisible arguments are defended vacuously."""
    visible = state.visible
    if arg not in visible:
        return True
    helpers = candidate & visible
    threats = (fw.attackers[arg] | fw.eliminators[arg]) & visible
    return all(fw.attackers[t] & helpers for t in threats)


def is_defended(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    return all(defends(fw, candidate, a, state) for a in candidate)


@functools.lru_cache(maxsize=None)
def is_admissible(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    return (
        candidate <= state.visible
        and is_conflict_free(fw, candidate, state)
        and is_defended(fw, candidate, state)
    )


def characteristic(
    fw: APAFramework, candidate: frozenset[str], state: State
) -> frozenset[str]:
    """The visible arguments that `candidate` defends at `state`."""
    return frozenset(a for a in state.visible if defends(fw, candidate, a, state))


@functools.lru_cache(maxsize=None)
def is_complete(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    """Admissible and containing every *visible* argument it defends.

    Closure is restricted to visible arguments: any candidate defends every
    invisible argument by definition, so a literal closure would force
    invisible members and contradict properness.
    """
    return is_admissible(fw, candidate, state) and (
        characteristic(fw, candidate, state) <= candidate
    )


def _visible_subsets(fw: APAFramework, state: State, max_args: int):
    """Every subset of the visible arguments, in canonical order (by size,
    then declaration order); the one place that enumerates them."""
    if len(state.visible) > max_args:
        raise TooLarge(
            f"{len(state.visible)} visible arguments exceed the enumeration "
            f"bound of {max_args}"
        )
    vis = fw.sort_args(state.visible)
    for r in range(len(vis) + 1):
        for combo in itertools.combinations(vis, r):
            yield frozenset(combo)


@functools.lru_cache(maxsize=None)
def complete_sets(
    fw: APAFramework, state: State, max_args: int = DEFAULT_MAX_ENUM_ARGS
) -> tuple[frozenset[str], ...]:
    """All complete sets at `state`, in canonical order, by enumeration of
    the subsets of the visible arguments (properness makes this total)."""
    return tuple(
        c for c in _visible_subsets(fw, state, max_args)
        if is_complete(fw, c, state)
    )


@functools.lru_cache(maxsize=None)
def grounded_set(fw: APAFramework, state: State) -> frozenset[str]:
    """The least fixpoint of `characteristic`, iterated from the empty set.
    Each iterate is admissible, so the fixpoint is the least complete set,
    the intersection of all complete sets at `state`. Cached per state like
    `complete_sets`, since `sem(gr, X)` atoms ask for it at every state once
    per candidate set X."""
    grounded = frozenset()
    while (nxt := characteristic(fw, grounded, state)) != grounded:
        grounded = nxt
    return grounded


def holds(
    fw: APAFramework, label: str, candidate: frozenset[str], state: State,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> bool:
    """Evaluate one of the five semantics labels for `candidate` at
    `state`. Only `pr` enumerates, bounded by `max_args`."""
    candidate = frozenset(candidate)
    if label == "ad":
        return is_admissible(fw, candidate, state)
    if label == "co":
        return is_complete(fw, candidate, state)
    if label == "pr":
        return is_complete(fw, candidate, state) and not any(
            candidate < c for c in complete_sets(fw, state, max_args)
        )
    if label == "st":
        return is_admissible(fw, candidate, state) and all(
            fw.attackers[other] & candidate
            for other in state.visible - candidate
        )
    if label == "gr":
        return candidate == grounded_set(fw, state)
    raise ValueError(f"unknown semantics label: {label!r}")


def extensions(
    fw: APAFramework, label: str, state: State,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> tuple[frozenset[str], ...]:
    """All subsets of the visible set satisfying `label`, canonically
    ordered. The grounded label yields exactly one candidate; every other
    label enumerates, bounded by `max_args`."""
    if label == "gr":
        return (grounded_set(fw, state),)
    if label == "ad":
        return tuple(
            c for c in _visible_subsets(fw, state, max_args)
            if is_admissible(fw, c, state)
        )
    if label in ("co", "pr", "st"):  # st <= pr <= co
        return tuple(
            c for c in complete_sets(fw, state, max_args)
            if holds(fw, label, c, state, max_args)
        )
    raise ValueError(f"unknown semantics label: {label!r}")

"""State-wise admissibility semantics.

A candidate set is admissible at a state when it is conflict-free among its
visible members, proper (a subset of the visible arguments), and defends
each of its members. Defendedness has two parts: every visible attacker of
a member is counter-attacked by a visible candidate member, and no
transition screened by the candidate itself can make the member invisible
(no elimination). Complete / preferred / stable / grounded refine this in
the usual way, with completeness closure restricted to visible arguments.

Both parts of defence are monotone in the candidate, so Dung's fundamental
lemma carries over: the grounded set is the least fixpoint of
R -> {visible a : R defends a}, reached by iteration from the empty set
without enumeration, and a stable set is an admissible set attacking every
visible non-member (such a set is maximal admissible, hence preferred).
`holds` is the one definition of each label; `extensions` filters the
candidates through it. Listing the `ad`/`co`/`pr`/`st` extensions and
testing `pr` enumerate the 2^|V| visible subsets, bounded by `max_args`.
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
    return not any(a in vis and b in vis for (a, b) in fw.attacks)


def defends(fw: APAFramework, candidate: frozenset[str], arg: str, state: State) -> bool:
    """Whether `candidate`, used as a reference set, defends `arg` at
    `state`. Invisible arguments are defended vacuously."""
    if arg not in state.visible:
        return True
    helpers = candidate & state.visible
    for attacker in fw.attackers_of(state, arg):
        if not any((h, attacker) in fw.attacks for h in helpers):
            return False
    # no elimination: no transition screened by the candidate itself may
    # drop the argument. Firing a possible convert act (s, arg, t) with
    # t != arg alone drops it, and every transition that drops it fires one.
    return not any(
        act.trigger == arg
        and act.target != arg
        and act.source in state.visible
        and not any((h, act.source) in fw.attacks for h in helpers)
        for act in fw.persuasions
    )


def is_defended(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    return all(defends(fw, candidate, a, state) for a in candidate)


def is_proper(candidate: frozenset[str], state: State) -> bool:
    return candidate <= state.visible


@functools.lru_cache(maxsize=None)
def is_admissible(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    return (
        is_proper(candidate, state)
        and is_conflict_free(fw, candidate, state)
        and is_defended(fw, candidate, state)
    )


@functools.lru_cache(maxsize=None)
def is_complete(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    """Admissible and containing every *visible* argument it defends.

    Closure is restricted to visible arguments: any candidate defends every
    invisible argument by definition, so a literal closure would force
    invisible members and contradict properness.
    """
    if not is_admissible(fw, candidate, state):
        return False
    return all(
        a in candidate
        for a in state.visible
        if defends(fw, candidate, a, state)
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
    """The least fixpoint of R -> {visible a : R defends a}, iterated from
    the empty set. Each iterate is admissible, so the fixpoint is the least
    complete set, the intersection of all complete sets at `state`. Cached
    per state like `complete_sets`, since `sem(gr, X)` atoms ask for it at
    every state once per candidate set X."""
    grounded = frozenset()
    while True:
        nxt = frozenset(a for a in state.visible if defends(fw, grounded, a, state))
        if nxt == grounded:
            return grounded
        grounded = nxt


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
            any((c, other) in fw.attacks for c in candidate)
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

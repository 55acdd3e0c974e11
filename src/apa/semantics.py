"""State-wise admissibility semantics.

A candidate set is admissible at a state when it is proper (a subset of
the visible arguments), conflict-free, and defends each of its members.
Defence answers persuasion as well as attack: a member's threats are its
visible attackers and the visible sources of the convert acts that drop
it, and the candidate defends it when a visible member attacks every
threat, which also screens those acts out under the candidate as
reference set. Defence is one subset test (Dung 1995): the threats must
lie in the set the candidate attacks, `_attacked(R)`, read from the
`victims` masks of `APAFramework.masks`; `_answered` states it once.

Dung's characteristic function F(R) = {visible a : R defends a} is
computed once, on masks, by `_defended`. Admissibility asks R <= F(R)
(`is_defended`); completeness asks that F(R) hold no visible non-member
(`is_complete` and the search's cut on OUT arguments), so closure is
restricted to visible arguments; the grounded set is F's least fixpoint,
iterated from the empty set and kept per state in the framework's
`grounded` table, which dies with the framework. F is monotone, so Dung's
fundamental lemma carries over: a preferred set is a maximal complete set,
and a stable set is an admissible set attacking every visible non-member.
`holds` is the one definition of each label for a given set. The `ad`,
`co`, `pr` and `st` extensions are listed by one pruned search that labels
the visible arguments IN or OUT (`_search`), not by testing every visible
subset, and no listing goes through `holds`: the search cuts `pr`
branches that cannot leave a preferred set already found, and keeps the
complete leaves that attack every visible non-member for `st`. For `pr`
it decides first a maximal conflict-free set, so that the cut fires
without waiting for both sides of each conflict to be decided, whatever
the declaration order.
`max_args` bounds the visible arguments of a listing and of a `pr` test,
since both search the complete sets: `_bounded` checks it before either,
whatever the candidate. `gr` and the other membership tests are
polynomial and unbounded.
"""

from __future__ import annotations

import functools

from .errors import TooLarge
from .model import APAFramework, Masks, State, bit_positions

LABELS = ("ad", "co", "pr", "st", "gr")

#: Refuse to search for extensions beyond this many visible arguments: the
#: number of extensions, and so the search, can grow as 2^n.
DEFAULT_MAX_ENUM_ARGS = 20


def _attacked(victims: tuple[int, ...], args: int) -> int:
    """The arguments that some member of `args` attacks, on the `victims`
    masks of `APAFramework.masks`."""
    attacked = 0
    while args:
        low = args & -args
        attacked |= victims[low.bit_length() - 1]
        args ^= low
    return attacked


def _answered(victims: tuple[int, ...], inn: int, threats: int) -> bool:
    """Whether a member of `inn` attacks each argument in `threats`: the one
    statement of defence, a subset test against `_attacked(inn)`, since
    `inn` defends an argument when it answers its visible threats."""
    return not threats & ~_attacked(victims, inn)


def is_conflict_free(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    """No attack between visible members of the candidate."""
    inn = fw.mask(candidate & state.visible)
    return not _attacked(fw.masks.victims, inn) & inn


def _defended(masks: Masks, inn: int, vis: int, among: int) -> int:
    """The members of `among` whose visible threats `inn` answers: Dung's
    characteristic function F(inn), restricted to `among`, on masks. As in
    `_answered`, a member is defended when its visible threats lie in
    `_attacked(inn)`, which is computed once for all of them."""
    unanswered = vis & ~_attacked(masks.victims, inn)
    threats = masks.threats
    return sum(1 << a for a in bit_positions(among)
               if not threats[a] & unanswered)


def is_defended(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    """Whether `candidate` answers every visible threat to its members."""
    inn = fw.mask(candidate & state.visible)
    return _defended(fw.masks, inn, fw.mask(state.visible), inn) == inn


@functools.lru_cache(maxsize=None)
def is_admissible(fw: APAFramework, candidate: frozenset[str], state: State) -> bool:
    return (
        candidate <= state.visible
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
    inn, vis = fw.mask(candidate), fw.mask(state.visible)
    return not _defended(fw.masks, inn, vis, vis & ~inn)


def _bounded(state: State, max_args: int) -> None:
    """Refuse a search at `state` over more than `max_args` visible
    arguments: the one bound of `_search` and of the `pr` test."""
    if len(state.visible) > max_args:
        raise TooLarge(
            f"{len(state.visible)} visible arguments exceed the enumeration "
            f"bound of {max_args}"
        )


def _search(
    fw: APAFramework, state: State, max_args: int, label: str
) -> tuple[frozenset[str], ...]:
    """The `label` extensions at `state` for `ad`, `co`, `pr` or `st`, in
    canonical order: by size, then by declaration indices.

    A depth-first search labels the visible arguments IN or OUT in
    declaration order (for `pr`, see below), on the framework's masks. An
    argument goes IN only if it clashes neither with itself nor with the
    IN set. A branch is cut when some threat to an IN member has no
    attacker left that is IN or undecided and clash-free with the IN set,
    since no labelling below it can defend that member. Every label but
    `ad` also cuts a branch when `_defended` finds an OUT argument that
    the IN set defends: F is monotone, so every IN set below it defends
    that argument too. The leaves that survive are the admissible
    (complete) sets.

    For `pr`, a branch is also cut when the IN set together with the
    undecided arguments that do not clash with it lies inside a preferred
    set already found. IN is taken before OUT, so every complete strict
    superset of a leaf is reached before the leaf, and each leaf that
    survives is a maximal complete set: a leaf and a strict superset part
    where the superset goes IN, whatever order brought them there. That
    cut cannot fire while both sides of a conflict are undecided, so `pr`
    decides first a maximal conflict-free set of the visible arguments,
    taken greedily in declaration order, then the rest in declaration
    order. The other labels have no such cut and keep declaration order,
    which the greedy set would slow on mutual-attack pairs declared pair
    by pair. For `st`, a complete leaf is kept when it attacks every
    visible non-member: a stable set is complete.
    """
    if label not in ("ad", "co", "pr", "st"):
        raise ValueError(f"unknown semantics label: {label!r}")
    _bounded(state, max_args)
    masks = fw.masks
    victims, threats, clash = masks.victims, masks.threats, masks.clash
    vis = fw.mask(state.visible)
    # the arguments decided before the others: for `pr`, a maximal
    # conflict-free set, so that its cut fires early
    first = vis
    if label == "pr":
        first = 0
        for k in bit_positions(vis):
            if not clash[k] & (first | 1 << k):
                first |= 1 << k
    found = []
    # (undecided, IN, OUT, arguments clashing with IN, threats to IN)
    stack = [(vis, 0, 0, 0, 0)]
    while stack:
        rest, inn, out, clashing, threatened = stack.pop()
        reach = inn | rest & ~clashing
        if not _answered(victims, reach, threatened):
            continue
        if label != "ad" and _defended(masks, inn, vis, out):
            continue
        # the latest preferred set shares the longest prefix with this node
        if label == "pr" and any(not reach & ~p for p in reversed(found)):
            continue
        if not rest:
            if label != "st" or _answered(victims, inn, vis & ~inn):
                found.append(inn)
            continue
        pick = rest & first or rest
        b = pick & -pick
        k = b.bit_length() - 1
        stack.append((rest ^ b, inn, out | b, clashing, threatened))
        if not clash[k] & (inn | b):
            stack.append((rest ^ b, inn | b, out, clashing | clash[k],
                          threatened | threats[k] & vis))
    found.sort(key=lambda m: (m.bit_count(), list(bit_positions(m))))
    return tuple(fw.members(m) for m in found)


@functools.lru_cache(maxsize=None)
def complete_sets(
    fw: APAFramework, state: State, max_args: int = DEFAULT_MAX_ENUM_ARGS
) -> tuple[frozenset[str], ...]:
    """All complete sets at `state`, in canonical order, from the pruned
    search over the visible arguments, of which there may be at most
    `max_args`."""
    return _search(fw, state, max_args, "co")


def grounded_set(fw: APAFramework, state: State) -> frozenset[str]:
    """The least fixpoint of the characteristic function, iterated from the
    empty set on masks. Each iterate is admissible, so the fixpoint is the
    least complete set, the intersection of all complete sets at `state`.
    Kept per state in `fw.grounded`, since `sem(gr, X)` atoms ask for it
    at every state once per candidate set X."""
    grounded = fw.grounded.get(state)
    if grounded is None:
        masks, vis = fw.masks, fw.mask(state.visible)
        inn = 0
        while (nxt := _defended(masks, inn, vis, vis)) != inn:
            inn = nxt
        grounded = fw.grounded[state] = fw.members(inn)
    return grounded


def holds(
    fw: APAFramework, label: str, candidate: frozenset[str], state: State,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> bool:
    """Evaluate one of the five semantics labels for `candidate` at
    `state`. Only `pr` searches, for the complete sets at `state`, and so
    only `pr` is bounded by `max_args`, whatever the candidate."""
    candidate = frozenset(candidate)
    if label == "ad":
        return is_admissible(fw, candidate, state)
    if label == "co":
        return is_complete(fw, candidate, state)
    if label == "pr":
        _bounded(state, max_args)
        return is_complete(fw, candidate, state) and not any(
            candidate < c for c in complete_sets(fw, state, max_args)
        )
    if label == "st":  # a stable set attacks every visible non-member
        return is_admissible(fw, candidate, state) and _answered(
            fw.masks.victims, fw.mask(candidate),
            fw.mask(state.visible - candidate),
        )
    if label == "gr":
        return candidate == grounded_set(fw, state)
    raise ValueError(f"unknown semantics label: {label!r}")


def extensions(
    fw: APAFramework, label: str, state: State,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> tuple[frozenset[str], ...]:
    """All subsets of the visible set satisfying `label`, canonically
    ordered (by size, then declaration order). The grounded label yields
    exactly one candidate, the least fixpoint; every other label comes from
    the pruned search, bounded by `max_args`."""
    if label == "gr":
        return (grounded_set(fw, state),)
    return _search(fw, state, max_args, label)

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
`holds` is the one definition of each label for a given set. The `ad` and
`co` extensions are listed by a pruned search that labels the visible
arguments IN or OUT (`_search`), not by testing every visible subset;
`pr` and `st` are filtered from the complete sets through `holds`.
`max_args` bounds the visible arguments of a listing and of a `pr` test,
since both search the complete sets; `gr` and the other membership tests
are polynomial and unbounded.
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


def _search(
    fw: APAFramework, state: State, max_args: int, complete: bool
) -> tuple[frozenset[str], ...]:
    """The admissible sets at `state` (with `complete`, the complete sets),
    in canonical order: by size, then by declaration indices.

    A depth-first search labels the visible arguments IN or OUT in
    declaration order, on the framework's masks. An argument goes IN only
    if it clashes neither with itself nor with the IN set. A branch is cut
    when some threat to an IN member has no attacker left that is IN or
    undecided and clash-free with the IN set, since no labelling below it
    can defend that member. With `complete`, a branch is also cut when
    `_defended` finds an OUT argument that the IN set defends: F is
    monotone, so every IN set below it defends that argument too. Each
    leaf that survives is an admissible (complete) IN set.
    """
    if len(state.visible) > max_args:
        raise TooLarge(
            f"{len(state.visible)} visible arguments exceed the enumeration "
            f"bound of {max_args}"
        )
    masks = fw.masks
    victims, threats, clash = masks.victims, masks.threats, masks.clash
    vis = fw.mask(state.visible)
    found = []
    # (undecided, IN, OUT, arguments clashing with IN, threats to IN)
    stack = [(vis, 0, 0, 0, 0)]
    while stack:
        rest, inn, out, clashing, threatened = stack.pop()
        if not _answered(victims, inn | rest & ~clashing, threatened):
            continue
        if complete and _defended(masks, inn, vis, out):
            continue
        if not rest:
            found.append(inn)
            continue
        b = rest & -rest
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
    return _search(fw, state, max_args, complete=True)


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
    only `pr` is bounded by `max_args`."""
    candidate = frozenset(candidate)
    if label == "ad":
        return is_admissible(fw, candidate, state)
    if label == "co":
        return is_complete(fw, candidate, state)
    if label == "pr":
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
    if label == "ad":
        return _search(fw, state, max_args, complete=False)
    if label == "co":
        return complete_sets(fw, state, max_args)
    if label in ("pr", "st"):  # st <= pr <= co
        return tuple(
            c for c in complete_sets(fw, state, max_args)
            if holds(fw, label, c, state, max_args)
        )
    raise ValueError(f"unknown semantics label: {label!r}")

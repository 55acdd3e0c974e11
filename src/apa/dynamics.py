"""Persuasion dynamics: possible acts, transitions, reachable LTS.

An act (source, trigger, target) is possible at a state, with respect to a
reference set, when the source is visible, the trigger is visible or empty,
and no visible member of the reference set attacks the source. Any nonempty
subset of the possible acts may fire at once, dropping the triggers that
were converted and making every target visible; an argument both dropped
and (re)made visible in the same step stays visible (the effects offset).

Acts are screened, and successors computed, on the framework's `int` bit
masks over the declaration order (`APAFramework.masks`). A state is
encoded by `APAFramework.mask`; `_screen` is the one screening rule, and
gives the possible acts as bits over `masks.acts`. The successors depend
only on the visible mask and those act bits, so each such pair is folded
once per framework: the fold table lives on the framework
(`APAFramework.folds`), and every selector that leaves a state the same
acts reads the same entry. A target is looked up by its mask in
`APAFramework.state_of`, so each state is decoded once per framework, not
once per edge. Two possible acts are linked when they share a trigger or
target argument; sources do not link them, since screening reads only the
state before the step. Each connected group of acts is folded on its own,
and the successors are the product of the groups' outcomes. The product is
exact because the groups touch disjoint arguments: which of a group's
arguments end up visible depends only on which of its own acts fire.
Callers see only `State`s.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import NamedTuple

from .errors import TooLarge
from .model import APAFramework, PersuasionAct, State, bit_positions

#: Hard ceiling on explicit state enumeration (overridable per call).
DEFAULT_MAX_STATES = 4096


class SelectorFamily(NamedTuple):
    """A family of reference-set selectors for building an LTS.

    `selectors` is an ordered tuple of reference sets, or None for the
    wildcard family (all subsets of the arguments). The wildcard is
    realized by the single empty reference set: blocking only ever removes
    acts, so every transition possible under some reference set is also
    possible under the empty one.
    """

    selectors: tuple[frozenset[str], ...] | None = None

    @property
    def is_wildcard(self) -> bool:
        return self.selectors is None

    @property
    def effective(self) -> tuple[frozenset[str], ...]:
        """The selectors actually iterated during BFS."""
        if self.selectors is None:
            return (frozenset(),)
        return self.selectors


ALL = SelectorFamily(None)


class LTS:
    """Reachable states plus transitions labeled by selector index.

    The transition relation is stored once: `tables[i]` maps every state
    to the set `successor_states` gave for it under selector `i`; `edges`
    and `deadlocks` are derived from them on first use, in canonical order.
    Immutable by convention.
    """

    def __init__(
        self,
        framework: APAFramework,
        family: SelectorFamily,
        states: tuple[State, ...],
        initial: State,
        tables: tuple[dict[State, frozenset[State]], ...],
    ):
        self.framework = framework
        self.family = family
        self.states = states
        self.initial = initial
        self.tables = tables

    @functools.cached_property
    def edges(self) -> tuple[tuple[State, int, State], ...]:
        """(source, selector index, target) triples: sources and targets in
        `states` order, selectors in index order."""
        position = {s: i for i, s in enumerate(self.states)}
        return tuple(
            (s, i, t)
            for s in self.states
            for i, table in enumerate(self.tables)
            for t in sorted(table[s], key=position.__getitem__)
        )

    @functools.cached_property
    def deadlocks(self) -> frozenset[State]:
        """States with no successor under any selector."""
        return frozenset(
            s for s in self.states if not any(t[s] for t in self.tables)
        )

    def successors_of(self, state: State, selector_ids) -> frozenset[State]:
        """Successor states of `state` under the given selector indices:
        for one selector, that table's own set."""
        first, *rest = (self.tables[i][state] for i in selector_ids)
        return first.union(*rest) if rest else first


def _screen(fw: APAFramework, refset: frozenset[str], vis: int) -> int:
    """The acts possible at the visible mask `vis` under `refset`, as bits
    over `fw.masks.acts`: the one screening rule. An act is possible when
    its source and trigger are visible and no visible member of `refset`
    attacks its source."""
    masks = fw.masks
    screen = vis & fw.mask(refset & masks.bit.keys())
    acts = 0
    for i, (needs, attackers, _) in enumerate(masks.screens):
        if needs & vis == needs and not attackers & screen:
            acts |= 1 << i
    return acts


def possible_acts(
    fw: APAFramework, refset: frozenset[str], state: State
) -> frozenset[PersuasionAct]:
    """Acts executable at `state` when screened by `refset`: an act is
    blocked when a visible member of `refset` attacks its source. The acts
    are decoded from the bits `_screen` gives."""
    acts = fw.masks.acts
    bits = _screen(fw, refset, fw.mask(state.visible))
    return frozenset(acts[i] for i in bit_positions(bits))


def _groups(moves) -> list[list[tuple[int, int]]]:
    """Split (drop, add) masks into connected groups: two moves are linked
    when they share a bit, so no two groups touch the same argument."""
    groups: list[tuple[int, list[tuple[int, int]]]] = []
    for move in moves:
        touched, group, rest = move[0] | move[1], [move], []
        for g in groups:
            if g[0] & touched:
                touched |= g[0]
                group += g[1]
            else:
                rest.append(g)
        rest.append((touched, group))
        groups = rest
    return [group for _, group in groups]


@functools.lru_cache(maxsize=None)
def successor_states(
    fw: APAFramework, refset: frozenset[str], state: State,
    *, max_states: int = DEFAULT_MAX_STATES,
) -> frozenset[State]:
    """Distinct successor states of `state` under `refset` (memoized; all
    inputs immutable). Raises TooLarge as soon as more than `max_states`
    distinct successors are certain: every successor is reachable.

    The successors depend only on the visible mask and the possible acts
    (`_screen`), so the fold is done once per such pair and kept in
    `fw.folds`; a selector that screens out nothing at a state reuses the
    fold of any other that does the same. With each fold the table keeps
    the largest successor count the fold checked against `max_states`, so
    a table hit raises TooLarge exactly when a fresh fold would.
    """
    vis = fw.mask(state.visible)
    key = (vis, _screen(fw, refset, vis))
    entry = fw.folds.get(key)
    if entry is None:
        flips, certain = _fold(fw.masks.screens, *key, max_states)
        entry = fw.folds[key] = (
            frozenset(fw.state_of(vis ^ f) for f in flips), certain
        )
    succs, certain = entry
    _bound(certain, max_states)
    return succs


def _fold(screens, vis: int, acts: int, max_states: int) -> tuple[set[int], int]:
    """The toggles (successor mask ^ `vis`) of the nonempty subsets of the
    acts in `acts`, and the largest successor count checked on the way.

    The acts are split into groups linked by a shared trigger or target
    argument (`_groups` on their (drop, add) masks). Within a group the
    acts are folded in one at a time over the effects of the nonempty act
    subsets seen so far, as (dropped & ~added, added) mask pairs. The acts
    that drop come first, and each new pair's `added` keeps only the
    hidden arguments and the triggers of the acts still to fold: no other
    added bit changes the state or offsets a later drop. Subsets with the
    same pair lead to the same state whatever acts join them later, so the
    pairs are deduplicated after each act. The groups touch disjoint
    arguments, so a subset's effect is the union of its parts' effects,
    each group's bits depend only on its own part, and the successors are
    exactly the product of the groups' outcomes. The product leaves out
    only the combination where no group fires: a nonempty subset can still
    leave a group as it was (an induce whose target is visible), and then
    the state itself is a successor. TooLarge is raised before the product
    that would exceed `max_states` is built.
    """
    hidden = ~vis
    flips = {0}  # the arguments a combination of group outcomes toggles
    idle = False  # some group has a nonempty subset that changes nothing
    certain = 0  # the largest successor count checked against max_states
    for group in _groups(screens[i][2] for i in bit_positions(acts)):
        # the acts that drop first, the ones that share a trigger together
        group.sort(reverse=True)
        later = [hidden] * len(group)  # hidden | drops of the acts after j
        for j in range(len(group) - 1, 0, -1):
            later[j - 1] = later[j] | group[j][0]
        effects = set()
        for (drop, add), keep in zip(group, later):
            effects |= {((d | drop) & ~(a | add), (a | add) & keep)
                        for d, a in effects}
            effects.add((drop & ~add, add & keep))
            if len(effects) > max_states:  # each distinct toggle is a successor
                _bound(len({d | a & hidden for d, a in effects}), max_states)
        # triggers are visible, so the toggled bits are the dropped ones
        # and the added ones that were hidden
        changes = {d | a & hidden for d, a in effects}
        idle = idle or 0 in changes
        certain = max(certain, len(changes))
        changes.add(0)
        # disjoint bits, so every combination is distinct; 0 may not count
        certain = max(certain, len(flips) * len(changes) - 1)
        _bound(certain, max_states)
        flips = {f | c for f in flips for c in changes}
    if not idle:
        flips.discard(0)
    return flips, certain


def _bound(count: int, max_states: int) -> None:
    if count > max_states:
        raise TooLarge(f"reachable state count exceeds {max_states}")


def reachable(
    fw: APAFramework,
    family: SelectorFamily = ALL,
    max_states: int = DEFAULT_MAX_STATES,
) -> LTS:
    """Breadth-first closure of the transition relation from the initial
    state, expanding under every selector of `family` at every state.

    The result keeps one successor table per selector and the states
    sorted by their member-index tuples; `LTS.edges` and `LTS.deadlocks`
    are derived from the tables when first read. Each table entry is the
    very set `successor_states` computed for that selector and state.
    """
    _bound(1, max_states)
    selectors = family.effective
    init = fw.initial_state
    seen = {init}
    queue = deque([init])
    tables = tuple({} for _ in selectors)
    while queue:
        state = queue.popleft()
        for refset, table in zip(selectors, tables):
            succs = successor_states(fw, refset, state, max_states=max_states)
            table[state] = succs
            for succ in succs - seen:
                _bound(len(seen) + 1, max_states)
                seen.add(succ)
                queue.append(succ)
    states = tuple(sorted(seen, key=fw.state_key))
    return LTS(fw, family, states, init, tables)

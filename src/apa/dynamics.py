"""Persuasion dynamics: possible acts, transitions, reachable LTS.

An act (source, trigger, target) is possible at a state, with respect to a
reference set, when the source is visible, the trigger is visible or empty,
and no visible member of the reference set attacks the source. Any nonempty
subset of the possible acts may fire at once, dropping the triggers that
were converted and making every target visible; an argument both dropped
and (re)made visible in the same step stays visible (the effects offset).

Acts are screened, and successors computed, on the framework's `int` bit
masks over the declaration order (`APAFramework.masks`). A state is encoded
by `APAFramework.mask`; `_screen` is the one screening rule, and gives the
possible acts as bits over `masks.acts`. The successors depend only on the
visible mask and those act bits, so each such pair is folded once per
framework: the fold table lives on the framework (`APAFramework.folds`),
and every selector that leaves a state the same acts reads the same entry.
A state with more than `max_states` successors raises TooLarge, on a fresh
fold and on a table hit alike. A target is looked up by its mask in
`APAFramework.state_of`, so each state is decoded once per framework, not
once per edge. Two possible acts are linked when they share a trigger or
target argument; sources do not link them, since screening reads only the
state before the step. Each connected group of acts is folded on its own,
and the successors are the product of the groups' outcomes. The product is
exact because the groups touch disjoint arguments: which of a group's
arguments end up visible depends only on which of its own acts fire.
Callers see only `State`s. `reachable` decides the one canonical order of
states, and the LTS keeps it as `LTS.index`: every edge output and every
witness step reads that table.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Iterator, NamedTuple

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
    to the set `successor_states` gave for it under selector `i`. `states`
    is in the canonical order, which `reachable` decides once, and `index`
    maps each state to its position there: the one state order that
    `walk()` and the witnesses of `ctl` read. `walk()` reads the edges off
    the tables in that order, grouped by source state, and every output
    writes one source's group at a time; `edges` keeps that walk flattened
    into a tuple of triples for library callers. `index`, `edges` and
    `deadlocks` are derived on first use. Immutable by convention.
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
    def index(self) -> dict[State, int]:
        """Each state's position in `states`, the canonical order."""
        return {s: i for i, s in enumerate(self.states)}

    def selector_label(self, selector: int) -> str:
        """`*` for the wildcard family, else the selector's reference set."""
        if self.family.is_wildcard:
            return "*"
        return self.framework.format_set(self.family.effective[selector])

    def walk(self) -> Iterator[tuple[State, list[tuple[int, State]]]]:
        """Each source state that has an edge, with its (selector index,
        target) pairs, one source at a time: sources and targets in the
        canonical order, `index`, and selectors in index order."""
        position = self.index.__getitem__
        for s in self.states:
            edges = [(i, t) for i, table in enumerate(self.tables)
                     for t in sorted(table[s], key=position)]
            if edges:
                yield s, edges

    @functools.cached_property
    def edges(self) -> tuple[tuple[State, int, State], ...]:
        """The edges of `walk()` as (source, selector index, target)
        triples, kept."""
        return tuple((s, i, t) for s, edges in self.walk() for i, t in edges)

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
    inputs immutable). Raises TooLarge exactly when more than `max_states`
    distinct successors exist: every successor is reachable.

    The successors depend only on the visible mask and the possible acts
    (`_screen`), so the fold is done once per such pair and kept in
    `fw.folds`; a selector that screens out nothing at a state reuses the
    fold of any other that does the same. A table hit is bounded by its
    size, so it raises exactly when a fresh fold would.
    """
    vis = fw.mask(state.visible)
    key = (vis, _screen(fw, refset, vis))
    succs = fw.folds.get(key)
    if succs is None:
        flips = _fold(fw.masks.screens, *key, max_states)
        succs = fw.folds[key] = frozenset(fw.state_of(vis ^ f) for f in flips)
    _bound(len(succs), max_states)
    return succs


def _fold(screens, vis: int, acts: int, max_states: int) -> set[int]:
    """The toggles (successor mask ^ `vis`) of the nonempty subsets of the
    acts in `acts`; raises TooLarge exactly when there are more than
    `max_states` of them.

    The acts are split into groups linked by a shared trigger or target
    argument (`_groups` on their (drop, add) masks). Within a group the
    acts are folded in one at a time over the effects of the nonempty act
    subsets seen so far, as (dropped & ~added, added) mask pairs. Each new
    pair's `added` keeps only the hidden arguments and the triggers of the
    acts still to fold, in whatever order they come: no other added bit
    changes the state or offsets a later drop. Subsets with the same pair
    lead to the same state whatever acts join them later, so the pairs are
    deduplicated after each act. The groups touch disjoint arguments, so a
    subset's effect is the union of its parts' effects, each group's bits
    depend only on its own part, and the successors are exactly the
    product of the groups' outcomes. The product leaves out
    only the combination where no group fires: a nonempty subset can still
    leave a group as it was (an induce whose target is visible), and then
    the state itself is a successor. Each count checked against
    `max_states` is of successors already certain, and later groups only
    add to it, so TooLarge is raised before an oversized product is built.
    """
    hidden = ~vis
    flips = {0}  # the arguments a combination of group outcomes toggles
    idle = False  # some group has a nonempty subset that changes nothing
    for group in _groups(screens[i][2] for i in bit_positions(acts)):
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
        changes.add(0)
        # disjoint bits, so every combination is distinct; 0 counts if idle
        _bound(len(flips) * len(changes) - (not idle), max_states)
        flips = {f | c for f in flips for c in changes}
    if not idle:
        flips.discard(0)
    return flips


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

    The result keeps one successor table per selector and the states in
    the canonical order, decided here and nowhere else: by their members'
    bits, sorted, which order as the declaration indices do. `LTS.index`,
    `LTS.edges` and `LTS.deadlocks` are derived from these when first
    read. Each table entry is the very set `successor_states` computed
    for that selector and state.
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
    bit = fw.masks.bit
    states = tuple(sorted(seen, key=lambda s: sorted(map(bit.get, s.visible))))
    return LTS(fw, family, states, init, tables)

"""Persuasion dynamics: possible acts, transitions, reachable LTS.

An act (source, trigger, target) is possible at a state, with respect to a
reference set, when the source is visible, the trigger is visible or empty,
and no visible member of the reference set attacks the source. Any nonempty
subset of the possible acts may fire at once, dropping the triggers that
were converted and making every target visible; an argument both dropped
and (re)made visible in the same step stays visible (the effects offset).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from .errors import TooLarge
from .model import APAFramework, PersuasionAct, State

#: Hard ceiling on explicit state enumeration (overridable per call).
DEFAULT_MAX_STATES = 4096


@dataclass(frozen=True)
class SelectorFamily:
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


@dataclass(frozen=True)
class LTS:
    """Reachable states plus transitions labeled by selector index.

    The transition relation is stored once: `tables[i]` maps every state
    to its successors under selector `i`. `edges` and `deadlocks` are
    derived from the tables on first use, in canonical order.
    """

    framework: APAFramework
    family: SelectorFamily
    states: tuple[State, ...]
    initial: State
    tables: tuple[dict[State, frozenset[State]], ...]

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
        """Successor states of `state` under the given selector indices."""
        return frozenset().union(*(self.tables[i][state] for i in selector_ids))


def possible_acts(
    fw: APAFramework, refset: frozenset[str], state: State
) -> frozenset[PersuasionAct]:
    """Acts executable at `state` when screened by `refset`: an act is
    blocked when a visible member of `refset` attacks its source."""
    visible = state.visible
    screen = refset & visible
    return frozenset(
        act
        for act in fw.persuasions
        if act.source in visible
        and (act.trigger is None or act.trigger in visible)
        and not fw.attackers[act.source] & screen
    )


@functools.lru_cache(maxsize=None)
def successor_states(
    fw: APAFramework, refset: frozenset[str], state: State
) -> frozenset[State]:
    """Distinct successor states of `state` under `refset` (memoized; all
    inputs immutable).

    The possible acts are folded in one at a time over the effects of the
    act subsets seen so far, keyed (dropped - added, added). Subsets with
    the same key lead to the same state whatever acts join them later, so
    the keys are deduplicated after each act. Only the empty subset has
    the key (empty, empty), since every act adds its target.
    """
    none = frozenset()
    effects = {(none, none)}
    for act in possible_acts(fw, refset, state):
        dropped = none if act.trigger is None else frozenset([act.trigger])
        target = frozenset([act.target])
        effects |= {
            ((d | dropped) - (a | target), a | target) for d, a in effects
        }
    effects.discard((none, none))
    visible = state.visible
    return frozenset(State((visible - d) | a) for d, a in effects)


def reachable(
    fw: APAFramework,
    family: SelectorFamily = ALL,
    max_states: int = DEFAULT_MAX_STATES,
) -> LTS:
    """Breadth-first closure of the transition relation from the initial
    state, expanding under every selector of `family` at every state.

    The result keeps one successor table per selector and the states
    sorted by their member-index tuples; `LTS.edges` and `LTS.deadlocks`
    are derived from the tables when first read.
    """
    if max_states < 1:
        raise TooLarge(f"reachable state count exceeds {max_states}")
    selectors = family.effective
    init = fw.initial_state
    seen = {init}
    queue = deque([init])
    tables = tuple({} for _ in selectors)
    while queue:
        state = queue.popleft()
        for refset, table in zip(selectors, tables):
            table[state] = succs = successor_states(fw, refset, state)
            for succ in succs:
                if succ not in seen:
                    if len(seen) >= max_states:
                        raise TooLarge(
                            f"reachable state count exceeds {max_states}"
                        )
                    seen.add(succ)
                    queue.append(succ)
    states = tuple(sorted(seen, key=fw.state_key))
    return LTS(fw, family, states, init, tables)

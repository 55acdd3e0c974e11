"""Core model: arguments, persuasion acts, frameworks and states.

Arguments are plain string ids; a framework fixes their declaration order,
which every set-valued output in the package is sorted by. A state is a
value object identified solely by its visible set. A set defends a
visible argument when it counter-attacks every visible threat to it: each
attacker of the argument, and each source of a convert act that drops it.
A framework derives both relations once, as `attackers` and `eliminators`,
and the bit masks that successors are computed on once, as `masks`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadInitial,
    DuplicateArgument,
    UndeclaredArgument,
    UnknownName,
    ValidationError,
    ValidationIssue,
)

#: Reserved token for the empty trigger of an induce act. It can never be
#: declared as an argument.
EPSILON = "~"


@dataclass(frozen=True)
class PersuasionAct:
    """A persuasion triple (source, trigger, target).

    trigger is None for an induce act (the target is merely made visible)
    and an argument id for a convert act (the trigger is dropped in favour
    of the target).
    """

    source: str
    trigger: str | None
    target: str


@dataclass(frozen=True)
class State:
    """A state of the dynamics: the set of currently visible arguments.

    Two states are equal iff their visible sets are equal; the attacks it
    induces are the framework's `attackers` restricted to `visible`.
    """

    visible: frozenset[str]


@dataclass(frozen=True)
class APAFramework:
    """The immutable input artifact: arguments, attacks, persuasion acts
    and the initially visible set.

    `arguments` fixes the declaration order; use `sort_args` to emit any
    argument collection canonically. Construct via `validate` or the
    `framework` convenience helper, which enforce the invariants.
    """

    arguments: tuple[str, ...]
    attacks: frozenset[tuple[str, str]]
    persuasions: frozenset[PersuasionAct]
    initial: frozenset[str]

    # -- canonical ordering ------------------------------------------------

    def index(self, arg: str) -> int:
        return self._index[arg]

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.arguments)}

    def sort_args(self, args: Iterable[str]) -> tuple[str, ...]:
        """Sort argument ids by declaration order."""
        return tuple(sorted(args, key=self._index.__getitem__))

    def state_key(self, state: State) -> tuple[int, ...]:
        """Canonical sort key for states: the tuple of member indices."""
        return tuple(sorted(self._index[a] for a in state.visible))

    # -- states ------------------------------------------------------------

    def state(self, visible: Iterable[str]) -> State:
        """The state whose visible set is `visible`; every member must be a
        declared argument."""
        visible = frozenset(visible)
        if not visible <= self._index.keys():
            unknown = tuple(sorted(visible - self._index.keys()))
            raise UnknownName(
                f"undeclared arguments in state: {', '.join(unknown)}", unknown
            )
        return State(visible)

    @property
    def initial_state(self) -> State:
        return State(self.initial)

    # -- the two relations defence reads -----------------------------------

    @functools.cached_property
    def attackers(self) -> dict[str, frozenset[str]]:
        """`attackers[x]`: every argument attacking `x`, visible or not."""
        return _sources_by_target(self.arguments, self.attacks)

    @functools.cached_property
    def eliminators(self) -> dict[str, frozenset[str]]:
        """`eliminators[x]`: the sources of the convert acts (s, x, t) with
        t != x. Each such act drops `x` when fired alone, and every
        transition that drops `x` fires one of them."""
        drops = ((act.source, act.trigger) for act in self.persuasions
                 if act.trigger not in (None, act.target))
        return _sources_by_target(self.arguments, drops)

    # -- bit masks over the declaration order -----------------------------

    @functools.cached_property
    def masks(self) -> tuple[dict[str, int], dict[PersuasionAct, tuple[int, int]]]:
        """`(bit, moves)`: `bit[a]` is `1 << index(a)`, and `moves[act]`
        the (drop, add) masks of an act: its trigger (none for an induce
        act) and its target."""
        bit = {a: 1 << i for i, a in enumerate(self.arguments)}
        moves = {
            act: (0 if act.trigger is None else bit[act.trigger], bit[act.target])
            for act in self.persuasions
        }
        return bit, moves

    def format_set(self, args: Iterable[str]) -> str:
        return "{" + ",".join(self.sort_args(args)) + "}"


def bit_positions(mask: int):
    """The bit positions set in `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sources_by_target(
    arguments: tuple[str, ...], pairs: Iterable[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    """Group (source, target) pairs by target, one entry per argument."""
    sources: dict[str, set[str]] = {a: set() for a in arguments}
    for source, target in pairs:
        sources[target].add(source)
    return {a: frozenset(s) for a, s in sources.items()}


def validate(
    arguments: Iterable[tuple[str, int | None]],
    initial: Iterable[tuple[str, int | None]],
    attacks: Iterable[tuple[str, str, int | None]],
    induces: Iterable[tuple[str, str, int | None]],
    converts: Iterable[tuple[str, str, str, int | None]],
) -> APAFramework:
    """Validate a framework description and build the immutable framework.

    Every entry carries an optional source line for diagnostics. All
    violations are collected; on any violation a ValidationError listing
    every one of them is raised.
    """
    issues: list[ValidationIssue] = []
    order: list[str] = []
    seen: set[str] = set()
    for tok, line in arguments:
        if tok == EPSILON:
            # the empty-trigger token is reserved; declaring it collides
            # with the built-in name
            issues.append(DuplicateArgument(tok, line))
            continue
        if tok in seen:
            issues.append(DuplicateArgument(tok, line))
        else:
            seen.add(tok)
            order.append(tok)
    if not order and not issues:
        issues.append(UndeclaredArgument("<no arguments declared>", None))

    def known(tok: str, line: int | None, issue=UndeclaredArgument) -> bool:
        if tok not in seen:
            issues.append(issue(tok, line))
            return False
        return True

    init: set[str] = set()
    for tok, line in initial:
        if known(tok, line, BadInitial):
            init.add(tok)

    atk: set[tuple[str, str]] = set()
    for src, tgt, line in attacks:
        if known(src, line) & known(tgt, line):
            atk.add((src, tgt))

    acts: set[PersuasionAct] = set()
    for src, tgt, line in induces:
        if known(src, line) & known(tgt, line):
            acts.add(PersuasionAct(src, None, tgt))
    for src, trig, tgt, line in converts:
        ok = known(src, line) & known(trig, line) & known(tgt, line)
        if ok:
            acts.add(PersuasionAct(src, trig, tgt))

    if issues:
        raise ValidationError(issues)
    return APAFramework(
        arguments=tuple(order),
        attacks=frozenset(atk),
        persuasions=frozenset(acts),
        initial=frozenset(init),
    )


def framework(
    arguments: Iterable[str],
    attacks: Iterable[tuple[str, str]] = (),
    persuasions: Iterable[PersuasionAct | tuple] = (),
    initial: Iterable[str] = (),
) -> APAFramework:
    """Programmatic constructor; accepts acts as PersuasionAct or as
    (source, trigger, target) triples with trigger None for induce."""
    induces = []
    converts = []
    for act in persuasions:
        if isinstance(act, PersuasionAct):
            src, trig, tgt = act.source, act.trigger, act.target
        else:
            src, trig, tgt = act
        if trig is None:
            induces.append((src, tgt, None))
        else:
            converts.append((src, trig, tgt, None))
    return validate(
        [(a, None) for a in arguments],
        [(a, None) for a in initial],
        [(s, t, None) for (s, t) in attacks],
        induces,
        converts,
    )

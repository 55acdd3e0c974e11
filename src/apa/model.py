"""Core model: arguments, persuasion acts, frameworks and states.

Arguments are plain string ids matching `NAME`; a framework fixes their
declaration order, which every set-valued output in the package is sorted
by. A state is a value object identified solely by its visible set. A
framework derives its relations once, as bit masks over the declaration
order (`masks`). `masks.bit` is the one name -> position table: every
"is it declared?" check in the package, the CLI's and the query
checker's included, reads it. `mask` and `members` are the one encoder
and decoder of argument sets, and successors, extensions and membership
tests read them. `masks.acts` is the one act order, the order in which a
framework file lists the acts.
Each state is decoded once per framework: `state_of` keeps the `State` it
built for every visible mask and hands the same object back afterwards,
and `state` returns that object too. The tables the other layers derive
live on the framework and die with it: `folds` keeps each successor fold
the dynamics computed, and `grounded` each grounded set of the semantics.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple

from .errors import (
    BadArgumentName,
    BadInitial,
    DuplicateArgument,
    UndeclaredArgument,
    UnknownName,
    ValidationError,
    ValidationIssue,
)

#: The argument names every input and output format can carry unambiguously.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class PersuasionAct(NamedTuple):
    """A persuasion triple (source, trigger, target).

    trigger is None for an induce act (the target is merely made visible)
    and an argument id for a convert act (the trigger is dropped in favour
    of the target). Acts hash and compare as their field tuples.
    """

    source: str
    trigger: str | None
    target: str


class State(NamedTuple):
    """A state of the dynamics: the set of currently visible arguments.

    States hash and compare as tuples, in C, so they are equal iff their
    visible sets are. Their one canonical order is decided by
    `dynamics.reachable` and kept by the LTS as `LTS.index`. The attacks a
    state induces are the framework's attacks between members of `visible`.
    """

    visible: frozenset[str]


class Masks(NamedTuple):
    """A framework's relations as `int` masks over the declaration order,
    invisible arguments included: `bit[a]`; per argument position, its
    `attackers`, its `victims` (the arguments it attacks), its `threats`
    (attackers and the sources of the convert acts (s, x, t), t != x, that
    drop it) and its `clash` (attacking or attacked). `acts` lists the
    acts as a framework file does, induces first, then by the declaration
    indices of their arguments; bit i of an act mask stands for `acts[i]`,
    and `screens[i]` is that act's screening row: the bits it needs
    visible (source and trigger), its source's `attackers` and its (drop,
    add) move."""

    bit: dict[str, int]
    attackers: tuple[int, ...]
    victims: tuple[int, ...]
    threats: tuple[int, ...]
    clash: tuple[int, ...]
    acts: tuple[PersuasionAct, ...]
    screens: tuple[tuple[int, int, tuple[int, int]], ...]


class APAFramework:
    """The immutable input artifact: arguments, attacks, persuasion acts
    and the initially visible set.

    `arguments` fixes the declaration order; use `sort_args` to emit any
    argument collection canonically. Construct via `validate` or the
    `framework` convenience helper, which enforce the invariants.
    Immutable by convention: frameworks are equal when their four fields
    are, and the hash is computed once, at construction.
    """

    def __init__(
        self,
        arguments: tuple[str, ...],
        attacks: frozenset[tuple[str, str]],
        persuasions: frozenset[PersuasionAct],
        initial: frozenset[str],
    ):
        self.arguments = arguments
        self.attacks = attacks
        self.persuasions = persuasions
        self.initial = initial
        self._hash = hash(self._fields())
        # tables derived as the framework is used, freed with it: one
        # `State` per visible mask decoded (`state_of`), `dynamics`' folds
        # per (visible mask, possible-act bits) and `semantics`' grounded
        # set per state
        self._states: dict[int, State] = {}
        self.folds: dict[tuple[int, int], frozenset[State]] = {}
        self.grounded: dict[State, frozenset[str]] = {}

    def _fields(self) -> tuple:
        return self.arguments, self.attacks, self.persuasions, self.initial

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self._fields() == other._fields()
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # unpickling rehashes, under the new process's seed
        return type(self), self._fields()

    def __repr__(self) -> str:
        names = ("arguments", "attacks", "persuasions", "initial")
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"APAFramework({fields})"

    # -- canonical ordering ------------------------------------------------

    def sort_args(self, args: Iterable[str]) -> tuple[str, ...]:
        """Sort argument ids by declaration order."""
        return tuple(sorted(args, key=self.masks.bit.__getitem__))

    # -- states ------------------------------------------------------------

    def state(self, visible: Iterable[str]) -> State:
        """The state whose visible set is `visible`, the very object
        `state_of` keeps for its mask; every member must be a declared
        argument."""
        visible = frozenset(visible)
        bit = self.masks.bit
        if not visible <= bit.keys():
            unknown = ", ".join(sorted(visible - bit.keys()))
            raise UnknownName(f"undeclared arguments in state: {unknown}")
        return self.state_of(self.mask(visible))

    @property
    def initial_state(self) -> State:
        return self.state_of(self.mask(self.initial))

    def state_of(self, mask: int) -> State:
        """The state whose visible set is `mask`, decoded on first request;
        every later request for the mask returns that same object."""
        state = self._states.get(mask)
        if state is None:
            state = self._states[mask] = State(self.members(mask))
        return state

    # -- bit masks over the declaration order -----------------------------

    @functools.cached_property
    def masks(self) -> Masks:
        """The framework's relations as bit masks, built once."""
        index = {a: i for i, a in enumerate(self.arguments)}
        bit = {a: 1 << i for a, i in index.items()}
        attackers = [0] * len(bit)
        victims = [0] * len(bit)
        for a, b in self.attacks:
            attackers[index[b]] |= bit[a]
            victims[index[a]] |= bit[b]
        clash = [x | y for x, y in zip(attackers, victims)]
        threats = list(attackers)
        # induces first, then by the declaration indices of their arguments
        acts = tuple(sorted(self.persuasions, key=lambda act: (
            act.trigger is not None,
            tuple(index[a] for a in act if a is not None))))
        screens = []
        for act in acts:
            drop = 0 if act.trigger is None else bit[act.trigger]
            source = index[act.source]
            screens.append((1 << source | drop, attackers[source],
                            (drop, bit[act.target])))
            if act.trigger not in (None, act.target):
                threats[index[act.trigger]] |= bit[act.source]
        return Masks(bit, tuple(attackers), tuple(victims), tuple(threats),
                     tuple(clash), acts, tuple(screens))

    def mask(self, args: Iterable[str]) -> int:
        """The mask of a set of declared arguments."""
        bit = self.masks.bit
        return sum({bit[a] for a in args})

    def members(self, mask: int) -> frozenset[str]:
        """The arguments whose bits are set in `mask`."""
        args = self.arguments
        # copied from a set, a frozenset's table is sized to its members; built
        # by `^` or one member at a time it can be twice as large
        return frozenset({args[i] for i in bit_positions(mask)})

    def format_set(self, args: Iterable[str]) -> str:
        return "{" + ",".join(self.sort_args(args)) + "}"


def bit_positions(mask: int):
    """The bit positions set in `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def validate(
    arguments: Iterable[tuple[str, int | None]],
    initial: Iterable[tuple[str, int | None]],
    attacks: Iterable[tuple[str, str, int | None]],
    acts: Iterable[tuple[str, str | None, str, int | None]],
) -> APAFramework:
    """Validate a framework description and build the immutable framework.

    Each act is one record `(source, trigger, target, line)`, a
    `PersuasionAct` with its line, whose trigger is None for an induce.
    Every entry carries an optional source line for diagnostics. All
    violations are collected; on any violation a ValidationError listing
    every one of them is raised, by line, and in the order of the entries
    among equal lines.
    """
    issues: list[ValidationIssue] = []
    seen: dict[str, None] = {}  # the declared names, in declaration order
    for tok, line in arguments:
        if not (isinstance(tok, str) and re.fullmatch(NAME, tok)):
            issues.append(BadArgumentName(tok, line))
        elif tok in seen:
            issues.append(DuplicateArgument(tok, line))
        else:
            seen[tok] = None
    if not seen and not issues:
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

    persuasions: set[PersuasionAct] = set()
    for src, trig, tgt, line in acts:
        named = (src, tgt) if trig is None else (src, trig, tgt)
        # a list, not a generator, so that every name is checked
        if all([known(a, line) for a in named]):
            persuasions.add(PersuasionAct(src, trig, tgt))

    if issues:
        # stable, so entries without a line keep their order
        raise ValidationError(sorted(issues, key=lambda i: i.line or 0))
    return APAFramework(
        arguments=tuple(seen),
        attacks=frozenset(atk),
        persuasions=frozenset(persuasions),
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
    return validate(
        [(a, None) for a in arguments],
        [(a, None) for a in initial],
        [(s, t, None) for (s, t) in attacks],
        [(s, g, t, None) for (s, g, t) in persuasions],
    )

"""Query language: AST, parser and the fixpoint model checker.

Concrete syntax (one query per file):

    set A1 = { a2, a5 }          # zero or more named-set declarations
    formula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)

Operators: `!` `&` `|` `->` (precedence in that order, `->` right
associative); temporal operators AX EX AF EF AG EG carry a selector
superscript `{Name,...}` or `{*}`; until is written `A{S}[p U q]` /
`E{S}[p U q]`. Atoms: `true`, `false`, `in(arg, Set)`, `sem(ad|co|pr|st|gr,
Set)`, `visible(arg)` and the macro `exact(Set, Set)`. An inline `{a,b}`
literal may stand for a set operand or a selector; it binds a fresh name.
In the AST a selector is a tuple of set names, or None for `{*}`. AST
nodes are immutable: two nodes are equal when they are of the same class
and their fields are equal, and each node caches its hash when it is built,
so a formula of any depth keys the labelling's tables in constant time.

Temporal operators range over transitions whose reference set is drawn
from their own selector family; a state with no outgoing edge for a family
is given an implicit stutter self-loop, making the relation total so the
classical fixpoint algorithms apply. `F` operators are reflexive (the
current state counts as a future state). Every temporal operator is
labelled through its dual over EX, EU and EG, and the counterexample of a
universal operator is the witness of its existential dual on the
complement. The labelling keeps what each alternative of a node's dual
computed, and witnesses walk those fixpoints instead of computing them
again. EU is built as its least fixpoint in stages: stage i holds the
states whose shortest path to the target takes i steps. An EU witness
walks down those stages, so it is a shortest path. Every witness step
takes the allowed successor that comes first in the LTS's one canonical
state order (`LTS.index`), so no successor set is sorted.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import dynamics, semantics
from .dynamics import LTS, SelectorFamily
from .errors import QuerySyntaxError, UnknownName, UnknownSelector
from .model import NAME, APAFramework, State

SEMANTICS_LABELS = set(semantics.LABELS)
UNARY_TEMPORAL = ("AX", "EX", "AF", "EF", "AG", "EG")
#: Deepest formula the parser accepts. Equality, repr, copy and pickle of
#: the AST recurse, so depth must stay well below Python's recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class of the query AST nodes.

    A node class lists its fields, in order, as its `__slots__`; nodes are
    built from positional fields and refuse assignment. Two nodes are equal
    when they are of the same class and their fields are equal, so
    `And(p, q) != Or(p, q)`. A node's hash is computed once, when it is
    built, from its class name and its fields, whose own hashes are cached
    already: hashing costs the same at any depth. So is its `height`, the
    number of nodes on its longest path down to an atom.
    """

    __slots__ = ("_hash", "height")

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self).__name__, *values)))
        object.__setattr__(self, "height", 1 + max(
            (v.height for v in values if isinstance(v, Formula)), default=0))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):  # copy and pickle rebuild through `__init__`
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = (f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class In(Formula):
    __slots__ = ("arg", "setname")


class Sem(Formula):
    __slots__ = ("label", "setname")


class Visible(Formula):
    __slots__ = ("arg",)


class Exact(Formula):
    """Macro: the operand set contains exactly the members of `setname`
    (membership conjunction over every declared argument)."""

    __slots__ = ("setname", "operand")


class Not(Formula):
    __slots__ = ("sub",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


#: Selector superscript: a tuple of set names, or None for `{*}`.
Sigma = tuple[str, ...] | None


class Temporal(Formula):
    __slots__ = ("op", "sigma", "sub")  # op: one of UNARY_TEMPORAL


class Until(Formula):
    __slots__ = ("quant", "sigma", "left", "right")  # quant: "A" or "E"


class Query(NamedTuple):
    """Named-set bindings plus the formula to check."""

    sets: tuple[tuple[str, frozenset[str]], ...]
    formula: Formula
    #: names synthesized for inline set literals (shown as literals in errors)
    implicit: frozenset[str] = frozenset()

    def bindings(self) -> dict[str, frozenset[str]]:
        return dict(self.sets)


#: Atom syntax, read by the parser and the name check: node class ->
#: (keyword, operand kinds in field order). An operand is an argument name
#: ("argname"), a set name or inline literal ("setref") or a semantics label
#: ("label"); the parser reads each with `parse_<kind>`.
_ATOMS = {
    Top: ("true", ()),
    Bottom: ("false", ()),
    In: ("in", ("argname", "setref")),
    Sem: ("sem", ("label", "setref")),
    Visible: ("visible", ("argname",)),
    Exact: ("exact", ("setref", "setref")),
}
_ATOM_CLASSES = {keyword: cls for cls, (keyword, _) in _ATOMS.items()}
RESERVED = {"set", "formula", *_ATOM_CLASSES, "A", "E", *UNARY_TEMPORAL}


def _operands(node: Formula) -> list[tuple[str, str]]:
    """(kind, value) of each operand of an atom node, in field order; none
    for any other node."""
    kinds = _ATOMS.get(type(node), ("", ()))[1]
    return list(zip(kinds, node._values()))


# ---------------------------------------------------------------------------
# Tokenizer / parser

#: Blanks, line ends and comments match without a group; a name, `->` or
#: one punctuation character matches as `token`; any other character as
#: `bad`.
_TOKEN_RE = re.compile(
    r"""
    [ \t\n]+ | \r\n | \#[^\n]*
  | (?P<token> -> | """ + NAME + r""" | [(){}\[\],!&|=:*] )
  | (?P<bad> . )
    """,
    re.VERBOSE,
)

#: `|` and `&` by how tightly they bind, and the node each one builds;
#: `->` binds more loosely than both (`parse_formula`).
_BINARY = {"|": (1, Or), "&": (2, And)}


def _position(source: str, offset: int) -> tuple[int, int]:
    """Line and column, both from 1, of `offset`; lines end at "\\n"."""
    start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - start + 1


def _tokenize(source: str) -> list[tuple[str, int]]:
    """The tokens of `source` as (text, offset) pairs, closed by ("", end).
    A token is a name exactly when its text is an identifier."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "token":
            tokens.append((m.group(), m.start()))
        elif m.lastgroup:
            raise QuerySyntaxError(
                f"unexpected character {m.group()!r}",
                *_position(source, m.start()),
            )
    tokens.append(("", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.sets: dict[str, frozenset[str]] = {}
        self.implicit: list[str] = []
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def text(self) -> str:
        """The current token's text; "" at the end of input."""
        return self.tokens[self.pos][0]

    def take(self) -> str:
        """The current token's text, moving past it."""
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def skip(self, text: str) -> bool:
        """Move past the current token if its text is `text`."""
        if self.tokens[self.pos][0] != text:
            return False
        self.pos += 1
        return True

    def position(self) -> tuple[int, int]:
        return _position(self.source, self.tokens[self.pos][1])

    def error(self, message: str):
        raise QuerySyntaxError(message, *self.position())

    def found(self) -> str:
        """The current token, as an error message names it."""
        return repr(self.text) if self.text else "end of input"

    def expect(self, text: str) -> None:
        if not self.skip(text):
            self.error(f"expected {text!r}, found {self.found()}")

    # -- query file -------------------------------------------------------

    def parse_query(self) -> Query:
        while self.skip("set"):
            name = self.text
            if not name.isidentifier():
                self.error("expected a set name")
            if name in RESERVED:
                self.error(f"{name!r} is a reserved word")
            if name in self.sets:
                self.error(f"set {name!r} declared twice")
            self.pos += 1
            self.expect("=")
            self.sets[name] = self.parse_set_literal()
        self.expect("formula")
        self.expect(":")
        formula = self.parse_formula()
        if self.text:
            self.error(f"trailing input {self.text!r}")
        if formula.height > MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        return Query(
            sets=tuple(sorted(self.sets.items())),
            formula=formula,
            implicit=frozenset(self.implicit),
        )

    def parse_set_literal(self) -> frozenset[str]:
        self.expect("{")
        members = []
        while not self.skip("}"):
            members.append(self.parse_argname())
            self.skip(",")
        return frozenset(members)

    def parse_setref(self, selector: bool = False) -> str:
        """A declared set name, or an inline literal bound to the first
        `_s<i>` name not yet taken. A `selector` entry words its errors
        for a selector list."""
        if self.text == "{":
            members = self.parse_set_literal()
            i = len(self.implicit)
            while f"_s{i}" in self.sets:
                i += 1
            name = f"_s{i}"
            self.sets[name] = members
            self.implicit.append(name)
            return name
        name = self.text
        if not name.isidentifier():
            where = " in selector list" if selector else ""
            self.error(f"expected a set name or literal{where}")
        if name not in self.sets:
            kind, unknown = (
                ("selector ", UnknownSelector) if selector else ("", UnknownName)
            )
            line = self.position()[0]
            raise unknown(f"undeclared {kind}set {name!r} at line {line}")
        return self.take()

    # -- formulas ---------------------------------------------------------

    def parse_formula(self) -> Formula:
        operands = [self.parse_binary()]
        while self.skip("->"):
            operands.append(self.parse_binary())
        node = operands.pop()
        while operands:  # right-assoc
            node = Implies(operands.pop(), node)
        return node

    def parse_binary(self, floor: int = 1) -> Formula:
        """Operands joined by the `_BINARY` operators that bind at least
        as tightly as `floor`, each operator left-associative."""
        node = self.parse_unary()
        while True:
            binding, cls = _BINARY.get(self.text, (0, None))
            if binding < floor:
                return node
            self.pos += 1
            node = cls(node, self.parse_binary(binding + 1))

    def parse_unary(self) -> Formula:
        # every recursion of the parser passes through here
        if self.depth == MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        node = self.parse_unary_body()
        self.depth -= 1
        return node

    def parse_unary_body(self) -> Formula:
        if self.skip("!"):
            return Not(self.parse_unary())
        op = self.text
        if op in UNARY_TEMPORAL:
            self.pos += 1
            sigma = self.parse_sigma()
            return Temporal(op, sigma, self.parse_unary())
        if op in ("A", "E"):
            self.pos += 1
            sigma = self.parse_sigma()
            self.expect("[")
            left = self.parse_formula()
            self.expect("U")
            right = self.parse_formula()
            self.expect("]")
            return Until(op, sigma, left, right)
        return self.parse_atom()

    def parse_sigma(self) -> Sigma:
        self.expect("{")
        if self.skip("*"):
            self.expect("}")
            return None
        names = []
        while not self.skip("}"):
            names.append(self.parse_setref(selector=True))
            self.skip(",")
        if not names:
            self.error("empty selector list")
        return tuple(names)

    def parse_atom(self) -> Formula:
        if self.skip("("):
            node = self.parse_formula()
            self.expect(")")
            return node
        keyword = self.text
        if not keyword.isidentifier():
            self.error(f"expected a formula, found {self.found()}")
        cls = _ATOM_CLASSES.get(keyword)
        if cls is None:
            self.error(f"unknown construct {keyword!r}")
        self.pos += 1
        kinds = _ATOMS[cls][1]
        if not kinds:
            return cls()
        self.expect("(")
        operands = []
        for kind in kinds:
            if operands:
                self.expect(",")
            operands.append(getattr(self, f"parse_{kind}")())
        self.expect(")")
        return cls(*operands)

    def parse_argname(self) -> str:
        if not self.text.isidentifier():
            self.error("expected an argument name")
        return self.take()

    def parse_label(self) -> str:
        if self.text not in SEMANTICS_LABELS:
            self.error(f"expected one of {', '.join(semantics.LABELS)}")
        return self.take()


def parse_query(text: str) -> Query:
    """Parse one query file (set declarations then `formula: ...`)."""
    return _Parser(text).parse_query()


def _children(node: Formula) -> list[Formula]:
    """The direct subformulas of `node`, left to right."""
    children = (getattr(node, a, None) for a in ("sub", "left", "right"))
    return [child for child in children if isinstance(child, Formula)]


# ---------------------------------------------------------------------------
# Labeling (fixpoint model checking)


def _subformulas(root: Formula) -> list[Formula]:
    """Every distinct subformula of `root` once, in postorder (children
    left to right, each before its parent), without recursion."""
    order: dict[Formula, None] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in order:
            continue
        if expanded:
            order[node] = None
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))
    return list(order)


def _print_literal(members: frozenset[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def _resolve_names(
    fw: APAFramework, query: Query, order: list[Formula]
) -> dict[str, frozenset[str]]:
    """The query's bindings, once every set member and every argument
    operand of the subformulas in `order` is checked against `fw`."""
    declared = fw.masks.bit
    for name, members in query.sets:
        unknown = sorted(members.difference(declared))
        if unknown:
            shown = (
                "literal " + _print_literal(members)
                if name in query.implicit else repr(name)
            )
            raise UnknownName(
                f"set {shown} mentions undeclared argument {unknown[0]!r}"
            )
    for node in order:
        for kind, value in _operands(node):
            if kind == "argname" and value not in declared:
                raise UnknownName(f"undeclared argument {value!r} in query")
    return query.bindings()


#: The universal unary operators as negated existential ones on the
#: complement: AX p = !EX !p, AF p = !EG !p, AG p = !EF !p.
_EXISTENTIAL_DUAL = {"AX": "EX", "AF": "EG", "AG": "EF"}


class Labeling:
    """One labelling pass over the union LTS of every selector family the
    query mentions: `sat` maps each subformula to the states where it holds.

    The query's names are checked against the framework before any state
    is explored. Immutable by convention once built; safe to share across
    queries.
    """

    def __init__(
        self,
        fw: APAFramework,
        query: Query,
        max_states: int = dynamics.DEFAULT_MAX_STATES,
        max_args: int = semantics.DEFAULT_MAX_ENUM_ARGS,
    ):
        order = _subformulas(query.formula)
        sets = _resolve_names(fw, query, order)
        refsets = {
            node.sigma: SelectorFamily(
                None if node.sigma is None
                else tuple(sets[n] for n in node.sigma)
            ).effective
            for node in order
            if isinstance(node, (Temporal, Until))
        }
        selectors = {r: None for rs in refsets.values() for r in rs}
        index = {r: i for i, r in enumerate(selectors)}
        self.lts: LTS = dynamics.reachable(
            fw, SelectorFamily(tuple(selectors)), max_states=max_states
        )
        self.everywhere = frozenset(self.lts.states)

        # successor maps per selector family, stutter-completed
        self._succ: dict[Sigma, dict[State, frozenset[State]]] = {}
        for sigma, rs in refsets.items():
            ids = {index[r] for r in rs}
            self._succ[sigma] = {
                s: self.lts.successors_of(s, ids) or frozenset([s])
                for s in self.lts.states
            }

        self.sat: dict[Formula, frozenset[State]] = {}
        #: per temporal node, (kind, target, result) of each alternative of
        #: its dual: the `ex` or `eg` set, or the stages of `eu`
        self.fixpoints: dict[Formula, tuple[tuple, ...]] = {}
        for node in order:
            self.sat[node] = self._label(node, sets, max_args)

    def successors(self, sigma: Sigma, state: State) -> frozenset[State]:
        return self._succ[sigma][state]

    # -- fixpoints --------------------------------------------------------

    def ex(self, sigma: Sigma, sat: frozenset[State]) -> frozenset[State]:
        succ = self._succ[sigma]
        return frozenset(
            s for s in self.everywhere if not succ[s].isdisjoint(sat)
        )

    def eg(self, sigma: Sigma, sat: frozenset[State]) -> frozenset[State]:
        """EG as the greatest fixpoint of Z = sat & EX Z: keep the states
        with a successor still kept, until none is dropped."""
        succ = self._succ[sigma]
        while True:
            kept = frozenset(s for s in sat if not succ[s].isdisjoint(sat))
            if len(kept) == len(sat):
                return kept
            sat = kept

    def eu(
        self, sigma: Sigma, left: frozenset[State], right: frozenset[State]
    ) -> dict[State, int]:
        """E[left U right] as the least fixpoint of Z = right | (left & EX Z),
        built in stages: each state where it holds, mapped to the length of
        its shortest path into `right` through `left`. Stage 0 is `right`;
        stage i+1 is the states of `left` not yet in Z with a successor in
        stage i (one with a successor in an earlier stage is in Z already)."""
        succ = self._succ[sigma]
        stages = dict.fromkeys(right, 0)
        frontier, rest, stage = right, left - right, 0
        while frontier:
            stage += 1
            frontier = {s for s in rest if not succ[s].isdisjoint(frontier)}
            rest -= frontier
            stages.update(dict.fromkeys(frontier, stage))
        return stages

    def dual(self, node: Temporal | Until) -> tuple[bool, tuple[tuple, ...]]:
        """A temporal node as (universal, alternatives), each alternative
        one of ("EX", target), ("EU", through, target) and ("EG", target).
        The node holds where some alternative holds, or, when universal,
        where none does (Clarke, Emerson & Sistla 1986)."""
        everywhere = self.everywhere
        if isinstance(node, Until):
            left, right = self.sat[node.left], self.sat[node.right]
            if node.quant == "E":
                return False, (("EU", left, right),)
            # A[l U r] == !(E[!r U (!l & !r)] | EG !r)
            not_r = everywhere - right
            return True, (("EU", not_r, not_r - left), ("EG", not_r))
        op, target = node.op, self.sat[node.sub]
        universal = op in _EXISTENTIAL_DUAL
        if universal:
            op, target = _EXISTENTIAL_DUAL[op], everywhere - target
        if op == "EF":
            return universal, (("EU", everywhere, target),)
        return universal, ((op, target),)

    # -- node evaluation --------------------------------------------------

    def _label(
        self, node: Formula, sets: dict[str, frozenset[str]], max_args: int
    ) -> frozenset[State]:
        everywhere, nowhere, sat = self.everywhere, frozenset(), self.sat
        if isinstance(node, Top):
            return everywhere
        if isinstance(node, Bottom):
            return nowhere
        if isinstance(node, In):
            return everywhere if node.arg in sets[node.setname] else nowhere
        if isinstance(node, Visible):
            return frozenset(s for s in everywhere if node.arg in s.visible)
        if isinstance(node, Sem):
            fw, cand = self.lts.framework, sets[node.setname]
            return frozenset(
                s for s in everywhere
                if semantics.holds(fw, node.label, cand, s, max_args)
            )
        if isinstance(node, Exact):
            same = sets[node.setname] == sets[node.operand]
            return everywhere if same else nowhere
        if isinstance(node, Not):
            return everywhere - sat[node.sub]
        if isinstance(node, And):
            return sat[node.left] & sat[node.right]
        if isinstance(node, Or):
            return sat[node.left] | sat[node.right]
        if isinstance(node, Implies):
            return (everywhere - sat[node.left]) | sat[node.right]
        if isinstance(node, (Temporal, Until)):
            fixpoint = {"EX": self.ex, "EU": self.eu, "EG": self.eg}
            universal, alternatives = self.dual(node)
            self.fixpoints[node] = record = tuple(
                (kind, operands[-1], fixpoint[kind](node.sigma, *operands))
                for kind, *operands in alternatives
            )
            # a union takes the keys of `eu`'s stages: its states
            holds = frozenset().union(*(result for _, _, result in record))
            return everywhere - holds if universal else holds
        raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# check() with witness extraction


class Lasso(NamedTuple):
    """A path witness: a finite prefix followed by a cycle."""

    prefix: tuple[State, ...]
    cycle: tuple[State, ...]


class CheckResult(NamedTuple):
    value: bool
    witness: Lasso | None
    labeling: Labeling


def _witness_path(labeling: Labeling, node: Formula) -> Lasso | None:
    """A lasso justifying a true existential / refuting a false universal
    top-level temporal formula, from the first alternative recorded for it
    that holds at the initial state: EX steps into its target, EU walks
    down its stages, and then the path goes on, within the set for EG and
    anywhere otherwise, until a state repeats. Every step takes the allowed
    successor first in the canonical order, `LTS.index`."""
    init, position = labeling.lts.initial, labeling.lts.index.__getitem__

    def step(state: State, allowed) -> State:
        succs = labeling.successors(node.sigma, state)
        return min(filter(allowed, succs), key=position)

    for kind, target, result in labeling.fixpoints.get(node, ()):
        if init not in result:
            continue
        path = [init]
        if kind == "EX":
            path.append(step(path[-1], target.__contains__))
        elif kind == "EU":
            for stage in range(result[init] - 1, -1, -1):
                path.append(step(path[-1], lambda t: result.get(t) == stage))
        within = (result if kind == "EG" else labeling.everywhere).__contains__
        seen = {s: i for i, s in enumerate(path)}
        while (nxt := step(path[-1], within)) not in seen:
            seen[nxt] = len(path)
            path.append(nxt)
        i = seen[nxt]
        return Lasso(prefix=tuple(path[:i]), cycle=tuple(path[i:]))
    return None


def check(
    fw: APAFramework,
    query: Query,
    max_states: int = dynamics.DEFAULT_MAX_STATES,
    max_args: int = semantics.DEFAULT_MAX_ENUM_ARGS,
) -> CheckResult:
    """Truth of the query at the initial state, with a lasso witness for a
    true existential / false universal top-level temporal formula."""
    labeling = Labeling(fw, query, max_states, max_args)
    value = labeling.lts.initial in labeling.sat[query.formula]
    witness = _witness_path(labeling, query.formula)
    return CheckResult(value=value, witness=witness, labeling=labeling)

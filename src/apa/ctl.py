"""Query language: AST, parser, printer and the fixpoint model checker.

Concrete syntax (one query per file):

    set A1 = { a2, a5 }          # zero or more named-set declarations
    formula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)

Operators: `!` `&` `|` `->` (precedence in that order, `->` right
associative); temporal operators AX EX AF EF AG EG carry a selector
superscript `{Name,...}` or `{*}`; until is written `A{S}[p U q]` /
`E{S}[p U q]`. Atoms: `true`, `false`, `in(arg, Set)`, `sem(ad|co|pr|st|gr,
Set)`, `visible(arg)` and the macro `exact(Set, Set)`. An inline `{a,b}`
literal may stand for a set operand or a selector; it binds a fresh name.

Temporal operators range over transitions whose reference set is drawn
from their own selector family; a state with no outgoing edge for a family
is given an implicit stutter self-loop, making the relation total so the
classical fixpoint algorithms apply. `F` operators are reflexive (the
current state counts as a future state).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from . import dynamics, semantics
from .dynamics import LTS, SelectorFamily
from .errors import QuerySyntaxError, UnknownName, UnknownSelector
from .model import APAFramework, State

SEMANTICS_LABELS = set(semantics.LABELS)
UNARY_TEMPORAL = ("AX", "EX", "AF", "EF", "AG", "EG")
RESERVED = {
    "set", "formula", "true", "false", "in", "sem", "visible", "exact",
    "A", "E", *UNARY_TEMPORAL,
}
#: Deepest formula the parser accepts. The AST is processed recursively
#: (hashing, labeling, printing), so depth must stay well below Python's
#: recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class for query AST nodes (all frozen, hashable)."""


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class In(Formula):
    arg: str
    setname: str


@dataclass(frozen=True)
class Sem(Formula):
    label: str
    setname: str


@dataclass(frozen=True)
class Visible(Formula):
    arg: str


@dataclass(frozen=True)
class Exact(Formula):
    """Macro: the operand set contains exactly the members of `setname`
    (membership conjunction over every declared argument)."""

    setname: str
    operand: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Sigma:
    """Selector superscript: a tuple of set names, or None for `{*}`."""

    names: tuple[str, ...] | None

    @property
    def is_wildcard(self) -> bool:
        return self.names is None


@dataclass(frozen=True)
class Temporal(Formula):
    op: str  # one of UNARY_TEMPORAL
    sigma: Sigma
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    quant: str  # "A" or "E"
    sigma: Sigma
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Query:
    """Named-set bindings plus the formula to check."""

    sets: tuple[tuple[str, frozenset[str]], ...]
    formula: Formula
    #: names synthesized for inline set literals (printed back as literals)
    implicit: frozenset[str] = frozenset()

    def bindings(self) -> dict[str, frozenset[str]]:
        return dict(self.sets)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<arrow>->)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(){}\[\],!&|=:*])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # "name", "punct", "arrow", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sets: dict[str, frozenset[str]] = {}
        self.implicit: list[str] = []
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def error(self, message: str):
        raise QuerySyntaxError(message, self.cur.line, self.cur.column)

    def expect(self, text: str) -> _Token:
        if self.cur.text != text:
            self.error(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.cur.text == text

    # -- query file -------------------------------------------------------

    def parse_query(self) -> Query:
        while self.at("set"):
            self.advance()
            name = self.parse_setname_decl()
            self.expect("=")
            members = self.parse_set_literal()
            self.sets[name] = members
        self.expect("formula")
        self.expect(":")
        formula = self.parse_formula()
        if self.cur.kind != "eof":
            self.error(f"trailing input {self.cur.text!r}")
        if _height(formula) > MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        return Query(
            sets=tuple(sorted(self.sets.items())),
            formula=formula,
            implicit=frozenset(self.implicit),
        )

    def parse_setname_decl(self) -> str:
        tok = self.cur
        if tok.kind != "name":
            self.error("expected a set name")
        if tok.text in RESERVED:
            self.error(f"{tok.text!r} is a reserved word")
        if tok.text in self.sets:
            self.error(f"set {tok.text!r} declared twice")
        return self.advance().text

    def parse_set_literal(self) -> frozenset[str]:
        self.expect("{")
        members = []
        while not self.at("}"):
            if self.cur.kind != "name":
                self.error("expected an argument name")
            members.append(self.advance().text)
            if self.at(","):
                self.advance()
        self.expect("}")
        return frozenset(members)

    def fresh_literal(self, members: frozenset[str]) -> str:
        """Bind an inline literal to the first `_s<i>` name not yet taken."""
        i = len(self.implicit)
        while f"_s{i}" in self.sets:
            i += 1
        name = f"_s{i}"
        self.sets[name] = members
        self.implicit.append(name)
        return name

    def parse_setref(self) -> str:
        """A named set, or an inline literal bound to a fresh name."""
        if self.at("{"):
            return self.fresh_literal(self.parse_set_literal())
        tok = self.cur
        if tok.kind != "name":
            self.error("expected a set name or literal")
        if tok.text not in self.sets:
            raise UnknownName(
                f"undeclared set {tok.text!r} at line {tok.line}"
            )
        return self.advance().text

    # -- formulas ---------------------------------------------------------

    def parse_formula(self) -> Formula:
        operands = [self.parse_or()]
        while self.cur.kind == "arrow":
            self.advance()
            operands.append(self.parse_or())
        node = operands.pop()
        while operands:  # right-assoc
            node = Implies(operands.pop(), node)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.at("|"):
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.at("&"):
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        # every recursion of the parser passes through here
        if self.depth == MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        node = self.parse_unary_body()
        self.depth -= 1
        return node

    def parse_unary_body(self) -> Formula:
        tok = self.cur
        if self.at("!"):
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "name" and tok.text in UNARY_TEMPORAL:
            self.advance()
            sigma = self.parse_sigma()
            return Temporal(tok.text, sigma, self.parse_unary())
        if tok.kind == "name" and tok.text in ("A", "E"):
            self.advance()
            sigma = self.parse_sigma()
            self.expect("[")
            left = self.parse_formula()
            self.expect("U")
            right = self.parse_formula()
            self.expect("]")
            return Until(tok.text, sigma, left, right)
        return self.parse_atom()

    def parse_sigma(self) -> Sigma:
        self.expect("{")
        if self.at("*"):
            self.advance()
            self.expect("}")
            return Sigma(None)
        names = []
        while not self.at("}"):
            tok = self.cur
            if self.at("{"):
                names.append(self.fresh_literal(self.parse_set_literal()))
            elif tok.kind != "name":
                self.error("expected a set name or literal in selector list")
            elif tok.text not in self.sets:
                raise UnknownSelector(
                    f"undeclared selector set {tok.text!r} at line {tok.line}"
                )
            else:
                names.append(self.advance().text)
            if self.at(","):
                self.advance()
        self.expect("}")
        if not names:
            self.error("empty selector list")
        return Sigma(tuple(names))

    def parse_atom(self) -> Formula:
        tok = self.cur
        if self.at("("):
            self.advance()
            node = self.parse_formula()
            self.expect(")")
            return node
        if tok.kind != "name":
            self.error(f"expected a formula, found {tok.text!r}")
        if tok.text == "true":
            self.advance()
            return Top()
        if tok.text == "false":
            self.advance()
            return Bottom()
        if tok.text == "in":
            self.advance()
            self.expect("(")
            arg = self.parse_argname()
            self.expect(",")
            setname = self.parse_setref()
            self.expect(")")
            return In(arg, setname)
        if tok.text == "sem":
            self.advance()
            self.expect("(")
            label = self.cur
            if label.kind != "name" or label.text not in SEMANTICS_LABELS:
                self.error("expected one of ad, co, pr, st, gr")
            self.advance()
            self.expect(",")
            setname = self.parse_setref()
            self.expect(")")
            return Sem(label.text, setname)
        if tok.text == "visible":
            self.advance()
            self.expect("(")
            arg = self.parse_argname()
            self.expect(")")
            return Visible(arg)
        if tok.text == "exact":
            self.advance()
            self.expect("(")
            setname = self.parse_setref()
            self.expect(",")
            operand = self.parse_setref()
            self.expect(")")
            return Exact(setname, operand)
        self.error(f"unknown construct {tok.text!r}")

    def parse_argname(self) -> str:
        tok = self.cur
        if tok.kind != "name":
            self.error("expected an argument name")
        return self.advance().text


def parse_query(text: str) -> Query:
    """Parse one query file (set declarations then `formula: ...`)."""
    return _Parser(text).parse_query()


def _children(node: Formula) -> list[Formula]:
    """The direct subformulas of `node`, left to right."""
    children = (getattr(node, a, None) for a in ("sub", "left", "right"))
    return [child for child in children if isinstance(child, Formula)]


def _height(node: Formula) -> int:
    """Height of a formula tree, measured without recursion."""
    height = 0
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((child, depth + 1) for child in _children(node))
    return height


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {Implies: 1, Or: 2, And: 3}


def _print_setref(name: str, query: Query) -> str:
    if name in query.implicit:
        members = dict(query.sets)[name]
        return "{" + ",".join(sorted(members)) + "}"
    return name


def print_formula(node: Formula, query: Query) -> str:
    """Render a formula back to concrete syntax (reparses to an equal AST)."""

    def sigma(sig: Sigma) -> str:
        if sig.is_wildcard:
            return "{*}"
        return "{" + ",".join(_print_setref(n, query) for n in sig.names) + "}"

    def wrap(sub: Formula, limit: int) -> str:
        text = render(sub)
        if _PRECEDENCE.get(type(sub), 9) <= limit:
            return f"({text})"
        return text

    def render(n: Formula) -> str:
        if isinstance(n, Top):
            return "true"
        if isinstance(n, Bottom):
            return "false"
        if isinstance(n, In):
            return f"in({n.arg}, {_print_setref(n.setname, query)})"
        if isinstance(n, Sem):
            return f"sem({n.label}, {_print_setref(n.setname, query)})"
        if isinstance(n, Visible):
            return f"visible({n.arg})"
        if isinstance(n, Exact):
            return (
                f"exact({_print_setref(n.setname, query)}, "
                f"{_print_setref(n.operand, query)})"
            )
        if isinstance(n, Not):
            return "!" + wrap(n.sub, 3)
        if isinstance(n, And):
            # left-assoc: parenthesize a right child of equal precedence
            return f"{wrap(n.left, 2)} & {wrap(n.right, 3)}"
        if isinstance(n, Or):
            return f"{wrap(n.left, 1)} | {wrap(n.right, 2)}"
        if isinstance(n, Implies):
            # right-assoc: parenthesize a left implication, keep the right
            return f"{wrap(n.left, 1)} -> {wrap(n.right, 0)}"
        if isinstance(n, Temporal):
            return f"{n.op}{sigma(n.sigma)} {wrap(n.sub, 3)}"
        if isinstance(n, Until):
            return (
                f"{n.quant}{sigma(n.sigma)}"
                f"[{render(n.left)} U {render(n.right)}]"
            )
        raise TypeError(f"not a formula node: {n!r}")

    return render(node)


def print_query(query: Query) -> str:
    lines = [
        f"set {name} = {{" + ", ".join(sorted(members)) + "}"
        for name, members in query.sets
        if name not in query.implicit
    ]
    lines.append("formula: " + print_formula(query.formula, query))
    return "\n".join(lines) + "\n"


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


@dataclass(eq=False)
class Labeling:
    """Result of a labeling pass: per-(subformula, state) truth values.

    Immutable by convention once returned; safe to share across queries.
    """

    lts: LTS
    query: Query
    sat: dict[Formula, frozenset[State]]


def _resolve_sets(fw: APAFramework, query: Query) -> dict[str, frozenset[str]]:
    """The query's bindings, each checked against the framework."""
    declared = set(fw.arguments)
    for name, members in query.sets:
        unknown = sorted(members - declared)
        if unknown:
            shown = (
                "literal " + _print_setref(name, query)
                if name in query.implicit else repr(name)
            )
            raise UnknownName(
                f"set {shown} mentions undeclared argument {unknown[0]!r}"
            )
    return query.bindings()


class _Engine:
    """One labeling pass over the union LTS of all mentioned selectors."""

    def __init__(
        self,
        fw: APAFramework,
        query: Query,
        max_states: int = dynamics.DEFAULT_MAX_STATES,
        max_args: int = semantics.DEFAULT_MAX_ENUM_ARGS,
    ):
        self.fw = fw
        self.query = query
        self.max_args = max_args
        self.sets = _resolve_sets(fw, query)

        self.order = _subformulas(query.formula)
        sigma_refsets: dict[Sigma, tuple[frozenset[str], ...]] = {}
        for node in self.order:
            if isinstance(node, (Temporal, Until)):
                sigma = node.sigma
                if sigma.is_wildcard:
                    refsets = (frozenset(),)  # wildcard == empty reference set
                else:
                    refsets = tuple(self.sets[n] for n in sigma.names)
                sigma_refsets[sigma] = refsets
        selectors = {r: None for rs in sigma_refsets.values() for r in rs}
        index = {r: i for i, r in enumerate(selectors)}
        family = SelectorFamily(tuple(selectors))
        self.lts = dynamics.reachable(fw, family, max_states=max_states)
        self.states = frozenset(self.lts.states)

        # successor maps per selector family, stutter-completed
        self._succ: dict[Sigma, dict[State, frozenset[State]]] = {}
        for sigma, refsets in sigma_refsets.items():
            ids = {index[r] for r in refsets}
            table = {}
            for s in self.lts.states:
                succs = self.lts.successors_of(s, ids)
                table[s] = succs if succs else frozenset([s])
            self._succ[sigma] = table

    def successors(self, sigma: Sigma, state: State) -> frozenset[State]:
        return self._succ[sigma][state]

    # -- fixpoints --------------------------------------------------------

    def ex(self, sigma: Sigma, sat: frozenset[State]) -> frozenset[State]:
        return frozenset(
            s for s in self.states if self.successors(sigma, s) & sat
        )

    def ax(self, sigma: Sigma, sat: frozenset[State]) -> frozenset[State]:
        return frozenset(
            s for s in self.states if self.successors(sigma, s) <= sat
        )

    def eg(self, sigma: Sigma, sat: frozenset[State]) -> frozenset[State]:
        current = set(sat)
        changed = True
        while changed:
            changed = False
            for s in list(current):
                if not (self.successors(sigma, s) & current):
                    current.discard(s)
                    changed = True
        return frozenset(current)

    def eu(
        self, sigma: Sigma, left: frozenset[State], right: frozenset[State]
    ) -> frozenset[State]:
        current = set(right)
        changed = True
        while changed:
            changed = False
            for s in self.states:
                if s in current or s not in left:
                    continue
                if self.successors(sigma, s) & current:
                    current.add(s)
                    changed = True
        return frozenset(current)

    # -- node evaluation --------------------------------------------------

    def label(self) -> Labeling:
        sat: dict[Formula, frozenset[State]] = {}
        for node in self.order:
            sat[node] = self.eval_node(node, sat)
        return Labeling(lts=self.lts, query=self.query, sat=sat)

    def eval_node(
        self, node: Formula, sat: dict[Formula, frozenset[State]]
    ) -> frozenset[State]:
        everywhere = self.states
        nowhere = frozenset()
        if isinstance(node, Top):
            return everywhere
        if isinstance(node, Bottom):
            return nowhere
        if isinstance(node, In):
            self._check_arg(node.arg)
            return everywhere if node.arg in self.sets[node.setname] else nowhere
        if isinstance(node, Visible):
            self._check_arg(node.arg)
            return frozenset(s for s in self.states if node.arg in s.visible)
        if isinstance(node, Sem):
            cand = self.sets[node.setname]
            return frozenset(
                s
                for s in self.states
                if semantics.holds(self.fw, node.label, cand, s, self.max_args)
            )
        if isinstance(node, Exact):
            same = self.sets[node.setname] == self.sets[node.operand]
            return everywhere if same else nowhere
        if isinstance(node, Not):
            return everywhere - sat[node.sub]
        if isinstance(node, And):
            return sat[node.left] & sat[node.right]
        if isinstance(node, Or):
            return sat[node.left] | sat[node.right]
        if isinstance(node, Implies):
            return (everywhere - sat[node.left]) | sat[node.right]
        if isinstance(node, Temporal):
            sub = sat[node.sub]
            sigma = node.sigma
            if node.op == "EX":
                return self.ex(sigma, sub)
            if node.op == "AX":
                return self.ax(sigma, sub)
            if node.op == "EF":
                return self.eu(sigma, everywhere, sub)
            if node.op == "AG":
                return everywhere - self.eu(sigma, everywhere, everywhere - sub)
            if node.op == "EG":
                return self.eg(sigma, sub)
            if node.op == "AF":
                return everywhere - self.eg(sigma, everywhere - sub)
        if isinstance(node, Until):
            left, right = sat[node.left], sat[node.right]
            sigma = node.sigma
            if node.quant == "E":
                return self.eu(sigma, left, right)
            # A[l U r] == !(E[!r U (!l & !r)] | EG !r)
            not_l = self.states - left
            not_r = self.states - right
            bad = self.eu(sigma, not_r, not_l & not_r) | self.eg(sigma, not_r)
            return self.states - bad
        raise TypeError(f"not a formula node: {node!r}")

    def _check_arg(self, arg: str) -> None:
        if arg not in self.fw.arguments:
            raise UnknownName(f"undeclared argument {arg!r} in query")


# ---------------------------------------------------------------------------
# check() with witness extraction


@dataclass(frozen=True)
class Lasso:
    """A path witness: a finite prefix followed by a cycle."""

    prefix: tuple[State, ...]
    cycle: tuple[State, ...]


@dataclass(frozen=True)
class CheckResult:
    value: bool
    witness: Lasso | None
    labeling: Labeling


def _extend_to_lasso(
    path: list[State], succ, within: frozenset[State] | None = None
) -> Lasso:
    """Extend `path` along canonical successors until a state repeats."""
    seen = {s: i for i, s in enumerate(path)}
    current = path[-1]
    while True:
        choices = succ(current)
        if within is not None:
            choices = [c for c in choices if c in within]
        nxt = choices[0]
        if nxt in seen:
            i = seen[nxt]
            return Lasso(prefix=tuple(path[:i]), cycle=tuple(path[i:]))
        seen[nxt] = len(path)
        path.append(nxt)
        current = nxt


def _witness_path(
    engine: _Engine, labeling: Labeling, node: Formula
) -> Lasso | None:
    """A lasso justifying a true existential / refuting a false universal
    top-level temporal formula. The counterexample of a universal operator
    is the witness of its existential dual on complemented sets: AX, AF, AG
    are refuted by EX, EG, EF of the complement, and A[l U r] by
    E[!r U (!l & !r)], else by EG !r."""
    if isinstance(node, Temporal):
        existential = node.op.startswith("E")
    elif isinstance(node, Until):
        existential = node.quant == "E"
    else:
        return None
    init = labeling.lts.initial
    sat = labeling.sat
    if (init in sat[node]) != existential:
        return None
    everywhere = engine.states
    sigma = node.sigma
    state_key = engine.fw.state_key
    succ = lambda s: sorted(engine.successors(sigma, s), key=state_key)

    def reach(
        targets: frozenset[State], through: frozenset[State]
    ) -> Lasso | None:
        """A lasso starting with the shortest selector-path from init to a
        target that passes through `through`-states before arrival; None
        when no target is reachable that way."""
        if init in targets:
            return _extend_to_lasso([init], succ)
        if init not in through:
            return None
        parent = {init: None}
        queue = deque([init])
        while queue:
            s = queue.popleft()
            for t in succ(s):
                if t in parent:
                    continue
                parent[t] = s
                if t in targets:
                    path = [t]
                    while path[-1] is not init:
                        path.append(parent[path[-1]])
                    return _extend_to_lasso(path[::-1], succ)
                if t in through:
                    queue.append(t)
        return None

    def ex(target: frozenset[State]) -> Lasso | None:
        step = [t for t in succ(init) if t in target]
        return _extend_to_lasso([init, step[0]], succ) if step else None

    def ef(target: frozenset[State]) -> Lasso | None:
        return reach(target, everywhere)

    def eg(target: frozenset[State]) -> Lasso | None:
        good = engine.eg(sigma, target)
        if init not in good:
            return None
        return _extend_to_lasso([init], succ, within=good)

    if isinstance(node, Until):
        left, right = sat[node.left], sat[node.right]
        if existential:
            return reach(right, left)
        not_l, not_r = everywhere - left, everywhere - right
        return reach(not_l & not_r, not_r) or eg(not_r)
    sub = sat[node.sub]
    if existential:
        return {"EX": ex, "EF": ef, "EG": eg}[node.op](sub)
    return {"AX": ex, "AF": eg, "AG": ef}[node.op](everywhere - sub)


def check(
    fw: APAFramework,
    query: Query,
    max_states: int = dynamics.DEFAULT_MAX_STATES,
    max_args: int = semantics.DEFAULT_MAX_ENUM_ARGS,
) -> CheckResult:
    """Truth of the query at the initial state, with a lasso witness for a
    true existential / false universal top-level temporal formula."""
    engine = _Engine(fw, query, max_states, max_args)
    labeling = engine.label()
    value = labeling.lts.initial in labeling.sat[query.formula]
    witness = _witness_path(engine, labeling, query.formula)
    return CheckResult(value=value, witness=witness, labeling=labeling)

"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into `apa.dynamics`, `apa.semantics` or `apa.ctl`. The
framework is read through its public fields only (`arguments`, `attacks`,
`persuasions`, `initial`) and turned into bit masks in declaration order.
Where the brute-force oracle (`apa.oracle`) is the reference, the callers
pass its functions in; everything else is written out from the definitions:

* `Frame.fold_successors` - successors by folding act effects as
  (dropped, added) pairs, deduplicated after each act;
* `reach`                  - breadth-first closure with per-selector edges;
* `dung_extensions`        - Dung's five semantics by bit-mask enumeration;
* `StateSemantics`         - the package's state-wise semantics (admissible,
  complete, preferred, stable, grounded with the no-elimination condition);
* `Evaluator`              - CTL by straight fixpoint iteration, A-operators
  included, with stutter loops at deadlocks and reflexive F;
* `check_lasso`            - a witness or counterexample is a real lasso of
  the LTS with its operator's path property.
"""

from __future__ import annotations

from collections import deque


def bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Frame:
    """Bit-mask view of a framework built from its public fields."""

    def __init__(self, fw):
        self.fw = fw
        self.names = tuple(fw.arguments)
        self.index = {a: i for i, a in enumerate(self.names)}
        n = len(self.names)
        self.attackers = [0] * n  # attackers[i]: mask of arguments attacking i
        self.targets = [0] * n  # targets[i]: mask of arguments i attacks
        for a, b in fw.attacks:
            self.attackers[self.index[b]] |= 1 << self.index[a]
            self.targets[self.index[a]] |= 1 << self.index[b]
        self.acts = sorted(
            (
                self.index[act.source],
                -1 if act.trigger is None else self.index[act.trigger],
                self.index[act.target],
            )
            for act in fw.persuasions
        )
        self.initial = self.mask(fw.initial)

    def mask(self, args) -> int:
        out = 0
        for a in args:
            out |= 1 << self.index[a]
        return out

    def names_of(self, mask: int) -> frozenset:
        return frozenset(self.names[i] for i in bits(mask))

    def possible(self, ref: int, v: int) -> list:
        """Acts whose source is visible and not attacked by a visible member
        of the reference set, and whose trigger (if any) is visible."""
        blockers = ref & v
        return [
            (s, g, t)
            for (s, g, t) in self.acts
            if v >> s & 1
            and (g < 0 or v >> g & 1)
            and not self.attackers[s] & blockers
        ]

    def fold_successors(self, ref: int, v: int) -> set:
        """Successors of `v` under `ref`: every nonempty subset of the
        possible acts, folded one act at a time. A partial effect is kept as
        (dropped and not re-added, added, nonempty); two partial effects
        with the same key give the same successors, so the frontier is
        deduplicated after each act."""
        effects = {(0, 0, False)}
        for s, g, t in self.possible(ref, v):
            drop = 0 if g < 0 else 1 << g
            add = 1 << t
            effects |= {
                ((d | drop) & ~(a | add), a | add, True) for (d, a, _) in effects
            }
        return {(v & ~d) | a for (d, a, nonempty) in effects if nonempty}


class Graph:
    """A reachable transition system over visible-set masks."""

    def __init__(self, initial: int, refs: tuple, states: frozenset, edges: frozenset):
        self.initial = initial
        self.refs = refs
        self.states = states
        self.edges = edges  # (source, selector index, target)
        self.sources = frozenset(s for (s, _, _) in edges)

    def succ(self, selector_ids) -> dict:
        """Successor sets for the union of `selector_ids`, with a stutter
        loop wherever the union has no edge."""
        table = {s: set() for s in self.states}
        for s, i, t in self.edges:
            if i in selector_ids:
                table[s].add(t)
        return {s: frozenset(ts) if ts else frozenset((s,)) for s, ts in table.items()}


def reach(frame: Frame, refs: tuple, successors) -> Graph:
    """Breadth-first closure of the initial state; `successors(ref, v)`
    gives the successor masks of `v` under reference mask `ref`."""
    seen = {frame.initial}
    queue = deque([frame.initial])
    edges = set()
    while queue:
        v = queue.popleft()
        for idx, ref in enumerate(refs):
            for w in successors(ref, v):
                edges.add((v, idx, w))
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return Graph(frame.initial, refs, frozenset(seen), frozenset(edges))


def oracle_successors(frame: Frame, successors_bruteforce, state_type):
    """Wrap `oracle.successors_bruteforce` as a mask function, memoized on
    the set of possible acts (which is all the successors depend on)."""
    memo = {}

    def successors(ref: int, v: int) -> frozenset:
        key = (v, tuple(frame.possible(ref, v)))
        if key not in memo:
            found = successors_bruteforce(
                frame.fw, frame.names_of(ref), state_type(frame.names_of(v))
            )
            memo[key] = frozenset(frame.mask(s.visible) for s in found)
        return memo[key]

    return successors


# ---------------------------------------------------------------------------
# Semantics


def _conflict_free_subsets(frame: Frame, v: int):
    """Yield (subset, mask of visible arguments it attacks) for every
    conflict-free subset of `v`, by depth-first extension."""
    members = list(bits(v))

    def extend(pos: int, chosen: int, attacked: int):
        yield chosen, attacked
        for k in range(pos, len(members)):
            i = members[k]
            bit = 1 << i
            if frame.targets[i] & (chosen | bit) or frame.attackers[i] & chosen:
                continue
            yield from extend(k + 1, chosen | bit, attacked | frame.targets[i] & v)

    yield from extend(0, 0, 0)


def _dung_defended(frame: Frame, v: int, attacked: int) -> int:
    """Visible arguments whose visible attackers are all attacked."""
    out = 0
    for a in bits(v):
        if not frame.attackers[a] & v & ~attacked:
            out |= 1 << a
    return out


def dung_extensions(frame: Frame, v: int) -> dict:
    """Dung's semantics of the subframework induced by `v`, as sorted mask
    lists: admissible = conflict-free and defending each member; complete =
    admissible and containing all it defends; preferred = maximal
    admissible; stable = conflict-free and attacking every non-member;
    grounded = least fixed point of the characteristic function."""
    admissible, complete, stable = [], [], []
    for s, attacked in _conflict_free_subsets(frame, v):
        if attacked | s == v:
            stable.append(s)
        defended = _dung_defended(frame, v, attacked)
        if s & ~defended == 0:
            admissible.append(s)
            if defended == s:
                complete.append(s)
    preferred = []
    for s in sorted(admissible, key=lambda m: -bin(m).count("1")):
        if not any(s & ~p == 0 for p in preferred):
            preferred.append(s)
    grounded = 0
    while True:
        attacked = 0
        for i in bits(grounded):
            attacked |= frame.targets[i] & v
        nxt = _dung_defended(frame, v, attacked)
        if nxt == grounded:
            break
        grounded = nxt
    return {
        "ad": sorted(admissible),
        "co": sorted(complete),
        "pr": sorted(preferred),
        "st": sorted(stable),
        "gr": [grounded],
    }


class StateSemantics:
    """The package's state-wise semantics, from its stated definitions.

    A candidate C defends a visible argument a at state v when every visible
    attacker of a is attacked by a visible member of C, and no transition
    under reference set C drops a. C is admissible when C is a conflict-free
    subset of v defending each member; complete when it is admissible and
    holds every visible argument it defends; preferred when complete with no
    complete strict superset; stable when preferred and attacking every
    visible non-member; grounded when equal to the intersection of all
    complete sets. `successors(ref, v)` supplies the transitions.
    """

    def __init__(self, frame: Frame, successors):
        self.frame = frame
        self.successors = successors
        self._complete = {}

    def defended(self, c: int, v: int) -> int:
        attacked = 0
        for i in bits(c & v):
            attacked |= self.frame.targets[i]
        eliminated = 0
        for w in self.successors(c, v):
            eliminated |= v & ~w
        return _dung_defended(self.frame, v, attacked & v) & ~eliminated

    def conflict_free(self, c: int) -> bool:
        return not any(self.frame.targets[i] & c for i in bits(c))

    def admissible(self, c: int, v: int) -> bool:
        return c & ~v == 0 and self.conflict_free(c) and c & ~self.defended(c, v) == 0

    def complete(self, c: int, v: int) -> bool:
        return self.admissible(c, v) and self.defended(c, v) == c

    def complete_sets(self, v: int) -> list:
        if v not in self._complete:
            self._complete[v] = [
                c for c, _ in _conflict_free_subsets(self.frame, v)
                if self.defended(c, v) == c
            ]
        return self._complete[v]

    def holds(self, label: str, c: int, v: int) -> bool:
        if label == "ad":
            return self.admissible(c, v)
        if label == "gr":
            sets = self.complete_sets(v)
            grounded = sets[0] if sets else 0
            for s in sets:
                grounded &= s
            return c == grounded
        if not self.complete(c, v):
            return False
        if label == "co":
            return True
        preferred = not any(
            s != c and c & ~s == 0 for s in self.complete_sets(v)
        )
        if label == "pr":
            return preferred
        if label == "st":
            attacked = 0
            for i in bits(c):
                attacked |= self.frame.targets[i]
            return preferred and v & ~c & ~attacked == 0
        raise ValueError(label)


# ---------------------------------------------------------------------------
# Query formulas: a tuple AST, its concrete syntax, and a fixpoint evaluator
#
#   ("vis", a) ("in", a, S) ("sem", label, S)
#   ("not", f) ("and", f, g) ("or", f, g) ("imp", f, g)
#   (op, sigma, f) for op in EX AX EF AF EG AG
#   ("EU" | "AU", sigma, f, g)
#
# sigma is a tuple of set names, or None for the wildcard {*}.

TEMPORAL = ("EX", "AX", "EF", "AF", "EG", "AG")


def render(node) -> str:
    """Concrete query syntax, fully parenthesized."""
    kind = node[0]
    if kind == "vis":
        return f"visible({node[1]})"
    if kind == "in":
        return f"in({node[1]},{node[2]})"
    if kind == "sem":
        return f"sem({node[1]},{node[2]})"
    if kind == "not":
        return f"!({render(node[1])})"
    if kind in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[kind]
        return f"({render(node[1])}) {sym} ({render(node[2])})"
    sigma = "{*}" if node[1] is None else "{" + ",".join(node[1]) + "}"
    if kind in TEMPORAL:
        return f"{kind}{sigma} ({render(node[2])})"
    return f"{kind[0]}{sigma}[({render(node[2])}) U ({render(node[3])})]"


def children(node) -> tuple:
    kind = node[0]
    if kind == "not":
        return (node[1],)
    if kind in ("and", "or", "imp"):
        return node[1:]
    if kind in TEMPORAL or kind in ("EU", "AU"):
        return node[2:]
    return ()


def postorder(node, out: list) -> list:
    for child in children(node):
        postorder(child, out)
    out.append(node)
    return out


def sigmas_of(node, out: list) -> list:
    """Selector families of the formula, in first-mention order."""
    if node[0] in TEMPORAL or node[0] in ("EU", "AU"):
        if node[1] not in out:
            out.append(node[1])
    for child in children(node):
        sigmas_of(child, out)
    return out


def query_refsets(node, sets: dict) -> tuple:
    """The union of the query's selector reference sets, in first-mention
    order, the wildcard standing for the empty set."""
    refs = []
    for sigma in sigmas_of(node, []):
        for r in (frozenset(),) if sigma is None else (sets[n] for n in sigma):
            if r not in refs:
                refs.append(r)
    return tuple(refs)


class Evaluator:
    """Truth sets of every subformula over a reachable graph, each operator
    computed straight from its fixpoint characterization."""

    def __init__(self, frame: Frame, graph: Graph, sets: dict, sem=None):
        self.frame = frame
        self.graph = graph
        self.sets = sets  # name -> frozenset of argument names
        self.sem = sem  # StateSemantics, for sem atoms
        self.refs = [frozenset(frame.names_of(r)) for r in graph.refs]
        self._succ = {}
        self.memo = {}

    def succ(self, sigma) -> dict:
        if sigma not in self._succ:
            refsets = (frozenset(),) if sigma is None else [self.sets[n] for n in sigma]
            ids = {self.refs.index(r) for r in refsets}
            self._succ[sigma] = self.graph.succ(ids)
        return self._succ[sigma]

    def sat(self, node) -> frozenset:
        if node not in self.memo:
            self.memo[node] = self._sat(node)
        return self.memo[node]

    def _sat(self, node) -> frozenset:
        every = self.graph.states
        kind = node[0]
        if kind == "vis":
            bit = 1 << self.frame.index[node[1]]
            return frozenset(s for s in every if s & bit)
        if kind == "in":
            return every if node[1] in self.sets[node[2]] else frozenset()
        if kind == "sem":
            c = self.frame.mask(self.sets[node[2]])
            return frozenset(s for s in every if self.sem.holds(node[1], c, s))
        if kind == "not":
            return every - self.sat(node[1])
        if kind == "and":
            return self.sat(node[1]) & self.sat(node[2])
        if kind == "or":
            return self.sat(node[1]) | self.sat(node[2])
        if kind == "imp":
            return (every - self.sat(node[1])) | self.sat(node[2])
        succ = self.succ(node[1])
        ex = lambda z: frozenset(s for s in every if succ[s] & z)
        ax = lambda z: frozenset(s for s in every if succ[s] <= z)
        if kind in ("EX", "AX"):
            return (ex if kind == "EX" else ax)(self.sat(node[2]))
        if kind in ("EF", "AF"):  # least Z with  f | XZ <= Z
            step = ex if kind == "EF" else ax
            f = self.sat(node[2])
            return _lfp(lambda z: f | step(z))
        if kind in ("EG", "AG"):  # greatest Z with  Z <= f & XZ
            step = ex if kind == "EG" else ax
            f = self.sat(node[2])
            return _gfp(lambda z: f & step(z), every)
        step = ex if kind == "EU" else ax  # least Z with  g | (f & XZ) <= Z
        f, g = self.sat(node[2]), self.sat(node[3])
        return _lfp(lambda z: g | (f & step(z)))


def _lfp(fn) -> frozenset:
    z = frozenset()
    while True:
        nxt = fn(z)
        if nxt == z:
            return z
        z = nxt


def _gfp(fn, top: frozenset) -> frozenset:
    z = top
    while True:
        nxt = fn(z)
        if nxt == z:
            return z
        z = nxt


def witness_expected(node, value: bool) -> bool:
    """The CLI gives a lasso for a true existential or a false universal
    top-level temporal operator."""
    if node[0] in TEMPORAL or node[0] in ("EU", "AU"):
        return node[0].startswith("E") == value
    return False


def check_lasso(ev: Evaluator, node, prefix: list, cycle: list) -> str | None:
    """None when prefix+cycle is a lasso from the initial state along the
    operator's selector family that shows the verdict; else a reason."""
    if not cycle:
        return "empty cycle"
    path = list(prefix) + list(cycle)
    if path[0] != ev.graph.initial:
        return "lasso does not start at the initial state"
    succ = ev.succ(node[1])
    for s, t in zip(path, path[1:] + [cycle[0]]):
        if s not in succ or t not in succ[s]:
            return "lasso uses a step that is not a transition"
    at = lambda i: path[i] if i < len(path) else cycle[(i - len(prefix)) % len(cycle)]
    holds = lambda f, i: at(i) in ev.sat(f)
    span = range(len(path))
    kind = node[0]
    if kind in ("EX", "AX"):
        ok = holds(node[2], 1) == (kind == "EX")
    elif kind in ("EF", "AG"):  # some state has f (EF) / lacks f (AG)
        ok = any(holds(node[2], i) == (kind == "EF") for i in span)
    elif kind in ("EG", "AF"):  # every state has f (EG) / lacks f (AF)
        ok = all(holds(node[2], i) == (kind == "EG") for i in span)
    elif kind == "EU":
        first = next((i for i in span if holds(node[3], i)), None)
        ok = first is not None and all(holds(node[2], j) for j in range(first))
    else:  # AU refuted: r never holds, or l fails before r ever holds
        first_r = next((i for i in span if holds(node[3], i)), None)
        first_not_l = next((i for i in span if not holds(node[2], i)), None)
        ok = first_r is None or (first_not_l is not None and first_not_l < first_r)
    return None if ok else f"lasso does not show {kind}"

"""Brute-force reference implementations and seeded instance generators.

Test support, not public API. The reference routines here re-derive their
results literally from the definitions, with no sharing, pruning or
fixpoint machinery, so the optimized engines can be checked against them:

* `dung_extensions_bruteforce` - classical static semantics by full subset
  enumeration (checks the semantics module on persuasion-free frameworks);
* `extensions_bruteforce`      - the persuasion semantics at a state by
  full subset enumeration, read off `attacks` and `persuasions` (checks
  the semantics module's search; does not call into it);
* `successors_bruteforce`      - transitions by iterating every nonempty
  act subset (checks the dynamics module; does not call into it);
* `bounded_path_eval`          - temporal truth by depth-bounded path
  recursion, with `sem` atoms from `extensions_bruteforce` (checks the
  fixpoint model checker and its atoms; shares only the AST with them).

All randomness is seeded; a spec fully determines its instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .ctl import (
    And, Bottom, Exact, Formula, Implies, In, Not, Or, Query, Sem, Sigma,
    Temporal, Top, Until, Visible,
)
from .errors import TooLarge
from .model import APAFramework, PersuasionAct, State, framework
from .semantics import LABELS


# ---------------------------------------------------------------------------
# Classical Dung semantics by enumeration


def dung_extensions_bruteforce(
    arguments: tuple[str, ...], attacks: frozenset[tuple[str, str]]
) -> dict[str, tuple[frozenset[str], ...]]:
    """All five classical extension families of a static framework."""
    if len(arguments) > 12:
        raise TooLarge("brute-force Dung enumeration capped at 12 arguments")

    def attacks_set(xs, target):
        return any((x, target) in attacks for x in xs)

    def conflict_free(cand):
        return not any((a, b) in attacks for a in cand for b in cand)

    def defends(cand, arg):
        return all(
            attacks_set(cand, attacker)
            for (attacker, target) in attacks
            if target == arg
        )

    subsets = [
        frozenset(c)
        for r in range(len(arguments) + 1)
        for c in combinations(arguments, r)
    ]
    admissible = [
        c for c in subsets if conflict_free(c) and all(defends(c, a) for a in c)
    ]
    complete = [
        c for c in admissible
        if all(a in c for a in arguments if defends(c, a))
    ]
    preferred = [c for c in admissible if not any(c < d for d in admissible)]
    stable = [
        c for c in preferred
        if all(attacks_set(c, a) for a in set(arguments) - c)
    ]
    grounded = frozenset(arguments) if not complete else frozenset.intersection(
        *complete
    )
    return {
        "ad": tuple(admissible),
        "co": tuple(complete),
        "pr": tuple(preferred),
        "st": tuple(stable),
        "gr": (grounded,),
    }


# ---------------------------------------------------------------------------
# Persuasion semantics at a state by enumeration


def extensions_bruteforce(
    fw: APAFramework, label: str, state: State
) -> tuple[frozenset[str], ...]:
    """The sets satisfying `label` at `state`, in canonical order (by size,
    then declaration order), by testing every subset of the visible
    arguments against the README's definitions."""
    visible = fw.sort_args(state.visible)
    if len(visible) > 12:
        raise TooLarge("brute-force extension enumeration capped at 12 arguments")

    def attacked_by(cand, arg):
        return any((b, arg) in fw.attacks for b in cand)

    def threats(arg):
        attackers = [b for b in visible if (b, arg) in fw.attacks]
        droppers = [
            act.source for act in fw.persuasions
            if act.trigger == arg and act.target != arg
            and act.source in visible
        ]
        return attackers + droppers

    def defends(cand, arg):
        return all(attacked_by(cand, t) for t in threats(arg))

    subsets = [
        frozenset(c)
        for r in range(len(visible) + 1)
        for c in combinations(visible, r)
    ]
    admissible = [
        c for c in subsets
        if not any((a, b) in fw.attacks for a in c for b in c)
        and all(defends(c, a) for a in c)
    ]
    if label == "ad":
        return tuple(admissible)
    if label == "pr":
        return tuple(c for c in admissible if not any(c < d for d in admissible))
    if label == "st":
        return tuple(
            c for c in admissible
            if all(attacked_by(c, a) for a in visible if a not in c)
        )
    complete = [
        c for c in admissible
        if all(a in c for a in visible if defends(c, a))
    ]
    if label == "co":
        return tuple(complete)
    if label == "gr":
        return (frozenset.intersection(*complete),)
    raise ValueError(f"unknown semantics label: {label!r}")


# ---------------------------------------------------------------------------
# Transitions by literal enumeration


def successors_bruteforce(
    fw: APAFramework, refset: frozenset[str], state: State
) -> frozenset[State]:
    """Successor states by trying every nonempty subset of the acts that
    are possible at `state` under `refset`, straight from the definitions."""
    if len(fw.persuasions) > 12:
        raise TooLarge("brute-force transition enumeration capped at 12 acts")
    visible = state.visible
    possible = []
    for act in fw.persuasions:
        if act.source not in visible:
            continue
        if act.trigger is not None and act.trigger not in visible:
            continue
        if any(
            b in refset and b in visible and (b, act.source) in fw.attacks
            for b in fw.arguments
        ):
            continue
        possible.append(act)
    out = set()
    for r in range(1, len(possible) + 1):
        for chosen in combinations(possible, r):
            dropped = {
                act.trigger
                for act in chosen
                if act.trigger is not None
                and act.trigger in visible
                and act.source in visible
            }
            gained = {act.target for act in chosen}
            out.add(State(frozenset((visible - dropped) | gained)))
    return frozenset(out)


def reachable_bruteforce(
    fw: APAFramework,
    refsets: tuple[frozenset[str], ...],
    max_states: int = 32,
) -> tuple[State, ...]:
    """Closure of the initial state under `refsets`, depth-first."""
    seen = {fw.initial_state}
    stack = [fw.initial_state]
    while stack:
        s = stack.pop()
        for refset in refsets:
            for t in successors_bruteforce(fw, refset, s):
                if t not in seen:
                    if len(seen) >= max_states:
                        raise TooLarge(
                            f"bounded evaluation capped at {max_states} states"
                        )
                    seen.add(t)
                    stack.append(t)
    return tuple(sorted(seen, key=fw.state_key))


# ---------------------------------------------------------------------------
# Depth-bounded path evaluation of query formulas


def bounded_path_eval(
    fw: APAFramework,
    query: Query,
    depth: int | None = None,
    max_states: int = 32,
) -> dict[State, bool]:
    """Truth of the query formula at every state of its reachable closure,
    computed by depth-bounded recursion over transition sequences.

    The default depth 2*|states|+1 covers every lasso of the finite state
    graph, so the result coincides with the fixpoint semantics. Matches
    the engine's conventions: stutter self-loops at states with no
    outgoing edge for a selector family, and reflexive `F` operators.
    """
    sets = query.bindings()

    def sigma_refsets(sigma: Sigma) -> tuple[frozenset[str], ...]:
        if sigma is None:
            return (frozenset(),)
        return tuple(sets[n] for n in sigma)

    all_sigmas: list[Sigma] = []

    def collect(node: Formula) -> None:
        if isinstance(node, (Temporal, Until)) and node.sigma not in all_sigmas:
            all_sigmas.append(node.sigma)
        for attr in ("sub", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, Formula):
                collect(child)

    collect(query.formula)
    union: list[frozenset[str]] = []
    for sigma in all_sigmas:
        for r in sigma_refsets(sigma):
            if r not in union:
                union.append(r)

    states = reachable_bruteforce(fw, tuple(union), max_states)
    if depth is None:
        depth = 2 * len(states) + 1

    succ_cache: dict[tuple[Sigma, State], tuple[State, ...]] = {}

    def succs(sigma: Sigma, s: State) -> tuple[State, ...]:
        key = (sigma, s)
        if key not in succ_cache:
            out: set[State] = set()
            for refset in sigma_refsets(sigma):
                out |= successors_bruteforce(fw, refset, s)
            succ_cache[key] = tuple(sorted(out, key=fw.state_key)) or (s,)
        return succ_cache[key]

    memo: dict[tuple, bool] = {}

    def ev(node: Formula, s: State) -> bool:
        key = (node, s)
        if key in memo:
            return memo[key]
        memo[key] = value = _ev(node, s)
        return value

    def path(kind: str, node, s: State, d: int) -> bool:
        key = (kind, node, s, d)
        if key in memo:
            return memo[key]
        memo[key] = value = _path(kind, node, s, d)
        return value

    def _ev(node: Formula, s: State) -> bool:
        if isinstance(node, Top):
            return True
        if isinstance(node, Bottom):
            return False
        if isinstance(node, In):
            return node.arg in sets[node.setname]
        if isinstance(node, Visible):
            return node.arg in s.visible
        if isinstance(node, Sem):
            return sets[node.setname] in extensions_bruteforce(fw, node.label, s)
        if isinstance(node, Exact):
            return sets[node.setname] == sets[node.operand]
        if isinstance(node, Not):
            return not ev(node.sub, s)
        if isinstance(node, And):
            return ev(node.left, s) and ev(node.right, s)
        if isinstance(node, Or):
            return ev(node.left, s) or ev(node.right, s)
        if isinstance(node, Implies):
            return not ev(node.left, s) or ev(node.right, s)
        if isinstance(node, Temporal):
            if node.op == "EX":
                return any(ev(node.sub, t) for t in succs(node.sigma, s))
            if node.op == "AX":
                return all(ev(node.sub, t) for t in succs(node.sigma, s))
            return path(node.op, node, s, depth)
        if isinstance(node, Until):
            return path("EU" if node.quant == "E" else "AU", node, s, depth)
        raise TypeError(f"not a formula node: {node!r}")

    def _path(kind: str, node, s: State, d: int) -> bool:
        nxt = lambda t: path(kind, node, t, d - 1)
        if kind in ("EF", "AF", "EG", "AG"):
            here = ev(node.sub, s)
            children = succs(node.sigma, s)
            if kind == "EF":
                return here or (d > 0 and any(nxt(t) for t in children))
            if kind == "AF":
                return here or (d > 0 and all(nxt(t) for t in children))
            if kind == "EG":
                return here and (d == 0 or any(nxt(t) for t in children))
            return here and (d == 0 or all(nxt(t) for t in children))
        # until
        if ev(node.right, s):
            return True
        if not ev(node.left, s) or d == 0:
            return False
        children = succs(node.sigma, s)
        if kind == "EU":
            return any(nxt(t) for t in children)
        return all(nxt(t) for t in children)

    return {s: ev(query.formula, s) for s in states}


# ---------------------------------------------------------------------------
# Seeded random instances


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Parameters of one seeded random framework; the seed fully
    determines the instance."""

    n_args: int
    attack_density: float = 0.2
    n_induce: int = 1
    n_convert: int = 2
    initial_density: float = 0.6
    seed: int = 0


def random_framework(spec: RandomInstanceSpec) -> APAFramework:
    rng = random.Random(spec.seed)
    args = [f"a{i}" for i in range(1, spec.n_args + 1)]
    attacks = [
        (x, y)
        for x in args
        for y in args
        if rng.random() < spec.attack_density
    ]
    acts: set[PersuasionAct] = set()
    for _ in range(spec.n_induce):
        acts.add(PersuasionAct(rng.choice(args), None, rng.choice(args)))
    for _ in range(spec.n_convert):
        acts.add(
            PersuasionAct(rng.choice(args), rng.choice(args), rng.choice(args))
        )
    initial = [a for a in args if rng.random() < spec.initial_density]
    if not initial:
        initial = [rng.choice(args)]
    return framework(args, attacks, acts, initial)


def random_refset(rng: random.Random, fw: APAFramework) -> frozenset[str]:
    return frozenset(a for a in fw.arguments if rng.random() < 0.4)


def random_formula(
    rng: random.Random,
    fw: APAFramework,
    setnames: tuple[str, ...],
    depth: int,
) -> Formula:
    """A random query formula of the given depth over the framework's
    arguments and the provided named sets."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            return Top() if rng.random() < 0.5 else Bottom()
        if kind == 1:
            return In(rng.choice(fw.arguments), rng.choice(setnames))
        if kind == 2:
            return Visible(rng.choice(fw.arguments))
        if kind == 3:
            return Sem(rng.choice(LABELS), rng.choice(setnames))
        return Exact(rng.choice(setnames), rng.choice(setnames))
    sigma = random_sigma(rng, setnames)
    kind = rng.randrange(8)
    sub = lambda: random_formula(rng, fw, setnames, depth - 1)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Implies(sub(), sub())
    if kind == 4:
        return Temporal(rng.choice(("AX", "EX")), sigma, sub())
    if kind == 5:
        return Temporal(rng.choice(("AF", "EF")), sigma, sub())
    if kind == 6:
        return Temporal(rng.choice(("AG", "EG")), sigma, sub())
    return Until(rng.choice(("A", "E")), sigma, sub(), sub())


def random_sigma(rng: random.Random, setnames: tuple[str, ...]) -> Sigma:
    if rng.random() < 0.3:
        return None
    count = rng.randrange(1, min(3, len(setnames)) + 1)
    return tuple(rng.sample(setnames, count))


def random_query(
    rng: random.Random, fw: APAFramework, n_sets: int = 3, depth: int = 3
) -> Query:
    """A random query with seeded named sets and formula."""
    sets = tuple(
        (f"S{i}", random_refset(rng, fw)) for i in range(1, n_sets + 1)
    )
    names = tuple(name for name, _ in sets)
    formula = random_formula(rng, fw, names, depth)
    return Query(sets=sets, formula=formula)

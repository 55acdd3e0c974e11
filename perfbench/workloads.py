"""The four seeded workloads: their inputs, their operations, and the checks
of every output against the references in refs.py.

A workload writes its framework and query files into a work directory and
lists the operations of one pass. An `Op` is one child process; its
`check(stdout, rc)` returns (operations attempted, operations failed, error
or None), where an error means an output that disagrees with the reference.
All inputs come from `random.Random(f"<workload>/<seed>")`, so the same
seed gives the same files.

The frameworks are a fixed ladder of `RandomInstanceSpec` instances (the
LADDER constants). The cost of a random instance of a given size varies
twenty-fold from one spec seed to the next, so drawing the frameworks
themselves from the run's seed would make runs with different seeds
incomparable. The seed instead renames and reorders the arguments, which
changes every hash, set iteration order and canonical output order. What
the commands and queries use (explicit selector families, candidate sets,
query arguments) is fixed per rung, next to the ladder, in the names of the
unrenamed instance, so every seed does the same work. README.md lists the
ladder and the queries.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

import refs
from refs import Frame

from apa import ctl, oracle
from apa.fileformat import print_framework
from apa.model import State, framework
from apa.oracle import RandomInstanceSpec, random_framework

PYTHON = sys.executable
CLI = "import sys\nfrom apa.cli import main\nsys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))
LABELS = ("ad", "co", "pr", "st", "gr")
ORACLE_MAX_ACTS = 12  # oracle.successors_bruteforce refuses more acts


class Op:
    """One child process of a pass."""

    def __init__(self, name: str, args: list, check, count: int = 1, sweep: bool = False):
        self.name = name
        self.args = args  # apa CLI arguments, or sweep_child.py arguments
        self.check = check
        self.count = count  # operations this child performs
        self.sweep = sweep

    def argv(self, spans: str | None) -> list:
        if self.sweep:
            script = [PYTHON, os.path.join(HERE, "sweep_child.py")]
            return script + (["--spans", spans] if spans else []) + self.args
        if spans:
            return [PYTHON, os.path.join(HERE, "apa_traced.py"), spans, "--"] + self.args
        return [PYTHON, "-c", CLI] + self.args


class Workload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.workdir = workdir
        self.ops: list[Op] = []
        self.framework_files: list[str] = []
        self.query_files: list[str] = []
        self.notes: list[str] = []  # instance descriptions, for the log

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add_framework(self, name: str, fw) -> str:
        path = self.write(name, print_framework(fw))
        self.framework_files.append(path)
        return path


def reference_successors(frame: Frame):
    """The oracle where it accepts the framework, the fold elsewhere."""
    if len(frame.acts) <= ORACLE_MAX_ACTS:
        return refs.oracle_successors(frame, oracle.successors_bruteforce, State)
    return frame.fold_successors


def bounded_reach(frame: Frame, masks: tuple, max_states: int):
    """`refs.reach` with the fold, or None past `max_states` states."""
    seen = set()

    def successors(ref, v):
        seen.add(v)
        if len(seen) > max_states:
            raise OverflowError
        return frame.fold_successors(ref, v)

    try:
        return refs.reach(frame, masks, successors)
    except OverflowError:
        return None


def random_refset(rng: random.Random, fw, density: float) -> frozenset:
    return frozenset(a for a in fw.arguments if rng.random() < density)


def argset(text: str) -> frozenset:
    """`"a1 a5"` -> frozenset({"a1", "a5"})."""
    return frozenset(text.split())


def set_literal(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def parse_set(text: str, frame: Frame) -> int:
    body = text.strip().strip("{}")
    return frame.mask(t for t in body.split(",") if t)


def relabel(fw, rng: random.Random):
    """The same framework with its argument names permuted and declared in
    a shuffled order, and the renaming (a dict)."""
    names = [f"a{i}" for i in range(1, len(fw.arguments) + 1)]
    rng.shuffle(names)
    new = dict(zip(fw.arguments, names))
    order = list(fw.arguments)
    rng.shuffle(order)
    return framework(
        [new[a] for a in order],
        attacks=[(new[a], new[b]) for a, b in fw.attacks],
        persuasions=[
            (new[p.source], None if p.trigger is None else new[p.trigger], new[p.target])
            for p in fw.persuasions
        ],
        initial=[new[a] for a in fw.initial],
    ), new


# ---------------------------------------------------------------------------
# explore: apa states / transitions --json / dot, plus an explicit --sigma


def check_states(frame: Frame, graph):
    """`apa states` text: every reachable state once, initial and deadlock
    marks where the reference has them."""

    def check(out: bytes, rc: int):
        if rc != 0:
            return 1, 1, None
        seen = {}
        for line in out.decode().splitlines():
            body, _, marks = line.partition("  (")
            seen[parse_set(body, frame)] = set(marks.rstrip(")").split(", ")) - {""}
        if set(seen) != graph.states or len(out.splitlines()) != len(graph.states):
            return 1, 0, "states differ from the reference"
        for v, marks in seen.items():
            want = {"initial"} if v == graph.initial else set()
            if v not in graph.sources:
                want.add("deadlock")
            if marks != want:
                return 1, 0, f"marks {sorted(marks)} differ from {sorted(want)}"
        return 1, 0, None

    return check


def check_transitions(frame: Frame, graph):
    def check(out: bytes, rc: int):
        if rc != 0:
            return 1, 1, None
        edges = json.loads(out)["edges"]
        got = {(frame.mask(e["from"]), e["selector"], frame.mask(e["to"])) for e in edges}
        if got != graph.edges or len(edges) != len(graph.edges):
            return 1, 0, "transitions differ from the reference"
        if any(e["refset"] is not None for e in edges):
            return 1, 0, "wildcard transition with a reference set"
        return 1, 0, None

    return check


DOT_NODE = re.compile(r'^  s\d+ \[label="(\{[^"]*\})"')
DOT_EDGE = re.compile(r"^  s\d+ -> s\d+ ")


def check_dot(frame: Frame, graph):
    def check(out: bytes, rc: int):
        if rc != 0:
            return 1, 1, None
        lines = out.decode().splitlines()
        nodes = [parse_set(m.group(1), frame) for m in map(DOT_NODE.match, lines) if m]
        edges = sum(1 for line in lines if DOT_EDGE.match(line))
        if sorted(nodes) != sorted(graph.states) or edges != len(graph.edges):
            return 1, 0, "DOT nodes or edges differ from the reference"
        return 1, 0, None

    return check


# (tag, instance, the reference sets of the explicit --sigma family)
EXPLORE_LADDER = (
    ("small", RandomInstanceSpec(12, 0.15, 6, 6, seed=85),
     (argset("a10 a12"), argset("a5 a8"))),
    ("large", RandomInstanceSpec(14, 0.15, 8, 8, seed=164),
     (argset("a1 a10 a14"), argset("a1 a10 a5 a7"))),
)


def build_explore(wl: Workload) -> None:
    for tag, spec, family in EXPLORE_LADDER:
        fw, new = relabel(random_framework(spec), wl.rng)
        frame = Frame(fw)
        sigma = [frozenset(new[a] for a in r) for r in family]
        successors = reference_successors(frame)
        wild = refs.reach(frame, (0,), successors)
        fam = refs.reach(frame, tuple(frame.mask(r) for r in sigma), successors)
        path = wl.add_framework(f"explore-{tag}.apa", fw)
        spec = ",".join(set_literal(r) for r in sigma)
        wl.ops += [
            Op(f"states {tag}", ["states", path], check_states(frame, wild)),
            Op(f"transitions {tag}", ["transitions", path, "--json"],
               check_transitions(frame, wild)),
            Op(f"dot {tag}", ["dot", path], check_dot(frame, wild)),
            Op(f"states {tag} --sigma", ["states", path, "--sigma", spec],
               check_states(frame, fam)),
        ]
        wl.notes.append(
            f"{tag}: {len(fw.persuasions)} acts, {len(wild.states)} states, "
            f"{len(wild.edges)} edges, --sigma {spec}: {len(fam.states)} states"
        )


# ---------------------------------------------------------------------------
# extensions: apa semantics --which L on static frames


EXTENSIONS_LADDER = (
    RandomInstanceSpec(14, 0.15, 0, 0, initial_density=1.0, seed=1),
    RandomInstanceSpec(16, 0.15, 0, 0, initial_density=1.0, seed=2),
)


def check_extensions(frame: Frame, want: list):
    def check(out: bytes, rc: int):
        if rc != 0:
            return 1, 1, None
        got = sorted(frame.mask(e) for e in json.loads(out)["extensions"])
        if got != want:
            return 1, 0, "extensions differ from the Dung enumeration"
        return 1, 0, None

    return check


def build_extensions(wl: Workload) -> None:
    for spec in EXTENSIONS_LADDER:
        fw, _ = relabel(random_framework(spec), wl.rng)
        n = len(fw.arguments)
        frame = Frame(fw)
        want = refs.dung_extensions(frame, frame.mask(fw.arguments))
        path = wl.add_framework(f"static-{n}.apa", fw)
        state = ",".join(fw.arguments)
        for label in LABELS:
            wl.ops.append(Op(
                f"semantics {n} {label}",
                ["semantics", path, "--state", state, "--which", label, "--json"],
                check_extensions(frame, want[label]),
            ))
        wl.notes.append(
            f"{n} arguments, {len(fw.attacks)} attacks, "
            + ", ".join(f"{len(want[k])} {k}" for k in LABELS)
        )


# ---------------------------------------------------------------------------
# temporal: apa check --json with nested CTL over visible/in atoms


def temporal_templates(a, b, c) -> list:
    """Six query formulas over sets S1-S3 and arguments a, b, c; every one
    has a top-level temporal operator, so a verdict may carry a lasso."""
    vis = lambda x: ("vis", x)
    f12, f3 = ("S1", "S2"), ("S3",)
    return [
        ("EF", f12, ("and", vis(a), ("AG", None, ("not", vis(b))))),
        ("AG", None, ("imp", vis(a), ("EF", f12, ("or", vis(b), ("in", c, "S3"))))),
        ("AU", f3, ("or", vis(a), vis(b)), ("EX", f12, ("not", vis(c)))),
        ("EG", f12, ("or", vis(a), ("AF", f3, vis(b)))),
        ("AF", None, ("and", ("AX", f3, vis(a)), ("not", vis(b)))),
        ("EU", None, ("not", vis(a)), ("and", vis(b), ("EG", f3, vis(c)))),
    ]


def query_text(sets: dict, formula) -> str:
    lines = [f"set {name} = {set_literal(members)}" for name, members in sets.items()]
    return "\n".join(lines + ["formula: " + refs.render(formula)]) + "\n"


def check_verdict(ev, formula, rc: int, value: bool, witness) -> str | None:
    truth = ev.graph.initial in ev.sat(formula)
    if value != truth:
        return f"verdict {value} differs from the fixpoint evaluator"
    if rc != (0 if value else 2):
        return f"exit code {rc} for verdict {value}"
    if (witness is not None) != refs.witness_expected(formula, value):
        return "lasso missing or unexpected"
    if witness is not None:
        frame = ev.frame
        return refs.check_lasso(
            ev, formula,
            [frame.mask(s) for s in witness["prefix"]],
            [frame.mask(s) for s in witness["cycle"]],
        )
    return None


def check_query(ev, formula):
    def check(out: bytes, rc: int):
        if rc not in (0, 2):
            return 1, 1, None
        doc = json.loads(out)
        return 1, 0, check_verdict(ev, formula, rc, doc["value"], doc["witness"])

    return check


# (instance, selector sets S1-S3, query arguments a, b, c)
TEMPORAL_LADDER = (
    (RandomInstanceSpec(20, 0.15, 4, 10, seed=26),
     {"S1": argset("a12 a15 a16 a18 a20"), "S2": argset("a1 a12 a13 a14 a18 a19 a3 a8"),
      "S3": argset("a11 a17 a20 a3 a9")},
     ("a20", "a3", "a5")),
)


def build_temporal(wl: Workload) -> None:
    for k, (spec, selectors, args) in enumerate(TEMPORAL_LADDER):
        fw, new = relabel(random_framework(spec), wl.rng)
        frame = Frame(fw)
        sets = {n: frozenset(new[a] for a in r) for n, r in selectors.items()}
        formulas = temporal_templates(*(new[a] for a in args))
        path = wl.add_framework(f"temporal-{k}.apa", fw)
        successors = reference_successors(frame)
        for i, formula in enumerate(formulas):
            masks = tuple(frame.mask(r) for r in refs.query_refsets(formula, sets))
            graph = refs.reach(frame, masks, successors)
            ev = refs.Evaluator(frame, graph, sets)
            qpath = wl.write(f"temporal-{k}-q{i}.q", query_text(sets, formula))
            wl.query_files.append(qpath)
            wl.ops.append(Op(f"check {k}.{i}", ["check", path, qpath, "--json"],
                             check_query(ev, formula)))
        wl.notes.append(
            f"instance {k}: {len(fw.persuasions)} acts, "
            + ", ".join(f"{n}={set_literal(r)}" for n, r in sets.items())
        )


# ---------------------------------------------------------------------------
# sweep: one interpreter, ctl.check per candidate set X with sem atoms


def sweep_templates() -> list:
    """Two formulas over the candidate set X, each carrying sem atoms of all
    five labels under the selectors {X} and {*}."""
    sem = lambda label: ("sem", label, "X")
    pr_or_st = ("or", sem("pr"), sem("st"))
    first = ("EF", ("X",), ("and", ("and", sem("ad"), ("not", sem("gr"))),
                            ("AG", None, ("imp", sem("co"), ("EX", ("X",), pr_or_st)))))
    co_gr_or_not_ad = ("or", ("or", sem("co"), sem("gr")), ("not", sem("ad")))
    second = ("AG", None, ("imp", sem("st"),
                           ("and", sem("pr"), ("EF", ("X",), co_gr_or_not_ad))))
    return [first, second]


# The instance and the twelve candidate sets X, one per query, alternating
# the two templates. The sets under the first template are subsets of a
# reachable state; those under the second are complete sets of one, so
# that sem atoms can hold.
SWEEP_LADDER = (RandomInstanceSpec(12, 0.15, 6, 6, seed=3), tuple(map(argset, (
    "a12", "a11 a12 a3", "a10 a12 a2 a4 a6", "a12", "a10 a2 a3 a4", "a11",
    "a10 a3 a4", "a11 a12", "a2 a3", "a11 a12", "a10 a11 a12 a2 a3", "a11",
))))
# Sweep processes per pass, each on its own renaming of the instance. How
# much work a sweep does depends on the names (see README.md, "sweep"), so
# a pass averages over several.
SWEEP_RENAMINGS = 4


def check_sweep(checks: list):
    def check(out: bytes, rc: int):
        if rc != 0:
            return len(checks), len(checks), None
        results = json.loads(out)
        if len(results) != len(checks):
            return len(checks), 0, "sweep returned the wrong number of results"
        for (ev, formula), res in zip(checks, results):
            nodes = refs.postorder(formula, [])
            if len(nodes) != len(res["labeling"]):
                return len(checks), 0, "labeling of the wrong size"
            for node, states in zip(nodes, res["labeling"]):
                if {parse_set(s, ev.frame) for s in states} != ev.sat(node):
                    return len(checks), 0, f"states satisfying {refs.render(node)} differ"
            rc_q = 0 if res["value"] else 2
            error = check_verdict(ev, formula, rc_q, res["value"], res["witness"])
            if error:
                return len(checks), 0, error
        return len(checks), 0, None

    return check


def build_sweep(wl: Workload) -> None:
    spec, candidates = SWEEP_LADDER
    templates = sweep_templates()
    for r in range(SWEEP_RENAMINGS):
        fw, new = relabel(random_framework(spec), wl.rng)
        frame = Frame(fw)
        successors = reference_successors(frame)
        sem = refs.StateSemantics(frame, successors)
        path = wl.add_framework(f"sweep-{r}.apa", fw)
        checks, queries = [], []
        for i, members in enumerate(candidates):
            x = frozenset(new[a] for a in members)
            formula = templates[i % 2]
            masks = tuple(frame.mask(m) for m in refs.query_refsets(formula, {"X": x}))
            graph = refs.reach(frame, masks, successors)
            checks.append((refs.Evaluator(frame, graph, {"X": x}, sem), formula))
            queries.append(wl.write(f"sweep-{r}-q{i}.q", query_text({"X": x}, formula)))
        wl.query_files += queries
        wl.ops.append(Op(f"sweep {r}", [path] + queries, check_sweep(checks),
                         count=len(checks), sweep=True))
    states = refs.reach(frame, (0,), successors).states
    wl.notes.append(
        f"{len(fw.persuasions)} acts, {len(states)} states, {len(candidates)} queries, "
        f"{SWEEP_RENAMINGS} renamings"
    )


BUILDERS = {
    "explore": build_explore,
    "extensions": build_extensions,
    "temporal": build_temporal,
    "sweep": build_sweep,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    wl = Workload(name, seed, workdir)
    BUILDERS[name](wl)
    return wl


# ---------------------------------------------------------------------------
# Cross-checks of the references against the oracle, on small instances


def random_formula(rng: random.Random, args, setnames, depth: int):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return ("vis", rng.choice(args))
        if kind == 1:
            return ("in", rng.choice(args), rng.choice(setnames))
        return ("sem", rng.choice(LABELS), rng.choice(setnames))
    sub = lambda: random_formula(rng, args, setnames, depth - 1)
    sigma = None if rng.random() < 0.3 else tuple(
        rng.sample(setnames, rng.randrange(1, len(setnames) + 1)))
    kind = rng.randrange(6)
    if kind == 0:
        return ("not", sub())
    if kind == 1:
        return (rng.choice(("and", "or", "imp")), sub(), sub())
    if kind < 5:
        return (rng.choice(refs.TEMPORAL), sigma, sub())
    return (rng.choice(("EU", "AU")), sigma, sub(), sub())


def selfcheck(name: str, seed: int) -> str | None:
    """Cross-check the references the workload uses against the oracle on
    small seeded instances; return a description of the first
    disagreement, or None."""
    rng = random.Random(f"selfcheck/{name}/{seed}")
    spec = lambda n, i, c: RandomInstanceSpec(n, 0.2, i, c, seed=rng.randrange(1 << 30))
    if name == "extensions":
        for _ in range(3):
            fw = random_framework(spec(10, 0, 0))
            frame = Frame(fw)
            want = oracle.dung_extensions_bruteforce(fw.arguments, fw.attacks)
            got = refs.dung_extensions(frame, frame.mask(fw.arguments))
            for label in LABELS:
                if got[label] != sorted(frame.mask(e) for e in want[label]):
                    return f"Dung enumeration disagrees with the oracle on {label}"
        return None
    for _ in range(3):
        fw = random_framework(spec(9, 3, 4))
        frame = Frame(fw)
        masks = (0, frame.mask(random_refset(rng, fw, 0.4)))
        fold = refs.reach(frame, masks, frame.fold_successors)
        brute = refs.reach(frame, masks, reference_successors(frame))
        if (fold.states, fold.edges) != (brute.states, brute.edges):
            return "the successor fold disagrees with the oracle"
    checked = 0
    while name in ("temporal", "sweep") and checked < 4:
        fw = random_framework(spec(7, 2, 3))
        frame = Frame(fw)
        if bounded_reach(frame, (0,), 32) is None:
            continue  # bounded_path_eval stops at 32 states
        sets = {n: random_refset(rng, fw, 0.4) for n in ("S1", "S2")}
        formula = random_formula(rng, fw.arguments, ("S1", "S2"), 3)
        successors = reference_successors(frame)
        masks = tuple(frame.mask(r) for r in refs.query_refsets(formula, sets))
        graph = refs.reach(frame, masks, successors)
        ev = refs.Evaluator(frame, graph, sets, refs.StateSemantics(frame, successors))
        want = oracle.bounded_path_eval(fw, ctl.parse_query(query_text(sets, formula)))
        if {frame.mask(s.visible) for s, ok in want.items() if ok} != ev.sat(formula):
            return f"the fixpoint evaluator disagrees with the oracle on {refs.render(formula)}"
        checked += 1
    return None

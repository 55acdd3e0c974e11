"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its time budget (run with `pytest -s tests/test_acceptance.py` to
see the lines)."""

import io
import itertools
import random
import time

from apa import ctl, dynamics, semantics
from apa.cli import main as cli_main
from apa.ctl import And, Not, Or, Query, Sigma, Temporal, parse_query
from apa.dynamics import ALL, SelectorFamily, reachable
from apa.errors import TooLarge
from apa.fileformat import parse_framework, print_framework
from apa.model import State, framework
from apa.oracle import (
    RandomInstanceSpec,
    bounded_path_eval,
    dung_extensions_bruteforce,
    random_framework,
    random_query,
    random_refset,
)

ELMA_FILE = (
    "arguments: a2 a3 a4 a5\n"
    "initial: a2 a3 a4\n"
    "attack: a2 -> a3\n"
    "convert: a3 : a4 => a5\n"
)

ELMA_QUERY = "(in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)"


class budget:
    """Wall-clock guard for one criterion."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        return False


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_c01_elma_state_enumeration(tmp_path):
    with budget("1 (elma state enumeration)", 1.0):
        path = tmp_path / "elma.apa"
        path.write_text(ELMA_FILE)
        code, out, _ = run_cli(["states", str(path), "--sigma", "all"])
        assert code == 0
        assert out == (
            "{a2,a3,a4}  (initial)\n"
            "{a2,a3,a5}  (deadlock)\n"
        )
        code, out, _ = run_cli(["states", str(path), "--sigma", "{a2}"])
        assert code == 0
        assert out == "{a2,a3,a4}  (initial, deadlock)\n"


def test_c02_elma_query_all_candidate_sets():
    with budget("2 (elma query over all 16 candidate sets)", 1.0):
        fw = parse_framework(ELMA_FILE)
        for r in range(5):
            for members in itertools.combinations(fw.arguments, r):
                decl = "set A1 = {" + ",".join(members) + "}\n"
                query = parse_query(decl + "formula: " + ELMA_QUERY)
                assert ctl.check(fw, query).value is True, members


def test_c03_semantics_inclusion_chain():
    with budget("3 (semantics chain on 500 random frameworks)", 60.0):
        for seed in range(500):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + seed % 5,
                    attack_density=0.3,
                    n_induce=1,
                    n_convert=2,
                    seed=seed,
                )
            )
            for state in reachable(fw, ALL).states:
                ad = set(semantics.extensions(fw, "ad", state))
                co = set(semantics.extensions(fw, "co", state))
                pr = set(semantics.extensions(fw, "pr", state))
                st = set(semantics.extensions(fw, "st", state))
                assert st <= pr <= co <= ad, (seed, state)
                assert co, (seed, state)
                assert semantics.grounded_set(fw, state) in co, (seed, state)


def test_c04_temporal_laws():
    with budget("4 (duality and expansion laws, 1000 pairs)", 120.0):
        rng = random.Random(314)
        for case in range(1000):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + case % 4,
                    n_induce=1,
                    n_convert=2,
                    seed=20000 + case,
                )
            )
            query = random_query(rng, fw, n_sets=2, depth=4)
            phi = query.formula
            sigma = Sigma(("S1",)) if case % 2 else Sigma(None)
            laws = [
                # dualities
                (Not(Temporal("AF", sigma, phi)), Temporal("EG", sigma, Not(phi))),
                (Not(Temporal("EF", sigma, phi)), Temporal("AG", sigma, Not(phi))),
                # expansion laws
                (Temporal("AG", sigma, phi),
                 And(phi, Temporal("AX", sigma, Temporal("AG", sigma, phi)))),
                (Temporal("EG", sigma, phi),
                 And(phi, Temporal("EX", sigma, Temporal("EG", sigma, phi)))),
                (Temporal("AF", sigma, phi),
                 Or(phi, Temporal("AX", sigma, Temporal("AF", sigma, phi)))),
                (Temporal("EF", sigma, phi),
                 Or(phi, Temporal("EX", sigma, Temporal("EF", sigma, phi)))),
            ]
            for lhs, rhs in laws:
                equiv = Or(And(lhs, rhs), And(Not(lhs), Not(rhs)))
                law = Query(sets=query.sets, formula=equiv)
                lab = ctl.check(fw, law).labeling
                assert all(
                    s in lab.sat[equiv] for s in lab.lts.states
                ), (case, lhs)


def test_c05_admissibility_lost_across_transition():
    with budget("5 (non-monotone admissibility witness)", 1.0):
        fw = parse_framework(ELMA_FILE)
        candidate = frozenset(["a2", "a4"])
        before = fw.initial_state
        assert semantics.holds(fw, "ad", candidate, before)
        succ = dynamics.successor_states(fw, frozenset(), before)
        assert succ == {State(frozenset(["a2", "a3", "a5"]))}
        (after,) = succ
        assert not semantics.holds(fw, "ad", candidate, after)


def test_c06_dung_coincidence():
    with budget("6 (classical coincidence on 200 static frameworks)", 60.0):
        for seed in range(200):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + seed % 5,
                    attack_density=0.35,
                    n_induce=0,
                    n_convert=0,
                    initial_density=0.7,
                    seed=30000 + seed,
                )
            )
            init = fw.initial_state
            vis = init.visible
            reference = dung_extensions_bruteforce(
                fw.sort_args(vis),
                {(a, b) for (a, b) in fw.attacks if a in vis and b in vis},
            )
            for which in semantics.LABELS:
                assert set(semantics.extensions(fw, which, init)) == set(
                    reference[which]
                ), (seed, which)


def test_c07_oracle_equivalence():
    with budget("7 (engine/oracle equivalence sweeps)", 180.0):
        # transitions
        rng = random.Random(77)
        for seed in range(300):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + seed % 5, n_induce=2, n_convert=2,
                    seed=40000 + seed,
                )
            )
            refset = random_refset(rng, fw)
            state = fw.state(a for a in fw.arguments if rng.random() < 0.5)
            from apa.oracle import successors_bruteforce

            assert dynamics.successor_states(fw, refset, state) == \
                successors_bruteforce(fw, refset, state), seed
        # temporal labeling
        rng = random.Random(88)
        for case in range(1000):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + case % 3, n_induce=1, n_convert=2,
                    seed=50000 + case,
                )
            )
            query = random_query(rng, fw, n_sets=2, depth=3)
            try:
                reference = bounded_path_eval(fw, query, max_states=32)
            except TooLarge:
                continue
            lab = ctl.check(fw, query).labeling
            for state, expected in reference.items():
                assert (state in lab.sat[query.formula]) == expected, case


def test_c08_empty_refset_maximality():
    with budget("8 (empty-selector maximality, 200 cases)", 30.0):
        for seed in range(200):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=2 + seed % 4, n_induce=1, n_convert=2,
                    seed=60000 + seed,
                )
            )
            wildcard = reachable(fw, ALL)
            empty_only = reachable(fw, SelectorFamily((frozenset(),)))
            assert set(wildcard.states) == set(empty_only.states), seed
            # every per-refset transition is an empty-refset transition
            n = len(fw.arguments)
            for state in wildcard.states:
                under_empty = dynamics.successor_states(
                    fw, frozenset(), state
                )
                for mask in range(1 << n):
                    refset = frozenset(
                        a for i, a in enumerate(fw.arguments) if mask >> i & 1
                    )
                    assert dynamics.successor_states(fw, refset, state) <= \
                        under_empty, (seed, state, refset)


def test_c09_scale_enumeration():
    with budget("9 (12-argument full enumeration)", 5.0):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=12, attack_density=0.15, n_induce=6, n_convert=6,
                seed=5,
            )
        )
        lts = reachable(fw, ALL, max_states=4096)
        assert len(lts.states) == 108  # frozen from the first run
        assert len(lts.states) <= 4096


def test_extensions_of_30_argument_chain_by_search():
    # a 30-argument attack chain a1 -> a2 -> ... -> a30 has 2^30 visible
    # subsets, so only a search that prunes can list its extensions in time
    with budget("extensions of a 30-argument chain", 5.0):
        names = [f"a{i}" for i in range(1, 31)]
        fw = framework(names, attacks=zip(names, names[1:]), initial=names)
        state = fw.initial_state
        odd = names[::2]
        prefixes = tuple(frozenset(odd[:k]) for k in range(16))
        assert semantics.extensions(fw, "ad", state, max_args=30) == prefixes
        for label in ("co", "pr", "st", "gr"):
            assert semantics.extensions(fw, label, state, max_args=30) == (
                frozenset(odd),
            ), label


def test_c10_roundtrips_and_exit_codes(tmp_path):
    with budget("10 (format round-trips, CLI exit codes)", 30.0):
        # framework corpus
        for seed in range(50):
            fw = random_framework(
                RandomInstanceSpec(
                    n_args=1 + seed % 7,
                    attack_density=0.3,
                    n_induce=seed % 3,
                    n_convert=seed % 4,
                    seed=70000 + seed,
                )
            )
            assert parse_framework(print_framework(fw)) == fw
        # query corpus
        base = random_framework(RandomInstanceSpec(n_args=4, seed=1))
        rng = random.Random(123)
        for _ in range(100):
            query = random_query(rng, base, n_sets=2, depth=3)
            again = parse_query(ctl.print_query(query))
            assert again.formula == query.formula
            assert again.bindings() == query.bindings()
        # exit codes: 0 true, 2 false, 1 error
        path = tmp_path / "elma.apa"
        path.write_text(ELMA_FILE)
        good = tmp_path / "good.q"
        good.write_text("set A1 = {a2,a5}\nformula: " + ELMA_QUERY + "\n")
        bad = tmp_path / "bad.q"
        bad.write_text("formula: (in(a5,\n")
        false_q = tmp_path / "false.q"
        false_q.write_text("formula: AG{*} visible(a4)\n")
        assert run_cli(["check", str(path), str(good)])[0] == 0
        assert run_cli(["check", str(path), str(false_q)])[0] == 2
        assert run_cli(["check", str(path), str(bad)])[0] == 1

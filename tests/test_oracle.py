import itertools
import random

import pytest

from conftest import characteristic

from apa import ctl, dynamics
from apa.dynamics import ALL, reachable
from apa.errors import TooLarge
from apa.model import framework
from apa.oracle import (
    RandomInstanceSpec,
    bounded_path_eval,
    dung_extensions_bruteforce,
    random_framework,
    random_query,
    random_refset,
    successors_bruteforce,
)


def fs(*args):
    return frozenset(args)


# -- dung_extensions_bruteforce ---------------------------------------------


def test_dung_textbook_case():
    exts = dung_extensions_bruteforce(("a", "b"), fs(("a", "b")))
    assert set(exts["co"]) == {fs("a")}
    assert exts["gr"] == (fs("a"),)


def test_dung_empty_framework():
    exts = dung_extensions_bruteforce((), frozenset())
    assert set(exts["co"]) == {fs()}


def test_dung_three_cycle():
    args = ("a", "b", "c")
    attacks = fs(("a", "b"), ("b", "c"), ("c", "a"))
    exts = dung_extensions_bruteforce(args, attacks)
    assert exts["gr"] == (fs(),)
    assert exts["st"] == ()


def test_dung_size_guard():
    with pytest.raises(TooLarge):
        dung_extensions_bruteforce(tuple(f"a{i}" for i in range(13)), frozenset())


# -- successors_bruteforce ---------------------------------------------------


def test_bruteforce_elma(elma):
    succ = successors_bruteforce(elma, frozenset(), elma.initial_state)
    assert {s.visible for s in succ} == {fs("a2", "a3", "a5")}
    assert successors_bruteforce(elma, fs("a2"), elma.initial_state) == frozenset()


def test_bruteforce_no_possible_acts(elma):
    state = elma.state(["a5"])
    assert successors_bruteforce(elma, frozenset(), state) == frozenset()


def test_engine_agrees_with_bruteforce_seed42():
    fw = random_framework(RandomInstanceSpec(n_args=5, seed=42))
    rng = random.Random(42)
    for _ in range(10):
        refset = random_refset(rng, fw)
        state = fw.state(a for a in fw.arguments if rng.random() < 0.5)
        assert dynamics.successor_states(fw, refset, state) == \
            successors_bruteforce(fw, refset, state)


def test_fold_and_elimination_agree_with_bruteforce():
    # at every reachable state of 200 instances with 6-12 acts (the
    # oracle's cap is 12), under the empty and a random reference set: the
    # fold yields the oracle's successors, and the engine's characteristic
    # function (`semantics._defended`, through `conftest.characteristic`)
    # defends a visible argument exactly when the reference set answers its
    # visible attackers and no oracle successor drops it
    rng = random.Random(5)
    instances = decisive = 0
    for seed in itertools.count(80000):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=4 + seed % 6, n_induce=2 + seed % 5,
                n_convert=4 + seed % 4, seed=seed,
            )
        )
        if not 6 <= len(fw.persuasions) <= 12:
            continue
        for state in reachable(fw, ALL).states:
            for refset in (frozenset(), random_refset(rng, fw)):
                succ = successors_bruteforce(fw, refset, state)
                assert dynamics.successor_states(fw, refset, state) == succ
                vis = state.visible
                helpers = refset & vis
                for arg in vis:
                    answered = all(
                        any((h, b) in fw.attacks for h in helpers)
                        for (b, a) in fw.attacks
                        if a == arg and b in vis
                    )
                    kept = all(arg in t.visible for t in succ)
                    decisive += answered and not kept
                    assert (arg not in state.visible or arg in
                            characteristic(fw, refset, state)) == \
                        (answered and kept), (seed, state, refset, arg)
        instances += 1
        if instances == 200:
            break
    assert decisive > 100


# -- bounded_path_eval -------------------------------------------------------


def test_bounded_eval_constants(elma):
    top = ctl.parse_query("formula: true")
    bottom = ctl.parse_query("formula: false")
    assert all(bounded_path_eval(elma, top).values())
    assert not any(bounded_path_eval(elma, bottom).values())


def test_bounded_eval_agrees_on_elma_queries(elma):
    queries = [
        "set A1 = {a2,a5}\nformula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)",
        "set A1 = {a5}\nformula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)",
        "formula: EF{*} visible(a5)",
        "formula: AG{*} visible(a2)",
        "formula: E{*}[visible(a4) U visible(a5)]",
        "formula: A{*}[visible(a2) U visible(a5)]",
        "set B = {a2}\nformula: AX{B} false",
    ]
    for text in queries:
        query = ctl.parse_query(text)
        labeling = ctl.check(elma, query).labeling
        reference = bounded_path_eval(elma, query)
        for state, expected in reference.items():
            assert (state in labeling.sat[query.formula]) == expected, text


def test_bounded_eval_state_guard():
    fw = framework(
        [f"a{i}" for i in range(7)],
        persuasions=[("a0", None, f"a{j}") for j in range(7)],
        initial=["a0"],
    )
    with pytest.raises(TooLarge):
        bounded_path_eval(fw, ctl.parse_query("formula: EF{*} true"), max_states=4)


def test_random_sweep_engine_vs_oracle():
    rng = random.Random(2024)
    for seed in range(150):
        fw = random_framework(
            RandomInstanceSpec(n_args=4, n_induce=1, n_convert=2, seed=seed)
        )
        query = random_query(rng, fw, n_sets=2, depth=3)
        try:
            reference = bounded_path_eval(fw, query, max_states=32)
        except TooLarge:
            continue
        labeling = ctl.check(fw, query).labeling
        for state, expected in reference.items():
            assert (state in labeling.sat[query.formula]) == expected


def test_instances_are_seed_deterministic():
    spec = RandomInstanceSpec(n_args=5, seed=7)
    assert random_framework(spec) == random_framework(spec)

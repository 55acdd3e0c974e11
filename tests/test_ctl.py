import copy
import pickle
import random
import re
import time

import pytest

from conftest import print_query, varying_operand

from apa import ctl
from apa.ctl import (
    And,
    Bottom,
    Exact,
    Implies,
    In,
    Lasso,
    Not,
    Or,
    Query,
    Sem,
    Temporal,
    Top,
    Until,
    Visible,
    check,
    parse_query,
)
from apa.dynamics import SelectorFamily, reachable
from apa.errors import QuerySyntaxError, TooLarge, UnknownName, UnknownSelector
from apa.model import State, framework
from apa.oracle import (
    RandomInstanceSpec,
    random_formula,
    random_framework,
    random_query,
    random_sigma,
)

EXAMPLE_QUERY = """
# household persuasion query
set A1 = { a2, a5 }
formula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)
"""


# -- parsing -----------------------------------------------------------------


def test_parse_example_query():
    query = parse_query(EXAMPLE_QUERY)
    assert dict(query.sets) == {"A1": frozenset(["a2", "a5"])}
    formula = query.formula
    assert isinstance(formula, Implies)
    assert formula.left == And(
        In("a5", "A1"), Temporal("EF", ("A1",), Sem("ad", "A1"))
    )
    assert formula.right == Not(In("a2", "A1"))


def test_parse_constants_and_precedence():
    query = parse_query("formula: true | false & !true")
    assert query.formula == Or(Top(), And(Bottom(), Not(Top())))


def test_parse_until_and_wildcard():
    query = parse_query("set S = {a}\nformula: E{*}[visible(a) U sem(gr, S)]")
    assert query.formula == Until(
        "E", None, Visible("a"), Sem("gr", "S")
    )


def test_parse_inline_set_literal():
    query = parse_query("formula: in(x, {x,y}) & exact({x}, {x,y})")
    bindings = query.bindings()
    names = sorted(query.implicit)
    assert len(names) == 3
    assert bindings[names[0]] == frozenset(["x", "y"])


def test_parse_implication_right_assoc():
    query = parse_query("formula: true -> false -> true")
    assert query.formula == Implies(Top(), Implies(Bottom(), Top()))


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError, match="expected a formula") as excinfo:
        parse_query("formula: (true &")
    assert (excinfo.value.line, excinfo.value.column) == (1, 17)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("formula: true true\n", "trailing input", (1, 15)),
        ("set S = {a2}\nset S = {a3}\nformula: true\n", "declared twice",
         (2, 5)),
        ("formula: EF{} true\n", "empty selector list", (1, 15)),
        ("formula: EF{,} true\n", "in selector list", (1, 13)),
        ("formula: foo(a2)\n", "unknown construct", (1, 10)),
        ("formula: sem(xx, {a2})\n", "expected one of ad", (1, 14)),
        ("formula: visible({a2})\n", "expected an argument name", (1, 18)),
        ("set {a} = {a2}\nformula: true\n", "expected a set name", (1, 5)),
        ("set S = {a2, {a3}}\nformula: true\n", "expected an argument name",
         (1, 14)),
        ("formula: E{*}[true U true\n", "expected ']'", (2, 1)),
    ],
    ids=[
        "trailing-input", "set-declared-twice", "empty-selector",
        "selector-comma", "unknown-construct", "unknown-label",
        "literal-argument", "literal-set-name", "nested-literal",
        "open-until",
    ],
)
def test_parse_error_names_its_cause_and_position(text, message, position):
    with pytest.raises(QuerySyntaxError, match=re.escape(message)) as excinfo:
        parse_query(text)
    assert (excinfo.value.line, excinfo.value.column) == position


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("formula: E{*}[true U true", "expected ']', found end of input",
         (1, 26)),
        ("formula: (true &", "expected a formula, found end of input",
         (1, 17)),
        ("formula: in(a1", "expected ',', found end of input", (1, 15)),
    ],
    ids=["open-until", "open-and", "open-in"],
)
def test_parse_error_at_end_of_input_names_it(text, message, position):
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query(text)
    line, column = position
    assert str(excinfo.value) == f"{message} at line {line}, column {column}"
    assert (excinfo.value.line, excinfo.value.column) == position


@pytest.mark.parametrize(
    "text", [EXAMPLE_QUERY, "set S = {a}\nformula: true\n"]
)
def test_crlf_query_parses_as_lf(text):
    assert parse_query(text.replace("\n", "\r\n")) == parse_query(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("set S = {a}\r\nformula: ^ true\r\n", (2, 10)),
        ("set S = {a}\r\nformula: (true &\r\n", (3, 1)),
        # `A` is reserved: the same error as the LF text, not a stray "\r"
        ("set A = {a}\r\nformula: true\r\n", (1, 5)),
    ],
)
def test_crlf_syntax_error_reports_its_line(text, position):
    with pytest.raises(QuerySyntaxError) as crlf:
        parse_query(text)
    with pytest.raises(QuerySyntaxError) as lf:
        parse_query(text.replace("\r\n", "\n"))
    assert str(crlf.value) == str(lf.value)
    assert (crlf.value.line, crlf.value.column) == position


@pytest.mark.parametrize(
    "text",
    [
        "!" * 5000 + "true",
        "(" * 3000 + "true" + ")" * 3000,
        " & ".join(["true"] * 5000),
        " -> ".join(["true"] * 5000),
    ],
    ids=["negations", "parentheses", "conjunctions", "implications"],
)
def test_nesting_bound(text):
    with pytest.raises(QuerySyntaxError, match="nested more than"):
        parse_query("formula: " + text)


def test_nesting_bound_admits_its_limit():
    text = "formula: " + "!" * (ctl.MAX_NESTING - 1) + "true\n"
    query = parse_query(text)
    assert print_query(query) == text
    check(framework(["a"]), query)


def test_unknown_set_name():
    with pytest.raises(UnknownName):
        parse_query("formula: in(a, Missing)")


def test_unknown_selector():
    with pytest.raises(UnknownSelector):
        parse_query("formula: EF{Nope} true")


def test_selector_literals_parse():
    query = parse_query("set S = {a2}\nformula: EF{{a2},{},S} true")
    names = query.formula.sigma
    bindings = query.bindings()
    assert [bindings[n] for n in names] == [
        frozenset(["a2"]), frozenset(), frozenset(["a2"])
    ]
    assert query.implicit == frozenset(names[:2])


def test_selector_literals_check(elma):
    # {a2} blocks elma's only act (a2 attacks its source a3); {} does not
    assert not check(elma, parse_query("formula: EF{{a2}} visible(a5)")).value
    assert check(elma, parse_query("formula: EF{{a2},{}} visible(a5)")).value


def test_selector_literals_roundtrip():
    query = parse_query(
        "set S = {a2}\nformula: A{S,{a3,a2}}[true U EX{{}} in(a2, {a2})]"
    )
    text = print_query(query)
    assert text == (
        "set S = {a2}\nformula: A{S,{a2,a3}}[true U EX{{}} in(a2, {a2})]\n"
    )
    assert parse_query(text) == query


DECLARED_S0 = "set _s0 = {a}\nformula: in(a, {b}) | in(a, _s0)\n"


def test_inline_literal_skips_declared_names():
    query = parse_query(DECLARED_S0)
    bindings = query.bindings()
    assert bindings["_s0"] == {"a"}
    assert [bindings[n] for n in query.implicit] == [{"b"}]
    fw = framework(["a", "b"], initial=["a", "b"])
    assert check(fw, query).value is True


def test_declared_literal_name_roundtrip():
    query = parse_query(DECLARED_S0)
    assert print_query(query) == DECLARED_S0
    assert parse_query(print_query(query)) == query


def test_wide_formula_labels_in_budget():
    """Distinct subformulas are collected in linear time: a balanced `&` of
    4,000 distinct atoms under EF is checked within 3 s."""

    def balanced(n):
        if n == 1:
            return "in(a2, {a2})"
        return f"({balanced(n // 2)} & {balanced(n - n // 2)})"

    query = parse_query(f"formula: EF{{*}} {balanced(4000)}")
    fw = framework(["a2"], initial=["a2"])
    start = time.perf_counter()
    assert check(fw, query).value
    assert time.perf_counter() - start < 3.0


def test_wide_literal_query_prints_in_budget():
    """The bindings are read once per print, not once per literal: a
    balanced `&` of 4,000 atoms with distinct inline literals prints
    within 0.4 s (about 0.03 s when linear, 0.8 s when quadratic) and
    reparses to the same query."""

    def balanced(lo, hi):
        if hi - lo == 1:
            return f"in(a2, {{a{lo}}})"
        mid = (lo + hi) // 2
        return f"({balanced(lo, mid)} & {balanced(mid, hi)})"

    query = parse_query(f"formula: {balanced(0, 4000)}")
    assert len(query.implicit) == 4000
    start = time.perf_counter()
    text = print_query(query)
    assert time.perf_counter() - start < 0.4
    assert parse_query(text) == query


def test_roundtrip_random_asts():
    fw = framework(["a1", "a2", "a3"], initial=["a1"])
    rng = random.Random(99)
    for _ in range(200):
        query = random_query(rng, fw, n_sets=2, depth=3)
        text = print_query(query)
        again = parse_query(text)
        assert again.formula == query.formula
        assert again.bindings() == query.bindings()


def test_roundtrip_example_query():
    query = parse_query(EXAMPLE_QUERY)
    assert parse_query(print_query(query)).formula == query.formula


# -- labeling ----------------------------------------------------------------


def elma_query(members, formula_text):
    decl = "set A1 = {" + ",".join(sorted(members)) + "}\n"
    return parse_query(decl + "formula: " + formula_text)


def test_constants_label_everywhere(elma):
    for text, expect_all in (("true", True), ("false", False)):
        query = parse_query(f"formula: EF{{*}} {text}")
        labeling = check(elma, query).labeling
        sub = query.formula.sub
        for state in labeling.lts.states:
            assert (state in labeling.sat[sub]) is expect_all


def test_example5_blocked_reference_set(elma):
    query = elma_query(
        ["a2", "a5"], "(in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)"
    )
    result = check(elma, query)
    assert result.value is True
    # the antecedent's EF is false: with a2 screening, nothing moves and
    # a5 never becomes visible
    labeling = check(elma, query).labeling
    ef = query.formula.left.right
    assert labeling.lts.initial not in labeling.sat[ef]


def test_example5_free_reference_set(elma):
    query = elma_query(
        ["a5"], "(in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)"
    )
    labeling = check(elma, query).labeling
    ef = query.formula.left.right
    assert labeling.lts.initial in labeling.sat[ef]
    assert check(elma, query).value is True


def test_in_labels_state_independent(elma):
    query = elma_query(["a2", "a5"], "EF{*} in(a2, A1)")
    labeling = check(elma, query).labeling
    atom = query.formula.sub
    states = labeling.lts.states
    assert all(s in labeling.sat[atom] for s in states)


def test_visible_labels_track_states(elma):
    query = parse_query("formula: EF{*} visible(a5)")
    labeling = check(elma, query).labeling
    atom = query.formula.sub
    for state in labeling.lts.states:
        assert (state in labeling.sat[atom]) == ("a5" in state.visible)


def test_static_framework_ag(dung_ab):
    query = parse_query("set G = {a}\nformula: AG{*} sem(gr, G)")
    assert check(dung_ab, query).value is True


def test_deadlock_stutter_semantics(elma):
    # the deadlocked terminal state satisfies AG phi iff phi holds there
    query = parse_query("formula: EF{*} AG{*} visible(a5)")
    assert check(elma, query).value is True
    query = parse_query("formula: EF{*} AG{*} visible(a4)")
    assert check(elma, query).value is False


def test_ef_reflexive(elma):
    query = parse_query("formula: EF{*} visible(a4)")
    assert check(elma, query).value is True  # holds at the initial state itself


def test_oscillation_oscillator(oscillator):
    # frozen from the bounded path oracle before the engine build
    text = """
    set A4 = { a2, a3, a4 }
    set A5 = { a1, a3, a4 }
    formula: exact({a2,a3,a4}, A4) & exact({a1,a3,a4}, A5)
      & AG{*}((sem(ad,A4) -> EF{*}(sem(ad,A5) & !sem(ad,A4)))
            & (sem(ad,A5) -> EF{*}(sem(ad,A4) & !sem(ad,A5))))
    """
    assert check(oscillator, parse_query(text)).value is True


def fan_out():
    """One induce act from a0 to each of eight arguments: 2^7 states."""
    return framework(
        [f"a{i}" for i in range(8)],
        persuasions=[("a0", None, f"a{j}") for j in range(8)],
        initial=["a0"],
    )


def test_too_large_lts():
    with pytest.raises(TooLarge):
        check(fan_out(), parse_query("formula: EF{*} true"), max_states=4)


def test_unknown_argument_in_query(elma):
    with pytest.raises(UnknownName):
        check(elma, parse_query("formula: visible(zz)"))
    # names are checked before any state is explored
    with pytest.raises(UnknownName, match="undeclared argument 'zz'"):
        query = parse_query("formula: EF{*} visible(zz)")
        check(fan_out(), query, max_states=4)


def test_unknown_literal_member_named_by_members(elma):
    with pytest.raises(UnknownName) as excinfo:
        check(elma, parse_query("formula: in(a2, {a2,zz})"))
    assert str(excinfo.value) == (
        "set literal {a2,zz} mentions undeclared argument 'zz'"
    )
    with pytest.raises(UnknownName, match="set 'S' mentions"):
        check(elma, parse_query("set S = {zz}\nformula: in(a2, S)"))


def test_monotone_selector_families(oscillator):
    # a wider selector family can only add EF-reachability
    narrow = parse_query("set B = {a1}\nformula: EF{B} visible(a3)")
    wide = parse_query("set B = {a1}\nformula: EF{*} visible(a3)")
    lab_n = check(oscillator, narrow).labeling
    lab_w = check(oscillator, wide).labeling
    for state in lab_w.lts.states:
        if state in lab_n.lts.states and state in lab_n.sat[narrow.formula]:
            assert state in lab_w.sat[wide.formula]


# -- propositional laws on random instances ----------------------------------


def both_sides(fw, query_sets, lhs, rhs):
    """The labelling of `lhs`, once `rhs`, labelled on its own, is found
    to hold at the same states."""
    q1 = Query(sets=query_sets, formula=lhs)
    q2 = Query(sets=query_sets, formula=rhs)
    l1, l2 = check(fw, q1).labeling, check(fw, q2).labeling
    states = set(l1.lts.states) & set(l2.lts.states)
    assert states
    assert all((s in l1.sat[lhs]) == (s in l2.sat[rhs]) for s in states), lhs
    return l1


def test_duality_and_expansion_laws_sample():
    """The laws on operands built from the visibility of arguments that
    differ between the states reachable under {S1}, so that many of their
    instances hold at some states and fail at others."""
    rng, rng_psi = random.Random(5), random.Random(6)
    proper = 0
    for seed in range(60):
        fw = random_framework(
            RandomInstanceSpec(n_args=4, n_induce=1, n_convert=2, seed=3000 + seed)
        )
        query = random_query(rng, fw, n_sets=2, depth=2)
        sigma = ("S1",)
        family = SelectorFamily((query.bindings()["S1"],))
        states = reachable(fw, family).states
        phi = varying_operand(rng, fw, states)
        psi = varying_operand(rng_psi, fw, states)
        eu = Until("E", sigma, phi, psi)
        eg = Temporal("EG", sigma, phi)
        laws = [
            (Not(Temporal("AF", sigma, phi)), Temporal("EG", sigma, Not(phi))),
            (Not(Temporal("EF", sigma, phi)), Temporal("AG", sigma, Not(phi))),
            (
                Temporal("EF", sigma, phi),
                Or(phi, Temporal("EX", sigma, Temporal("EF", sigma, phi))),
            ),
            (
                Temporal("AG", sigma, phi),
                And(phi, Temporal("AX", sigma, Temporal("AG", sigma, phi))),
            ),
            (eu, Or(psi, And(phi, Temporal("EX", sigma, eu)))),
            (eg, And(phi, Temporal("EX", sigma, eg))),
            (
                Until("A", sigma, phi, psi),
                Not(Or(
                    Until("E", sigma, Not(psi), And(Not(phi), Not(psi))),
                    Temporal("EG", sigma, Not(psi)),
                )),
            ),
        ]
        for lhs, rhs in laws:
            labeling = both_sides(fw, query.sets, lhs, rhs)
            proper += 0 < len(labeling.sat[lhs]) < len(labeling.everywhere)
    assert proper >= 75


# -- witnesses ---------------------------------------------------------------


def assert_lasso_valid(labeling, lasso, sigma):
    states = list(lasso.prefix) + list(lasso.cycle)
    assert states[0] == labeling.lts.initial
    seq = states + [lasso.cycle[0]]
    for a, b in zip(seq, seq[1:]):
        assert b in labeling.successors(sigma, a)


def test_ef_witness(elma):
    query = parse_query("formula: EF{*} visible(a5)")
    result = check(elma, query)
    assert result.value and result.witness is not None
    states = list(result.witness.prefix) + list(result.witness.cycle)
    assert any("a5" in s.visible for s in states)
    assert_lasso_valid(result.labeling, result.witness, query.formula.sigma)


def until(path, left, right):
    """Some state of `path` is in `right`, every state before it in `left`."""
    return any(
        s in right and all(p in left for p in path[:i])
        for i, s in enumerate(path)
    )


def lasso_proves(op, path, everywhere, left, right):
    """Whether the lasso states `path` (its back-edge target appended) prove
    the verdict of `op` on operands labelled `left` (and `right` for U):
    a true existential, or a false universal through its dual on the
    complements."""
    not_l, not_r = everywhere - left, everywhere - right
    return {
        "EX": lambda: path[1] in left,
        "AX": lambda: path[1] in not_l,
        "EF": lambda: any(s in left for s in path),
        "AF": lambda: all(s in not_l for s in path),
        "EG": lambda: all(s in left for s in path),
        "AG": lambda: any(s in not_l for s in path),
        "E": lambda: until(path, left, right),
        "A": lambda: (
            until(path, not_r, not_l & not_r) or all(s in not_r for s in path)
        ),
    }[op]()


def bfs_distance(labeling, sigma, through, targets):
    """Length of the shortest selector-path from the initial state to a
    state of `targets` through states of `through`, or None."""
    frontier, seen, distance = {labeling.lts.initial}, set(), 0
    while frontier:
        if frontier & targets:
            return distance
        seen |= frontier
        frontier = {
            t for s in frontier & through
            for t in labeling.successors(sigma, s)
        } - seen
        distance += 1
    return None


def test_witnesses_prove_their_verdicts():
    """Every temporal operator over random operands: a lasso comes exactly
    with a true existential or a false universal, it follows the operator's
    selector family from the initial state, and the operands' labels prove
    the verdict along it. A lasso that must reach a target (E[U], EF, and
    AG through EF) first meets one after exactly the breadth-first
    distance."""
    rng = random.Random(808)
    lassos = dict.fromkeys(("EX", "AX", "EF", "AF", "EG", "AG", "E", "A"), 0)
    for case in range(150):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=2 + case % 3, n_induce=1, n_convert=2, seed=70000 + case
            )
        )
        query = random_query(rng, fw, n_sets=2, depth=3)
        names = tuple(name for name, _ in query.sets)
        phi, psi = query.formula, random_formula(rng, fw, names, 3)
        sigma = random_sigma(rng, names)
        for op in lassos:
            if op in ("A", "E"):
                node = Until(op, sigma, phi, psi)
            else:
                node = Temporal(op, sigma, phi)
            result = check(fw, Query(sets=query.sets, formula=node))
            labeling, lasso = result.labeling, result.witness
            assert (lasso is not None) == (result.value != (op[0] == "A"))
            if lasso is None:
                continue
            lassos[op] += 1
            assert_lasso_valid(labeling, lasso, sigma)
            path = lasso.prefix + lasso.cycle + lasso.cycle[:1]
            everywhere = frozenset(labeling.lts.states)
            sat = labeling.sat
            right = sat[psi] if op in ("A", "E") else everywhere
            proved = lasso_proves(op, path, everywhere, sat[phi], right)
            assert proved, (case, op)
            reach = {
                "E": (sat[phi], right),
                "EF": (everywhere, sat[phi]),
                "AG": (everywhere, everywhere - sat[phi]),
            }
            if op in reach:
                through, targets = reach[op]
                first = next(i for i, s in enumerate(path) if s in targets)
                assert first == bfs_distance(labeling, sigma, through, targets)
    assert all(lassos.values()), lassos


def counted(calls, method):
    def wrapper(self, *args):
        calls.append(method.__name__)
        return method(self, *args)

    return wrapper


@pytest.mark.parametrize(
    "text, fixpoints",
    [
        ("EX{*} visible(a4)", ["ex"]),
        ("AX{*} visible(a1)", ["ex"]),
        ("EF{*} visible(a3)", ["eu"]),
        ("AF{*} visible(a3)", ["eg"]),
        ("EG{*} visible(a1)", ["eg"]),
        ("AG{*} visible(a1)", ["eu"]),
        ("E{*}[visible(a1) U visible(a3)]", ["eu"]),
        ("A{*}[visible(a1) U visible(a3)]", ["eu", "eg"]),
        ("A{*}[true U false]", ["eu", "eg"]),
    ],
)
def test_each_fixpoint_runs_once_per_check(
    oscillator, monkeypatch, text, fixpoints
):
    """A check whose root is its only temporal node runs one fixpoint per
    alternative of the root's dual, lasso included: the witness walks what
    the labelling recorded."""
    calls = []
    for name in ("ex", "eu", "eg"):
        method = getattr(ctl.Labeling, name)
        monkeypatch.setattr(ctl.Labeling, name, counted(calls, method))
    result = check(oscillator, parse_query("formula: " + text))
    assert result.witness is not None
    assert calls == fixpoints


def test_ag_counterexample(elma):
    query = parse_query("formula: AG{*} visible(a4)")
    result = check(elma, query)
    assert not result.value and result.witness is not None
    states = list(result.witness.prefix) + list(result.witness.cycle)
    assert any("a4" not in s.visible for s in states)


def test_eg_witness(oscillator):
    query = parse_query("formula: EG{*} (visible(a1) | visible(a3))")
    result = check(oscillator, query)
    if result.value:
        assert result.witness is not None
        for s in list(result.witness.prefix) + list(result.witness.cycle):
            assert "a1" in s.visible or "a3" in s.visible


def test_no_witness_for_boolean_top(elma):
    result = check(elma, parse_query("formula: true"))
    assert result.value and result.witness is None


def test_check_leaves_edges_and_deadlocks_unbuilt(oscillator):
    lts = check(oscillator, parse_query("formula: AG{*} visible(a1)")).labeling.lts
    assert "edges" not in vars(lts) and "deadlocks" not in vars(lts)


@pytest.mark.parametrize(
    "text",
    [
        "formula: AX{*} false",
        "formula: AF{*} false",
        "formula: AG{*} visible(a4)",
        "formula: A{*}[visible(a4) U false]",
        "formula: A{*}[true U !visible(a2) & false]",
    ],
)
def test_counterexample_labels_only_query_subformulas(elma, text):
    query = parse_query(text)
    result = check(elma, query)
    assert not result.value and result.witness is not None
    assert set(result.labeling.sat) == set(ctl._subformulas(query.formula))


# -- AST nodes and records ---------------------------------------------------


def test_and_or_over_same_operands_stay_apart(elma):
    p, q = Visible("a2"), Visible("a5")
    assert And(p, q) != Or(p, q)
    query = Query(sets=(), formula=Implies(And(p, q), Or(p, q)))
    sat = check(elma, query).labeling.sat
    assert len(sat) == 5
    assert sat[And(p, q)] != sat[Or(p, q)]
    assert sat[And(p, q)] == sat[p] & sat[q]
    assert sat[Or(p, q)] == sat[p] | sat[q]


def test_equal_nodes_built_apart_share_one_key(elma):
    def build():
        return Temporal("EF", None, And(Visible("a5"), Not(Visible("a4"))))

    first, second = build(), build()
    assert first is not second and first.sub is not second.sub
    assert first == second and hash(first) == hash(second)
    assert len({first: 1, second: 2}) == 1
    query = Query(sets=(), formula=Or(first, second))
    assert set(check(elma, query).labeling.sat) == {
        Visible("a5"), Visible("a4"), Not(Visible("a4")), first.sub, first,
        Or(first, second),
    }


def test_nodes_compare_class_and_fields():
    assert Top() == Top() and Top() != Bottom()
    assert Visible("a") != Visible("b")
    assert Temporal("EF", None, Top()) != Temporal("EF", ("A",), Top())
    assert Until("E", None, Top(), Bottom()) != Until("A", None, Top(), Bottom())
    assert Not(Top()) != (Top(),)
    assert repr(And(Visible("a"), Top())) == "And(left=Visible(arg='a'), right=Top())"


@pytest.mark.parametrize(
    "record, field",
    [
        (Not(Top()), "sub"),
        (Until("E", None, Top(), Top()), "left"),
        (Visible("a"), "arg"),
        (Query(sets=(), formula=Top()), "formula"),
        (Lasso(prefix=(), cycle=()), "cycle"),
    ],
)
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, Bottom())
    with pytest.raises(AttributeError):
        record.extra = 1


def test_queries_survive_copy_and_pickle():
    query = parse_query(EXAMPLE_QUERY)
    for twin in (copy.copy(query), copy.deepcopy(query),
                 pickle.loads(pickle.dumps(query))):
        assert twin == query and hash(twin.formula) == hash(query.formula)


def test_records_build_from_keywords():
    state = State(frozenset({"a"}))
    query = Query(sets=(("A", frozenset({"a"})),), formula=Top())
    assert query.implicit == frozenset() and query.bindings() == {
        "A": frozenset({"a"})
    }
    lasso = Lasso(prefix=(), cycle=(state,))
    assert (lasso.prefix, lasso.cycle) == ((), (state,))
    spec = RandomInstanceSpec(14, 0.15, 0, 0, initial_density=1.0, seed=1)
    assert (spec.n_args, spec.n_induce, spec.initial_density, spec.seed) == (
        14, 0, 1.0, 1
    )
    assert spec == RandomInstanceSpec(
        n_args=14, attack_density=0.15, n_induce=0, n_convert=0,
        initial_density=1.0, seed=1,
    )


def test_subformula_fields_keep_their_names():
    """Scripts walk formulas by the attribute names `sub`, `left` and
    `right`, reading None where a node has no such field."""
    p, q = Visible("a"), Top()
    assert Not(p).sub is p and Temporal("AX", None, p).sub is p
    for node in (And(p, q), Or(p, q), Implies(p, q), Until("A", None, p, q)):
        assert (node.left, node.right) == (p, q)
        assert getattr(node, "sub", None) is None
    assert getattr(Not(p), "left", None) is None


def test_hashing_is_linear_in_depth(elma, monkeypatch):
    """Each node hashes once, when it is built: labelling a chain of 99
    `EX` nodes costs a few `__hash__` calls per node, not one per node
    below it for every lookup."""
    depth = 99
    query = parse_query("formula: " + "EX{*} " * depth + "visible(a5)")
    calls = []

    def counted_hash(hash_node):
        def wrapper(node):
            calls.append(node)
            return hash_node(node)
        return wrapper

    for cls in ctl.Formula.__subclasses__():
        monkeypatch.setattr(cls, "__hash__", counted_hash(cls.__hash__))
    labeling = ctl.Labeling(elma, query)
    assert len(labeling.sat) == depth + 1
    assert depth < len(calls) <= 8 * (depth + 1)

import io

import pytest

from conftest import mutants

from apa.dot import export_dot
from apa.dynamics import ALL, SelectorFamily, reachable
from apa.errors import ApaError, QuerySyntaxError, ValidationError
from apa.fileformat import parse_framework, print_framework
from apa.model import PersuasionAct, framework
from apa.oracle import RandomInstanceSpec, random_framework

ELMA_FILE = """
# household persuasion example
arguments: a2 a3 a4 a5
initial: a2 a3 a4
attack: a2 -> a3
convert: a3 : a4 => a5
"""


def test_parse_elma_file(elma):
    assert parse_framework(ELMA_FILE) == elma


def test_parse_removal_encoding():
    fw = parse_framework(
        "arguments: a1 a2\ninitial: a1 a2\nconvert: a1 : a2 => a1\n"
    )
    assert fw.persuasions == {PersuasionAct("a1", "a2", "a1")}


def test_parse_static_framework():
    fw = parse_framework("arguments: a b\ninitial: a\nattack:\n")
    assert fw.attacks == frozenset()
    assert fw.persuasions == frozenset()


def test_parse_validation_delegated():
    with pytest.raises(ValidationError):
        parse_framework("arguments: a2\nattack: a9 -> a2\n")


def test_parse_bad_section():
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_framework("arguments: a\nweird: x\n")
    assert excinfo.value.line == 2


def test_validation_issues_list_in_file_order():
    """Issues are listed by line, whatever their sections: an undeclared
    name on a `convert:` line is reported before one on a later `induce:`
    line, and an `initial:` line after the relations comes last."""
    with pytest.raises(ValidationError) as excinfo:
        parse_framework("arguments: a1 a2\ninitial: a1\n"
                        "convert: a1 : zz => a2\ninduce: yy => a2\n")
    assert [str(issue) for issue in excinfo.value.issues] == [
        "UndeclaredArgument: zz (line 3)",
        "UndeclaredArgument: yy (line 4)",
    ]
    # sections interleaved: every issue is listed by line
    with pytest.raises(ValidationError) as excinfo:
        parse_framework("arguments: a b\nconvert: a : zz => b\n"
                        "attack: yy -> a\ninitial: xx\n")
    assert [str(issue) for issue in excinfo.value.issues] == [
        "UndeclaredArgument: zz (line 2)",
        "UndeclaredArgument: yy (line 3)",
        "BadInitial: xx (line 4)",
    ]
    # entries without a line keep their order
    with pytest.raises(ValidationError) as excinfo:
        framework(["a", "a"], attacks=[("a", "zz")], initial=["yy"])
    assert [str(issue) for issue in excinfo.value.issues] == [
        "DuplicateArgument: a",
        "BadInitial: yy",
        "UndeclaredArgument: zz",
    ]


def test_parse_breaks_lines_only_at_newline(elma):
    """A U+2028 in a comment or a form feed at the end of a line neither
    starts a line nor shifts the line count; "\r\n" text parses too."""
    fw = parse_framework("# caf\u00e9\u2028note\n" + ELMA_FILE)
    assert fw == elma
    with pytest.raises(ValidationError) as excinfo:
        parse_framework("arguments: a2 a3 \x0c\ninitial: zz")
    assert [str(issue) for issue in excinfo.value.issues] == [
        "BadInitial: zz (line 2)"
    ]
    assert parse_framework(ELMA_FILE.replace("\n", "\r\n")) == elma


def test_malformed_frameworks_raise_only_apa_errors():
    """2,000 seeded mutations of the README framework and two smaller ones
    either parse or raise an `ApaError`; nothing else escapes."""
    texts = (
        ELMA_FILE,
        "arguments: a1 a2\ninitial: a1 a2\nconvert: a1 : a2 => a1\n",
        "arguments: a b c\ninitial: a\nattack: b -> a\ninduce: a => c\n",
    )
    for text in mutants(texts, 2000, seed=1):
        try:
            parse_framework(text)
        except ApaError:
            pass


def test_parse_bad_attack_arrow():
    with pytest.raises(QuerySyntaxError):
        parse_framework("arguments: a b\nattack: a => b\n")


def test_roundtrip_fixtures(elma, alice, oscillator, dung_ab):
    for fw in (elma, alice, oscillator, dung_ab):
        assert parse_framework(print_framework(fw)) == fw


def test_roundtrip_random_corpus():
    for seed in range(50):
        fw = random_framework(
            RandomInstanceSpec(
                n_args=1 + seed % 7,
                attack_density=0.3,
                n_induce=seed % 3,
                n_convert=seed % 4,
                seed=seed,
            )
        )
        assert parse_framework(print_framework(fw)) == fw


def test_print_is_canonical(elma):
    text = print_framework(elma)
    assert text == (
        "arguments: a2 a3 a4 a5\n"
        "initial: a2 a3 a4\n"
        "attack: a2 -> a3\n"
        "convert: a3 : a4 => a5\n"
    )


# -- DOT ---------------------------------------------------------------------


def export(lts, annotate=None):
    """The text `export_dot` writes; it returns nothing."""
    out = io.StringIO()
    assert export_dot(lts, out, annotate) is None
    return out.getvalue()


def test_dot_elma(elma):
    lts = reachable(elma, ALL)
    dot = export(lts)
    assert dot.count("->") == 1  # one edge
    assert dot.count("label=\"{") == 2  # two state nodes
    assert "peripheries=2" in dot  # deadlock is double-circled


def test_dot_static(dung_ab):
    dot = export(reachable(dung_ab, ALL))
    assert dot.count("label=\"{") == 1
    assert "->" not in dot.replace("rankdir", "")


def test_dot_oscillator(oscillator):
    dot = export(reachable(oscillator, ALL))
    assert dot.count("label=\"{") == 7


def test_dot_deterministic(oscillator):
    family = SelectorFamily((frozenset(), frozenset({"a1"})))
    a = export(reachable(oscillator, family))
    b = export(reachable(oscillator, family))
    assert a == b


def test_dot_annotated(elma):
    dot = export(reachable(elma, ALL), "gr")
    assert "gr: {a2,a4}" in dot


@pytest.mark.parametrize("token", ["a,b", "{c}", "x-y"])
def test_parse_bad_argument_name(token):
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_framework(f"arguments: a\narguments: {token}\n")
    assert excinfo.value.line == 2
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_framework(f"arguments: a\n\ninitial: a {token}\n")
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "line, message",
    [
        ("attack: a => b", "expected 'attack: x -> y' at line 3, column 1"),
        ("induce: a -> b", "expected 'induce: s => t' at line 3, column 1"),
        ("convert: a => b", "expected 'convert: s : g => t' at line 3, column 1"),
        ("attack: a, b", "expected 'attack: x -> y' at line 3, column 1"),
    ],
)
def test_parse_bad_relation_line_message(line, message):
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_framework(f"arguments: a b\n# relations\n{line}\n")
    assert str(excinfo.value) == message

import pytest

from apa.dot import export_dot
from apa.dynamics import ALL, SelectorFamily, reachable
from apa.errors import QuerySyntaxError, ValidationError
from apa.fileformat import parse_framework, print_framework
from apa.model import PersuasionAct
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


def test_dot_elma(elma):
    lts = reachable(elma, ALL)
    dot = export_dot(lts)
    assert dot.count("->") == 1  # one edge
    assert dot.count("label=\"{") == 2  # two state nodes
    assert "peripheries=2" in dot  # deadlock is double-circled


def test_dot_static(dung_ab):
    dot = export_dot(reachable(dung_ab, ALL))
    assert dot.count("label=\"{") == 1
    assert "->" not in dot.replace("rankdir", "")


def test_dot_oscillator(oscillator):
    dot = export_dot(reachable(oscillator, ALL))
    assert dot.count("label=\"{") == 7


def test_dot_deterministic(oscillator):
    family = SelectorFamily((frozenset(), frozenset({"a1"})))
    a = export_dot(reachable(oscillator, family))
    b = export_dot(reachable(oscillator, family))
    assert a == b


def test_dot_annotated(elma):
    dot = export_dot(reachable(elma, ALL), "gr")
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

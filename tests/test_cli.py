import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from apa.cli import main, parse_sigma_spec
from apa.dynamics import SelectorFamily, reachable
from apa.errors import ApaError
from apa.fileformat import print_framework
from apa.oracle import RandomInstanceSpec, random_framework

ELMA = """
arguments: a2 a3 a4 a5
initial: a2 a3 a4
attack: a2 -> a3
convert: a3 : a4 => a5
"""

QUERY_TRUE = """
set A1 = { a2, a5 }
formula: (in(a5,A1) & EF{A1} sem(ad,A1)) -> !in(a2,A1)
"""

QUERY_FALSE = "formula: AG{*} visible(a4)\n"
QUERY_BAD = "formula: (in(a5,\n"


@pytest.fixture
def elma_file(tmp_path):
    path = tmp_path / "elma.apa"
    path.write_text(ELMA)
    return str(path)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- --sigma parsing ---------------------------------------------------------


def test_sigma_spec_all():
    assert parse_sigma_spec("all").is_wildcard


def test_sigma_spec_literals():
    family = parse_sigma_spec("{a2},{},{a1,a3}")
    assert family == SelectorFamily(
        (frozenset({"a2"}), frozenset(), frozenset({"a1", "a3"}))
    )


def test_sigma_spec_garbage():
    with pytest.raises(ApaError):
        parse_sigma_spec("a2,a3")
    for spec in ("", ","):  # nothing but separators names no reference set
        with pytest.raises(ApaError) as exc:
            parse_sigma_spec(spec)
        assert str(exc.value) == f"bad --sigma value {spec!r}: no selectors"


# -- subcommands -------------------------------------------------------------


def test_states_all(elma_file):
    code, out, _ = run(["states", elma_file, "--sigma", "all"])
    assert code == 0
    assert out == (
        "{a2,a3,a4}  (initial)\n"
        "{a2,a3,a5}  (deadlock)\n"
    )
    # the console script's path: `main()` reads `sys.argv`
    proc = subprocess.run(
        [sys.executable, "-m", "apa.cli", "states", elma_file],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_states_blocked_selector(elma_file):
    code, out, _ = run(["states", elma_file, "--sigma", "{a2}"])
    assert code == 0
    assert out == "{a2,a3,a4}  (initial, deadlock)\n"


def test_states_json(elma_file):
    code, out, _ = run(["states", elma_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["states"][1] == {
        "visible": ["a2", "a3", "a5"],
        "initial": False,
        "deadlock": True,
    }


def test_transitions(elma_file):
    code, out, _ = run(["transitions", elma_file, "--sigma", "all"])
    assert code == 0
    assert out == "{a2,a3,a4} -[#0 *]-> {a2,a3,a5}\n"


def test_semantics_lists_extensions(elma_file):
    code, out, _ = run(
        ["semantics", elma_file, "--state", "a2,a3,a4", "--which", "ad"]
    )
    assert code == 0
    assert out == "{}\n{a2}\n{a2,a4}\n"
    # `--opt=value`, and options before the positional argument
    assert run(
        ["semantics", "--which=ad", "--state", "a2,a3,a4", elma_file]
    ) == (0, out, "")


def test_semantics_unknown_argument(elma_file):
    code, _, err = run(
        ["semantics", elma_file, "--state", "zz", "--which", "ad"]
    )
    assert code == 1
    assert err == "error: unknown arguments in --state: zz\n"
    code, out, err = run(
        ["semantics", elma_file, "--state", "zz2,a2 zz", "--which", "ad"]
    )
    assert code == 1 and out == ""
    assert err == "error: unknown arguments in --state: zz2, zz\n"  # as typed


def test_check_true(elma_file, tmp_path):
    q = tmp_path / "q.apa"
    q.write_text(QUERY_TRUE)
    code, out, _ = run(["check", elma_file, str(q)])
    assert code == 0
    assert out.splitlines()[0] == "true"


def test_check_false_exit_2(elma_file, tmp_path):
    q = tmp_path / "q.apa"
    q.write_text(QUERY_FALSE)
    code, out, _ = run(["check", elma_file, str(q)])
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "false"
    assert lines[1].startswith("counterexample prefix:")


def test_check_syntax_error_exit_1(elma_file, tmp_path):
    q = tmp_path / "bad.q"
    q.write_text(QUERY_BAD)
    code, _, err = run(["check", elma_file, str(q)])
    assert code == 1
    assert "error:" in err


def test_missing_file_exit_1(tmp_path):
    code, _, err = run(["states", str(tmp_path / "nope.apa")])
    assert code == 1
    assert "error:" in err


def test_dot_output(elma_file):
    code, out, _ = run(["dot", elma_file])
    assert code == 0
    assert out.startswith("digraph apa {")
    assert "peripheries=2" in out


def test_cli_deterministic(elma_file):
    runs = [run(["transitions", elma_file, "--sigma", "{},{a2}"]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_bound_override(tmp_path):
    path = tmp_path / "wide.apa"
    args = " ".join(f"a{i}" for i in range(8))
    lines = [f"arguments: {args}", "initial: a0"]
    lines += [f"induce: a0 => a{j}" for j in range(8)]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["states", str(path), "--max-states", "4"])
    assert code == 1 and "error:" in err
    code, out, _ = run(["states", str(path)])
    assert code == 0 and len(out.splitlines()) == 128


def _wide(initial, hidden, acts):
    return (
        f"arguments: {' '.join(initial + hidden)}\n"
        f"initial: {' '.join(initial)}\n" + "".join(a + "\n" for a in acts)
    )


@pytest.mark.parametrize(
    "text",
    [
        _wide(["s"], [f"t{i}" for i in range(40)],
              [f"induce: s => t{i}" for i in range(40)]),
        _wide(["s"] + [f"g{i}" for i in range(40)], ["t"],
              [f"convert: s : g{i} => t" for i in range(40)]),
        _wide(["s"] + [f"g{i}" for i in range(40)], ["t"],
              [f"convert: s : g{i} => t" for i in range(40)]
              + [f"induce: s => g{i}" for i in range(40)]),
    ],
    ids=["fan-out", "shared-target", "re-added-triggers"],
)
def test_bound_checked_before_successor_product(tmp_path, text):
    # the initial state has about 2^40 distinct successors: the bound is
    # met while they are counted, long before they could all be built;
    # with the induces, subsets that re-add a trigger leave the state as
    # it was, and must not multiply the pairs the fold keeps
    path = tmp_path / "wide.apa"
    path.write_text(text)
    start = time.perf_counter()
    result = run(["states", str(path)])
    assert time.perf_counter() - start < 2.0
    assert result == (1, "", "error: reachable state count exceeds 4096\n")


# -- error paths -------------------------------------------------------------


def test_non_utf8_files_exit_1(elma_file, tmp_path):
    bad = tmp_path / "latin1.apa"
    bad.write_bytes(b"arguments: caf\xe9\n")
    code, _, err = run(["states", str(bad)])
    assert code == 1 and err.startswith("error:") and "UTF-8" in err
    q = tmp_path / "latin1.q"
    q.write_bytes(b"formula: visible(caf\xe9)\n")
    code, _, err = run(["check", elma_file, str(q)])
    assert code == 1 and err.startswith("error:") and "UTF-8" in err


def test_nul_in_a_path_exits_1(elma_file):
    """`open` rejects a path with a NUL byte by `ValueError`, not
    `OSError`; only a caller of `main(argv)` can pass one."""
    assert run(["states", "a\x00b"]) \
        == (1, "", "error: 'a\\x00b': embedded null byte\n")
    code, out, err = run(["check", elma_file, "q\x00"])
    assert (code, out) == (1, "") and err.startswith("error: 'q\\x00': ")


def test_max_states_counts_initial_state(tmp_path):
    # the initial state is a deadlock, so no successor ever meets the bound
    path = tmp_path / "static.apa"
    path.write_text("arguments: a\ninitial: a\n")
    code, out, err = run(["states", str(path), "--max-states", "0"])
    assert (code, out) == (1, "")
    assert err == "error: reachable state count exceeds 0\n"
    assert run(["states", str(path), "--max-states", "1"]) == (
        0, "{a}  (initial, deadlock)\n", ""
    )


@pytest.mark.parametrize(
    "text",
    [ELMA, "arguments: s t u\ninitial: s t\ninduce: s => t\ninduce: s => u\n"]
    + [print_framework(random_framework(spec)) for spec in (
        RandomInstanceSpec(5, 0.2, 2, 2, seed=40003),
        RandomInstanceSpec(6, 0.2, 4, 4, seed=8),  # 12 states, all successors of one
        RandomInstanceSpec(6, 0.2, 4, 4, seed=29),
    )],
    ids=["elma", "idle-induce", "seed-40003", "seed-8", "seed-29"],
)
def test_max_states_at_the_reachable_count(tmp_path, text):
    """With N states reachable, `--max-states N` prints what the unbounded
    run prints, and `--max-states N-1` fails, whichever fold or state
    count meets the bound first."""
    path = tmp_path / "fw.apa"
    path.write_text(text)
    code, out, err = run(["states", str(path)])
    n = len(out.splitlines())
    assert (code, err) == (0, "") and n > 1
    assert run(["states", str(path), "--max-states", str(n)]) == (0, out, "")
    assert run(["states", str(path), "--max-states", str(n - 1)]) == (
        1, "", f"error: reachable state count exceeds {n - 1}\n"
    )


def test_check_literal_does_not_capture_declared_set(tmp_path):
    fw = tmp_path / "ab.apa"
    fw.write_text("arguments: a b\ninitial: a b\n")
    q = tmp_path / "q.q"
    q.write_text("set _s0 = {a}\nformula: in(a, {b}) | in(a, _s0)\n")
    assert run(["check", str(fw), str(q)]) == (0, "true\n", "")


def _src_env():
    root = Path(__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def test_cli_import_leaves_query_engine_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import apa.cli, sys; print('apa.ctl' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_package_import_leaves_dataclasses_unloaded():
    """Each CLI call is a fresh process: the package's records are
    NamedTuples and plain classes, so importing it never loads
    `dataclasses` (and what that imports), and no output loads `json`.
    `-S` keeps site-packages out."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import apa.cli, apa.ctl, sys; "
         "print([m for m in ('dataclasses', 'json') if m in sys.modules])"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "[]\n", proc.stderr


#: Runs `apa` as the console script does, then prints the modules loaded.
_LOADED = """\
import sys
from apa.cli import main
code = main()
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("apa", "argparse", "json")))
sys.exit(code)
"""
_BASE = ["apa", "apa.cli", "apa.errors", "apa.fileformat", "apa.model"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["states", "--json"], ["apa.dynamics"]),
        (["transitions", "--json"], ["apa.dynamics"]),
        (["transitions"], ["apa.dot", "apa.dynamics"]),
        (["semantics", "--state", "a2,a3,a4", "--which", "co", "--json"],
         ["apa.semantics"]),
        (["check", "QUERY", "--json"],
         ["apa.ctl", "apa.dynamics", "apa.semantics"]),
        (["dot"], ["apa.dot", "apa.dynamics"]),
        (["dot", "--annotate", "gr"],
         ["apa.dot", "apa.dynamics", "apa.semantics"]),
    ],
    ids=["states", "transitions-json", "transitions", "semantics", "check",
         "dot", "dot-annotate"],
)
def test_each_command_loads_only_what_it_runs(argv, loaded, elma_file,
                                              tmp_path):
    """A command loads the engine modules it runs and no others, and no
    command loads `argparse` or `json`. `-S` keeps site-packages out."""
    q = tmp_path / "q.q"
    q.write_text(QUERY_TRUE)
    argv = [argv[0], elma_file] + [str(q) if a == "QUERY" else a
                                    for a in argv[1:]]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED, *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(sorted(_BASE + loaded))


@pytest.mark.parametrize(
    "argv",
    [
        ["states", "--max-states", "-1"],
        ["check", "--max-states", "-1"],
        ["semantics", "--state", "a2", "--which", "ad", "--max-args", "-1"],
        ["check", "--max-args", "-5"],
    ],
)
def test_negative_bounds_rejected(argv, elma_file, tmp_path):
    if argv[0] == "check":
        q = tmp_path / "q.q"
        q.write_text(QUERY_TRUE)
        argv = [argv[0], elma_file, str(q)] + argv[1:]
    else:
        argv = [argv[0], elma_file] + argv[1:]
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --max-") and "negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["states", "--max-args", "3"],
        ["transitions", "--max-args", "3"],
        ["dot", "--max-args", "3"],
        ["dot", "--json"],
        ["semantics", "--max-states", "1", "--state", "a2", "--which", "ad"],
    ],
    ids=["states", "transitions", "dot", "dot-json", "semantics-max-states"],
)
def test_max_args_only_where_extensions_are_enumerated(argv, elma_file):
    """A flag is registered only where it acts: `--max-args` where
    extensions are enumerated, `--json` where a JSON document is printed,
    `--max-states` where the state space is built."""
    code, out, err = run([argv[0], elma_file, *argv[1:]])
    assert code == 1 and out == ""
    assert err.startswith("error:") and argv[1] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["states", "ELMA", "--max-states", "abc"],
        ["semantics", "ELMA", "--state", "a2", "--which", "xx"],
        ["bogus"],
        [],
        ["states", "ELMA", "--max-states=abc"],
        ["semantics", "--which=xx", "--state=a2", "ELMA"],
        ["semantics", "--state", "a2", "ELMA"],  # no --which
        ["semantics", "ELMA", "--which", "ad"],  # no --state
        ["check", "ELMA", "--json"],  # no query file
        ["states", "ELMA", "ELMA"],
        ["states"],
        ["check", "--json", "ELMA", "ELMA", "ELMA"],
        ["states", "ELMA", "--json=1"],
        ["states", "ELMA", "--max-states"],
        ["states", "ELMA", "--max-s", "9"],  # no abbreviations
    ],
)
def test_usage_errors_exit_1(argv, elma_file):
    argv = [elma_file if a == "ELMA" else a for a in argv]
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_help_exits_0():
    for argv in (["--help"], ["-h"], ["states", "--help"], ["dot", "-h"],
                 ["transitions", "--help"], ["check", "x", "--help"],
                 ["semantics", "--help", "--which", "xx"]):
        code, out, err = run(argv)
        assert (code, err) == (0, ""), argv
        want = "usage: apa " + (argv[0] if argv[0][0] != "-" else "{")
        assert out.startswith(want), (argv, out)


def test_main_writes_to_the_streams_current_at_the_call(elma_file):
    """Without `out` and `err`, `main` prints to `sys.stdout` and
    `sys.stderr` as they are when it is called, so `redirect_stdout` and
    `redirect_stderr` capture its usage text, its output and its errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = (
            main(["--help"]),
            main(["states", elma_file]),
            main(["states", elma_file + ".missing"]),
        )
    assert codes == (0, 0, 1)
    assert out.getvalue() == run(["--help"])[1] + run(["states", elma_file])[1]
    assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("command", ["states", "transitions", "dot"])
def test_sigma_unknown_argument(command, elma_file):
    code, out, err = run([command, elma_file, "--sigma", "{a2},{zz}"])
    assert code == 1 and out == ""
    assert err == "error: unknown arguments in --sigma: zz\n"


@pytest.fixture
def wide_file(tmp_path):
    """25 visible arguments, no attacks and no acts: one state, more
    visible arguments than the default enumeration bound."""
    names = " ".join(f"a{i}" for i in range(25))
    path = tmp_path / "wide.apa"
    path.write_text(f"arguments: {names}\ninitial: {names}\n")
    return str(path)


def test_grounded_is_not_bounded_by_max_args(wide_file, tmp_path):
    names = ",".join(f"a{i}" for i in range(25))
    q = tmp_path / "q.q"
    q.write_text(f"formula: sem(gr, {{a0}}) | EF{{*}} sem(gr, {{{names}}})\n")
    code, out, err = run(["check", wide_file, str(q)])
    assert (code, out, err) == (0, "true\n", "")
    code, out, _ = run(["semantics", wide_file, "--state", names, "--which", "gr"])
    assert (code, out) == (0, f"{{{names}}}\n")


def test_admissible_listing_still_bounded(wide_file):
    names = ",".join(f"a{i}" for i in range(25))
    code, out, err = run(["semantics", wide_file, "--state", names, "--which", "ad"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "bound of 20" in err


def test_benchmark_trace_hooks_resolve(elma_file, tmp_path):
    """The benchmark's traced run wraps functions by name; a renamed hook,
    reachability that no longer expands states through the wrapped
    `successor_states`, or admissibility that no longer calls the counted
    `is_defended`, must fail here rather than in a benchmark run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def traced(*argv):
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "apa_traced.py"),
             str(spans), "--", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode in (0, 2), proc.stderr
        return proc.stdout, json.loads(spans.read_text())

    # {a2, a4} is admissible at the initial state, so the counted
    # `is_defended` must be reached
    q = tmp_path / "q.q"
    q.write_text("set S = { a2, a4 }\nformula: EF{*} sem(ad,S)\n")
    _, dump = traced("check", elma_file, str(q))
    names = {span[1] for span in dump["spans"]}
    assert "ctl.check" in names
    assert any(n.startswith("semantics.holds.") for n in names), names
    assert dump["count"]["semantics.admissible_found"] > 0

    _, dump = traced(
        "semantics", elma_file, "--state", "a2,a3,a4", "--which", "co"
    )
    names = [span[1] for span in dump["spans"]]
    assert names.count("semantics.extensions.co") == 1, names

    # one wildcard selector: every listed state is expanded once, inside
    # the one `reachable` call
    out, dump = traced("states", elma_file)
    spans = dump["spans"]
    name = {span[0]: span[1] for span in spans}
    (reach,) = [i for i, n in name.items() if n == "dynamics.reachable"]
    expansions = [s for s in spans if s[1] == "dynamics.successor_states"]
    assert len(expansions) == len(out.splitlines()) == 2
    assert all(s[4] == reach for s in expansions)


# -- transitions --json, written edge by edge ---------------------------------


def _edges_doc(fw, lts):
    """The `transitions --json` document, built whole from `lts.edges`."""
    members = {s: list(fw.sort_args(s.visible)) for s in lts.states}
    return {
        "edges": [
            {
                "from": members[src],
                "selector": sel,
                "refset": (
                    None
                    if lts.family.is_wildcard
                    else list(fw.sort_args(lts.family.effective[sel]))
                ),
                "to": members[dst],
            }
            for src, sel, dst in lts.edges
        ]
    }


_STREAMED_FRAMEWORKS = [
    # the c03 and c07 sweep sizes, then the two explore benchmark rungs
    *(RandomInstanceSpec(2 + seed % 5, 0.3, 1, 2, seed=seed)
      for seed in range(0, 500, 10)),
    *(RandomInstanceSpec(2 + seed % 5, 0.2, 2, 2, seed=40000 + seed)
      for seed in range(0, 300, 6)),
    RandomInstanceSpec(12, 0.15, 6, 6, seed=85),
    RandomInstanceSpec(14, 0.15, 8, 8, seed=164),
]


@pytest.mark.parametrize("spec", ["all", "{a1,a2},{}", "{a1},{a1}"])
def test_transitions_json_streams_the_canonical_document(spec, tmp_path):
    path = tmp_path / "fw.apa"
    for instance in _STREAMED_FRAMEWORKS:
        fw = random_framework(instance)
        path.write_text(print_framework(fw))
        lts = reachable(fw, parse_sigma_spec(spec))
        want = json.dumps(_edges_doc(fw, lts), sort_keys=True) + "\n"
        assert run(["transitions", str(path), "--sigma", spec, "--json"]) \
            == (0, want, ""), instance


def test_json_documents_are_canonical(tmp_path):
    """Every `--json` document is the text `json.dumps(doc, sort_keys=True)`
    gives for it, though `cli` writes it without the `json` module."""
    path = tmp_path / "fw.apa"
    q = tmp_path / "q.q"
    rng = random.Random(7)
    for seed in range(0, 300, 10):
        spec = RandomInstanceSpec(2 + seed % 5, 0.3, 1, 2, seed=seed)
        fw = random_framework(spec)
        path.write_text(print_framework(fw))
        states = reachable(fw).states
        argvs = [["states", "--json"], ["transitions", "--json"],
                 ["transitions", "--json", "--sigma", "{a1},{}"]]
        for label in ("ad", "co", "pr", "st", "gr"):
            state = ",".join(rng.choice(states).visible) or ","
            argvs.append(["semantics", "--json", "--which", label,
                          "--state", state])
        for formula in ("EF{*} visible(a1)", "AG{*} visible(a1)",
                        "EG{{a2}} !visible(a2)", "in(a1, {a1})"):
            q.write_text(f"formula: {formula}\n")
            argvs.append(["check", "--json", str(q)])
        for argv in argvs:
            code, out, err = run([argv[0], str(path), *argv[1:]])
            assert code in (0, 2) and err == "", (seed, argv, err)
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_transitions_json_without_edges(tmp_path):
    path = tmp_path / "still.apa"
    path.write_text("arguments: a b\ninitial: a\nattack: a -> b\n")
    assert run(["transitions", str(path), "--json"]) \
        == (0, '{"edges": []}\n', "")


class _HashingSink:
    """A text stream that keeps only the sha1 of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha1()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


def test_transitions_json_memory_stays_near_the_lts(tmp_path):
    # the larger explore rung: 152 states and 2,246 edges; the document
    # built whole peaked at 3.9 MB, written edge by edge at 0.3 MB
    path = tmp_path / "large.apa"
    fw = random_framework(RandomInstanceSpec(14, 0.15, 8, 8, seed=164))
    path.write_text(print_framework(fw))
    argv = ["transitions", str(path), "--json"]
    warm = _HashingSink()
    assert main(argv, out=warm) == 0  # fills the process-wide caches
    sink = _HashingSink()
    tracemalloc.start()
    try:
        assert main(argv, out=sink) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == warm.digest.hexdigest()
    assert peak < 1 << 20, peak


# -- a seeded argv corpus ------------------------------------------------------

_CORPUS_FRAMEWORK = """\
arguments: a1 a2 a3 a4
initial: a1 a2
attack: a1 -> a2
attack: a3 -> a1
induce: a1 => a3
convert: a2 : a1 => a4
"""

_CORPUS_FILES = {
    "fw.apa": _CORPUS_FRAMEWORK,
    "true.q": "formula: EF{*} visible(a3)\n",
    "false.q": "set S = {a2}\nformula: AG{S,{}} visible(a1)\n",
    "bad.q": "formula: EF{*} (visible(a1)\n",
}

#: Every command, every option in both forms, good and bad values, file
#: names that exist and one that does not, and words no parser expects.
_CORPUS_WORDS = [
    "states", "transitions", "semantics", "check", "dot",
    "--sigma", "--sigma=all", "--sigma={a2},{}", "--json", "--json=1",
    "--max-states", "--max-states=2", "--max-args", "--max-args=1",
    "--state", "--state=a1,a2", "--which", "--which=co",
    "--annotate", "--annotate=gr", "--help", "-h",
    "all", "{a2},{}", "{a3}", "{zz}", "a1", "a1,a2", "a2 a4", "zz",
    "ad", "co", "pr", "st", "gr", "xx", "0", "1", "9", "-1", "abc",
    *_CORPUS_FILES, "nope.apa", "", "=", "-", "é", "\x00",
]


def _corpus(rng, count):
    """`count` argvs: mostly a command, the framework file (and for
    `check`, a query file) and a few drawn words, so that some calls get
    past the parser."""
    queries = [name for name in _CORPUS_FILES if name.endswith(".q")]
    for _ in range(count):
        argv = rng.choices(_CORPUS_WORDS, k=rng.randint(0, 5))
        if rng.random() < 0.8:
            argv.insert(0, rng.choice(_CORPUS_WORDS[:5]))
        if argv and rng.random() < 0.7:
            files = ["fw.apa"]
            if argv[0] == "check":
                files.append(rng.choice(queries))
            at = rng.randint(1, len(argv))
            argv[at:at] = files
        yield argv


def test_seeded_argv_corpus(tmp_path, monkeypatch):
    """About 2,000 drawn argvs: each call returns 0, 1 or 2 and raises
    nothing, and what the calls without a NUL print is pinned."""
    monkeypatch.chdir(tmp_path)
    for name, text in _CORPUS_FILES.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    codes = []
    for argv in _corpus(random.Random(2024), 2000):
        code, out, err = run(argv)
        assert code in (0, 1, 2), argv
        codes.append(code)
        if not any("\x00" in word for word in argv):
            digest.update(repr((argv, code, out, err)).encode())
    assert set(codes) == {0, 1, 2}
    assert digest.hexdigest() == (
        "6b107392f8cd1b8ec21308d2ce462c2164e864beaefb5b1608e733a9e168156d"
    )


# -- outputs walk the successor tables -----------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["states"], ["transitions"], ["transitions", "--json"], ["dot"],
     ["dot", "--annotate", "gr"]],
    ids=["states", "transitions", "transitions-json", "dot", "dot-annotate"],
)
def test_no_output_command_keeps_the_edges(argv, elma_file, monkeypatch):
    """Every output reads the edges from `LTS.walk()`, so the LTS a
    command built never caches its `edges` tuple."""
    built = []

    def capture(*args, **kwargs):
        built.append(reachable(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("apa.dynamics.reachable", capture)
    code, out, err = run([argv[0], elma_file, *argv[1:]])
    assert (code, err) == (0, "") and out
    (lts,) = built
    assert "edges" not in vars(lts)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_transitions_memory_stays_near_the_lts(json_flag, tmp_path):
    # ten induces from one source: 1,024 states and 59,048 edges; with the
    # edges kept as a tuple, either form peaked at 4.3 MB, walking the
    # tables at 0.25 MB
    path = tmp_path / "fan.apa"
    path.write_text(_wide(["s"], [f"t{i}" for i in range(10)],
                          [f"induce: s => t{i}" for i in range(10)]))
    argv = ["transitions", str(path), *json_flag]
    warm = _HashingSink()
    assert main(argv, out=warm) == 0  # fills the process-wide caches
    sink = _HashingSink()
    tracemalloc.start()
    try:
        assert main(argv, out=sink) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == warm.digest.hexdigest()
    assert peak < 1 << 20, peak

"""The README is the contract: its library example runs, its example files
parse and check, and every `apa` line of its CLI block succeeds on them.
Every public definition of the package has a caller outside the tests."""

import ast
import io
import re
import shlex
from pathlib import Path

import apa
from apa import ctl
from apa.cli import main
from apa.fileformat import parse_framework

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
#: The package's modules, `oracle` aside: it restates the definitions for
#: the tests, so it neither counts as a caller nor needs one.
MODULES = sorted(
    p for p in (ROOT / "src" / "apa").glob("*.py") if p.name != "oracle.py"
)


def section(title):
    """The text of the README section `## <title>`, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text, lang=""):
    """The fenced code blocks of `text` opened with ```<lang>."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def example_files():
    """The framework and query examples of "File formats", in that order."""
    framework_text, query_text = blocks(section("File formats"))
    return framework_text, query_text


def test_library_example_runs():
    (code,) = blocks(section("Library"), "python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].value is True


def test_file_format_examples_parse_and_check():
    framework_text, query_text = example_files()
    fw = parse_framework(framework_text)
    result = ctl.check(fw, ctl.parse_query(query_text))
    assert isinstance(result.value, bool)


def test_cli_examples_run(tmp_path, monkeypatch):
    framework_text, query_text = example_files()
    (tmp_path / "model.apa").write_text(framework_text)
    (tmp_path / "query.q").write_text(query_text)
    monkeypatch.chdir(tmp_path)
    (commands,) = blocks(section("CLI"), "sh")
    lines = [line for line in commands.splitlines() if line.startswith("apa ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if ">" in argv:  # the output redirection is the shell's business
            argv = argv[: argv.index(">")]
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        allowed = (0, 2) if argv[0] == "check" else (0,)
        assert code in allowed, (line, err.getvalue())
        assert out.getvalue(), line


def used_names(source):
    """Every name and imported name that `source` mentions, and every
    attribute read from a name that `source` imports, such as
    `ctl.parse_query` after `from apa import ctl`. Other attributes, such
    as a method called on an object, do not count."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_used_names_counts_attributes_of_imports_only():
    """A method of the same name is no caller of a module-level def."""
    method = "from apa import ctl\n_Parser(text).parse_query()\n"
    assert "parse_query" not in used_names(method)
    assert "parse_query" in used_names(method + "ctl.parse_query(text)\n")
    assert "main" in used_names("import apa.cli\napa.cli.main()\n")


def test_every_public_definition_has_a_product_caller():
    """No helper that only a test calls: each public module-level def or
    class of the package is used by the package, the benchmark, the
    README's library example or `apa.__all__`."""
    benchmark = sorted((ROOT / "perfbench").glob("*.py"))
    sources = [p.read_text() for p in [*MODULES, *benchmark]]
    sources += blocks(section("Library"), "python")
    used = set(apa.__all__).union(*map(used_names, sources))
    unused = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"no caller outside the tests: {unused}"


def test_process_wide_caches_are_the_benchmark_hooks_only():
    """What a framework derives is kept on the framework and dies with it.
    The only process-wide caches are the four `lru_cache`s whose
    `cache_info()` the benchmark's tracer reads."""
    cached = {
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(re.search(r"\b(lru_)?cache\b", ast.unparse(d))
                for d in node.decorator_list)
    }
    assert cached == {
        "successor_states", "is_admissible", "is_complete", "complete_sets",
    }

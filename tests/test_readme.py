"""The README is the contract: its library example runs, its example files
parse and check, and every `apa` line of its CLI block succeeds on them."""

import io
import re
import shlex
from pathlib import Path

from apa import ctl
from apa.cli import main
from apa.fileformat import parse_framework

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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

"""The README's examples run as written: the "Library surface" block, and
every `qsum` line of the "Command line" block on the first equation of
"Equation files"."""

import pathlib
import re
import shlex

from qsum.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(heading):
    """The fenced code blocks of one `## heading` section, in order."""
    section = README.split("\n## " + heading + "\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```[a-z]*\n(.*?)^```$", section, re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_blocks("Library surface")[0], "README.md", "exec"), {})

    (tmp_path / "euler.qde").write_text(_blocks("Equation files")[0].split("\n")[0] + "\n",
                                        encoding="utf-8")
    commands = [shlex.split(line, comments=True) for line in _blocks("Command line")[0].splitlines()
                if line.startswith("qsum ")]
    assert len(commands) == 11
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    assert all((tmp_path / name).stat().st_size > 0
               for name in ("poly.csv", "out.json", "norms.csv", "en.csv"))

"""The README's command block, run verbatim.

Every `qf` line of the README's command block runs through
`qflat.cli.main` from the repository root and must exit 0, or the code N
that a comment starting `exits N:` states.  A comment that states a
value is checked against stdout: a bare value is the whole output,
`ends "X"` is the last line, and `lhs N` is the exact average count that
`mass-check` prints first.
"""

import contextlib
import io
import pathlib
import re
import shlex

from qflat.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("qf ")]
    return [(shlex.split(cmd)[1:], comment.strip())
            for cmd, _, comment in (line.partition("#") for line in lines)]


def expected(comment):
    """(which line, value) stated by a comment, or None."""
    if re.fullmatch(r"-?\d+", comment):
        return "all", comment
    if m := re.search(r'ends "(.*)"', comment):
        return "last", m.group(1)
    if m := re.match(r"lhs (\d+)", comment):
        return "first", f"average representation count: {m.group(1)}"
    return None


def test_readme_commands_run_verbatim(monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = readme_commands()
    assert len(commands) == 7
    checked, codes = [], []
    for argv, comment in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        stated = re.match(r"exits (\d+):", comment)
        assert code == (int(stated.group(1)) if stated else 0), argv
        codes.append(code)
        want = expected(comment)
        if want is None:
            continue
        which, value = want
        got = out.getvalue().strip()
        lines = got.splitlines()
        got = {"all": got, "last": lines[-1], "first": lines[0]}[which]
        assert got == value, argv
        checked.append(value)
    assert checked == ["240", "696729600", "0", "s >= 28",
                       "average representation count: 240"]
    assert codes == [0, 0, 0, 0, 1, 0, 0]

"""Golden CLI output: stdout and exit code of every subcommand, pinned.

Each case runs `qflat.cli.main` in-process, in text mode and with
--json, and compares stdout and the exit code against
`tests/golden_cli.json`.  stderr is not compared, so error messages may
be reworded without touching the file.  A change that alters stdout on
purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change notes.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from qflat.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# fixed forms written next to the demos; keys are file names
FORMS = {
    # odd-p Jordan structure at 3: a folded unit pair, 3- and 9-blocks
    "jordan3.qf": "4\n3 1 0 0\n1 3 0 0\n0 0 9 3\n0 0 3 18\n",
    # odd determinant, dimension 5: blocks plus a remainder at p = 2
    "split5.qf": "5\n0 1 0 0 0\n1 0 0 0 0\n0 0 1 0 0\n0 0 0 3 1\n0 0 0 1 2\n",
    # non-unimodular with a square factor: 9 divides an invariant factor
    "sat.qf": "3\n2 1 0\n1 5 0\n0 0 18\n",
    "d45.qf": "2\n4 1\n1 5\n",
    "a2z.qf": "3\n2 1 0\n1 2 0\n0 0 1\n",
    # Lorentzian U + <2>, its hyperboloid block U and tail <2>
    "u22.qf": "3\n0 1 0\n1 0 0\n0 0 2\n",
    "t2.qf": "1\n2\n",
}

CASES = [
    ["enumerate", "--form", "{demos}/e8.qf", "--norm", "2", "--count"],
    ["enumerate", "--form", "{forms}/d45.qf", "--norm", "9"],
    ["enumerate", "--form", "{forms}/a2z.qf", "--norm", "3"],
    ["enumerate", "--form", "{demos}/h.qf", "--norm", "1"],
    ["density", "--form", "{demos}/h.qf", "--p", "2", "--m", "3"],
    ["density", "--form", "{demos}/h.qf", "--p", "2", "--m", "8", "--kmax", "8"],
    ["density", "--form", "{forms}/a2z.qf", "--p", "2", "--m", "6"],
    ["density", "--form", "{forms}/split5.qf", "--p", "2", "--m", "4"],
    ["density", "--form", "{forms}/jordan3.qf", "--p", "3", "--m", "9"],
    ["density", "--form", "{forms}/jordan3.qf", "--p", "5", "--m", "2"],
    ["density", "--form", "{forms}/a2z.qf", "--p", "3", "--m", "3"],
    ["infdensity", "--n", "4", "--disc", "1", "--m", "8"],
    ["infdensity", "--n", "41", "--disc", "2", "--m", "7/3",
     "--precision", "64"],
    ["jordan", "--form", "{forms}/jordan3.qf", "--p", "3"],
    ["jordan", "--form", "{forms}/d45.qf", "--p", "19", "--k", "4"],
    ["jordan", "--form", "{forms}/sat.qf", "--p", "3"],
    ["split2", "--form", "{demos}/h.qf"],
    ["split2", "--form", "{forms}/split5.qf", "--k", "6"],
    ["saturate", "--form", "{forms}/sat.qf"],
    ["saturate", "--form", "{forms}/d45.qf"],
    ["dual", "--form", "{forms}/sat.qf"],
    ["factors", "--form", "{forms}/sat.qf"],
    ["reflect", "--form", "{forms}/u22.qf", "--root", "0,0,1",
     "--vector", "1,2,3"],
    ["reflect", "--form", "{forms}/u22.qf", "--root", "1,-1,0",
     "--vector", "2,5,-1"],
    ["classify-root", "--form", "{forms}/u22.qf", "--vector", "1,0,0"],
    ["classify-root", "--form", "{forms}/u22.qf", "--vector", "1,-1,0"],
    ["classify-root", "--form", "{forms}/u22.qf", "--vector", "0,0,1"],
    ["classify-root", "--form", "{forms}/u22.qf", "--vector", "1,1,1"],
    ["complement", "--form", "{forms}/u22.qf", "--vector", "0,0,1"],
    ["complement", "--form", "{forms}/u22.qf", "--vector", "1,-1,0"],
    ["meet", "--form", "{forms}/u22.qf", "--q", "{demos}/h.qf",
     "--t", "{forms}/t2.qf", "--vector", "0,0,1"],
    ["meet", "--form", "{forms}/u22.qf", "--q", "{demos}/h.qf",
     "--t", "{forms}/t2.qf", "--vector", "1,1,0"],
    ["mass-check", "--form", "{demos}/e8.qf", "--m", "2"],
    ["mass-check", "--form", "{demos}/e8.qf", "--m", "4", "--primes", "500",
     "--order", "696729600"],
    ["ledger41"],
    ["prop41"],
    ["prop41", "--ct", "1/2"],
    ["pingpong", "--g1", "{demos}/g1.json", "--g2", "{demos}/g2.json"],
    ["pingpong", "--g1", "{demos}/g1.json", "--g2", "{demos}/g1.json"],
    ["autord", "--form", "{demos}/e8.qf"],
    ["autord", "--form", "{forms}/a2z.qf"],
    ["autord", "--form", "{demos}/h.qf"],
]


def _argv(case, forms_dir, json_mode):
    argv = [a.format(demos=ROOT / "demos", forms=forms_dir) for a in case]
    return argv + ["--json"] if json_mode else argv


def _key(case, json_mode):
    return " ".join(case) + (" --json" if json_mode else "")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _write_forms(forms_dir):
    for name, text in FORMS.items():
        (forms_dir / name).write_text(text)


def _record(forms_dir):
    _write_forms(forms_dir)
    return {_key(case, j): _run(_argv(case, forms_dir, j))
            for case in CASES for j in (False, True)}


@pytest.fixture(scope="module")
def forms_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _write_forms(d)
    return d


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand(golden):
    names = {case[0] for case in CASES}
    assert len(names) == 17
    assert set(golden) == {_key(c, j) for c in CASES for j in (False, True)}


def test_exit_1_exactly_on_pass_false(golden):
    checked = 0
    for key, got in golden.items():
        if key.endswith(" --json") and got["exit"] in (0, 1):
            doc = json.loads(got["stdout"])
            assert (got["exit"] == 1) == (doc.get("pass") is False), key
            checked += 1
    assert checked >= 35


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", CASES, ids=[" ".join(c) for c in CASES])
def test_golden_output(case, json_mode, forms_dir, golden, monkeypatch):
    monkeypatch.delenv("QF_PRECISION_BITS", raising=False)
    got = _run(_argv(case, forms_dir, json_mode))
    assert got == golden[_key(case, json_mode)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _record(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.exit(0)

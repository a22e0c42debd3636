"""Command-line behavior: outputs, exit codes, JSON determinism."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.cli import main
from qflat.exact import content, determinant, mat_vec, primitive_part
from qflat.gram import GramForm, e8_form, identity_form, parse_gram_text

H = GramForm(((0, 1), (1, 0)))
U22 = GramForm(((0, 1, 0), (1, 0, 0), (0, 0, 2)))


@pytest.fixture(scope="module")
def forms(tmp_path_factory):
    d = tmp_path_factory.mktemp("forms")
    paths = {}
    for name, form in [
        ("e8", e8_form()),
        ("h", H),
        ("u22", U22),
        ("t1", GramForm(((1,),))),
        ("t2", GramForm(((2,),))),
        ("d45", GramForm(((4, 1), (1, 5)))),
        ("odd3", GramForm(((2, 1, 0), (1, 4, 1), (0, 1, 6)))),
        ("z4", identity_form(4)),
        ("z9", identity_form(9)),
    ]:
        p = d / f"{name}.qf"
        p.write_text(form.text())
        paths[name] = str(p)
    for name, mat in [("g1", [[2, 1], [1, 1]]), ("g2", [[1, 1], [1, 2]]),
                      ("g3", [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
                      ("grot", [[0, -1], [1, 0]]),
                      ("g29", [[2.9, 1], [1, 1]]),
                      ("ginf", [[float("inf"), 1], [1, 1]]),
                      ("gstr", [["2", 1], [1, 1]]),
                      ("gbool", [[True, 1], [1, 1]])]:
        p = d / f"{name}.json"
        p.write_text(json.dumps({"matrix": mat}))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# worked examples


def test_enumerate_count_e8(forms, capsys):
    code, out, _ = run(capsys, "enumerate", "--form", forms["e8"],
                       "--norm", "2", "--count")
    assert code == 0
    assert out.strip() == "240"


def test_density_odd_m_is_zero(forms, capsys):
    code, out, _ = run(capsys, "density", "--form", forms["h"],
                       "--p", "2", "--m", "3")
    assert code == 0
    assert out.strip() == "0"


def test_density_at_a_high_two_power(forms, capsys):
    # the density of 2xy at 2^j is j; level k0 = 13 is within --kmax
    for cap in ([], ["--kmax", "30"]):
        code, out, _ = run(capsys, "density", "--form", forms["h"],
                           "--p", "2", "--m", "1024", *cap)
        assert code == 0
        assert out.strip() == "10"


def test_density_at_two_to_the_forty(forms, capsys):
    # level k0 = 43 is reached by the reduction, with no residue table
    code, out, err = run(capsys, "density", "--form", forms["h"],
                         "--p", "2", "--m", str(2 ** 40))
    assert code == 0 and err == ""
    assert out.strip() == "40"


def test_prop41_defaults(forms, capsys):
    code, out, _ = run(capsys, "prop41")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "s >= 28"
    assert any("10968923" in line for line in lines) or \
        any("1566989" in line for line in lines)


def test_pingpong_certificate(forms, capsys):
    code, out, _ = run(capsys, "pingpong", "--g1", forms["g1"],
                       "--g2", forms["g2"])
    assert code == 0
    assert "free for m = 3" in out
    assert "1456 reduced words" in out


# ---------------------------------------------------------------------------
# JSON mode


def test_json_single_document_and_deterministic(forms, capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "density", "--form", forms["h"],
                           "--p", "2", "--m", "4", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["value"] == "2"
    assert doc["p"] == 2 and doc["m"] == 4


def test_enumerate_json_has_form_hash(forms, capsys):
    code, out, _ = run(capsys, "enumerate", "--form", forms["e8"],
                       "--norm", "2", "--count", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 240 and doc["m"] == 2
    assert isinstance(doc["form_hash"], str) and doc["form_hash"]


def test_pingpong_json(forms, capsys):
    code, out, _ = run(capsys, "pingpong", "--g1", forms["g1"],
                       "--g2", forms["g2"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["m"] == 3
    assert doc["word_audit"] == {"checked": 1456, "pass": True}
    assert doc["base"] == ["1", "1", "1"]
    assert [n["label"] for n in doc["normals"]] == ["g1+", "g1-", "g2+", "g2-"]


def test_mass_check_json(forms, capsys):
    code, out, _ = run(capsys, "mass-check", "--form", forms["e8"],
                       "--m", "2", "--primes", "1000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["lhs"] == ["240", "1"]


def test_ledger41_json(forms, capsys):
    # the corrected two-adic factor exceeds 2, so the ledger fails (exit 1)
    # although the combined bound holds
    code, out, _ = run(capsys, "ledger41", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    by_name = {item["check"]: item for item in doc["items"]}
    assert by_name["two-adic-claim"]["pass"] is False
    assert by_name["two-adic-factor"]["pass"] is False
    assert by_name["combined"]["pass"] is True


# ---------------------------------------------------------------------------
# remaining subcommands, text mode


def test_enumerate_lists_vectors(forms, capsys):
    code, out, _ = run(capsys, "enumerate", "--form", forms["d45"],
                       "--norm", "4")
    assert code == 0
    rows = [tuple(int(x) for x in line.split())
            for line in out.strip().splitlines()]
    assert sorted(rows) == [(-1, 0), (1, 0)]


def test_infdensity(forms, capsys):
    code, out, _ = run(capsys, "infdensity", "--n", "4", "--disc", "1",
                       "--m", "8")
    assert code == 0
    assert out.startswith("[")


def test_jordan_and_split2(forms, capsys):
    code, out, _ = run(capsys, "jordan", "--form", forms["d45"], "--p", "3")
    assert code == 0
    assert out.startswith("p^0 * <")
    code, out, _ = run(capsys, "split2", "--form", forms["h"])
    assert code == 0
    assert out.startswith("even:")


def test_lattice_subcommands(forms, capsys):
    code, out, _ = run(capsys, "factors", "--form", forms["d45"])
    assert code == 0
    assert out.strip() == "1 19"
    code, out, _ = run(capsys, "dual", "--form", forms["d45"])
    assert code == 0
    assert "1/19" in out
    code, out, _ = run(capsys, "saturate", "--form", forms["odd3"])
    assert code == 0
    assert "invariant factors:" in out


# naive Smith elimination blows up on these; each must finish well inside
# the 30 s limit of a fresh `qf` process
COMPLEMENT7 = ((584, -197, 0, 340, 457, 1475, -1840),
               (-197, 70, -1, -118, -155, -496, 620),
               (0, -1, 2, 0, 0, 0, 0),
               (340, -118, 0, 202, 267, 856, -1070),
               (457, -155, 0, 267, 358, 1154, -1440),
               (1475, -496, 0, 856, 1154, 3730, -4651),
               (-1840, 620, 0, -1070, -1440, -4651, 5802))
SATURATE5 = ((270, 9, 9, 9, 9), (9, 270, -3, -9, 0), (9, -3, 30, 0, 0),
             (9, -9, 0, 30, 0), (9, 0, 0, 0, 30))


@pytest.mark.parametrize("name, gram, last_line", [
    ("factors", COMPLEMENT7, "1 1 1 1 1 1 134"),
    ("saturate", SATURATE5, "invariant factors: 3 3 3 3 646005"),
], ids=["factors-rank7", "saturate-rank5"])
def test_lattice_subcommands_finish_on_large_entries(tmp_path, name, gram,
                                                     last_line):
    path = tmp_path / "f.qf"
    path.write_text(GramForm(gram).text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "qflat.cli", name,
                          "--form", str(path)],
                         env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == last_line


def test_closed_pipe_is_not_an_error():
    # 6720 vectors of norm 6 fill more than a 64 KiB pipe buffer, so the
    # writer meets the closed pipe whatever the timing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qflat.cli", "enumerate",
                             "--form", str(DEMOS / "e8.qf"), "--norm", "6"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.readline().split()) == 8
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_root_subcommands(forms, capsys):
    code, out, _ = run(capsys, "reflect", "--form", forms["u22"],
                       "--root", "0,0,1", "--vector", "1,2,3")
    assert code == 0
    assert out.strip() == "1 2 -3"
    code, out, _ = run(capsys, "classify-root", "--form", forms["u22"],
                       "--vector", "1,0,0")
    assert code == 0
    assert "not a root: isotropic" in out
    code, out, _ = run(capsys, "complement", "--form", forms["u22"],
                       "--vector", "0,0,1")
    assert code == 0
    assert parse_gram_text(out).matrix == ((0, 1), (1, 0))


def test_meet(forms, capsys):
    code, out, _ = run(capsys, "meet", "--form", forms["u22"],
                       "--q", forms["h"], "--t", forms["t2"],
                       "--vector", "0,0,1")
    assert code == 0
    assert out.strip() == "whole"
    code, out, _ = run(capsys, "meet", "--form", forms["u22"],
                       "--q", forms["h"], "--t", forms["t2"],
                       "--vector", "1,1,0")
    assert code == 0
    assert out.startswith("hyperplane of root")


def test_autord(forms, capsys):
    code, out, _ = run(capsys, "autord", "--form", forms["d45"])
    assert code == 0
    assert out.strip() == "2"


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_checked_failure_exits_1(forms, capsys):
    code, out, _ = run(capsys, "pingpong", "--g1", forms["g1"],
                       "--g2", forms["g1"])
    assert code == 1
    assert "no certificate" in out


def test_elliptic_generator_exits_1_with_the_trace_rule(forms, capsys):
    code, out, _ = run(capsys, "pingpong", "--g1", forms["grot"],
                       "--g2", forms["g2"])
    assert code == 1
    assert out == "no certificate: not hyperbolic: |tr A - det A| <= 2\n"


def test_missing_file_exits_2(forms, capsys):
    code, _, err = run(capsys, "enumerate", "--form", "/nonexistent.qf",
                       "--norm", "2", "--count")
    assert code == 2
    assert "cannot read" in err


def test_jordan_rejects_p2(forms, capsys):
    code, _, err = run(capsys, "jordan", "--form", forms["h"], "--p", "2")
    assert code == 2
    assert "split2" in err


def test_bad_vector_exits_2(forms, capsys):
    code, _, err = run(capsys, "reflect", "--form", forms["u22"],
                       "--root", "0,0,1", "--vector", "1,2")
    assert code == 2
    assert "entries" in err


def test_indefinite_form_names_the_cause(forms, capsys, tmp_path):
    # the automorphism search sorts the basis by norm; the message must
    # still name the pivot in the input basis, as enumerate does
    d3 = tmp_path / "d3.qf"
    d3.write_text(GramForm(((3, 0, 0), (0, -2, 0), (0, 0, 1))).text())
    for form, pivot in ((forms["h"], "pivot 0 at index 0"),
                        (str(d3), "pivot -2 at index 1")):
        for argv in (["enumerate", "--form", form, "--norm", "1"],
                     ["autord", "--form", form],
                     ["mass-check", "--form", form, "--m", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"qf: form is not positive definite ({pivot})\n"


@pytest.mark.parametrize("argv", [
    ["autord", "--form", "{z9}"],
    ["reflect", "--form", "{e8}", "--root", "1,0,0,0,0,0,0,1",
     "--vector", "1,0,0,0,0,0,0,0"],
    ["prop41", "--king", "-1"],
    ["density", "--form", "{h}", "--p", "2", "--m", "0"],
    ["density", "--form", "{h}", "--p", "2", "--m", "-3"],
    ["split2", "--form", "{z4}"],
    ["split2", "--form", "{h}", "--k", "2"],
    ["jordan", "--form", "{e8}", "--p", "3", "--k", "0"],
    ["classify-root", "--form", "{h}", "--vector", "0,0"],
    ["reflect", "--form", "{u22}", "--root", "0,0,0", "--vector", "1,2,3"],
    ["density", "--form", "{h}", "--p", "2", "--m", "8", "--kmax", "5"],
    ["infdensity", "--n", "4", "--disc", "1", "--m", "8", "--precision", "0"],
    ["ledger41", "--precision", "-4"],
    ["pingpong", "--g1", "{g1}", "--g2", "{g2}", "--mmax", "0"],
    ["pingpong", "--g1", "{g3}", "--g2", "{g2}"],
    ["mass-check", "--form", "{e8}", "--m", "2", "--tol", "-1"],
    ["pingpong", "--g1", "{g29}", "--g2", "{g2}"],
    ["pingpong", "--g1", "{ginf}", "--g2", "{g2}"],
    ["pingpong", "--g1", "{gstr}", "--g2", "{g2}"],
    ["pingpong", "--g1", "{gbool}", "--g2", "{g2}"],
], ids=["autord-z9", "reflect-not-a-root", "prop41-negative-king",
        "density-m0", "density-m-3", "split2-anisotropic-z4", "split2-k2",
        "jordan-k0", "classify-root-zero", "reflect-zero-root",
        "density-above-kmax", "infdensity-precision-0",
        "ledger41-precision-negative", "pingpong-mmax0",
        "pingpong-non-isometry", "mass-check-negative-tol",
        "pingpong-float-entry", "pingpong-infinite-entry",
        "pingpong-string-entry", "pingpong-boolean-entry"])
def test_input_errors_exit_2_with_one_line(forms, capsys, argv):
    code, out, err = run(capsys, *(a.format(**forms) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("qf: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0", "-8"])
def test_bad_precision_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("QF_PRECISION_BITS", value)
    code, out, err = run(capsys, "infdensity", "--n", "4", "--disc", "1",
                         "--m", "8")
    assert code == 2 and out == ""
    assert err.startswith("qf: ") and err.count("\n") == 1


def test_unknown_flag_exits_2(forms, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--form", forms["e8"], "--bogus"])
    assert exc.value.code == 2


def test_every_subcommand_has_help(capsys):
    for name in ["enumerate", "density", "infdensity", "jordan", "split2",
                 "saturate", "dual", "factors", "reflect", "classify-root",
                 "complement", "meet", "mass-check", "ledger41", "prop41",
                 "pingpong", "autord"]:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--json" in out


def test_precision_env_var(forms, capsys, monkeypatch):
    widths = {}
    for bits in ("32", "256"):
        monkeypatch.setenv("QF_PRECISION_BITS", bits)
        code, out, _ = run(capsys, "infdensity", "--n", "41", "--disc", "2",
                           "--m", "2", "--json")
        assert code == 0
        lo, hi = (json.loads(out)["value"])
        from fractions import Fraction
        widths[bits] = Fraction(hi) - Fraction(lo)
    assert widths["256"] < widths["32"]


# ---------------------------------------------------------------------------
# fuzzing: no input reaches the user as a traceback


def _fuzz_vector(draw, n):
    v = draw(st.one_of(st.just([0] * n),
                       st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return ",".join(str(x) for x in v)


# subcommands that run only the integer reduction, cheap up to rank 7
LATTICE_CALLS = ("factors", "dual", "complement", "saturate")


@st.composite
def cheap_calls(draw):
    """(Gram rows, argv without --form) for a subcommand that stays cheap
    on its forms: rank <= 7 and entries in -9..9 for LATTICE_CALLS, rank
    <= 4 and entries in -3..3 otherwise; the rows may be singular or
    indefinite."""
    name = draw(st.sampled_from(["classify-root", "reflect", "complement",
                                 "factors", "dual", "jordan", "split2",
                                 "density", "saturate"]))
    n, e = (7, 9) if name in LATTICE_CALLS else (4, 3)
    n = draw(st.integers(1, n))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-e, e))
    if name == "reflect":
        options = ["--root=" + _fuzz_vector(draw, n),
                   "--vector=" + _fuzz_vector(draw, n)]
    elif name in ("classify-root", "complement"):
        options = ["--vector=" + _fuzz_vector(draw, n)]
    elif name == "jordan":
        options = ["--p", str(draw(st.sampled_from([3, 5, 7]))),
                   "--k", str(draw(st.integers(1, 6)))]
    elif name == "split2":
        options = ["--k", str(draw(st.integers(2, 8)))]
    elif name == "density":
        options = ["--p", str(draw(st.sampled_from([2, 3, 5]))),
                   f"--m={draw(st.integers(-1, 12))}",
                   "--kmax", str(draw(st.integers(1, 4)))]
    else:
        options = []
    return gram, [name, *options, *draw(st.sampled_from([[], ["--json"]]))]


@pytest.fixture(scope="module")
def fuzz_form(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.qf"


def run_clean(argv):
    """main(argv) under the exit contract: 0, 1 or 2; exit 2 prints one
    `qf:` line on stderr and nothing on stdout; a --json document says
    "pass": false exactly on exit 1.  Returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("qf: ")
        assert err.getvalue().count("\n") == 1
    elif "--json" in argv:
        assert (code == 1) == (json.loads(out.getvalue()).get("pass") is False)
    return code, out.getvalue()


def write_gram(path, gram):
    path.write_text(f"{len(gram)}\n"
                    + "".join(" ".join(map(str, r)) + "\n" for r in gram))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cheap_calls())
def test_fuzzed_calls_exit_cleanly(fuzz_form, call):
    gram, argv = call
    write_gram(fuzz_form, gram)
    run_clean([argv[0], "--form", str(fuzz_form), *argv[1:]])


@st.composite
def complement_calls(draw):
    """(Gram rows, vector) at rank 3-7 with entries in -9..9."""
    n = draw(st.integers(3, 7))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-9, 9))
    return gram, draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(complement_calls())
def test_fuzzed_complement_has_the_determinant_identity(fuzz_form, call):
    """On a nonsingular G, the complement of v satisfies
    det(comp) * c^2 = det(G) * f(w), w the primitive part of v and
    c = content(G w)."""
    gram, v = call
    write_gram(fuzz_form, gram)
    code, out = run_clean(["complement", "--form", str(fuzz_form),
                           "--vector=" + ",".join(map(str, v)), "--json"])
    det = determinant(gram)
    if code != 0 or det == 0:
        return
    w = primitive_part(v)
    c = content(mat_vec(gram, w))
    f_w = sum(x * y for x, y in zip(w, mat_vec(gram, w)))
    assert determinant(json.loads(out)["gram"]) * c * c == det * f_w


GL2 = [((p, q), (r, s)) for p, q, r, s in
       itertools.product(range(-6, 7), repeat=4) if p * s - q * r in (1, -1)]


@pytest.fixture(scope="module")
def fuzz_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("pair")
    return d / "g1.json", d / "g2.json"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(GL2), st.sampled_from(GL2))
def test_fuzzed_pingpong_pairs(fuzz_pair, m1, m2):
    for path, m in zip(fuzz_pair, (m1, m2)):
        path.write_text(json.dumps({"matrix": m}))
    code, out = run_clean(["pingpong", "--g1", str(fuzz_pair[0]),
                           "--g2", str(fuzz_pair[1]), "--json"])
    assert code in (0, 1)
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["pass"] is (code == 0)
    if code == 0:
        assert doc["word_audit"]["checked"] == 1456


# ---------------------------------------------------------------------------
# imports: a qf process loads only the modules its subcommand runs

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# runs main(argv) in a fresh interpreter (argv null: import only) and
# prints its exit code and the qflat and mpmath modules it loaded
_PROBE = """
import contextlib, io, json, sys
import qflat.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = qflat.cli.main(argv)
        except SystemExit as exit:
            code = exit.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "mpmath" or m.startswith("qflat."))]))
"""

NOT_ENUMERATION = {"qflat.lattice", "qflat.localform", "qflat.intervals",
                   "qflat.hyperbolic", "qflat.massledger", "qflat.pingpong",
                   "mpmath"}


def _loaded(argv, codes=(None, 0)):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout)
    assert code in codes, (argv, code)
    return set(modules)


def _fill(options, forms):
    return [opt.format(demos=DEMOS, forms=forms) for opt in options]


@pytest.mark.parametrize("argv", [None, ["--help"]])
def test_import_and_help_load_only_the_parser(argv):
    assert _loaded(argv) == {"qflat.cli", "qflat.gram", "qflat.exact"}


@pytest.mark.parametrize("name, options", [
    ("enumerate", ["--form", "{demos}/e8.qf", "--norm", "2", "--count"]),
    ("autord", ["--form", "{forms[d45]}"]),
])
def test_enumeration_commands_load_no_other_layer(forms, name, options):
    loaded = _loaded([name, *_fill(options, forms)])
    assert "qflat.enumeration" in loaded
    assert not loaded & NOT_ENUMERATION


@pytest.mark.parametrize("name, options", [
    ("factors", ["--form", "{forms[d45]}"]),
    ("dual", ["--form", "{forms[d45]}"]),
    ("saturate", ["--form", "{forms[odd3]}"]),
    ("density", ["--form", "{forms[d45]}", "--p", "3", "--m", "5"]),
    ("jordan", ["--form", "{forms[d45]}", "--p", "3"]),
    ("split2", ["--form", "{forms[h]}"]),
    ("reflect", ["--form", "{forms[u22]}", "--root", "0,0,1",
                 "--vector", "1,2,3"]),
    ("classify-root", ["--form", "{forms[u22]}", "--vector", "0,0,1"]),
    ("complement", ["--form", "{forms[u22]}", "--vector", "0,0,1"]),
    ("meet", ["--form", "{forms[u22]}", "--q", "{forms[h]}",
              "--t", "{forms[t2]}", "--vector", "1,1,0"]),
    ("prop41", []),
    ("pingpong", ["--g1", "{demos}/g1.json", "--g2", "{demos}/g2.json"]),
])
def test_exact_commands_do_not_load_mpmath(forms, name, options):
    assert "mpmath" not in _loaded([name, *_fill(options, forms)])


@pytest.mark.parametrize("name, options", [
    ("infdensity", ["--n", "4", "--disc", "1", "--m", "8"]),
    ("mass-check", ["--form", "{demos}/e8.qf", "--m", "2", "--primes", "50",
                    "--order", "696729600"]),
    ("ledger41", []),
])
def test_transcendental_commands_load_mpmath(forms, name, options):
    # the ledger's corrected two-adic factor fails: exit 1
    code = 1 if name == "ledger41" else 0
    assert "mpmath" in _loaded([name, *_fill(options, forms)], (code,))

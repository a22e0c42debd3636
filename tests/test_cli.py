"""Command-line behavior: outputs, exit codes, JSON determinism."""

import json

import pytest

from qflat.cli import main
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
    for name, mat in [("g1", [[2, 1], [1, 1]]), ("g2", [[1, 1], [1, 2]])]:
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
    assert len(doc["boxes"]) == 4 and len(doc["inclusions"]) == 4


def test_mass_check_json(forms, capsys):
    code, out, _ = run(capsys, "mass-check", "--form", forms["e8"],
                       "--m", "2", "--primes", "1000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["lhs"] == ["240", "1"]


def test_ledger41_json(forms, capsys):
    code, out, _ = run(capsys, "ledger41", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    by_name = {item["check"]: item for item in doc["items"]}
    assert by_name["two-adic-claim"]["pass"] is False
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


def test_indefinite_form_names_the_cause(forms, capsys):
    for argv in (["enumerate", "--form", forms["h"], "--norm", "1"],
                 ["autord", "--form", forms["h"]]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("qf: form is not positive definite "
                       "(pivot 0 at index 0)\n")


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
], ids=["autord-z9", "reflect-not-a-root", "prop41-negative-king",
        "density-m0", "density-m-3", "split2-anisotropic-z4", "split2-k2",
        "jordan-k0"])
def test_input_errors_exit_2_with_one_line(forms, capsys, argv):
    code, out, err = run(capsys, *(a.format(**forms) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("qf: ") and err.count("\n") == 1
    assert "Traceback" not in err


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

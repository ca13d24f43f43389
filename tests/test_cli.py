"""Tests for the command-line interface, the module-file format and the
byte-stable golden reports."""

import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bannai_ito.bimodule import BIModule, TwistSign, conjugate, even_module, \
    example_even, example_odd, odd_module, twist
from bannai_ito import classify, cli
from bannai_ito.classify import IndeterminateIsomorphism, IrrVerdict, \
    verify_invariant_subspace
from bannai_ito.cli import CliError, main, parse_module, serialize_module
from bannai_ito.exactlinalg import Matrix

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- serialization ------------------------------------------------------------

def test_round_trip_built_modules():
    mods = [example_even(), example_odd(), even_module(5, F(1, 2), F(-3, 2), 2),
            twist(odd_module(2, 1, 0, F(1, 2)), TwistSign(-1, 1))]
    for mod in mods:
        back, meta = parse_module(serialize_module(mod, {"k": "v"}))
        assert back.X == mod.X and back.Y == mod.Y
        assert (back.kappa, back.lam, back.mu) == (mod.kappa, mod.lam, mod.mu)
        assert meta == {"k": "v"}


def test_round_trip_without_optional_scalars():
    mod = BIModule(Matrix([[1]]), Matrix([[2]]), kappa=F(3))
    text = serialize_module(mod)
    assert '"lambda"' not in text and '"mu"' not in text
    back, _ = parse_module(text)
    assert back.lam is None and back.mu is None
    assert back.kappa == 3


def test_module_file_key_order():
    doc = json.loads(serialize_module(example_even(), {"family": "even"}))
    assert list(doc) == ["dim", "X", "Y", "kappa", "lambda", "mu", "meta"]


def test_parse_rejects_non_canonical_rational():
    text = serialize_module(example_even()).replace('"4"', '"8/2"', 1)
    with pytest.raises(CliError) as exc:
        parse_module(text)
    assert exc.value.code == 2


# nested past the recursion limit, and an integer past Python's digit limit
_DEEP, _HUGE = "[" * 200000, '{"dim": 1' + "0" * 5000 + "}"


def test_parse_rejects_malformed_documents():
    for bad in ("not json", '{"dim": 1}', '[]',
                '{"dim": 2, "X": [["0"]], "Y": [["0"]], "kappa": "0"}',
                '{"dim": 1, "X": [["0"]], "Y": [["0"]], "kappa": "0", "bogus": 1}',
                _DEEP, _HUGE):
        with pytest.raises(CliError) as exc:
            parse_module(bad)
        assert exc.value.code == 2
    # True == 1 and 4.0 == 4 in Python, but neither is a JSON integer
    one = '{"dim": true, "X": [["0"]], "Y": [["0"]], "kappa": "0"}'
    four = serialize_module(example_even()).replace('"dim": 4', '"dim": 4.0', 1)
    for bad in (one, four):
        with pytest.raises(CliError, match="^dim must be an integer$") as exc:
            parse_module(bad)
        assert exc.value.code == 2


# --- build and fixture ----------------------------------------------------------

def test_build_matches_fixture(capsys, tmp_path):
    out = tmp_path / "built.json"
    code, _, err = run_cli(capsys, "build", "--family", "even", "--d", "3",
                           "--a", "1", "--b", "0", "--c", "1", "--out", str(out))
    assert code == 0
    assert "kappa=4 lambda=4 mu=2" in err
    code, fixture_text, _ = run_cli(capsys, "fixture", "exampleE")
    assert out.read_text() == fixture_text


def test_out_to_unwritable_path_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "fixture", "exampleE", "--out", str(out))
    assert code == 2
    assert err.startswith("error: cannot write")


def test_build_one_dimensional(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "odd", "--d", "0",
                           "--a", "2", "--b", "3", "--c", "5", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["X"] == [["2"]] and doc["Y"] == [["3"]]
    assert doc["kappa"] == "7"  # 2*2*3 - 5*1


def test_build_twist(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "even", "--d", "1",
                           "--a", "1", "--b", "1", "--c", "1",
                           "--twist=-1,1", "--quiet")
    assert code == 0
    mod, meta = parse_module(out)
    expected = twist(even_module(1, 1, 1, 1), TwistSign(-1, 1))
    assert mod.X == expected.X and mod.Y == expected.Y and mod.kappa == expected.kappa
    assert meta["twist"] == "-1,1"


def test_build_rejects_bad_parity(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "even", "--d", "2",
                           "--a", "1", "--b", "0", "--c", "1")
    assert code == 2
    assert "odd d" in err


def test_build_rejects_bad_rational(capsys):
    code, _, _ = run_cli(capsys, "build", "--family", "even", "--d", "1",
                         "--a", "one", "--b", "0", "--c", "0")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["build", "--family", "even", "--d", "1", "--a=1e5000", "--b", "0", "--c", "0"], "--a"),
    (["scan", "--family", "even", "--d", "1", "--values=1e5000"], "--values"),
], ids=["build", "scan"])
def test_exponent_rationals_are_rejected(capsys, argv, flag):
    # the exponent form is not a documented rational: rejected before Fraction
    # expands its digits
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: bad rational for {flag}: '1e5000'\n")


def test_fixture_outputs_are_pinned(capsys):
    for name, golden in (("exampleE", "module_exampleE.json"),
                         ("exampleO", "module_exampleO.json")):
        code, out, _ = run_cli(capsys, "fixture", name)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


# --- check ------------------------------------------------------------------------

def test_check_passes_on_fixture(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(serialize_module(example_even()))
    code, out, _ = run_cli(capsys, "check", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["exit"] == 0
    scalars = {r["relation"]: r["scalar"] for r in doc["relations"]}
    assert scalars == {"kappa": "4", "lambda": "4", "mu": "2"}


def test_check_names_failing_relation(capsys, tmp_path):
    doc = json.loads(serialize_module(example_even()))
    doc["Y"][0][1] = "2"  # perturb one entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", str(path), "--no-timing")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    failed = [r["relation"] for r in rep["relations"] if not r["passed"]]
    assert failed  # the failing relation is named


def test_check_one_dimensional(capsys, tmp_path):
    path = tmp_path / "o0.json"
    path.write_text(serialize_module(odd_module(0, 2, 3, 5)))
    code, out, _ = run_cli(capsys, "check", str(path), "--no-timing")
    assert code == 0 and json.loads(out)["passed"] is True


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_module(example_odd())))
    code, out, _ = run_cli(capsys, "check", "--no-timing")
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("x", [[["1", "0"], ["0"]], [[]]], ids=["ragged", "empty"])
@pytest.mark.parametrize("command", ["check", "classify", "minpoly"])
def test_malformed_rows_exit_2(capsys, tmp_path, command, x):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "X": x, "Y": [["0", "0"], ["0", "0"]],
                                "kappa": "0"}))
    code, _, err = run_cli(capsys, command, str(path), "--no-timing")
    assert code == 2 and err.startswith("error:")


_ONE = {"dim": 1, "X": [["1"]], "Y": [["0"]], "kappa": "0"}


@pytest.mark.parametrize("argv,doc,message", [
    (["build", "--family", "even", "--d", "1", "--a", "1", "--b", "1", "--c", "1",
      "--twist=1,2"], None,
     "twist must be a sign pair like 1,-1 with each sign 1 or -1, got '1,2'"),
    (["scan", "--family", "even", "--d", "1", "--values=,"], None,
     "--values must list at least one rational"),
    (["check", "{path}"], None, "cannot read {path}: "),
    (["check", "{path}"], dict(_ONE, X=[[1]]), "rational must be a string, got 1"),
    (["check", "{path}"], dict(_ONE, meta=[]), "meta must be an object"),
    (["check", "{path}"], b'{"dim": 1, "X": [["\xff"]]}', "cannot read {path}: "),
    (["check", "{path}"], _DEEP, "module file is not valid JSON: "),
    (["check", "{path}"], _HUGE, "module file is not valid JSON: "),
    # a derived value past the digit limit for printing: mu = 4 * 10**6000 - 1
    (["check", "{path}"], dict(_ONE, X=[["1" + "0" * 3000]], Y=[["1"]]),
     "a derived rational has more than "),
    # kappa = 1 - 10**-4402
    (["build", "--family", "even", "--d", "1", "--a=0." + "0" * 2200 + "1", "--b", "0",
      "--c", "0"], None, "a derived rational has more than "),
], ids=["build-twist", "scan-values", "check-missing", "check-entry", "check-meta",
        "check-not-utf8", "check-too-deep", "check-too-many-digits",
        "check-derived-too-many-digits", "build-derived-too-many-digits"])
def test_bad_input_exits_2(capsys, tmp_path, argv, doc, message):
    path = str(tmp_path / "m.json")
    if isinstance(doc, dict):
        doc = json.dumps(doc)
    if doc is not None:
        Path(path).write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: " + message.format(path=path))


# --- classify / identify -------------------------------------------------------------

def test_classify_fixture(capsys, tmp_path):
    path = tmp_path / "e.json"
    code, _, _ = run_cli(capsys, "build", "--family", "even", "--d", "3",
                         "--a", "1", "--b", "0", "--c", "1",
                         "--quiet", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "irreducible"
    assert doc["criterion"]["status"] == "irreducible"
    assert doc["methods_agree"] is True
    assert doc["class"] == {"family": "even", "d": 3, "twist": "1,1",
                            "params": ["1", "0", "1"]}


def test_classify_reducible_embeds_witness(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "build", "--family", "even", "--d", "1", "--a", "0",
            "--b", "0", "--c", "0", "--quiet", "--out", str(path))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "reducible"
    assert doc["oracle"]["witness"] == [["0", "1"]]
    assert "class" not in doc


def test_classify_ignores_wrong_parity_meta(capsys, tmp_path):
    # meta with an even-family d of the wrong parity is foreign: no criterion row
    doc = json.loads(serialize_module(example_even(), {"family": "even", "d": "2",
                                                       "a": "1", "b": "0", "c": "1"}))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "irreducible"
    assert doc["class"] == {"family": "even", "d": 3, "twist": "1,1",
                            "params": ["1", "0", "1"]}
    assert "criterion" not in doc


def test_classify_ignores_meta_of_another_dimension(capsys, tmp_path):
    # d = 1 has the right parity but describes a 2-dimensional module, not
    # this 4-dimensional one: foreign meta, so no criterion row and no
    # methods_agree verdict next to the oracle's
    doc = json.loads(serialize_module(example_even(), {"family": "even", "d": "1",
                                                       "a": "0", "b": "0", "c": "0"}))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "irreducible"
    assert doc["class"]["params"] == ["1", "0", "1"]
    assert "criterion" not in doc and "methods_agree" not in doc


def test_classify_ignores_meta_that_is_not_a_rational_argument(capsys, tmp_path):
    # an exponent form is foreign like "x", rejected before Fraction expands
    # its digits; so are an infinite a and an infinite d
    path, reports = tmp_path / "e.json", []
    for bad in ({"a": "x"}, {"a": "1e4000000"}, {"a": float("inf")}, {"d": float("inf")}):
        meta = dict({"family": "even", "d": "3", "a": "1", "b": "0", "c": "1"}, **bad)
        path.write_text(json.dumps(dict(json.loads(serialize_module(example_even())), meta=meta)))
        reports.append(run_cli(capsys, "classify", str(path), "--no-timing"))
    assert reports[0][0] == 0 and "criterion" not in json.loads(reports[0][1])
    assert all(report == reports[0] for report in reports)


def test_classify_ignores_meta_d_that_is_not_a_string(capsys, tmp_path):
    # a JSON number or boolean d is foreign like "x", not truncated by int()
    _, text, _ = run_cli(capsys, "build", "--family", "even", "--d", "1",
                         "--a", "1", "--b", "1", "--c", "1")
    path, reports = tmp_path / "e.json", []
    for d in ("x", 1.9, True):
        doc = json.loads(text)
        doc["meta"]["d"] = d
        path.write_text(json.dumps(doc))
        reports.append(run_cli(capsys, "classify", str(path), "--no-timing"))
    assert reports[0][0] == 0 and "criterion" not in json.loads(reports[0][1])
    assert all(report == reports[0] for report in reports)


def test_classify_ignores_meta_d_with_underscores(capsys, tmp_path):
    # d follows the rational-argument rule of a, b and c: int() would read
    # "0_3" as 3, but it is foreign like "x", while "3/1" and "3.0" count
    _, text, _ = run_cli(capsys, "fixture", "exampleE")
    path, reports = tmp_path / "e.json", {}
    for d in ("x", "0_3", "3", "3/1", "3.0"):
        doc = json.loads(text)
        doc["meta"]["d"] = d
        path.write_text(json.dumps(doc))
        reports[d] = run_cli(capsys, "classify", str(path), "--no-timing")
    assert reports["0_3"] == reports["x"] and "criterion" not in json.loads(reports["x"][1])
    assert reports["3/1"] == reports["3.0"] == reports["3"]
    assert json.loads(reports["3"][1])["methods_agree"] is True


def test_classify_zero_sum_is_reducible(capsys, tmp_path):
    # two copies of the trivial module: Y = 0 has one fat eigenspace, and the
    # first eigenvector spins to a line, a verified one-dimensional witness
    path = tmp_path / "z.json"
    mod = BIModule(Matrix.zero(2, 2), Matrix.zero(2, 2), kappa=F(0))
    path.write_text(serialize_module(mod))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["status"] == "reducible"
    witness = tuple(tuple(F(e) for e in v) for v in oracle["witness"])
    assert len(witness) == 1 and verify_invariant_subspace(mod, witness)


def test_classify_indeterminate_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "oracle_irreducible", lambda mod: IrrVerdict(
        "indeterminate", None, "no nullity-1 element within the word budget"))
    path = tmp_path / "e.json"
    path.write_text(serialize_module(example_even()))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 3
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "indeterminate" and doc["exit"] == 3


# E_1(sqrt 2, 0, 1) after a basis change: irreducible, but its central-scalar
# sums are not rational squares, so no class is named
IRRATIONAL_E1 = {"dim": 2, "X": [["-1/2", "2"], ["1", "-1/2"]],
                 "Y": [["-1/2", "-1"], ["0", "-1/2"]], "kappa": "0"}


def test_classify_reports_identify_error(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(IRRATIONAL_E1))
    code, out, _ = run_cli(capsys, "classify", str(path), "--no-timing")
    assert code == 2
    doc = json.loads(out)
    assert doc["oracle"]["status"] == "irreducible"
    assert doc["class"] is None
    assert doc["identify_error"] == "central-scalar sums are not rational squares"
    assert doc["exit"] == 2


def test_identify_reports_irrational_parameters(capsys, tmp_path):
    # the same failure as classify's identify_error, in a report with exit 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps(IRRATIONAL_E1))
    code, out, err = run_cli(capsys, "identify", str(path), "--no-timing")
    assert code == 2 and err == ""
    assert json.loads(out) == {"command": "identify", "input": str(path),
                               "error": "central-scalar sums are not rational squares",
                               "exit": 2}


def test_identify_example_odd(capsys, tmp_path):
    path = tmp_path / "o.json"
    run_cli(capsys, "fixture", "exampleO", "--out", str(path))
    code, out, _ = run_cli(capsys, "identify", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == {"family": "odd", "d": 4, "twist": None,
                            "params": ["3/2", "1/2", "-1/2"]}


def test_identify_rejects_reducible(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "build", "--family", "even", "--d", "1", "--a", "0",
            "--b", "0", "--c", "0", "--quiet", "--out", str(path))
    code, out, _ = run_cli(capsys, "identify", str(path), "--no-timing")
    assert code == 1
    assert "error" in json.loads(out)


def test_identify_zero_sum_is_reducible(capsys, tmp_path):
    # the 2-dimensional zero module is a module with a verified witness
    path = tmp_path / "z.json"
    path.write_text(serialize_module(BIModule(Matrix.zero(2, 2), Matrix.zero(2, 2), kappa=F(0))))
    code, out, _ = run_cli(capsys, "identify", str(path), "--no-timing")
    assert code == 1
    assert json.loads(out)["error"] == "module is not irreducible (reducible)"


def test_identify_indeterminate_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(classify, "oracle_irreducible", lambda mod: IrrVerdict(
        "indeterminate", None, "no nullity-1 element within the word budget"))
    path = tmp_path / "e.json"
    path.write_text(serialize_module(example_even()))
    code, out, _ = run_cli(capsys, "identify", str(path), "--no-timing")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "module is not irreducible (indeterminate)" and doc["exit"] == 3


# --- iso ---------------------------------------------------------------------------

def test_iso_flip_pair(capsys, tmp_path):
    p1, p2 = tmp_path / "p.json", tmp_path / "m.json"
    run_cli(capsys, "build", "--family", "even", "--d", "3", "--a", "1",
            "--b", "0", "--c", "1", "--quiet", "--out", str(p1))
    run_cli(capsys, "build", "--family", "even", "--d", "3", "--a=-1",
            "--b", "0", "--c", "1", "--quiet", "--out", str(p2))
    code, out, _ = run_cli(capsys, "iso", str(p1), str(p2), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    t = Matrix([[F(e) for e in row] for row in doc["intertwiner"]])
    v, w = even_module(3, 1, 0, 1), even_module(3, -1, 0, 1)
    assert t * v.X == w.X * t and t * v.Y == w.Y * t
    assert t.rank() == 4


def test_iso_distinct_classes(capsys, tmp_path):
    p1, p2 = tmp_path / "p.json", tmp_path / "q.json"
    run_cli(capsys, "build", "--family", "even", "--d", "3", "--a", "1",
            "--b", "0", "--c", "1", "--quiet", "--out", str(p1))
    run_cli(capsys, "build", "--family", "even", "--d", "3", "--a", "2",
            "--b", "0", "--c", "1", "--quiet", "--out", str(p2))
    code, out, _ = run_cli(capsys, "iso", str(p1), str(p2), "--no-timing")
    assert code == 1
    assert json.loads(out)["isomorphic"] is False


def test_iso_singular_intertwiner_line(capsys, tmp_path):
    # every intertwiner E_1(0, 1, 1) -> E_1(0, -1, 1) is a multiple of one
    # singular map: a conclusive "not isomorphic", not "indeterminate"
    p1, p2 = tmp_path / "p.json", tmp_path / "m.json"
    run_cli(capsys, "build", "--family", "even", "--d", "1", "--a", "0",
            "--b", "1", "--c", "1", "--quiet", "--out", str(p1))
    run_cli(capsys, "build", "--family", "even", "--d", "1", "--a", "0",
            "--b=-1", "--c", "1", "--quiet", "--out", str(p2))
    code, out, _ = run_cli(capsys, "iso", str(p1), str(p2), "--no-timing")
    assert code == 1
    doc = json.loads(out)
    assert doc["isomorphic"] is False and doc["intertwiner"] is None


def test_iso_gates_on_relations(capsys, tmp_path):
    # Y replaced by X breaks the relations; two equal copies must not pass
    # as isomorphic modules
    v = example_even()
    path = tmp_path / "bad.json"
    path.write_text(serialize_module(BIModule(v.X, v.X, v.kappa, v.lam, v.mu)))
    code, out, _ = run_cli(capsys, "check", str(path), "--no-timing")
    assert code == 1
    code, out, _ = run_cli(capsys, "iso", str(path), str(path), "--no-timing")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "defining relations fail; not a module"
    assert "isomorphic" not in doc
    assert [[r["passed"] for r in rows] for rows in doc["relations"]] == [[True, False, False]] * 2


def test_iso_indeterminate_exit_code(capsys, tmp_path, monkeypatch):
    def undecided(v, w):
        raise IndeterminateIsomorphism("no invertible element found")

    monkeypatch.setattr(cli, "are_isomorphic", undecided)
    path = tmp_path / "e.json"
    path.write_text(serialize_module(example_even()))
    code, out, _ = run_cli(capsys, "iso", str(path), str(path), "--no-timing")
    assert code == 3
    doc = json.loads(out)
    assert doc["isomorphic"] == "indeterminate" and doc["exit"] == 3


@pytest.mark.parametrize("build, d", [(even_module, 31), (odd_module, 32)])
def test_iso_of_large_conjugates_needs_no_spectrum(capsys, tmp_path, monkeypatch, build, d):
    # two seeded unimodular conjugates of a twisted family point: the named
    # theta*_0 line generates the module, so the graph spin needs no spectrum
    # of the dense Y (minutes at this size)
    def triangular_only(m):
        if not (m.is_upper_triangular() or m.is_lower_triangular()):
            raise AssertionError("spectrum of a dense matrix")
        return real_spectrum(m)

    real_spectrum = classify.rational_spectrum
    monkeypatch.setattr(classify, "rational_spectrum", triangular_only)
    v = twist(build(d, F(1, 3), F(2, 7), F(5, 11)), TwistSign(-1, 1))
    n, rng, mods = v.dim, random.Random(d), []

    def unit_lower():
        return Matrix([[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)]
                       for i in range(n)])

    for name in ("p.json", "q.json"):
        mods.append(conjugate(v, unit_lower() * unit_lower().T))
        (tmp_path / name).write_text(serialize_module(mods[-1]))
    code, out, _ = run_cli(capsys, "iso", str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                           "--no-timing")
    doc = json.loads(out)
    assert code == 0 and doc["isomorphic"] is True
    t = Matrix([[F(e) for e in row] for row in doc["intertwiner"]])
    assert t * mods[0].X == mods[1].X * t and t * mods[0].Y == mods[1].Y * t
    assert t.rank() == n


# --- minpoly and scan -----------------------------------------------------------------

def test_minpoly_all_generators(capsys, tmp_path):
    path = tmp_path / "o.json"
    run_cli(capsys, "fixture", "exampleO", "--out", str(path))
    code, out, _ = run_cli(capsys, "minpoly", str(path), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    by_gen = {r["generator"]: r for r in doc["results"]}
    assert set(by_gen) == {"X", "Y", "Z"}
    assert all(not r["squarefree"] for r in by_gen.values())
    assert all(not r["diagonalizable"] for r in by_gen.values())
    assert by_gen["Z"]["factored"] == "(x - 3/2)^2(x + 1/2)^2(x + 5/2)"


def test_scan_grid_agrees(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "even", "--d", "1",
                           "--values=-1,0,1", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_points"] == 27
    assert doc["disagreements"] == [] and doc["indeterminate"] == []


def test_scan_odd_family(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "odd", "--d", "2",
                           "--values=0,-1/2,1", "--no-timing")
    assert code == 0
    assert json.loads(out)["disagreements"] == []


def test_scan_rejects_bad_parity(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "even", "--d", "2", "--values=0")
    assert code == 2
    assert "odd d" in err


# --- the one report path ----------------------------------------------------------------

# argv after the command name, given one module file, and the report's own fields
# on the exampleE fixture (which carries family meta)
REPORTS = {
    "check": (lambda path: [path], ["relations", "passed"]),
    "classify": (lambda path: [path],
                 ["oracle", "criterion", "methods_agree", "invariants", "class"]),
    "identify": (lambda path: [path], ["class", "invariants"]),
    "iso": (lambda path: [path, path], ["isomorphic", "intertwiner"]),
    "minpoly": (lambda path: ["--gen", "Z", path], ["gen", "results"]),
    "scan": (lambda path: ["--family", "even", "--d", "1", "--values=0"],
             ["family", "d", "grid_points", "disagreements", "indeterminate"]),
}


@pytest.mark.parametrize("timing", [False, True], ids=["no-timing", "timing"])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_report_key_order(capsys, tmp_path, command, timing):
    path = tmp_path / "e.json"
    path.write_text((GOLDEN / "module_exampleE.json").read_text())
    args, fields = REPORTS[command]
    code, out, _ = run_cli(capsys, command, *args(str(path)),
                           *([] if timing else ["--no-timing"]))
    doc = json.loads(out)
    head = {"scan": [], "iso": ["inputs"]}.get(command, ["input"])
    assert list(doc) == ["command", *head, *fields, *(["timing_s"] if timing else []), "exit"]
    assert doc["command"] == command and doc["exit"] == code == 0
    assert not timing or re.fullmatch(r"\d+\.\d{3}", doc["timing_s"])


@pytest.mark.parametrize("command", ["check", "classify", "identify", "iso", "minpoly"])
def test_relations_gate_matrix(capsys, tmp_path, command):
    # only the commands that assume a module stop at the relations
    gated = command in ("classify", "identify", "iso")
    doc = json.loads(serialize_module(example_even()))
    doc["Y"][0][1] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, command, *REPORTS[command][0](str(path)), "--no-timing")
    rep = json.loads(out)
    assert rep["exit"] == code
    if gated:
        assert code == 1 and list(rep)[-3:] == ["relations", "error", "exit"]
        assert rep["error"] == "defining relations fail; not a module"
    else:
        assert "error" not in rep and list(rep)[-3:-1] == REPORTS[command][1]
        assert code == (1 if command == "check" else 0)


# --- golden pipe -----------------------------------------------------------------------

def test_golden_minpoly_pipe_is_byte_exact():
    fixture = subprocess.run([sys.executable, "-m", "bannai_ito", "fixture", "exampleE"],
                             capture_output=True, check=True)
    report = subprocess.run([sys.executable, "-m", "bannai_ito", "minpoly",
                             "--gen", "Z", "--no-timing"],
                            input=fixture.stdout, capture_output=True, check=True)
    assert report.stdout == (GOLDEN / "minpoly_z_exampleE.json").read_bytes()


def test_reports_are_deterministic(capsys, tmp_path):
    path = tmp_path / "e.json"
    run_cli(capsys, "fixture", "exampleE", "--out", str(path))
    runs = [run_cli(capsys, "classify", str(path), "--no-timing")[1] for _ in range(2)]
    assert runs[0] == runs[1]

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from fmcalc import cli, gamma, modp
from fmcalc.cli import build_parser, main, parse_poly_string
from fmcalc.errors import UsageError
from fmcalc.gradedpoly import monomial_count, monomials_of_weight
from fmcalc.numberring import TowerDescriptor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MOD_P2 = {
    "p": 2,
    "N": 2,
    "ideal": [
        {"terms": [{"exps": {}, "coeff": "2"}]},
        {"terms": [{"exps": {"2": 1}, "coeff": "1"},
                   {"exps": {"1": 3}, "coeff": "-1"}]},
    ],
    "finitely_presented": True,
    "context": "bp",
}


def _module(**changes):
    return dict(MOD_P2, **changes)


def _ideal_term(exps, coeff="1"):
    return {"terms": [{"exps": exps, "coeff": coeff}]}


# A valid config tower, Q2(sqrt2); its fields are spoiled one at a time below.
Q2_SQRT2 = {"p": 2, "unram_poly": [1, 1], "eis_poly": [["-2"], ["0"], ["1"]]}


# Module files that `obstruct` must reject with exit 2.
BAD_MODULES = {
    "empty-object": {},
    "list": [],
    "ideal-not-a-list": _module(ideal="x"),
    "exponent-key": _module(ideal=[_ideal_term({"x": 1})]),
    "coefficient": _module(ideal=[_ideal_term({"1": 1}, "abc")]),
    "negative-exponent": _module(ideal=[_ideal_term({"1": -1})]),
    "index-above-N": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"3": 1})]),
    "composite-p": _module(p=4, ideal=[_ideal_term({}, "4")]),
    "negative-N": _module(N=-1, ideal=[_ideal_term({}, "2")]),
    "generator-v0": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"0": 1})]),
    "context-p": _module(context={"tower": TowerDescriptor(3, [0, 1], [-3, 0, 1]).to_json()}),
    "non-homogeneous": _module(ideal=[
        _ideal_term({}, "2"),
        {"terms": [{"exps": {"1": 1}, "coeff": "1"}, {"exps": {"2": 1}, "coeff": "1"}]},
    ]),
    # bool("false") is true: on (2, v_1, v_2) it would fire R3.
    "finitely-presented-text": _module(
        ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1}), _ideal_term({"2": 1})],
        finitely_presented="false"),
    "context-text": _module(context="xyz"),
    "context-key": _module(context={"towr": {}}),
    # int() would read these as 2, v_1 and v_1.
    "p-fraction": _module(p=2.7),
    "exponent-fraction": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1.5})]),
    "exponent-bool": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"1": True})]),
    # Read as v_1^2, and as (2, v_1) instead of (2, 2 v_1).
    "generator-twice": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1, "01": 2})]),
    "monomial-twice": _module(ideal=[_ideal_term({}, "2"), {"terms": [
        {"exps": {"1": 1}, "coeff": "1"}, {"exps": {"1": 1}, "coeff": "1"}]}]),
    "coefficient-not-p-integral": _module(
        ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1}, "1/2")]),
    # Coordinate rows over Q_2: one row of at most one entry.
    "coefficient-rows": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1}, [["1"], ["0"]])]),
    "coefficient-row": _module(ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1}, [["1", "0"]])]),
}


class TestParsePoly:
    def test_cubic(self):
        assert parse_poly_string("x^3-2") == [-2, 0, 0, 1]

    def test_spaces_and_plus(self):
        assert parse_poly_string("x^2 + x + 1") == [1, 1, 1]

    def test_leading_minus(self):
        assert parse_poly_string("-x^2+3") == [3, 0, -1]

    def test_explicit_coefficients(self):
        assert parse_poly_string("2x^2-5x+7") == [7, -5, 2]

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_poly_string("x^^2")
        with pytest.raises(UsageError):
            parse_poly_string("")

    @pytest.mark.parametrize("text", ["+", "-", "x^2++1", "x^2+-1", "--x", "x^2+",
                                      "x^2 + ", "x^"])
    def test_empty_terms_and_stray_signs_rejected(self, text):
        with pytest.raises(UsageError):
            parse_poly_string(text)

    @pytest.mark.parametrize("text", ["+", "x^2++1", "x^2+"])
    def test_splitting_rejects_malformed_polynomial(self, capsys, text):
        code, out, err = run(capsys, "splitting", text, "--pmax", "10")
        assert (code, out) == (2, "")
        assert err.startswith("fmcalc: error: cannot parse polynomial term")


class TestExitCodes:
    def test_tower_check_ok(self, capsys):
        code, out, err = run(capsys, "tower", "check", "--p", "2", "--e", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["valid"] and rep["e"] == 2 and rep["uniformizer"] == "theta"

    def test_verify_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "low-degree", "--p", "2",
                           "--e", "2", "--N", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_unramified_on_ramified_tower_fails(self, capsys):
        code, out, err = run(capsys, "verify", "unramified", "--p", "2",
                             "--e", "2", "--N", "2")
        assert code == 1

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2 and "error" in err

    def test_no_subcommand(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_missing_tower(self, capsys):
        code, out, err = run(capsys, "log")
        assert code == 2 and "no tower" in err

    def test_negative_N_rejected(self, capsys):
        code, out, err = run(capsys, "log", "--p", "2", "--N", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gamma", "--p", "2", "--e", "0"],
        ["gamma", "--p", "2", "--e", "-3"],
        ["gamma", "--p", "2", "--f", "0"],
        ["gamma", "--p", "2", "--eis", "x"],
        ["gamma", "--p", "2", "--eis", "1/0,0,1"],
        ["gamma", "--p", "2", "--unram", "1,x"],
        ["verify", "ordering", "--p", "2", "--e", "2", "--N", "2", "--weight-bound", "-3"],
    ], ids=["e-zero", "e-negative", "f-zero", "eis-text", "eis-zero-denominator",
            "unram-text", "weight-bound-negative"])
    def test_bad_tower_or_bound_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("fmcalc: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cfg", [{"e": 0}, {"f": 0}, {"weight_bound": -1},
                                     {"unram": [1, "x"]}, {"N": "x"}, {"p": "x"},
                                     {"N": 2.7}, {"seed": 1.5}, {"e": True},
                                     {"tower": {"p": 2}}, {"tower": "x"},
                                     {"unram": [1.5, 1]},
                                     {"tower": dict(Q2_SQRT2, p=2.9)},
                                     {"tower": dict(Q2_SQRT2, unram_poly=[0.7, 1])}],
                             ids=["e-zero", "f-zero", "weight-bound-negative",
                                  "unram-text", "N-text", "p-text", "N-fraction",
                                  "seed-fraction", "e-bool", "tower-without-polys",
                                  "tower-text", "unram-fraction", "tower-p-fraction",
                                  "tower-unram-fraction"])
    def test_bad_config_setting(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2, **cfg}))
        code, out, err = run(capsys, "verify", "ordering", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("fmcalc: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--p", "2", "--f", "1", "--unram", "1,1,1"],
        ["--p", "2", "--f", "2", "--unram", "1,1"],
        ["--p", "2", "--e", "3", "--eis=-2,0,1"],
        ["--p", "3", "--e", "1", "--eis", "3,0,1"],
    ], ids=["f-below-unram", "f-above-unram", "e-above-eis", "e-below-eis"])
    def test_degree_contradicting_its_polynomial_refused(self, capsys, argv):
        code, out, err = run(capsys, "tower", "check", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("fmcalc: error: ") and err.count("\n") == 1

    def test_config_degree_contradicting_its_polynomial_refused(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2, "f": 3, "unram": [1, 1, 1]}))
        code, out, err = run(capsys, "tower", "check", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "fmcalc: error: f = 3, but the unram polynomial has degree 2\n"

    @pytest.mark.parametrize("argv, same_as", [
        (["--unram", "1,1,1"], ["--f", "2"]),
        (["--f", "2", "--unram", "1,1,1"], ["--f", "2"]),
        (["--eis=-2,0,1"], ["--e", "2"]),
        (["--e", "2", "--eis=-2,0,1"], ["--e", "2"]),
    ], ids=["unram-alone", "unram-with-f", "eis-alone", "eis-with-e"])
    def test_polynomial_sets_its_degree(self, capsys, argv, same_as):
        # Without f (e) the polynomial's degree decides; a first coefficient
        # below zero is written --eis=-2,0,1, which argparse reads as a value.
        by_poly = run(capsys, "tower", "check", "--p", "2", *argv)
        assert by_poly == run(capsys, "tower", "check", "--p", "2", *same_as)
        assert by_poly[0] == 0

    def test_composite_p_with_f_refused(self, capsys):
        code, out, err = run(capsys, "tower", "check", "--p", "4", "--f", "2")
        assert (code, out, err) == (1, "", "fmcalc: NotPrime: 4 is not prime\n")

    @pytest.mark.parametrize("suite, check", [
        ("low-degree", "low-degree check"),
        ("rational-iso", "rational isomorphism check"),
        ("kappa", "kappa congruence"),
        ("ordering", "order preservation check"),
    ])
    @pytest.mark.parametrize("tower", [["--f", "2"], ["--f", "2", "--e", "2"]],
                             ids=["unramified", "mixed"])
    def test_suite_refuses_a_table_not_totally_ramified(self, capsys, suite, check, tower):
        code, out, err = run(capsys, "verify", suite, "--p", "2", *tower, "--N", "2")
        assert (code, out) == (1, "")
        assert err == "fmcalc: NotSubtower: %s requires a totally ramified table\n" % check

    @pytest.mark.parametrize("cfg", [{"N": 2.0, "seed": "3"}, {"N": "2", "seed": 3.0}],
                             ids=["integral-float", "integer-text"])
    def test_integer_config_setting_forms(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2, "e": 2, **cfg}))
        by_config = run(capsys, "verify", "ordering", "--config", str(path))
        by_flags = run(capsys, "verify", "ordering", "--p", "2", "--e", "2", "--N", "2",
                       "--seed", "3")
        assert by_config == by_flags and by_flags[0] == 0

    @pytest.mark.parametrize("argv", [["--N", "9", "gamma", "--p", "2", "--e", "2"],
                                      ["--p", "2", "gamma"]],
                             ids=["N-before-subcommand", "p-before-subcommand"])
    def test_setting_before_subcommand_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("fmcalc: error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_identical_output_same_seed(self, capsys):
        a = run(capsys, "verify", "ordering", "--p", "2", "--e", "2",
                "--N", "2", "--seed", "7")
        b = run(capsys, "verify", "ordering", "--p", "2", "--e", "2",
                "--N", "2", "--seed", "7")
        assert a == b and a[0] == 0

    def test_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "log", "--p", "3", "--N", "2",
                           "--seed", "42")
        assert json.loads(out)["seed"] == 42

    def test_canonical_json_compact_sorted(self, capsys):
        code, out, _ = run(capsys, "tower", "check", "--p", "2")
        assert ": " not in out and out.endswith("\n")
        rep = json.loads(out)
        assert list(rep) == sorted(rep)


class TestConfig:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "e": 2, "N": 2}))
        code, out, _ = run(capsys, "tower", "check", "--config", str(cfg))
        assert code == 0 and json.loads(out)["e"] == 2

    def test_env_fallback(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3, "N": 2}))
        monkeypatch.setenv("FMCALC_CONFIG", str(cfg))
        code, out, _ = run(capsys, "log")
        assert code == 0 and json.loads(out)["N"] == 2

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "e": 2}))
        code, out, _ = run(capsys, "tower", "check", "--config", str(cfg),
                           "--e", "3")
        assert json.loads(out)["e"] == 3

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, out, err = run(capsys, "tower", "check", "--config", str(cfg))
        assert code == 2

    def test_missing_config(self, capsys):
        code, out, err = run(capsys, "tower", "check", "--config", "/nope.json")
        assert code == 2


class TestCommands:
    def test_log_structure(self, capsys):
        code, out, _ = run(capsys, "log", "--p", "2", "--N", "3")
        rep = json.loads(out)
        assert len(rep["log"]["entries"]) == 4

    def test_gamma_unramified(self, capsys):
        code, out, _ = run(capsys, "gamma", "--p", "2", "--f", "2", "--N", "2")
        rep = json.loads(out)
        assert code == 0
        assert rep["table"]["images"]["1"]["terms"] == []

    def test_obstruct_flagship(self, capsys, tmp_path):
        spec = tmp_path / "mod.json"
        spec.write_text(json.dumps(MOD_P2))
        code, out, _ = run(capsys, "obstruct", str(spec))
        rep = json.loads(out)
        assert code == 0
        assert rep["certificate"]["verdict"] == "NotRealizable"
        assert rep["certificate"]["rules_fired"] == ["R1"]

    @pytest.mark.parametrize("N, ideal", [
        # (2, v_3^2 + v_1^14, v_3*v_2 + v_1^10): the S-pair has weight 17,
        # above the default bound 2(p^N - 1) = 14.
        (3, [{"terms": [{"exps": {"3": 2}, "coeff": "1"}, {"exps": {"1": 14}, "coeff": "1"}]},
             {"terms": [{"exps": {"3": 1, "2": 1}, "coeff": "1"},
                        {"exps": {"1": 10}, "coeff": "1"}]}]),
        # (2, v_2*v_1 + v_1^4, v_2^2*v_1): the S-pair has weight 7 > 6, and
        # no leading monomial divides a power of v_1 or of v_2.
        (2, [{"terms": [{"exps": {"1": 1, "2": 1}, "coeff": "1"},
                        {"exps": {"1": 4}, "coeff": "1"}]},
             _ideal_term({"1": 1, "2": 2})]),
    ], ids=["S-pair-above-14", "no-reducible-power"])
    def test_obstruct_truncated_basis_refuses_a_verdict(self, capsys, tmp_path, N, ideal):
        # A truncated basis proves nothing nonzero, even about powers that
        # no leading monomial divides.
        spec = tmp_path / "mod.json"
        spec.write_text(json.dumps(_module(N=N, ideal=[_ideal_term({}, "2")] + ideal)))
        code, out, err = run(capsys, "obstruct", str(spec))
        assert (code, out) == (1, "")
        assert err.startswith("fmcalc: TruncationUnsound: ")

    def test_obstruct_bad_file(self, capsys):
        code, out, err = run(capsys, "obstruct", "/nonexistent.json")
        assert code == 2

    def test_splitting_found(self, capsys):
        code, out, _ = run(capsys, "splitting", "x^3-2", "--pmax", "50")
        rep = json.loads(out)
        assert code == 0 and rep["report"]["prime"] == 7

    def test_splitting_not_found(self, capsys):
        code, out, _ = run(capsys, "splitting", "x-1", "--pmax", "20")
        rep = json.loads(out)
        assert code == 1 and rep["found"] is False and rep["scan_table"]

    @pytest.mark.parametrize("pmax", ["1", "-3"])
    def test_splitting_pmax_below_two_rejected(self, capsys, pmax):
        code, out, err = run(capsys, "splitting", "x^3-2", "--pmax", pmax)
        assert (code, out) == (2, "")
        assert err == "fmcalc: error: pmax must be an integer >= 2\n"

    def test_localcoh(self, capsys, tmp_path):
        spec = tmp_path / "lc.json"
        spec.write_text(json.dumps({"p": 2, "degrees": {"0": [[4, 0], [0, 0]]}}))
        code, out, _ = run(capsys, "localcoh", str(spec))
        rep = json.loads(out)
        assert code == 0
        assert rep["degrees"]["0"]["H0_invariants"] == [4]
        assert rep["degrees"]["0"]["H1_corank"] == 1

    @pytest.mark.parametrize("p, matrix", [(2, [[1, 2], [3]]), (2, [[2, 2], [3, "a"]]),
                                           (4, [[8]]), (2, [[2.5]]), (2, [[True, 2]]),
                                           (2.5, [[4]])],
                             ids=["ragged", "non-numeric", "composite-p", "fractional",
                                  "bool", "p-fraction"])
    def test_localcoh_malformed_matrix(self, capsys, tmp_path, p, matrix):
        spec = tmp_path / "lc.json"
        spec.write_text(json.dumps({"p": p, "degrees": {"0": matrix}}))
        code, out, err = run(capsys, "localcoh", str(spec))
        assert code == 2 and out == ""
        assert err.startswith("fmcalc: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", list(BAD_MODULES.values()), ids=list(BAD_MODULES))
    def test_obstruct_malformed_module(self, capsys, tmp_path, spec):
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "obstruct", str(path))
        assert code == 2 and out == ""
        assert err.startswith("fmcalc: error: module spec") and err.count("\n") == 1

    def test_obstruct_refuses_kmax_below_one(self, capsys, tmp_path):
        # J = (2, v_1, v_2^3): v_1 lies in J.  kmax = 0 scans no power, so
        # v_1 would count as not torsion and R1 fire with v_1's normal form 0.
        spec = tmp_path / "mod.json"
        spec.write_text(json.dumps(_module(
            ideal=[_ideal_term({}, "2"), _ideal_term({"1": 1}), _ideal_term({"2": 3})],
            finitely_presented=False)))
        code, out, err = run(capsys, "obstruct", str(spec), "--kmax", "0")
        assert (code, out, err) == (2, "", "fmcalc: error: kmax must be an integer >= 1\n")
        code, out, _ = run(capsys, "obstruct", str(spec), "--kmax", "1")
        cert = json.loads(out)["certificate"]
        assert code == 0 and cert["verdict"] == "NoObstructionFound"

    def test_verify_rational_iso_at_N_0(self, capsys):
        # No generators: every weight's basis is empty except {1} in weight 0.
        code, out, _ = run(capsys, "verify", "rational-iso", "--p", "2", "--e", "2", "--N", "0")
        rep = json.loads(out)
        assert code == 0 and rep["passed"]
        assert {w: r["basis_size"] for w, r in rep["weights"].items()} == {
            str(w): int(w == 0) for w in range(8)}

    @pytest.mark.parametrize("argv, q", [
        (["--p", "2", "--e", "2", "--N", "0"], 2),
        (["--p", "2", "--e", "2", "--N", "2", "--weight-bound", "0"], 2),
        (["--p", "3", "--e", "2", "--N", "3", "--weight-bound", "1"], 3),
    ], ids=["N-0", "p2-bound-0", "p3-bound-1"])
    def test_verify_ordering_refuses_a_pool_of_one_monomial(self, capsys, argv, q):
        # Each would sample the monomial 1 alone and pass comparing nothing.
        code, out, err = run(capsys, "verify", "ordering", *argv)
        assert (code, out) == (2, "")
        assert err == ("fmcalc: error: verify ordering needs N >= 1 and a weight bound "
                       ">= q - 1 = %d\n" % (q - 1))

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "tower", "check", "--p", "2",
                           "--output", "text")
        assert code == 0
        with pytest.raises(ValueError):
            json.loads(out)
        assert "valid" in out

    def test_verify_eventual_division_raw(self, capsys):
        code, out, _ = run(capsys, "verify", "eventual-division", "--p", "2",
                           "--e", "3", "--N", "3", "--mmax", "8")
        rep = json.loads(out)
        assert code == 0
        first = rep["witnesses"][0]
        assert first["found"] and first["case"] == "zero" and first["m"] == 4

    @pytest.mark.parametrize("N", [0, 1])
    def test_verify_eventual_division_refuses_N_below_2(self, capsys, N):
        # The scan at n reads gamma(v_{n+1}), so below N = 2 it scans no n
        # and would pass with no witnesses.
        code, out, err = run(capsys, "verify", "eventual-division", "--p", "2",
                             "--e", "2", "--N", str(N))
        assert (code, out, err) == (
            2, "", "fmcalc: error: verify eventual-division needs N >= 2\n")

    def test_verify_eventual_division_refuses_mmax_0(self, capsys):
        # A scan up to m_max = 0 tries no m, so a pass would check nothing.
        code, out, err = run(capsys, "verify", "eventual-division", "--p", "2",
                             "--e", "2", "--N", "3", "--mmax", "0")
        assert (code, out, err) == (
            2, "", "fmcalc: error: verify eventual-division needs mmax >= 1\n")
        code, out, _ = run(capsys, "verify", "eventual-division", "--p", "2",
                           "--e", "2", "--N", "3", "--mmax", "1")
        assert code == 0 and json.loads(out)["m_max"] == 1

    def test_verify_eventual_division_unramified(self, capsys):
        # gamma(v_1) = 0 on an unramified tower: the search must not divide
        # by it, and gamma(v_2)^m = v_1^m never lies in I_1 = (p).
        code, out, _ = run(capsys, "verify", "eventual-division", "--p", "2",
                           "--f", "2", "--N", "3")
        assert code == 0
        assert json.loads(out)["witnesses"][0]["found"] is False


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_alone(argv):
    """One invocation in a fresh interpreter: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FMCALC_CONFIG", None)
    proc = subprocess.run([sys.executable, "-m", "fmcalc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def test_session_reuses_parser_without_leaks(capsys, tmp_path, monkeypatch):
    # One interpreter shares one parser across calls.  Options set by one
    # call (a seed, text output, a k bound, a p bound) must not reach the
    # next, so each call prints what it prints when run alone.
    monkeypatch.delenv("FMCALC_CONFIG", raising=False)
    module = tmp_path / "mod.json"
    module.write_text(json.dumps(MOD_P2))
    matrices = tmp_path / "lc.json"
    matrices.write_text(json.dumps({"p": 2, "degrees": {"0": [[4, 6], [2, 8]]}}))
    session = [
        ["verify", "kappa", "--p", "2", "--e", "2", "--N", "4", "--seed", "7",
         "--output", "text"],
        ["gamma", "--p", "2", "--e", "2", "--N", "2"],
        ["obstruct", str(module), "--kmax", "3", "--bogus"],
        ["obstruct", str(module)],
        ["localcoh", str(matrices)],
        ["splitting", "x^3-2", "--pmax", "50"],
    ]
    results = [run(capsys, *argv)[:2] for argv in session]
    assert build_parser() is build_parser()
    assert [code for code, _ in results] == [0, 0, 2, 0, 0, 0]
    assert json.loads(results[1][1])["seed"] == 0
    assert json.loads(results[3][1])["certificate"]["bounds"]["k_max"] == 20
    assert results == [run_alone(argv) for argv in session]


def test_session_reuses_towers_images_and_scans_across_N(capsys, tmp_path, monkeypatch):
    # One interpreter builds Q2(x^2-2) and its gamma images once and serves
    # every N from them, eventual-division scans included.  Each call
    # still prints what it prints when run alone, and a config tower equal
    # to the flag tower prints its own label, not the flag tower's.
    monkeypatch.delenv("FMCALC_CONFIG", raising=False)
    cfg = tmp_path / "sqrt2.json"
    cfg.write_text(json.dumps({"tower": {"p": 2, "unram_poly": [0, 1],
                                         "eis_poly": [["-2"], ["0"], ["1"]],
                                         "label": "sqrt2"}}))
    session = [
        ["verify", suite, "--p", "2", "--e", "2", "--N", str(N)]
        for N in (2, 3, 4) for suite in ("eventual-division", "rational-iso")
    ] + [
        ["gamma", "--p", "2", "--e", "2", "--N", "3"],
        ["gamma", "--config", str(cfg), "--N", "3"],
    ]
    results = [run(capsys, *argv)[:2] for argv in session]
    assert [code for code, _ in results] == [0] * len(session)
    labels = [json.loads(out)["tower"]["label"] for _, out in results[-2:]]
    assert labels == ["p=2,f=1,e=2", "sqrt2"]
    assert results == [run_alone(argv) for argv in session]


def test_session_searches_each_default_polynomial_once(capsys, monkeypatch):
    calls = []
    search = modp.smallest_irreducible
    monkeypatch.setattr(modp, "smallest_irreducible",
                        lambda p, n: calls.append((p, n)) or search(p, n))
    cli._tower.cache_clear()
    results = [run(capsys, "tower", "check", "--p", "2", "--f", "2") for _ in range(10)]
    assert calls == [(2, 2)]
    assert results == [results[0]] * 10 and results[0][0] == 0


def _perfbench_workloads():
    path = SRC.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weight_bounded_reports_match_fresh_runs(capsys, monkeypatch):
    # `verify rational-iso` and `verify ordering` read only the generators
    # v_n with q^n - 1 <= their weight bound, and one process computes each
    # report once for the largest such n <= N.  On every verify-session
    # tower, at N = 0 up to one past the benchmark's, first in ascending and
    # then in descending order, each warm call prints what the report
    # computed at N itself prints, with every cache but the gamma images
    # (see the test above) and the parser emptied.  At a sample, a fresh
    # interpreter prints the same.
    monkeypatch.delenv("FMCALC_CONFIG", raising=False)
    wl = _perfbench_workloads()
    bounds = [[], ["--weight-bound", "0"], ["--weight-bound", "7"], ["--weight-bound", "26"]]
    argvs = []
    for label, n_max in wl.SESSION_TOWERS.items():
        for N in range(n_max + 2):
            base = wl.TOWERS[label] + ["--N", str(N)]
            argvs += [["verify", "rational-iso", *base, *bound] for bound in bounds]
            argvs += [["verify", "ordering", *base, "--seed", "0"]]
            argvs += [["verify", "ordering", *base, "--seed", "3", *bound] for bound in bounds]
    warm = [run(capsys, *argv)[:2] for argv in argvs + argvs[::-1]]
    fresh = {}
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_generators_within", lambda q, N, weight_bound: N)
        for argv in argvs:
            for cache in cli.PROCESS_CACHES:
                if cache not in (gamma.gamma_images, cli.build_parser):
                    cache.cache_clear()
            fresh[tuple(argv)] = run(capsys, *argv)[:2]
    assert warm == [fresh[tuple(argv)] for argv in argvs + argvs[::-1]]
    assert {code for code, _ in warm} == {0, 1, 2}
    # `verify ordering` at N = 0 or bound 0 would sample the monomial 1 alone.
    pool_of_one = [argv for argv in argvs if argv[1] == "ordering" and (
        argv[argv.index("--N") + 1] == "0" or argv[-2:] == ["--weight-bound", "0"])]
    assert all(fresh[tuple(argv)] == (2, "") for argv in pool_of_one)
    sample = [
        ["verify", "rational-iso", "--p", "3", "--e", "3", "--N", "5"],
        ["verify", "ordering", "--p", "2", "--e", "2", "--N", "6", "--seed", "3",
         "--weight-bound", "7"],
        ["verify", "rational-iso", "--p", "2", "--f", "2", "--N", "3"],
    ]
    assert [fresh[tuple(argv)] for argv in sample] == [run_alone(argv) for argv in sample]


@pytest.mark.parametrize("suite", ["rational-iso", "ordering"])
def test_weight_bounded_suites_build_no_image_above_n_b(capsys, monkeypatch, suite):
    # At the default bound (7 for rational-iso, 6 for ordering at q = 2)
    # n_B = 3 and 2: a report at N = 7 is the one at N = 3, and neither run
    # builds a gamma image above n_B, the total-ramification check included.
    monkeypatch.delenv("FMCALC_CONFIG", raising=False)
    asked = []
    compute_gamma = gamma.compute_gamma
    monkeypatch.setattr(gamma, "compute_gamma",
                        lambda source, target, N: asked.append(N) or compute_gamma(source, target, N))
    outs = []
    for N in ("7", "3"):
        for cache in cli.PROCESS_CACHES:
            cache.cache_clear()
        outs.append(run(capsys, "verify", suite, "--p", "2", "--e", "2", "--N", N))
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert max(asked) == {"rational-iso": 3, "ordering": 2}[suite]


def test_monomial_count_matches_the_weight_basis():
    # Below the limit the count is exact; the pieces gamma(v_N) lives in at
    # the sizes the limit was set from count as stated beside it.
    for q, p, n_max in [(2, 2, 7), (3, 3, 5), (4, 2, 6), (9, 3, 3), (5, 5, 3)]:
        for N in range(n_max + 1):
            w = p ** N - 1
            expected = len(monomials_of_weight(q, N, w)) if w % (q - 1) == 0 else 0
            assert monomial_count(q, N, w, 10 ** 9) == expected, (q, N)
            assert expected == 0 or monomial_count(q, N, w, expected - 1) >= expected
    counts = [monomial_count(q, N, q ** N - 1, 10 ** 9)
              for q, N in [(2, 7), (2, 8), (3, 6), (3, 7), (2, 9)]]
    assert counts == [2724, 42987, 6724, 401983, 1128093]
    assert monomial_count(4, 12, 2 ** 12 - 1, 10 ** 9) == 85689  # Q2, f = e = 2
    assert monomial_count(4, 29, 2 ** 29 - 1, 10) == 0  # gamma(v_29) = 0 when f = 2


@pytest.mark.parametrize("p, N", [(3, 8), (2, 30)])
def test_gamma_refuses_a_piece_above_the_monomial_limit(p, N):
    # gamma(v_8) over Q3(x^3-3) lives in a piece of 59,297,475 monomials and
    # would take hours to build; the CLI refuses it, and v_30 over
    # Q2(x^2-2) too, from a count that stops past the limit.  A fresh
    # interpreter with a timeout, so that a build fails instead of hanging.
    argv = ["gamma", "--p", str(p), "--e", str(p), "--N", str(N)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FMCALC_CONFIG", None)
    proc = subprocess.run([sys.executable, "-m", "fmcalc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    match = re.fullmatch(r"fmcalc: error: gamma\(v_%d\) lives in a weight piece of at least "
                         r"(\d+) monomials, above the limit of 50000\n" % N, proc.stderr)
    assert match and int(match[1]) > cli.GAMMA_MONOMIAL_LIMIT == 50000


def test_gamma_below_the_monomial_limit_runs(capsys):
    # Q2(x^2-2) at N = 7: 2,724 monomials, the largest piece a pinned job
    # reaches.
    code, out, _ = run(capsys, "gamma", "--p", "2", "--e", "2", "--N", "7")
    assert code == 0 and len(json.loads(out)["table"]["images"]["7"]["terms"]) > 0


@pytest.mark.parametrize("argv", [
    ("gamma", "--p", "2", "--N", "9"),
    ("gamma", "--p", "3", "--N", "7"),
    ("gamma", "--p", "2", "--f", "2", "--N", "14"),
    ("verify", "unramified", "--p", "2", "--f", "2", "--N", "24"),
    ("verify", "unramified", "--p", "3", "--f", "3", "--N", "30"),
])
def test_unramified_gamma_is_not_bound_by_the_monomial_count(capsys, argv):
    # Where e = 1, gamma(v_N) is v_{N/f} or 0, however many monomials its
    # weight piece has (1,128,093 for Q2 at N = 9): the build makes only the
    # log coefficients, and these run in well under a second.
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    images = report["table"]["images"] if argv[0] == "gamma" else report["images"]
    assert code == 0 and len(images) == int(argv[-1])


def test_unramified_gamma_refuses_a_log_coefficient_above_the_limit():
    # Q2 at N = 40 would build l_40 of 2^39 terms; the CLI refuses it at
    # once.  A fresh interpreter with a timeout, so that a build fails
    # instead of hanging.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FMCALC_CONFIG", None)
    proc = subprocess.run([sys.executable, "-m", "fmcalc.cli", "gamma", "--p", "2", "--N", "40"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("fmcalc: error: gamma to v_40 builds the log coefficient l_40, "
                           "above the limit of l_19\n")


def test_gamma_cold_start_loads_only_what_it_runs():
    # A one-shot `fmcalc gamma` needs neither the torsion module nor the
    # dataclasses machinery (and the inspect module it pulls in).
    probe = ("import io, contextlib, sys\n"
             "from fmcalc.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['gamma', '--p', '2', '--e', '2', '--N', '2'])\n"
             "print(code, sorted(m for m in ('fmcalc.torsion', 'dataclasses', 'inspect')\n"
             "                  if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FMCALC_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"

"""End-to-end acceptance suite: one test per shipped guarantee.

Everything is exact arithmetic (no tolerances) and the whole file is budgeted
to run in well under two minutes.
"""

import hashlib
import json
import random

import pytest

from fmcalc import gamma as gm
from fmcalc import numberring as nr
from fmcalc import torsion as ts
from fmcalc.cli import main
from fmcalc.formal import hazewinkel_log, log_closed_form, trivial_tower
from fmcalc.gradedpoly import GradedPoly, PolyRing, graded_basis, leading_monomial, monomial
from fmcalc.numberring import analyze_prime, embed, find_nonsplit_prime, TowerDescriptor
from fmcalc.report import canonical_json


ALL_TOWER_NAMES = (
    "q2", "q3", "q5", "q2_sqrt2", "q2_cbrt2", "q3_sqrt3",
    "unram2_f2", "unram3_f2",
)


@pytest.fixture(scope="module")
def towers(request):
    return {n: request.getfixturevalue(n) for n in ALL_TOWER_NAMES}


def test_criterion_01_log_recursion_matches_closed_form(towers):
    for name, tower in towers.items():
        rec = hazewinkel_log(tower, 6)
        closed = log_closed_form(tower, 6)
        for n in range(7):
            assert rec[n] == closed[n], (name, n)


def test_criterion_02_unramified_gamma(q2, q3, unram2_f2, unram3_f2, unram2_f3):
    cases = [(q2, unram2_f2, 2), (q3, unram3_f2, 2), (q2, unram2_f3, 3)]
    for source, target, f in cases:
        table = gm.compute_gamma(source, target, 6)
        ring = table.target_ring
        for i in range(1, 7):
            if i % f:
                assert table.image(i).is_zero(), (f, i)
            else:
                assert table.image(i) == ring.gen(i // f), (f, i)


def test_criterion_03_totally_ramified_low_degree():
    for p in (2, 3, 5):
        for e in (2, 3):
            tower = TowerDescriptor(p, [0, 1], [-p] + [0] * (e - 1) + [1])
            source = trivial_tower(p)
            table = gm.compute_gamma(source, tower, 2)
            ring = table.target_ring
            pi_a = embed(source.uniformizer(), tower)
            pi_b = tower.uniformizer()
            q = p
            assert table.image(1) == ring.gen(1).scale(pi_a / pi_b)
            expected2 = ring.gen(2).scale(pi_a / pi_b) + ring.gen(1, q + 1).scale(
                pi_a / pi_b ** 2 - pi_a ** q / pi_b ** (q + 1)
            )
            assert table.image(2) == expected2
    # derived specialization at (p=2, e=2): gamma(v_2) = theta v_2 + (1-theta) v_1^3
    tower = TowerDescriptor(2, [0, 1], [-2, 0, 1])
    table = gm.compute_gamma(trivial_tower(2), tower, 2)
    ring = table.target_ring
    th = tower.theta()
    assert table.image(2) == ring.gen(2).scale(th) + ring.gen(1, 3).scale(
        tower.one() - th
    )


def test_criterion_04_integrality_of_gamma_images(towers):
    for name, tower in towers.items():
        table = gm.compute_gamma(trivial_tower(tower.p), tower, 6)
        assert table.integrality_verified, name
        for n in range(1, 7):
            assert all(
                nr.is_integral(c) for c in table.image(n).terms.values()
            ), (name, n)


def test_criterion_05_rational_isomorphism(q2, q3, q2_sqrt2, q3_sqrt3):
    for source, target in ((q2, q2_sqrt2), (q3, q3_sqrt3)):
        table = gm.compute_gamma(source, target, 6)
        q = source.q
        for w in range(q ** 3):
            rep = gm.gamma_sharp_matrix(table, w)
            assert rep["triangular"], (q, w)
            assert rep["injective"], (q, w)
            assert all(v != "infinity" for v in rep["diagonal_valuations"]), (q, w)


def test_criterion_06_kappa_congruence():
    for p in (2, 3):
        for e, js in ((2, (1, 2)), (3, (1,))):
            tower = TowerDescriptor(p, [0, 1], [-p] + [0] * (e - 1) + [1])
            table = gm.compute_gamma(trivial_tower(p), tower, 6)
            for j in js:
                rep = gm.kappa_congruence(table, j)
                assert rep["passed"], (p, e, j)
                assert rep["h"] == j * e


def test_criterion_07_eventual_divisibility(q2, q3, q2_sqrt2, q2_cbrt2,
                                            q3_sqrt3, q3_cbrt3):
    # flagship: x^3 - 2 over Q_2, n = 1: zero-case at the first power of p
    # exceeding e, namely m = 4
    table = gm.compute_gamma(q2, q2_cbrt2, 3)
    rep = gm.eventual_division_witness(table, 1, 32)
    assert rep["found"] and rep["case"] == "zero" and rep["m"] == 4
    # n = 2 over e in {2, 3}: zero-case witness with m <= p^ceil(log_p(e+1))
    import math

    for source, target in ((q2, q2_sqrt2), (q2, q2_cbrt2),
                           (q3, q3_sqrt3), (q3, q3_cbrt3)):
        t = gm.compute_gamma(source, target, 3)
        r = gm.eventual_division_witness(t, 2, 32)
        p, e = source.p, target.e
        bound = p ** math.ceil(math.log(e + 1, p))
        assert r["found"] and r["case"] == "zero", (p, e)
        assert r["m"] <= bound, (p, e, r["m"], bound)


def test_criterion_08_flagship_obstruction():
    for p in (2, 3):
        obj = {
            "p": p,
            "N": 2,
            "ideal": [
                {"terms": [{"exps": {}, "coeff": str(p)}]},
                {"terms": [{"exps": {"2": 1}, "coeff": "1"},
                           {"exps": {"1": p + 1}, "coeff": "-1"}]},
            ],
            "finitely_presented": True,
            "context": "bp",
        }
        module = ts.CyclicModulePresentation.from_json(obj)
        cert = ts.realizability_obstruction(module, k_max=20, m_max=32)
        assert cert.verdict == "NotRealizable"
        assert cert.rules_fired == ["R1"]
        div = cert.witnesses["division_witness"]
        assert div["m"] == 1
        assert div["y"]["terms"] == [{"exps": {"1": p}, "coeff": [1]}]
        nontorsion = cert.witnesses["not_vn_power_torsion"]
        assert nontorsion["no_up_to"] == 20
        assert nontorsion["nonzero_normal_forms"]


def test_criterion_09_va_unramified_verdict(unram2_f2):
    obj = {
        "p": 2,
        "N": 2,
        "ideal": [],
        "finitely_presented": False,
        "context": {"tower": unram2_f2.to_json()},
    }
    module = ts.CyclicModulePresentation.from_json(obj)
    cert = ts.realizability_obstruction(module)
    assert cert.verdict == "NotRealizable"
    assert cert.rules_fired == ["R2"]
    assert cert.witnesses["not_p_power_torsion_witness"] == "1"


def test_criterion_10_prime_splitting():
    rep = find_nonsplit_prime([1, 0, 1], 100)
    assert rep.prime == 3 and rep.factor_degrees == (2,)
    rep = find_nonsplit_prime([-2, 0, 0, 1], 100)
    assert rep.prime == 7 and rep.factor_degrees == (3,)
    # brute-force oracles
    assert all((x * x) % 3 != 2 for x in range(3))  # -1 not a square mod 3
    assert all(pow(x, 3, 7) != 2 for x in range(7))  # 2 not a cube mod 7
    # and every scanned prime below each answer genuinely fails the test
    for p in (2,):
        r = analyze_prime((1, 0, 1), p)
        assert r.ramified or r.splits_completely or not r.equal_degrees
    for p in (2, 3, 5):
        r = analyze_prime((-2, 0, 0, 1), p)
        assert r.ramified or r.splits_completely or not r.equal_degrees


def test_criterion_11_local_cohomology():
    # fixed cases: pure p^2-torsion and a free rank-1 summand
    rep = ts.local_cohomology_degreewise({0: [[4]]}, 2)
    assert rep["degrees"]["0"] == {
        "H0_invariants": [4], "H1_corank": 0, "H2_and_above": 0,
    }
    rep = ts.local_cohomology_degreewise({0: [[0]]}, 2)
    assert rep["degrees"]["0"] == {
        "H0_invariants": [], "H1_corank": 1, "H2_and_above": 0,
    }
    # 20 random presentations, checked against a direct Smith-form readout
    rng = random.Random(1105)
    for _ in range(20):
        g = rng.randint(1, 5)
        r = rng.randint(1, 5)
        A = [[rng.randint(-50, 50) for _ in range(r)] for _ in range(g)]
        p = rng.choice((2, 3, 5))
        rep = ts.local_cohomology_degreewise({0: A}, p)["degrees"]["0"]
        import copy

        U, D, V = ts.smith_normal_form(copy.deepcopy(A))
        diag = [D[i][i] for i in range(min(g, r))]
        rank = sum(1 for x in diag if x)
        expected_h0 = []
        for x in diag:
            if x == 0:
                continue
            a, y = 0, abs(x)
            while y % p == 0:
                y //= p
                a += 1
            if a:
                expected_h0.append(p ** a)
        expected_h0.sort()
        assert rep["H0_invariants"] == expected_h0
        assert rep["H1_corank"] == g - rank
        assert rep["H2_and_above"] == 0


def test_criterion_12_order_preservation(q2, q3, q2_sqrt2, q2_cbrt2,
                                         q3_sqrt3, q3_cbrt3):
    for source, target in ((q2, q2_sqrt2), (q2, q2_cbrt2),
                           (q3, q3_sqrt3), (q3, q3_cbrt3)):
        table = gm.compute_gamma(source, target, 2)
        q = source.q
        rep = gm.order_preservation_check(
            table, 100, 2 * (q ** 2 - 1), seed=0
        )
        assert rep["passed"], (source.p, target.e)
        # nonvanishing on every monomial of bounded weight
        ring = PolyRing(source)
        for w, monos in graded_basis(ring, 2, 2 * (q ** 2 - 1)).items():
            for m in monos:
                f = GradedPoly(ring, {m: source.one()})
                assert not table.apply(f).is_zero(), (source.p, target.e, m)


def test_criterion_13_determinism(capsys, tmp_path):
    commands = [
        ["verify", "low-degree", "--p", "2", "--e", "2", "--N", "2", "--seed", "5"],
        ["verify", "ordering", "--p", "3", "--e", "2", "--N", "2", "--seed", "5"],
        ["verify", "kappa", "--p", "2", "--e", "2", "--N", "4", "--seed", "5"],
        ["verify", "eventual-division", "--p", "2", "--e", "3", "--N", "3",
         "--mmax", "8", "--seed", "5"],
        ["verify", "log-oracle", "--p", "2", "--e", "2", "--N", "4", "--seed", "5"],
        ["verify", "unramified", "--p", "2", "--f", "2", "--N", "4", "--seed", "5"],
        ["verify", "rational-iso", "--p", "2", "--e", "2", "--N", "3",
         "--weight-bound", "7", "--seed", "5"],
        ["splitting", "x^3-2", "--pmax", "50", "--seed", "5"],
        ["log", "--p", "3", "--N", "3", "--seed", "5"],
        ["gamma", "--p", "2", "--f", "2", "--N", "4", "--seed", "5"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1], argv
        # reports are canonical JSON: byte-identical to a re-serialization
        assert outputs[0] == canonical_json(
            json.loads(outputs[0])
        ).encode(), argv


GOLDEN_MODULE = {
    "p": 3,
    "N": 2,
    "ideal": [
        {"terms": [{"exps": {}, "coeff": "3"}]},
        {"terms": [{"exps": {"2": 1}, "coeff": "1"}, {"exps": {"1": 4}, "coeff": "-1"}]},
    ],
    "finitely_presented": True,
    "context": "bp",
}
GOLDEN_MATRICES = {"p": 2, "degrees": {"0": [[4, 6], [2, 8]], "1": [[3, 0], [0, 0]]}}

# (argv, exit code, SHA-256 of stdout).  "MODULE" and "MATRICES" stand for
# files holding GOLDEN_MODULE and GOLDEN_MATRICES.
GOLDEN = [
    (["verify", "low-degree", "--p", "2", "--e", "2", "--N", "2", "--seed", "5"], 0,
     "4ec7a9f8c114239c9e0ae29c5b24100725d2d65204426bdcc6d28a31c4608c3c"),
    (["verify", "ordering", "--p", "3", "--e", "2", "--N", "2", "--seed", "5"], 0,
     "27cce0eb9979f4c303b4668ea8c48711aeae23ed0f53550bba1961a9baa23ae6"),
    (["verify", "kappa", "--p", "2", "--e", "2", "--N", "4", "--seed", "5"], 0,
     "ae703e250f80e14c451fe0b8f303b50df9fe66671396103bd566edfb99b9199a"),
    (["verify", "eventual-division", "--p", "2", "--e", "3", "--N", "3",
      "--mmax", "8", "--seed", "5"], 0,
     "2c82ff1b5a7dd89f4eebcf58deefaec690075cf712407a2c062bd7d84100e2eb"),
    (["verify", "log-oracle", "--p", "2", "--e", "2", "--N", "4", "--seed", "5"], 0,
     "5102372218e42a8758522535e13d61dda2d4b2a2f9678dc9a35fef7951b2e0e3"),
    (["verify", "unramified", "--p", "2", "--f", "2", "--N", "4", "--seed", "5"], 0,
     "7cde12c1d0aa8eae43ea74f7bf15fb77d28c21863cb7639a6e5900c218269ec2"),
    (["verify", "rational-iso", "--p", "2", "--e", "2", "--N", "3",
      "--weight-bound", "7", "--seed", "5"], 0,
     "5c926f852391fa49ee45c729537d49dbc3b4eebd4d44f7b1feafa2569cb74397"),
    (["splitting", "x^3-2", "--pmax", "50", "--seed", "5"], 0,
     "0ef7894e19864602acce9095388b187331cc61c584b8eebdaf1404a3a12822ca"),
    (["log", "--p", "3", "--N", "3", "--seed", "5"], 0,
     "4cb5ae7a2c31306f4f7fe4275cc5b4fec359d423b9ee58749c4a85fe3bb71946"),
    (["gamma", "--p", "2", "--f", "2", "--N", "4", "--seed", "5"], 0,
     "6cd0c427723a14c87e942ee8c9e3152920f2479adf9550f764a8802f7a2c4bdc"),
    (["log", "--p", "2", "--e", "2", "--N", "0"], 0,
     "f634e237ff40da8cbad61077a3339d01169806ec15f49a7c2103d41977a60d93"),
    (["gamma", "--p", "2", "--e", "2", "--N", "0"], 0,
     "d088b66690d583bfd446d9277482641dcc14ed30b0d26762e9b266f8c1040dfc"),
    (["verify", "log-oracle", "--p", "2", "--e", "2", "--N", "0"], 0,
     "c470d266d5e2c2c0dfd65371294ac132baff5e2494f3e3020cb9216a0a7af2a4"),
    (["verify", "low-degree", "--p", "2", "--e", "2", "--N", "1"], 0,
     "6b119d503c5f0516998838f08f5b91ddbbb9d1711972c4492ae435c87422097c"),
    (["obstruct", "MODULE"], 0,
     "3a9e0bc2a35106c703f8996ac07da6b6b6d2b0154f205863a7954c4088dcc75b"),
    (["localcoh", "MATRICES"], 0,
     "900e6a956583ed792897b65f4451b3c9a949b7c44de08e23b26a374889adad2f"),
]


def test_criterion_14_golden_outputs(capsys, tmp_path, monkeypatch):
    # Exit codes and stdout bytes of the CLI are pinned, so a change to a
    # serializer or a report shows here.
    monkeypatch.delenv("FMCALC_CONFIG", raising=False)
    files = {"MODULE": tmp_path / "module.json", "MATRICES": tmp_path / "matrices.json"}
    files["MODULE"].write_text(json.dumps(GOLDEN_MODULE))
    files["MATRICES"].write_text(json.dumps(GOLDEN_MATRICES))
    changed = []
    for argv, code, digest in GOLDEN:
        got = main([str(files.get(a, a)) for a in argv])
        out = capsys.readouterr().out.encode()
        if (got, hashlib.sha256(out).hexdigest()) != (code, digest):
            changed.append(argv)
    assert not changed, changed

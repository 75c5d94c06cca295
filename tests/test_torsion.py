import hashlib
import itertools
import random

import pytest

from fmcalc import torsion as ts
from fmcalc.errors import OutsideScope, TruncationUnsound
from fmcalc.formal import trivial_tower
from fmcalc.gradedpoly import (
    GradedPoly,
    PolyRing,
    divide,
    graded_basis,
    monomial,
    reduce_mod_ideal,
    strip,
    widen,
)
from fmcalc.numberring import TowerDescriptor, padic_valuation_rational
from fmcalc.report import canonical_json


def make_module(p, N, gen_dicts, finitely_presented=True, context="bp",
                include_p=True):
    ring = PolyRing(trivial_tower(p))
    ideal = []
    if include_p:
        ideal.append({"terms": [{"exps": {}, "coeff": str(p)}]})
    ideal.extend(gen_dicts)
    obj = {
        "p": p,
        "N": N,
        "ideal": ideal,
        "finitely_presented": finitely_presented,
        "context": context,
    }
    return ts.CyclicModulePresentation.from_json(obj)


def v_power(ring, n, k, coeff=1):
    return {"terms": [{"exps": {str(n): k}, "coeff": str(coeff)}]}


def fp_dict(f, width):
    """The polynomial f over F_p as the Groebner core takes it: a dict from
    exponent tuples of the given width to ints."""
    return {widen(m, width): c.vec[0] for m, c in f.terms.items()}


def fp_poly(ring, f):
    """The dict f of the Groebner core as a polynomial over `ring`."""
    return GradedPoly(ring, {strip(e): ring.coeff_from_int(c) for e, c in f.items()})


def residue_ring(p):
    return PolyRing(trivial_tower(p), "residue")


class TestPresentation:
    def test_detects_p(self):
        m = make_module(2, 3, [v_power(None, 1, 1)])
        assert m.contains_p == 1

    def test_detects_p_square_only(self):
        obj = {
            "p": 2,
            "N": 2,
            "ideal": [{"terms": [{"exps": {}, "coeff": "4"}]}],
            "finitely_presented": True,
            "context": "bp",
        }
        m = ts.CyclicModulePresentation.from_json(obj)
        assert m.contains_p == 2
        with pytest.raises(OutsideScope):
            ts.module_groebner(m)

    def test_no_p_detected(self):
        m = make_module(2, 2, [v_power(None, 1, 1)], include_p=False)
        assert m.contains_p is None

    def test_presentation_is_read_only(self):
        m = make_module(2, 3, [v_power(None, 1, 1)])
        with pytest.raises(AttributeError):
            m.N = 4
        with pytest.raises(AttributeError):
            m.extra = 1

    def test_json_roundtrip(self):
        m = make_module(3, 2, [v_power(None, 1, 2)])
        m2 = ts.CyclicModulePresentation.from_json(m.to_json())
        assert m2.to_json() == m.to_json()


class TestGroebnerAndNormalForm:
    def test_single_generator(self):
        m = make_module(2, 3, [v_power(None, 1, 1)])
        gb = ts.module_groebner(m)
        assert gb.polys == [{(0, 0, 1): 1}]

    def test_normal_form_of_generator_is_zero(self):
        m = make_module(2, 3, [v_power(None, 1, 1)])
        gb = ts.module_groebner(m)
        assert ts.normal_form({(0, 1, 5): 1}, gb) == {}

    def test_normal_form_rewrites_v2(self):
        # J = (p, v_2 - v_1^{p+1}): v_2 has normal form v_1^3 at p = 2
        m = make_module(
            2,
            3,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]}],
        )
        gb = ts.module_groebner(m)
        assert ts.normal_form({(0, 1, 0): 1}, gb) == {(0, 0, 3): 1}

    def test_normal_form_idempotent(self):
        m = make_module(
            2,
            3,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]},
             v_power(None, 3, 1)],
        )
        gb = ts.module_groebner(m)
        ring = residue_ring(2)
        rng = random.Random(17)
        basis = [x for w, ms in graded_basis(ring, 3, 9).items() for x in ms]
        for _ in range(30):
            f = {widen(rng.choice(basis), 3): 1 for _ in range(3)}
            nf = ts.normal_form(f, gb)
            assert ts.normal_form(nf, gb) == nf
            # the oracle: gradedpoly.divide by the basis read back
            assert fp_poly(ring, nf) == divide(
                fp_poly(ring, f), [fp_poly(ring, b) for b in gb.polys])[1]

    def test_membership_product(self):
        # v_1 v_2 - v_1^4 = v_1 (v_2 - v_1^3) is in the ideal at p = 2
        m = make_module(
            2,
            3,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]}],
        )
        gb = ts.module_groebner(m)
        assert ts.normal_form({(0, 1, 1): 1, (0, 0, 4): 1}, gb) == {}

    def test_basis_is_read_mod_p_at_width_N(self):
        # J = (3, 4 v_2 - 1/2 v_1^4, 3 v_1^2) at p = 3, N = 3: the second
        # generator reduces to v_2 + v_1^4, the third to 0.
        m = make_module(3, 3, [
            {"terms": [{"exps": {"2": 1}, "coeff": "4"}, {"exps": {"1": 4}, "coeff": "-1/2"}]},
            v_power(None, 1, 2, 3)])
        gb = ts.module_groebner(m)
        assert (gb.width, gb.polys) == (3, [{(0, 1, 0): 1, (0, 0, 4): 1}])

    def test_truncated_basis_refuses_nonzero_verdicts(self):
        m = make_module(
            2,
            2,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]},
             {"terms": [{"exps": {"2": 1, "1": 1}, "coeff": "1"},
                        {"exps": {"1": 4}, "coeff": "1"}]}],
        )
        gb = ts.module_groebner(m, degree_bound=3)
        assert gb.truncated
        ring = residue_ring(2)
        f = ring.gen(1)
        assert not divide(f, [fp_poly(ring, b) for b in gb.polys])[1].is_zero()
        with pytest.raises(TruncationUnsound):
            ts.normal_form(fp_dict(f, 2), gb)
        # No leading monomial divides a power of v_1, yet neither scan may
        # read the powers as their own forms on a truncated basis.
        with pytest.raises(TruncationUnsound):
            ts.is_vn_power_torsion(m, 1, 20, gb=gb)
        with pytest.raises(TruncationUnsound):
            ts.eventual_division_module(m, 1, 2, 32, gb=gb)

    def test_against_linear_algebra_oracle(self):
        # Brute-force graded membership: in each weight <= bound, row-reduce
        # the multiples of the generators and compare the span's dimension
        # with the count of basis monomials whose normal form is zero.
        rng = random.Random(23)
        p = 2
        for trial in range(3):
            ring_f = PolyRing(trivial_tower(p))
            basis_all = graded_basis(ring_f, 2, 8)
            gens = []
            for _ in range(2):
                w = rng.choice([w for w, ms in basis_all.items() if ms and w > 0])
                monos = basis_all[w]
                terms = {
                    m: trivial_tower(p).from_rational(rng.randint(0, 1))
                    for m in monos
                }
                g = GradedPoly(ring_f, terms)
                if not g.is_zero():
                    gens.append(g)
            if not gens:
                continue
            gb = ts.groebner_basis([fp_dict(reduce_mod_ideal(g, 1), 2) for g in gens], p, 16)
            ring = residue_ring(p)
            rbasis = graded_basis(ring, 2, 8)
            for w in range(1, 9):
                monos = rbasis.get(w, [])
                if not monos:
                    continue
                idx = {m: i for i, m in enumerate(monos)}
                rows = []
                for g in gens:
                    gw = g.weight()
                    rem = w - gw
                    if rem < 0:
                        continue
                    for mult in rbasis.get(rem, []):
                        prod = reduce_mod_ideal(g, 1) * GradedPoly(
                            ring, {mult: ring.coeff_one()}
                        )
                        row = [0] * len(monos)
                        for m, c in prod.terms.items():
                            row[idx[m]] = c.vec[0] % p
                        rows.append(row)
                # rank over F_p
                rank = 0
                mat = [r[:] for r in rows]
                cols = len(monos)
                rr = 0
                for c in range(cols):
                    piv = next(
                        (i for i in range(rr, len(mat)) if mat[i][c] % p), None
                    )
                    if piv is None:
                        continue
                    mat[rr], mat[piv] = mat[piv], mat[rr]
                    inv = pow(mat[rr][c], p - 2, p) if p > 2 else mat[rr][c]
                    mat[rr] = [(x * inv) % p for x in mat[rr]]
                    for i in range(len(mat)):
                        if i != rr and mat[i][c] % p:
                            f = mat[i][c]
                            mat[i] = [
                                (a - f * b) % p for a, b in zip(mat[i], mat[rr])
                            ]
                    rr += 1
                rank = rr
                killed = 0
                for m in monos:
                    if not ts.normal_form({widen(m, 2): 1}, gb):
                        killed += 1
                # monomials with zero normal form span exactly the graded
                # piece of the ideal intersected with monomials; compare
                # dimensions: #zero-NF monomials <= rank and the set of all
                # normal forms spans a complement of dimension len - rank
                distinct_nfs = set()
                for m in monos:
                    nf = ts.normal_form({widen(m, 2): 1}, gb)
                    distinct_nfs.add(tuple(sorted(nf.items())))
                # the quotient in weight w has dimension len(monos) - rank;
                # normal forms of a spanning set must not exceed that +1 (zero)
                quotient_dim = len(monos) - rank
                nonzero_nfs = len(distinct_nfs - {()})
                assert nonzero_nfs <= len(monos)
                assert killed <= rank
                if quotient_dim == 0:
                    assert killed == len(monos)


class TestPowerTorsion:
    def test_v1_killed(self):
        m = make_module(2, 2, [v_power(None, 1, 1)])
        rep = ts.is_vn_power_torsion(m, 1, 10)
        assert rep == {"torsion": True, "k": 1, "n": 1}

    def test_v2_rewrites_to_torsion(self):
        # J = (p, v_1, v_2^3)
        m = make_module(2, 2, [v_power(None, 1, 1), v_power(None, 2, 3)])
        rep = ts.is_vn_power_torsion(m, 2, 10)
        assert rep["torsion"] and rep["k"] == 3

    def test_not_torsion_with_witnesses(self):
        m = make_module(2, 2, [v_power(None, 2, 1)])
        rep = ts.is_vn_power_torsion(m, 1, 6)
        assert not rep["torsion"]
        assert rep["no_up_to"] == 6
        assert len(rep["nonzero_normal_forms"]) == 2

    def test_irreducible_powers_take_no_normal_form(self, monkeypatch):
        # J = (p, v_2): no leading monomial divides a power of v_1, so the
        # scan up to k_max = 20 and its witnesses take no normal form.
        m = make_module(2, 2, [v_power(None, 2, 1)])
        gb = ts.module_groebner(m)
        calls = []
        normal_form = ts.normal_form
        monkeypatch.setattr(ts, "normal_form", lambda f, gb: calls.append(f) or normal_form(f, gb))
        rep = ts.is_vn_power_torsion(m, 1, 20, gb=gb)
        assert calls == []
        assert [w["element"] for w in rep["nonzero_normal_forms"]] == ["v_1^1", "v_1^20"]

    def test_witnesses_are_normal_forms_of_the_first_and_last_power(self):
        # J = (p, v_2 - v_1^3): v_2^k rewrites to v_1^(3k).  With k_max = 0
        # nothing would be scanned, so it is refused.
        m = make_module(2, 2, [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                                          {"exps": {"1": 3}, "coeff": "-1"}]}])
        gb = ts.module_groebner(m)
        ring = residue_ring(2)
        for k_max in (1, 4):
            rep = ts.is_vn_power_torsion(m, 2, k_max, gb=gb)
            assert [w["element"] for w in rep["nonzero_normal_forms"]] == [
                "v_2^1", "v_2^%d" % k_max]
            for k, w in zip((1, k_max), rep["nonzero_normal_forms"]):
                power = ring.gen(2, k)
                nf = divide(power, [fp_poly(ring, b) for b in gb.polys])[1]
                assert w["normal_form"] == nf.to_json(2)
            assert rep["nonzero_normal_forms"][0]["normal_form"]["terms"][0]["exps"] == {"1": 3}
        with pytest.raises(ValueError):
            ts.is_vn_power_torsion(m, 2, 0, gb=gb)

    def test_closure_under_quotient(self):
        # if v_1 is torsion in R/J, it stays torsion in R/(J + more)
        base = [v_power(None, 1, 3)]
        m1 = make_module(2, 2, base)
        k1 = ts.is_vn_power_torsion(m1, 1, 10)["k"]
        m2 = make_module(2, 2, base + [v_power(None, 1, 2)])
        k2 = ts.is_vn_power_torsion(m2, 1, 10)["k"]
        assert k2 <= k1

    def test_two_step_extension(self):
        # J = (p, v_1^2, v_1 v_2, v_2^2): both generators torsion with k = 2
        m = make_module(
            2,
            2,
            [v_power(None, 1, 2),
             {"terms": [{"exps": {"1": 1, "2": 1}, "coeff": "1"}]},
             v_power(None, 2, 2)],
        )
        gb = ts.module_groebner(m, degree_bound=20)
        for n in (1, 2):
            rep = ts.is_vn_power_torsion(m, n, 10, gb=gb)
            assert rep["torsion"] and rep["k"] == 2


class TestEventualDivisionModule:
    def test_flagship_bp_mod_p_v2_rel(self):
        # J = (p, v_2 - v_1^{p+1}) at p = 2: v_2 * 1 = v_2, and
        # v_2^1 has normal form v_1^3 = v_1 * v_1^2, so m = 1 with y = v_1^2
        m = make_module(
            2,
            2,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]}],
        )
        rep = ts.eventual_division_module(m, 2, 1, 8)
        assert rep["found"] and rep["case"] == "divide" and rep["m"] == 1
        assert rep["y"]["terms"][0]["exps"] == {"1": 2}

    def test_zero_case(self):
        # J = (p, v_2): v_2^1 = 0 immediately
        m = make_module(2, 2, [v_power(None, 2, 1)])
        rep = ts.eventual_division_module(m, 2, 1, 8)
        assert rep == {"found": True, "case": "zero", "m": 1, "y": "0",
                       "r": 2, "s": 1}

    def test_not_found(self):
        # J = (p): no power of v_2 is divisible by v_1
        m = make_module(2, 2, [])
        rep = ts.eventual_division_module(m, 2, 1, 6)
        assert rep == {"found": False, "not_found_up_to": 6, "r": 2, "s": 1}


class TestSmithNormalForm:
    @staticmethod
    def check(A):
        import copy

        U, D, V = ts.smith_normal_form(copy.deepcopy(A))
        g, r = len(A), len(A[0])

        def matmul(X, Y):
            return [
                [sum(X[i][k] * Y[k][j] for k in range(len(Y)))
                 for j in range(len(Y[0]))]
                for i in range(len(X))
            ]

        assert matmul(matmul(U, A), V) == D
        # diagonal
        for i in range(g):
            for j in range(r):
                if i != j:
                    assert D[i][j] == 0
        # divisibility chain
        diag = [D[i][i] for i in range(min(g, r))]
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

        def det(M):
            n = len(M)
            if n == 1:
                return M[0][0]
            return sum(
                (-1) ** j * M[0][j]
                * det([row[:j] + row[j + 1:] for row in M[1:]])
                for j in range(n)
            )

        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        return diag

    def test_worked_example(self):
        diag = self.check([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert diag == [2, 2, 156] or diag == [2, 6, 52]  # det = 624

    def test_identity(self):
        assert self.check([[1, 0], [0, 1]]) == [1, 1]

    def test_zero_matrix(self):
        assert self.check([[0, 0], [0, 0]]) == [0, 0]

    def test_rectangular(self):
        diag = self.check([[2, 0, 0], [0, 3, 0]])
        assert diag == [1, 6]

    def test_determinant_divisor_invariant(self):
        # product of the first k diagonal entries equals the gcd of all
        # k x k minors, checked for k = full size on square matrices
        import math

        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 4)
            A = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            diag = self.check(A)

            def det(M):
                m = len(M)
                if m == 1:
                    return M[0][0]
                return sum(
                    (-1) ** j * M[0][j]
                    * det([row[:j] + row[j + 1:] for row in M[1:]])
                    for j in range(m)
                )

            prod = 1
            for x in diag:
                prod *= x
            assert abs(prod) == abs(det(A))

    def test_random_rectangular(self):
        rng = random.Random(37)
        for _ in range(20):
            g = rng.randint(1, 5)
            r = rng.randint(1, 5)
            A = [[rng.randint(-50, 50) for _ in range(r)] for _ in range(g)]
            self.check(A)


class TestLocalCohomology:
    def test_free_summand(self):
        rep = ts.local_cohomology_degreewise({0: [[0]]}, 2)
        assert rep["degrees"]["0"] == {
            "H0_invariants": [],
            "H1_corank": 1,
            "H2_and_above": 0,
        }

    def test_p_torsion(self):
        rep = ts.local_cohomology_degreewise({2: [[4]]}, 2)
        assert rep["degrees"]["2"] == {
            "H0_invariants": [4],
            "H1_corank": 0,
            "H2_and_above": 0,
        }

    def test_prime_to_p_torsion_invisible(self):
        rep = ts.local_cohomology_degreewise({0: [[3]]}, 2)
        assert rep["degrees"]["0"]["H0_invariants"] == []
        assert rep["degrees"]["0"]["H1_corank"] == 0

    def test_mixed(self):
        # Z^2 / (2e1, 0) = Z/2 + Z
        rep = ts.local_cohomology_degreewise({5: [[2, 0], [0, 0]]}, 2)
        assert rep["degrees"]["5"] == {
            "H0_invariants": [2],
            "H1_corank": 1,
            "H2_and_above": 0,
        }

    def test_mixed_prime_powers(self):
        # diag(6, 0) at p = 3: 6 contributes 3
        rep = ts.local_cohomology_degreewise({1: [[6, 0], [0, 0]]}, 3)
        assert rep["degrees"]["1"]["H0_invariants"] == [3]
        assert rep["degrees"]["1"]["H1_corank"] == 1

    def test_empty_presentation(self):
        rep = ts.local_cohomology_degreewise({0: []}, 2)
        assert rep["degrees"]["0"]["H1_corank"] == 0

    @staticmethod
    def smith_readout(A, p):
        """H0 invariants and H1 corank read from the Smith diagonal."""
        g, r = len(A), len(A[0])
        _, D, _ = ts.smith_normal_form(A)
        diag = [D[i][i] for i in range(min(g, r)) if D[i][i]]
        h0 = [p ** padic_valuation_rational(x, p) for x in diag]
        return [q for q in h0 if q > 1], g - len(diag)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pool_sized_presentation_matches_smith(self, p):
        # 40 x 40, entries drawn as the benchmark's localcoh presentations
        rng = random.Random(4040 + p)
        A = [[rng.choice((0, 0, 1, -1, p, -p, p * p, rng.randint(-9, 9)))
              for _ in range(40)] for _ in range(40)]
        rep = ts.local_cohomology_degreewise({0: A}, p)["degrees"]["0"]
        assert (rep["H0_invariants"], rep["H1_corank"]) == self.smith_readout(A, p)

    @pytest.mark.parametrize("A, p, h0", [
        ([[2, 3], [0, 2]], 2, [4]),
        ([[3, 4], [0, 3]], 3, [9]),
    ])
    def test_pivot_of_least_valuation_not_least_size(self, A, p, h0):
        # The entry of least |x| is p, but a unit sits beside it: Z^2/A is
        # Z/p^2 at p.  Pivoting on p would read p twice.
        rep = ts.local_cohomology_degreewise({0: A}, p)["degrees"]["0"]
        assert rep["H0_invariants"] == h0 and rep["H1_corank"] == 0
        assert self.smith_readout(A, p) == (h0, 0)

    def test_non_integer_rejected(self):
        from fmcalc.errors import NonIntegerMatrix

        with pytest.raises(NonIntegerMatrix):
            ts.local_cohomology_degreewise({0: [[1.5]]}, 2)


class TestObstruction:
    def test_flagship_r1(self):
        for p in (2, 3):
            m = make_module(
                p,
                2,
                [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                            {"exps": {"1": p + 1}, "coeff": "-1"}]}],
            )
            cert = ts.realizability_obstruction(m)
            assert cert.verdict == "NotRealizable"
            assert cert.rules_fired == ["R1"]
            div = cert.witnesses["division_witness"]
            assert div["case"] == "divide" and div["m"] == 1
            assert div["y"]["terms"][0]["exps"] == {"1": p}

    @pytest.mark.parametrize("finitely_presented", [True, False])
    @pytest.mark.parametrize("unit", ["3", "1/3"])
    @pytest.mark.parametrize("tower_context", [True, False], ids=["f2-tower", "bp"])
    def test_unit_in_the_ideal_is_outside_scope(self, unram2_f2, finitely_presented, unit,
                                                 tower_context):
        # J = (2, 3) at p = 2, N = 2 contains a unit, so R/J = 0 and v_1 lies
        # in J.  Read as (2), it gave R2 with NF(v_1) = v_1 over the f = 2
        # tower, and v_1, v_2 unresolved up to 20 over "bp".
        obj = {"p": 2, "N": 2, "finitely_presented": finitely_presented,
               "ideal": [{"terms": [{"exps": {}, "coeff": "2"}]},
                         {"terms": [{"exps": {}, "coeff": unit}]}],
               "context": {"tower": unram2_f2.to_json()} if tower_context else "bp"}
        m = ts.CyclicModulePresentation.from_json(obj)
        assert m.contains_p == 0
        cert = ts.realizability_obstruction(m)
        assert cert.to_json() == {
            "verdict": "OutsideScope", "rules_fired": [], "scan_log": [],
            "witnesses": {"reason": "the ideal contains a unit; the module is zero"},
            "bounds": {"k_max": 20, "m_max": 32}}
        with pytest.raises(OutsideScope):
            ts.module_groebner(m)

    def test_va_unramified_r2(self, unram2_f2):
        obj = {
            "p": 2,
            "N": 2,
            "ideal": [],
            "finitely_presented": False,
            "context": {"tower": unram2_f2.to_json()},
        }
        m = ts.CyclicModulePresentation.from_json(obj)
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "NotRealizable"
        assert cert.rules_fired == ["R2"]
        assert cert.witnesses["not_p_power_torsion_witness"] == "1"

    def test_va_totally_ramified_no_obstruction(self, q2_sqrt2):
        obj = {
            "p": 2,
            "N": 2,
            "ideal": [],
            "finitely_presented": False,
            "context": {"tower": q2_sqrt2.to_json()},
        }
        m = ts.CyclicModulePresentation.from_json(obj)
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "NoObstructionFound"

    def test_fp_all_torsion_r3(self):
        m = make_module(2, 2, [v_power(None, 1, 1), v_power(None, 2, 1)])
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "NotRealizable"
        assert cert.rules_fired == ["R3"]
        assert cert.witnesses["torsion_exponents"] == {"1": 1, "2": 1}

    def test_fp_stand_in_no_obstruction(self):
        # F_p as a module: killing everything but declared not finitely
        # presented over the truncation, so R3 must not fire
        m = make_module(
            2, 2, [v_power(None, 1, 1), v_power(None, 2, 1)],
            finitely_presented=False,
        )
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "NoObstructionFound"

    def test_outside_scope_p_square(self):
        obj = {
            "p": 2,
            "N": 2,
            "ideal": [{"terms": [{"exps": {}, "coeff": "4"}]}],
            "finitely_presented": True,
            "context": "bp",
        }
        m = ts.CyclicModulePresentation.from_json(obj)
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "OutsideScope"

    def test_outside_scope_no_p_no_tower(self):
        m = make_module(2, 2, [v_power(None, 1, 1)], include_p=False)
        cert = ts.realizability_obstruction(m)
        assert cert.verdict == "OutsideScope"

    @pytest.mark.parametrize("module, reason", [
        (lambda: make_module(2, 2, [v_power(None, 1, 1)], include_p=False),
         "ideal does not contain a power of p"),
        (lambda: make_module(2, 2, [{"terms": [{"exps": {}, "coeff": "3"}]}]),
         "the ideal contains a unit; the module is zero"),
        (lambda: make_module(2, 2, [{"terms": [{"exps": {}, "coeff": "4"}]}], include_p=False),
         "ideal contains p^2 but not p"),
    ], ids=["no-p", "unit", "p^2"])
    def test_scope_reason_is_module_groebners(self, module, reason):
        # One scope rule: the certificate reports module_groebner's message.
        m = module()
        with pytest.raises(OutsideScope) as raised:
            ts.module_groebner(m)
        cert = ts.realizability_obstruction(m)
        assert str(raised.value) == cert.witnesses["reason"] == reason
        assert cert.verdict == "OutsideScope"

    def test_certificate_is_read_only(self):
        cert = ts.realizability_obstruction(make_module(2, 2, [v_power(None, 1, 1)]))
        with pytest.raises(AttributeError):
            cert.verdict = "NotRealizable"
        with pytest.raises(AttributeError):
            del cert.witnesses

    def test_certificate_replayable(self):
        m = make_module(
            2,
            2,
            [{"terms": [{"exps": {"2": 1}, "coeff": "1"},
                        {"exps": {"1": 3}, "coeff": "-1"}]}],
        )
        a = ts.realizability_obstruction(m).to_json()
        b = ts.realizability_obstruction(m).to_json()
        assert a == b
        # replay the division witness by hand
        div = a["witnesses"]["division_witness"]
        gb = ts.module_groebner(m)
        ring = residue_ring(2)
        lhs = GradedPoly(
            ring, {monomial({2: div["m"]}): ring.coeff_one()}
        )
        y = GradedPoly.from_json(ring, div["y"])
        v1 = GradedPoly(ring, {monomial({1: 1}): ring.coeff_one()})
        assert ts.normal_form(fp_dict(lhs - v1 * y, 2), gb) == {}

    # Known false certificates, kept until the Groebner core is sound and
    # torsion is decided exactly.  Each must fail as long as the defect
    # stands, so a fix shows as an unexpected pass.

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="inter-reduction erases generators with equal "
                       "leading monomials: a false R1")
    def test_redundant_generator_keeps_the_verdict(self):
        v1_cubed_minus_v2 = {"terms": [{"exps": {"1": 3}, "coeff": "1"},
                                       {"exps": {"2": 1}, "coeff": "-1"}]}
        gens = [v1_cubed_minus_v2, v_power(None, 1, 2)]
        plain = ts.realizability_obstruction(make_module(2, 3, gens))
        redundant = ts.realizability_obstruction(
            make_module(2, 3, gens + [v_power(None, 1, 2, -1)]))
        assert (redundant.verdict, redundant.rules_fired) == (plain.verdict, plain.rules_fired)

    def test_k_max_below_one_is_refused(self):
        # With no power scanned, v_1 in J would read as not torsion.
        m = make_module(2, 2, [v_power(None, 1, 1), v_power(None, 2, 3)],
                        finitely_presented=False)
        with pytest.raises(ValueError, match="k_max"):
            ts.realizability_obstruction(m, k_max=0)
        assert ts.realizability_obstruction(m, k_max=1).verdict == "NoObstructionFound"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="R1 reads 'not v_1-torsion' from a scan bounded "
                       "by k_max, and v_1^21 = 0")
    def test_torsion_past_k_max_does_not_fire_r1(self):
        m = make_module(2, 2, [v_power(None, 1, 21), V2_MINUS_V1_CUBED],
                        finitely_presented=False)
        assert "R1" not in ts.realizability_obstruction(m, k_max=20).rules_fired


UNRAM2_F2 = {"tower": TowerDescriptor(2, [1, 1, 1], [0, 1], "unram f=2 over Q2").to_json()}
Q2_SQRT2 = {"tower": TowerDescriptor(2, [0, 1], [-2, 0, 1], "Q2(sqrt2)").to_json()}
V2_MINUS_V1_CUBED = {"terms": [{"exps": {"2": 1}, "coeff": "1"},
                               {"exps": {"1": 3}, "coeff": "-1"}]}

# One p = 2, N = 2 module per branch of realizability_obstruction, with the
# sha256 of its certificate's canonical JSON.
VERDICT_BRANCHES = {
    "R1": (lambda: make_module(2, 2, [V2_MINUS_V1_CUBED]),
           "c699e141b704fac99c4a15a1c306e1cbfa44b6d70d27438a8b7a49f67b8a1000"),
    "R2-free": (lambda: make_module(2, 2, [], False, UNRAM2_F2, include_p=False),
                "7406df20eb95a0da3a9dcf871f90b4a3ba2c4d3b9e3861aba08bcbce210f7fc7"),
    "R2-scanned": (lambda: make_module(2, 2, [v_power(None, 1, 1)], False, UNRAM2_F2),
                   "be1bf28c0e11ec15fcae732d74bbcec69888a0cc731f150ad82d54c36d5a3087"),
    "R3": (lambda: make_module(2, 2, [v_power(None, 1, 1), v_power(None, 2, 1)]),
           "fcf4f387d89905776f4f3c7e3f7e60b071271a2980a4714f81b4b8364bd86640"),
    "none-free": (lambda: make_module(2, 2, [], False, Q2_SQRT2, include_p=False),
                  "261b7a8d95b7307916ebeeb76a04ad717a6d5758856becf2ad7c237024c52165"),
    "none-scanned": (lambda: make_module(2, 2, [v_power(None, 1, 1)], False),
                     "77155b3644257c615de44965a2c82bb49199393b9cf10e1a583df025dd50b6fc"),
    "outside-no-p": (lambda: make_module(2, 2, [v_power(None, 1, 1)], include_p=False),
                     "6695df87eb5db6938da1ba9b798264ef9828bc2b5ac08bdd5774c3dae9ded55e"),
    "outside-p-square": (
        lambda: make_module(2, 2, [{"terms": [{"exps": {}, "coeff": "4"}]}], include_p=False),
        "8a17806d7589faf2b991f18e70fabf9fc65bb71eea108d8baab4ae29c3dbd682"),
}


@pytest.mark.parametrize("branch", list(VERDICT_BRANCHES))
def test_certificate_digest_per_verdict_branch(branch):
    build, expected = VERDICT_BRANCHES[branch]
    cert = ts.realizability_obstruction(build()).to_json()
    assert hashlib.sha256(canonical_json(cert).encode()).hexdigest() == expected

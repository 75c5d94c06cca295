import pytest

from fmcalc import gamma as gm
from fmcalc import numberring as nr
from fmcalc.errors import CongruenceFailed, MissingImage, NotSubtower
from fmcalc.formal import hazewinkel_log, trivial_tower
from fmcalc.gradedpoly import GradedPoly, PolyRing, monomial


class TestMatchLog:
    def test_totally_ramified_matches_target_log(self, q2, q2_sqrt2):
        logs_b = hazewinkel_log(q2_sqrt2, 3)
        assert gm.match_log(q2, q2_sqrt2, 1) == logs_b[1]

    def test_unramified_kills_nondivisible(self, q2, unram2_f2):
        logs_b = hazewinkel_log(unram2_f2, 3)
        assert gm.match_log(q2, unram2_f2, 1).is_zero()
        assert gm.match_log(q2, unram2_f2, 2) == logs_b[1]

    def test_index_zero_is_one(self, q2, q2_sqrt2):
        logs_b = hazewinkel_log(q2_sqrt2, 2)
        assert gm.match_log(q2, q2_sqrt2, 0) == logs_b.ring.one()

    def test_not_subtower(self, q3, q2_sqrt2):
        with pytest.raises(NotSubtower):
            gm.match_log(q3, q2_sqrt2, 1)


class TestComputeGamma:
    def test_unramified_f2(self, q2, unram2_f2):
        table = gm.compute_gamma(q2, unram2_f2, 4)
        assert table.image(1).is_zero()
        assert table.image(3).is_zero()
        assert table.image(2) == table.target_ring.gen(1)
        assert table.image(4) == table.target_ring.gen(2)

    def test_totally_ramified_v1(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        pi_a = nr.embed(q2.uniformizer(), q2_sqrt2)
        pi_b = q2_sqrt2.uniformizer()
        assert table.image(1) == table.target_ring.gen(1).scale(pi_a / pi_b)

    def test_flagship_v2(self, q2, q2_sqrt2):
        # gamma(v_2) = theta v_2 + (1 - theta) v_1^3
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        ring = table.target_ring
        th = q2_sqrt2.theta()
        expected = ring.gen(2).scale(th) + ring.gen(1, 3).scale(q2_sqrt2.one() - th)
        assert table.image(2) == expected

    def test_e3_v2(self, q2, q2_cbrt2):
        table = gm.compute_gamma(q2, q2_cbrt2, 2)
        ring = table.target_ring
        th = q2_cbrt2.theta()
        expected = ring.gen(2).scale(th ** 2) + ring.gen(1, 3).scale(
            th - q2_cbrt2.from_rational(2)
        )
        assert table.image(2) == expected

    def test_identity_on_trivial_extension(self, q2):
        table = gm.compute_gamma(q2, q2, 4)
        for n in range(1, 5):
            assert table.image(n) == table.target_ring.gen(n)

    def test_defining_identity(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 4)
        logs_a = hazewinkel_log(q2, 4)
        for n in range(5):
            assert table.apply(logs_a[n]) == gm.match_log(q2, q2_sqrt2, n), n

    def test_defining_identity_unramified(self, q3, unram3_f2):
        table = gm.compute_gamma(q3, unram3_f2, 4)
        logs_a = hazewinkel_log(q3, 4)
        for n in range(5):
            assert table.apply(logs_a[n]) == gm.match_log(q3, unram3_f2, n), n

    def test_smaller_table_refuses_generators_above_its_N(self, q2, q2_sqrt2):
        # Tables over one pair of towers share one monomial memo, and the
        # N = 5 table fills it with images of v_3 monomials first.
        m = monomial({1: 1, 3: 2})
        big = gm.compute_gamma(q2, q2_sqrt2, 5)
        big.monomial_image(m)
        big.apply(GradedPoly(PolyRing(q2), {monomial({3: 1}): q2.one()}))
        small = gm.compute_gamma(q2, q2_sqrt2, 2)
        with pytest.raises(MissingImage, match="v_3"):
            small.monomial_image(m)
        with pytest.raises(MissingImage, match="v_3"):
            small.apply(GradedPoly(PolyRing(q2), {monomial({3: 1}): q2.one()}))
        assert small.monomial_image(monomial({1: 1, 2: 2})) == big.monomial_image(
            monomial({1: 1, 2: 2}))

    def test_integrality_flag(self, q2, q2_cbrt2):
        table = gm.compute_gamma(q2, q2_cbrt2, 4)
        assert table.integrality_verified
        for n in range(1, 5):
            assert all(nr.is_integral(c) for c in table.image(n).terms.values())

    def test_table_reports_the_towers_it_was_asked_for(self, q2):
        # Tower equality ignores labels, so two labels of one tower share
        # the cached images and memo, but each table names its own towers.
        first = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1], "first")
        second = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1], "second")
        a = gm.compute_gamma(q2, first, 2)
        b = gm.compute_gamma(q2, second, 2)
        assert a == b and hash(a) == hash(b) and a.monomials is b.monomials
        assert (a.target.label, b.target.label) == ("first", "second")
        assert b.to_json()["target"] == second.to_json()

    def test_table_is_read_only(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        with pytest.raises(AttributeError):
            table.N = 3
        with pytest.raises(AttributeError):
            del table.source

    def test_homogeneity(self, q2, q2_sqrt2, unram2_f2):
        for target in (q2_sqrt2, unram2_f2):
            table = gm.compute_gamma(q2, target, 4)
            for n in range(1, 5):
                img = table.image(n)
                if img.is_zero():
                    continue
                assert img.is_homogeneous()
                assert img.weight() == q2.q ** n - 1


class TestUnramifiedFormula:
    def test_passes_for_unramified(self, q2, unram2_f2):
        table = gm.compute_gamma(q2, unram2_f2, 6)
        assert gm.check_unramified_formula(table)["passed"]

    def test_rejected_for_ramified(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        with pytest.raises(NotSubtower):
            gm.check_unramified_formula(table)


class TestGammaSharp:
    def test_weight_zero(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.gamma_sharp_matrix(table, 0)
        assert rep["matrix"] == {(0, 0): q2_sqrt2.one()}

    def test_weight_q_minus_1(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.gamma_sharp_matrix(table, 1)
        assert rep["diagonal_valuations"] == [q2_sqrt2.e - 1]

    def test_weight_q2_minus_1(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.gamma_sharp_matrix(table, 3)
        # basis descending {v_2, v_1^3}; diagonal (theta, theta^3)
        assert rep["basis"] == [{"2": 1}, {"1": 3}]
        assert rep["triangular"] and rep["injective"]
        assert rep["diagonal_valuations"] == [1, 3]

    def test_triangular_through_weight_7(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 3)
        for w in range(8):
            rep = gm.gamma_sharp_matrix(table, w)
            assert rep["triangular"] and rep["injective"], w


class TestKappa:
    def test_e2_j1(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.kappa_congruence(table, 1)
        assert rep["passed"] and rep["exponent"] == 3

    def test_e3_j1_q3(self, q3, q3_cbrt3):
        table = gm.compute_gamma(q3, q3_cbrt3, 3)
        rep = gm.kappa_congruence(table, 1)
        assert rep["passed"] and rep["exponent"] == 13

    def test_minimality_detects_violation(self, q2, q2_sqrt2):
        # gamma(v_1) = theta * v_1 reduces to zero mod theta: minimality holds
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.kappa_congruence(table, 1)
        assert rep["minimality_checked_below_h"] == [1]

    def test_congruence_failure_carries_sides(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 4)
        # j = 2 gives h = 4 and must also pass; fabricate a failure by lying
        # about j while keeping N small enough
        rep = gm.kappa_congruence(table, 2)
        assert rep["passed"]


class TestEventualDivision:
    def test_e3_n1_zero_case_at_4(self, q2, q2_cbrt2):
        table = gm.compute_gamma(q2, q2_cbrt2, 3)
        rep = gm.eventual_division_witness(table, 1, 32)
        assert rep["found"] and rep["case"] == "zero" and rep["m"] == 4

    def test_n2_zero_case_bounded(self, q2, q2_sqrt2, q2_cbrt2):
        for target in (q2_sqrt2, q2_cbrt2):
            table = gm.compute_gamma(q2, target, 3)
            rep = gm.eventual_division_witness(table, 2, 32)
            assert rep["found"] and rep["case"] == "zero"
            e = target.e
            bound = 1
            while bound < e + 1:
                bound *= 2
            assert rep["m"] <= bound

    def test_every_n_at_N5_without_powers(self, q3, q3_sqrt3):
        # gamma(v_5) has 261 terms here; building and dividing its powers
        # took 0.64 s for these four scans.  At n >= 2 only the term
        # theta * v_{n+1} of gamma(v_{n+1}) survives v_1..v_{n-1} = 0, of
        # valuation 1 < e = 2, so the zero case holds first at m = 3.  At
        # n = 1, gamma(v_2) = theta * v_2 - 2 * v_1^4: no power lies in
        # (theta), and the unit least term makes every quotient by
        # gamma(v_1) = theta * v_1 non-integral.
        table = gm.compute_gamma(q3, q3_sqrt3, 5)
        reports = [gm.eventual_division_witness(table, n, 32) for n in range(1, 5)]
        assert reports[0]["zero_case_mod_uniformizer"] is None
        assert {k: reports[0][k] for k in ("found", "not_found_up_to")} == {
            "found": False, "not_found_up_to": 32}
        for rep in reports[1:]:
            assert (rep["found"], rep["case"], rep["m"], rep["y"]) == (True, "zero", 3, "0")
            assert "zero_case_mod_uniformizer" not in rep

    def test_e2_n1_reports_raw_outcome(self, q2, q2_sqrt2):
        # outside the theorem's hypotheses: report, don't assert
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.eventual_division_witness(table, 1, 8)
        assert "zero_case_mod_uniformizer" in rep
        assert rep["found"] is False

    def test_divide_case(self, q2, q2_sqrt2):
        # g_1 = v_1, g_2 = v_1 + theta v_2: no power of g_2 lies in I_1, but
        # g_2^2 = (v_1 + 2 theta v_2) g_1 + 2 v_2^2 with 2 v_2^2 in I_1.
        ring = PolyRing(q2_sqrt2)
        v1, v2, theta = ring.gen(1), ring.gen(2), q2_sqrt2.theta()
        g1, g2 = v1, v1 + v2.scale(theta)
        table = gm.GammaTable(q2, q2_sqrt2, 2, (None, g1, g2), {})
        rep = gm.eventual_division_witness(table, 1, 8)
        y = v1 + v2.scale(theta * q2_sqrt2.from_rational(2))
        assert rep["found"] and rep["case"] == "divide" and rep["m"] == 2
        assert rep["y"] == y.to_json(2)
        r = g2 ** 2 - y * g1
        assert r == ring.gen(2, 2).scale(q2_sqrt2.from_rational(2)) and gm.in_ideal_In(r, 1)

    def test_memoized_divide_case_serializes_with_the_callers_N(self, q2, q2_sqrt2):
        # The scan reads gamma(v_1), gamma(v_2), p, n and m_max only, so an
        # N = 3 table with the synthetic images of test_divide_case finds
        # the N = 2 table's witness; its y records N = 3.
        ring = PolyRing(q2_sqrt2)
        v1, v2, v3, theta = ring.gen(1), ring.gen(2), ring.gen(3), q2_sqrt2.theta()
        g1, g2 = v1, v1 + v2.scale(theta)
        y = v1 + v2.scale(theta * q2_sqrt2.from_rational(2))
        short = gm.GammaTable(q2, q2_sqrt2, 2, (None, g1, g2), {})
        assert gm.eventual_division_witness(short, 1, 8)["y"] == y.to_json(2)
        table = gm.GammaTable(q2, q2_sqrt2, 3, (None, g1, g2, v3), {})
        rep = gm.eventual_division_witness(table, 1, 8)
        assert rep["found"] and rep["case"] == "divide" and rep["m"] == 2
        assert rep["y"] == y.to_json(3) != y.to_json(2)

    def test_poly_divide_is_exact(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 3)
        f = table.image(2) ** 2
        d = table.image(1)
        quot, rem = gm.poly_divide(f, d)
        assert quot * d + rem == f


class TestOrderPreservation:
    def test_equal_monomials_preserved(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        rep = gm.order_preservation_check(table, 50, 6, seed=3)
        assert rep["passed"]

    def test_explicit_pair(self, q2, q2_sqrt2):
        from fmcalc.gradedpoly import GradedPoly, leading_monomial

        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        ring_a = PolyRing(q2)
        fx = table.apply(GradedPoly(ring_a, {monomial({1: 1}): q2.one()}))
        fy = table.apply(GradedPoly(ring_a, {monomial({2: 1}): q2.one()}))
        assert leading_monomial(fx) == monomial({1: 1})
        assert leading_monomial(fy) == monomial({2: 1})

    def test_deterministic_given_seed(self, q2, q2_sqrt2):
        table = gm.compute_gamma(q2, q2_sqrt2, 2)
        a = gm.order_preservation_check(table, 40, 6, seed=9)
        b = gm.order_preservation_check(table, 40, 6, seed=9)
        assert a == b


@pytest.mark.parametrize("check, run", [
    ("kappa congruence", lambda table: gm.kappa_congruence(table, 1)),
    ("order preservation check", lambda table: gm.order_preservation_check(table, 10, 6)),
], ids=["kappa", "ordering"])
def test_checks_refuse_a_table_not_totally_ramified(q2, unram2_f2, check, run):
    # The message is the one `fmcalc verify` prints for such a tower.
    with pytest.raises(NotSubtower) as info:
        run(gm.compute_gamma(q2, unram2_f2, 2))
    assert str(info.value) == "%s requires a totally ramified table" % check

from fractions import Fraction

import pytest

from fmcalc import numberring as nr
from fmcalc.formal import hazewinkel_log, log_closed_form, trivial_tower


def all_towers(request):
    names = [
        "q2",
        "q3",
        "q5",
        "q2_sqrt2",
        "q2_cbrt2",
        "q3_sqrt3",
        "unram2_f2",
        "unram3_f2",
    ]
    return [request.getfixturevalue(n) for n in names]


class TestRecursion:
    def test_l0_is_one(self, q2_sqrt2):
        logs = hazewinkel_log(q2_sqrt2, 3)
        assert logs[0] == logs.ring.one()

    def test_l1(self, q2_sqrt2):
        logs = hazewinkel_log(q2_sqrt2, 2)
        pi = q2_sqrt2.uniformizer()
        assert logs[1] == logs.ring.gen(1).scale(pi.inverse())

    def test_l2(self, q2_sqrt2):
        logs = hazewinkel_log(q2_sqrt2, 2)
        pi = q2_sqrt2.uniformizer()
        q = q2_sqrt2.q
        expected = logs.ring.gen(2).scale(pi.inverse()) + logs.ring.gen(
            1, q + 1
        ).scale(pi.inverse() ** 2)
        assert logs[2] == expected

    def test_recursion_identity_holds(self, q3_sqrt3):
        # pi * l_n = sum_{i<n} l_i * v_{n-i}^{q^i}, checked directly
        logs = hazewinkel_log(q3_sqrt3, 4)
        pi = q3_sqrt3.uniformizer()
        q = q3_sqrt3.q
        for n in range(1, 5):
            rhs = logs.ring.zero()
            for i in range(n):
                rhs = rhs + logs[i] * logs.ring.gen(n - i) ** (q ** i)
            assert logs[n].scale(pi) == rhs


class TestClosedForm:
    def test_matches_recursion_everywhere(self, request):
        for tower in all_towers(request):
            rec = hazewinkel_log(tower, 5)
            closed = log_closed_form(tower, 5)
            for n in range(6):
                assert rec[n] == closed[n], (tower.label, n)

    def test_term_count_is_composition_count(self, q2):
        closed = log_closed_form(q2, 5)
        for h in range(1, 6):
            assert len(closed[h].terms) == 2 ** (h - 1)

    def test_homogeneous_of_weight_qn_minus_1(self, request):
        for tower in all_towers(request):
            logs = hazewinkel_log(tower, 5)
            for n in range(1, 6):
                assert logs[n].is_homogeneous()
                assert logs[n].weight() == tower.q ** n - 1

    def test_pi_n_clears_denominators(self, q2_cbrt2):
        logs = hazewinkel_log(q2_cbrt2, 5)
        pi = q2_cbrt2.uniformizer()
        for n in range(1, 6):
            cleared = logs[n].scale(pi ** n)
            assert all(nr.is_integral(c) for c in cleared.terms.values())


class TestBPStar:
    def test_p2_l1(self):
        logs = hazewinkel_log(trivial_tower(2), 2)
        half = logs.ring.tower.from_rational(Fraction(1, 2))
        assert logs[1] == logs.ring.gen(1).scale(half)

    def test_p3_l2(self):
        logs = hazewinkel_log(trivial_tower(3), 2)
        t = logs.ring.tower
        expected = logs.ring.gen(2).scale(t.from_rational(Fraction(1, 3))) + logs.ring.gen(
            1, 4
        ).scale(t.from_rational(Fraction(1, 9)))
        assert logs[2] == expected

    def test_uniformizer_is_p(self):
        assert trivial_tower(2).uniformizer() == trivial_tower(2).from_rational(2)
        assert trivial_tower(2).uniformizer_name() == "p"

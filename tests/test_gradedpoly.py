import itertools
import random
from fractions import Fraction

import pytest

from fmcalc import gradedpoly as gp
from fmcalc import torsion as ts
from fmcalc.errors import MissingImage, NotIntegral, RingMismatch, TowerMismatch, ZeroPolynomial
from fmcalc.formal import log_closed_form
from fmcalc.gradedpoly import (
    GradedPoly,
    PolyRing,
    graded_basis,
    leading_monomial,
    monomial,
    monomial_key,
    monomial_weight,
    reduce_mod_ideal,
)
from fmcalc.numberring import ResidueElement

N = 4  # generator bound of the polynomials built from the `ring` fixture


@pytest.fixture()
def ring(q2_sqrt2):
    return PolyRing(q2_sqrt2)


def compare(x, y):
    """-1, 0 or 1 as x is below, equal to or above y in the monomial order,
    read from monomial_key."""
    kx, ky = monomial_key(x), monomial_key(y)
    return (kx > ky) - (kx < ky)


class TestMonomialOrder:
    def test_highest_index_dominates(self):
        assert compare(monomial({3: 1}), monomial({1: 100, 2: 100})) == 1

    def test_v2_squared_beats_v1n_v2(self):
        for n in (1, 5, 50):
            assert compare(monomial({2: 2}), monomial({1: n, 2: 1})) == 1

    def test_reflexive(self):
        assert compare(monomial({1: 1}), monomial({1: 1})) == 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_total_order_exhaustive(self, q, q2, q3):
        tower = q2 if q == 2 else q3
        ring = PolyRing(tower)
        bound = 2 * (q ** 3 - 1)
        monos = [m for w, ms in graded_basis(ring, 3, bound).items() for m in ms]
        # antisymmetry + totality on pairs, transitivity on a sample of triples
        for x, y in itertools.combinations(monos[:60], 2):
            cxy = compare(x, y)
            cyx = compare(y, x)
            assert cxy == -cyx
            assert cxy != 0 or x == y
        rng = random.Random(0)
        for _ in range(300):
            x, y, z = (rng.choice(monos) for _ in range(3))
            if compare(x, y) != 1 and compare(y, z) != 1:
                assert compare(x, z) != 1

    def test_order_respects_multiplication(self):
        rng = random.Random(1)
        ring = PolyRing.__new__(PolyRing)  # only need q for weights
        monos = [
            monomial({n: rng.randint(0, 4) for n in (1, 2, 3)}) for _ in range(200)
        ]
        for _ in range(300):
            x, y, z = (rng.choice(monos) for _ in range(3))
            if compare(x, y) != 1:
                assert compare(gp.monomial_mul(x, z), gp.monomial_mul(y, z)) != 1

    def test_weight_additive(self):
        rng = random.Random(2)
        for q in (2, 3):
            for _ in range(100):
                x = monomial({n: rng.randint(0, 3) for n in (1, 2, 3)})
                y = monomial({n: rng.randint(0, 3) for n in (1, 2, 3)})
                assert monomial_weight(gp.monomial_mul(x, y), q) == monomial_weight(
                    x, q
                ) + monomial_weight(y, q)


class TestArithmetic:
    def test_square_weight(self, ring):
        v1 = ring.gen(1)
        sq = v1 * v1
        assert sq.weight() == 2 * (ring.q - 1)

    def test_difference_of_squares(self, ring):
        v1, v2 = ring.gen(1), ring.gen(2)
        assert (v1 + v2) * (v1 - v2) == v1 ** 2 - v2 ** 2

    def test_scalar_power_with_uniformizer_relation(self, ring, q2_sqrt2):
        # ((p/pi) v_1)^e = p^{e-1} v_1^e when pi^e = p
        pi = q2_sqrt2.uniformizer()
        f = ring.gen(1).scale(q2_sqrt2.from_rational(2) / pi)
        assert f ** 2 == (ring.gen(1) ** 2).scale(q2_sqrt2.from_rational(2))

    def test_ring_mismatch(self, ring, q3_sqrt3):
        other = PolyRing(q3_sqrt3)
        with pytest.raises(RingMismatch):
            ring.gen(1) + other.gen(1)

    def test_scale_by_foreign_scalar(self, ring, q3_sqrt3):
        with pytest.raises(TowerMismatch):
            ring.gen(1).scale(q3_sqrt3.theta())

    def test_operands_are_not_coerced(self, ring, q2_sqrt2):
        # Arithmetic takes operands of one kind: a rational enters as a
        # tower element, and a scalar enters a polynomial through scale.
        x, poly = q2_sqrt2.theta(), ring.gen(1)
        for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
                   lambda: x * 2, lambda: 2 * x, lambda: x / 2, lambda: 2 / x,
                   lambda: x * Fraction(1, 2), lambda: poly * x, lambda: x * poly,
                   lambda: poly * 2, lambda: 2 * poly):
            with pytest.raises((TypeError, TowerMismatch, RingMismatch)):
                op()
        for c in (2, Fraction(1, 2), None, ResidueElement(q2_sqrt2, (1,))):
            with pytest.raises(TowerMismatch):
                poly.scale(c)
        with pytest.raises(TowerMismatch):
            PolyRing(q2_sqrt2, "residue").gen(1).scale(q2_sqrt2.one())
        # Comparison with an int or a Fraction still reads the value.
        assert x * x == 2 and x != 2 and q2_sqrt2.zero() == 0 and q2_sqrt2.one() == 1
        assert x != 0 and q2_sqrt2.from_rational(Fraction(1, 2)) == Fraction(1, 2)

    def test_single_monomial_products_skip_the_kernel(self, ring, q2_sqrt2, monkeypatch):
        # The closed-form log and a division step multiply by one monomial
        # only, so neither reaches the graded-product kernel.
        v1, v2 = ring.gen(1), ring.gen(2)
        f = (v1 + v2.scale(q2_sqrt2.from_rational(3))) ** 3
        d = v2 + v1 ** 3
        calls = []
        kernel = GradedPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return kernel(self, other)

        monkeypatch.setattr(GradedPoly, "__mul__", counted)
        log_closed_form(q2_sqrt2, 5)
        quots, rem = gp.divide(f, [d])
        assert calls == []
        assert kernel(quots[0], d) + rem == f and quots[0]

    def test_multiplication_commutes_and_associates(self, ring, q2_sqrt2):
        rng = random.Random(3)
        basis = [m for w, ms in graded_basis(ring, N, 6).items() for m in ms]

        def rand_poly():
            return GradedPoly(
                ring,
                {
                    rng.choice(basis): q2_sqrt2.from_rational(rng.randint(-3, 3))
                    for _ in range(3)
                },
            )

        for _ in range(25):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestLeadingMonomial:
    def test_higher_index_dominates(self, ring):
        assert leading_monomial(ring.gen(1) + ring.gen(2)) == monomial({2: 1})

    def test_worked_example(self, ring):
        f = ring.gen(2) ** 2 + ring.gen(1) ** 9 * ring.gen(2)
        assert leading_monomial(f) == monomial({2: 2})

    def test_scalar_multiple(self, ring):
        assert leading_monomial(ring.gen(1).scale(ring.tower.from_rational(7))) == monomial({1: 1})

    def test_zero_polynomial(self, ring):
        with pytest.raises(ZeroPolynomial):
            leading_monomial(ring.zero())


class TestApplyRingMap:
    def test_single_generator(self, q2, q2_sqrt2):
        ring_a = PolyRing(q2)
        ring_b = PolyRing(q2_sqrt2)
        images = (None, ring_b.gen(1).scale(q2_sqrt2.theta()), ring_b.gen(2))
        out = gp.apply_ring_map(ring_a.gen(1), ring_b, images, {})
        assert out == ring_b.gen(1).scale(q2_sqrt2.theta())

    def test_unit_preservation(self, q2, q2_sqrt2):
        ring_a = PolyRing(q2)
        ring_b = PolyRing(q2_sqrt2)
        images = (None, ring_b.gen(1), ring_b.gen(2))
        assert gp.apply_ring_map(ring_a.one(), ring_b, images, {}) == ring_b.one()

    def test_homomorphism_property(self, q2, q2_sqrt2):
        rng = random.Random(4)
        ring_a = PolyRing(q2)
        ring_b = PolyRing(q2_sqrt2)
        images = (
            None,
            ring_b.gen(1).scale(q2_sqrt2.theta()),
            ring_b.gen(2) + ring_b.gen(1) ** 3,
            ring_b.gen(3),
        )
        basis = [m for w, ms in graded_basis(ring_a, 3, 7).items() for m in ms]

        def rand_poly():
            return GradedPoly(
                ring_a,
                {rng.choice(basis): q2.from_rational(rng.randint(-3, 3)) for _ in range(3)},
            )

        for _ in range(20):
            f, g = rand_poly(), rand_poly()
            assert gp.apply_ring_map(f * g, ring_b, images, {}) == gp.apply_ring_map(
                f, ring_b, images, {}
            ) * gp.apply_ring_map(g, ring_b, images, {})

    def test_generator_past_the_images_raises(self, q2, q2_sqrt2):
        ring_a = PolyRing(q2)
        ring_b = PolyRing(q2_sqrt2)
        images = (None, ring_b.gen(1), ring_b.gen(2))
        memo = {}
        with pytest.raises(MissingImage, match="v_3"):
            gp.monomial_image(monomial({1: 1, 3: 1}), ring_b, images, memo)
        with pytest.raises(MissingImage, match="v_3"):
            gp.apply_ring_map(ring_a.gen(1) + ring_a.gen(3), ring_b, images, memo)
        # The memo may hold images of longer tuples; they are refused too.
        gp.monomial_image(monomial({3: 1}), ring_b, images + (ring_b.gen(3),), memo)
        with pytest.raises(MissingImage, match="v_3"):
            gp.monomial_image(monomial({3: 1}), ring_b, images, memo)


class TestReduceModIdeal:
    def test_drops_low_generators_and_p(self, ring, q2_sqrt2):
        f = ring.gen(3).scale(q2_sqrt2.from_rational(2)) + ring.gen(1) * ring.gen(2)
        assert reduce_mod_ideal(f, 2).is_zero()

    def test_unit_coefficient_survives(self, ring, q2_sqrt2):
        pi = q2_sqrt2.uniformizer()
        f = (ring.gen(2) ** 3).scale(q2_sqrt2.from_rational(2) / pi ** 2)
        red = reduce_mod_ideal(f, 1)
        assert len(red.terms) == 1
        ((m, c),) = red.terms.items()
        assert m == monomial({2: 3}) and c.vec == (1,)

    def test_non_integral_coefficient_raises_only_where_it_survives(self, ring, q2_sqrt2):
        half = q2_sqrt2.from_rational(Fraction(1, 2))
        f = ring.gen(2) + (ring.gen(1) * ring.gen(2)).scale(half)
        assert reduce_mod_ideal(f, 2) == reduce_mod_ideal(ring.gen(2), 2)
        with pytest.raises(NotIntegral):
            reduce_mod_ideal(f, 1)

    def test_uniformizer_multiple_vanishes(self, ring, q2_sqrt2):
        f = ring.gen(2) + ring.gen(2).scale(q2_sqrt2.uniformizer())
        assert reduce_mod_ideal(f, 1) == reduce_mod_ideal(ring.gen(2), 1)

    def test_ring_homomorphism(self, ring, q2_sqrt2):
        rng = random.Random(5)
        basis = [m for w, ms in graded_basis(ring, N, 6).items() for m in ms]

        def rand_poly():
            return GradedPoly(
                ring,
                {
                    rng.choice(basis): q2_sqrt2.from_rational(rng.randint(-3, 3))
                    for _ in range(3)
                },
            )

        for _ in range(25):
            a, b = rand_poly(), rand_poly()
            n = rng.choice((1, 2))
            assert reduce_mod_ideal(a + b, n) == reduce_mod_ideal(a, n) + reduce_mod_ideal(b, n)
            assert reduce_mod_ideal(a * b, n) == reduce_mod_ideal(a, n) * reduce_mod_ideal(b, n)


class TestGradedBasis:
    def test_q2_weight_1(self, ring):
        assert graded_basis(ring, N, 1)[1] == [monomial({1: 1})]

    def test_q2_weight_3(self, ring):
        assert graded_basis(ring, N, 3)[3] == [monomial({2: 1}), monomial({1: 3})]

    def test_q3_weight_1_empty(self, q3):
        ring3 = PolyRing(q3)
        assert graded_basis(ring3, 3, 1)[1] == []

    def test_lists_are_order_sorted(self, ring):
        for w, monos in graded_basis(ring, N, 10).items():
            for a, b in zip(monos, monos[1:]):
                assert compare(a, b) == 1


class TestDivideByVar:
    # The eventual-division scan divides by v_n on polynomials over F_p,
    # held as exponent tuples (a_2, a_1), highest generator first.
    def test_divides(self):
        f = {(0, 3): 1, (1, 1): 1}  # v_1^3 + v_1 v_2
        assert ts._divide_by_var(f, 1) == {(0, 2): 1, (1, 0): 1}

    def test_not_divisible(self):
        assert ts._divide_by_var({(0, 1): 1, (1, 0): 1}, 1) is None
        # v_3 lies past the width: no term holds it
        assert ts._divide_by_var({(1, 1): 1}, 3) is None

    def test_zero_is_divisible(self):
        assert ts._divide_by_var({}, 1) == {}


class TestSerialization:
    def test_descending_term_order(self, ring):
        f = ring.gen(1) + ring.gen(2) ** 2 + ring.gen(1) ** 9 * ring.gen(2)
        data = f.to_json(N)
        exps = [t["exps"] for t in data["terms"]]
        assert exps == [{"2": 2}, {"1": 9, "2": 1}, {"1": 1}]

    def test_changing_a_returned_term_list_leaves_the_next_unchanged(self, ring):
        # Later calls share the serialized terms, each in a new list.
        f = ring.gen(1) + ring.gen(2) ** 2
        first = f.to_json(N)
        first["terms"].reverse()
        first["terms"].append({"exps": {}, "coeff": [["1"]]})
        assert f.to_json(N) == GradedPoly(ring, dict(f.terms)).to_json(N)
        assert f.to_json(N)["terms"] is not f.to_json(N)["terms"]

    def test_roundtrip(self, ring):
        f = ring.gen(2) ** 2 + ring.gen(1).scale(ring.tower.from_rational(Fraction(1, 2)))
        assert GradedPoly.from_json(ring, f.to_json(N)) == f

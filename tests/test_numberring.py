import itertools
import random
from fractions import Fraction

import pytest

from fmcalc import modp
from fmcalc import numberring as nr
from fmcalc.errors import (
    DivisionByZero,
    FmcalcError,
    NoSuitablePrimeFound,
    NotEisenstein,
    NotIntegral,
    NotIrreducibleModP,
    NotPrime,
    NotSubtower,
    TowerMismatch,
)
from fmcalc.formal import LogCoefficients
from fmcalc.gamma import GammaTable
from fmcalc.gradedpoly import PolyRing
from fmcalc.torsion import CyclicModulePresentation


def random_element(tower, rng, denom_bound=1):
    coords = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, denom_bound))
            for _ in range(tower.f)
        ]
        for _ in range(tower.e)
    ]
    return nr.FieldElement(tower, coords)


class TestMakeTower:
    def test_canonical_ramified_quadratic(self):
        t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
        assert (t.e, t.f, t.q, t.d) == (2, 1, 2, 2)

    def test_canonical_unramified_quadratic(self):
        t = nr.TowerDescriptor(2, [1, 1, 1], [0, 1])
        assert (t.e, t.f, t.q, t.d) == (1, 2, 4, 2)

    def test_x2_plus_2_is_irreducible_mod_5(self):
        # squares mod 5 are {0, 1, 4}, so -2 = 3 is not a square
        t = nr.TowerDescriptor(5, [2, 0, 1], [0, 1])
        assert t.q == 25

    def test_reducible_polynomial_rejected(self):
        with pytest.raises(NotIrreducibleModP):
            nr.TowerDescriptor(5, [1, 0, 1], [0, 1])  # x^2+1 = (x-2)(x+2) mod 5

    def test_non_eisenstein_rejected(self):
        with pytest.raises(NotEisenstein):
            nr.TowerDescriptor(2, [0, 1], [-4, 0, 1])  # constant term divisible by p^2
        with pytest.raises(NotEisenstein):
            nr.TowerDescriptor(2, [0, 1], [-2, 1, 1])  # middle coefficient a unit

    @pytest.mark.parametrize("unram, constant, accepted", [
        ([0, 1], Fraction(-2, 3), True),
        ([0, 1], Fraction(-4, 3), False),
        ([0, 1], Fraction(6, 5), True),
        ([0, 1], Fraction(8, 7), False),
        ([1, 1, 1], [4, 2], True),
        ([1, 1, 1], [2, 4], True),
        ([1, 1, 1], [Fraction(2, 3), 0], True),
        ([1, 1, 1], [4, Fraction(-8, 3)], False),
        ([1, 1, 1], [0, 0], False),
    ], ids=["-2/3", "-4/3", "6/5", "8/7", "4+2w", "2+4w", "2/3", "4-8w/3", "zero"])
    def test_constant_term_must_have_valuation_one(self, unram, constant, accepted):
        # x^2 + c at p = 2: the constant term must be p times a unit of the
        # unramified ring, some entry of its row of valuation exactly 1.
        eis = [constant, 0, 1]
        if accepted:
            assert nr.TowerDescriptor(2, unram, eis).e == 2
        else:
            with pytest.raises(NotEisenstein, match="constant term divisible by p\\^2"):
                nr.TowerDescriptor(2, unram, eis)

    def test_not_prime_rejected(self):
        with pytest.raises(NotPrime):
            nr.TowerDescriptor(6, [0, 1], [0, 1])

    def test_json_roundtrip(self):
        t = nr.TowerDescriptor(2, [1, 1, 1], [[-2, 0], [0, 0], [1, 0]])
        t2 = nr.TowerDescriptor.from_json(t.to_json())
        assert t2 == t and t2.to_json() == t.to_json()

    @pytest.mark.parametrize("unram, plain, rows", [
        ([0, 1], [-2, 0, 1], [[-2], [0], [1]]),
        ([0, 1], [Fraction(-4, 2), Fraction(0), 1], [[Fraction(-2)], [0], [Fraction(1)]]),
        ([1, 1, 1], [-2, 0, 1], [[-2, 0], [0, 0], [1, 0]]),
        ([1, 1, 1], [[-2], 0, [1, 0]], [[-2, 0], [0, 0], [1, 0]]),
    ], ids=["f=1", "fractions", "f=2", "mixed"])
    def test_plain_coefficients_are_one_entry_rows(self, unram, plain, rows):
        t, expected = nr.TowerDescriptor(2, unram, plain), nr.TowerDescriptor(2, unram, rows)
        assert t == expected and t.to_json() == expected.to_json()


_Q2 = nr.TowerDescriptor(2, [0, 1], [0, 1])
_Q2_SQRT2 = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
_F4 = nr.TowerDescriptor(2, [1, 1, 1], [0, 1])


# (record class, constructor values, the fields read back in __slots__ order)
RECORDS = [
    (LogCoefficients, ("ring", ("l0", "l1")), ("ring", ("l0", "l1"))),
    (CyclicModulePresentation, (2, 3, ("g",), True, "bp", None),
     (2, 3, ("g",), True, "bp", None)),
    (nr.SplittingReport, (7, (1, 2), False, False, True), (7, (1, 2), False, False, True)),
    # f_rel, e_rel and the target ring are derived from the two towers
    (GammaTable, (_Q2, _Q2_SQRT2, 2, (None, "g1", "g2"), {}),
     (_Q2, _Q2_SQRT2, 2, (None, "g1", "g2"), 1, 2, PolyRing(_Q2_SQRT2), {})),
    # the vector is reduced modulo w^2 + w + 1: 1 + w^2 = w
    (nr.ResidueElement, (_F4, (1, 0, 1)), (_F4, (0, 1))),
]


@pytest.mark.parametrize("cls, values, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_read_back_in_slot_order(cls, values, fields):
    record = cls(*values)
    assert len(cls.__slots__) == len(fields)
    for name, want in zip(cls.__slots__, fields):
        value = getattr(record, name)
        if isinstance(want, PolyRing):
            assert value.same_ring(want), name
        else:
            assert value == want, name
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises((TypeError, ValueError)):
            cls(*wrong)


@pytest.mark.parametrize("text, kind", [
    ("3", int), ("-7", int), (" 3 ", int), ("+3", int), ("1_0", int), ("\u0663", int), (12, int),
    ("1/2", Fraction), ("2.0", Fraction), ("-3/6", Fraction), (2.5, Fraction),
])
def test_parse_rational_reads_integers_as_ints(text, kind):
    # int() first, Fraction for the rest: the value is Fraction's either way
    value = nr.parse_rational(text)
    assert value == Fraction(str(text)) and type(value) is kind
    q2 = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
    assert nr.FieldElement.from_json(q2, [[str(text)], ["0"]]) == q2.from_rational(Fraction(str(text)))


@pytest.mark.parametrize("text", ["x", "1/0", "", "True"])
def test_parse_rational_refuses_non_numbers(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        nr.parse_rational(text)


class TestFieldArithmetic:
    def setup_method(self):
        self.t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1], "Q2(sqrt2)")

    def test_defining_relation(self):
        th = self.t.theta()
        assert th * th == self.t.from_rational(2)

    def test_two_over_theta(self):
        th = self.t.theta()
        assert (self.t.from_rational(1) / th) * self.t.from_rational(2) == th

    def test_conjugate_product(self):
        one = self.t.one()
        th = self.t.theta()
        assert (one + th) * (one - th) == self.t.from_rational(-1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            self.t.one() / self.t.zero()

    def test_tower_mismatch(self):
        other = nr.TowerDescriptor(2, [0, 1], [-6, 0, 1])
        with pytest.raises(TowerMismatch):
            self.t.one() + other.one()

    def test_malformed_coordinates_rejected(self):
        with pytest.raises(FmcalcError):
            nr.FieldElement(self.t, [[1]])  # one row for e = 2
        with pytest.raises(FmcalcError):
            nr.FieldElement(self.t, [[1, 2], [0]])  # two coordinates for f = 1

    def test_inverse_roundtrip_random(self):
        rng = random.Random(11)
        t3 = nr.TowerDescriptor(2, [1, 1, 1], [[-2, 0], [0, 0], [1, 0]])
        for _ in range(40):
            z = random_element(t3, rng, denom_bound=3)
            if z.is_zero():
                continue
            assert z * z.inverse() == t3.one()

    def test_pow(self):
        th = self.t.theta()
        assert th ** 6 == self.t.from_rational(8)
        assert th ** -2 == self.t.from_rational(Fraction(1, 2))
        assert th ** 0 == self.t.one()


class TestIntegralityValuationResidue:
    def test_integrality_examples(self):
        t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
        th = t.theta()
        two = t.from_rational(2)
        assert not nr.is_integral(th / two)
        assert nr.is_integral(two / th)
        assert nr.is_integral(t.one())

    def test_valuation_examples(self):
        t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 0, 1])
        assert nr.valuation(t.from_rational(2)) == 3
        assert nr.valuation(t.theta()) == 1
        assert nr.valuation(t.from_rational(2) / t.theta() ** 2) == 1
        assert nr.valuation(t.zero()) == nr.INFINITY

    def test_residue_reduced_read_only_and_hashed_by_value(self):
        t = nr.TowerDescriptor(3, [1, 0, 1], [0, 1])  # F_9 = F_3[w]/(w^2 + 1)
        a = nr.ResidueElement(t, (4, 0, 1))  # 4 + w^2 = 3 = 0 mod (3, w^2 + 1)
        assert a.vec == () and a.is_zero()
        b = nr.ResidueElement(t, (1, 5))
        assert b.vec == (1, 2)
        assert b == nr.ResidueElement(nr.TowerDescriptor(3, [1, 0, 1], [0, 1], "other"), (1, 2))
        assert hash(b) == hash(nr.ResidueElement(t, (4, 2)))
        assert b != nr.ResidueElement(t, (1, 1)) and b != (1, 2)
        with pytest.raises(AttributeError):
            b.vec = (0,)

    def test_valuation_additive(self):
        rng = random.Random(5)
        for tower in (
            nr.TowerDescriptor(2, [0, 1], [-2, 0, 1]),
            nr.TowerDescriptor(3, [0, 1], [-3, 0, 0, 1]),
            nr.TowerDescriptor(2, [1, 1, 1], [0, 1]),
        ):
            checked = 0
            while checked < 200:
                a = random_element(tower, rng, denom_bound=4)
                b = random_element(tower, rng, denom_bound=4)
                if a.is_zero() or b.is_zero():
                    continue
                assert nr.valuation(a * b) == nr.valuation(a) + nr.valuation(b)
                checked += 1

    def test_integral_iff_nonnegative_valuation(self):
        rng = random.Random(6)
        tower = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
        for _ in range(100):
            z = random_element(tower, rng, denom_bound=4)
            if z.is_zero():
                continue
            assert nr.is_integral(z) == (nr.valuation(z) >= 0)

    def test_residue_examples(self):
        t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
        assert nr.residue(t.theta()).is_zero()
        assert nr.residue(t.one() + t.from_rational(2) * t.theta()).vec == (1,)
        t3 = nr.TowerDescriptor(3, [0, 1], [-3, 0, 0, 1])
        assert nr.residue(t3.from_rational(3) / t3.theta() ** 3).vec == (1,)

    def test_residue_requires_integrality(self):
        t = nr.TowerDescriptor(2, [0, 1], [-2, 0, 1])
        with pytest.raises(NotIntegral):
            nr.residue(t.theta() / t.from_rational(2))


class TestEmbed:
    def test_identity_on_one(self, q2, q2_sqrt2):
        assert nr.embed(q2.one(), q2_sqrt2) == q2_sqrt2.one()

    def test_valuation_scales(self, q2, q2_sqrt2):
        z = nr.embed(q2.from_rational(2), q2_sqrt2)
        assert nr.valuation(z) == 2 == 2 * nr.valuation(q2.from_rational(2))

    def test_multiplicative(self, q2, q2_cbrt2):
        rng = random.Random(8)
        for _ in range(50):
            a = q2.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            b = q2.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            assert nr.embed(a, q2_cbrt2) * nr.embed(b, q2_cbrt2) == nr.embed(
                a * b, q2_cbrt2
            )

    def test_injective_on_sample(self, q2, q2_sqrt2):
        rng = random.Random(9)
        seen = set()
        for _ in range(50):
            a = q2.from_rational(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            seen.add(nr.embed(a, q2_sqrt2).coords)
        values = {
            q2.from_rational(Fraction(n, d)).coords
            for n in range(-20, 21)
            for d in range(1, 6)
        }
        assert len(seen) <= len(values)
        # structural injectivity: distinct inputs give distinct outputs
        a = nr.embed(q2.from_rational(3), q2_sqrt2)
        b = nr.embed(q2.from_rational(5), q2_sqrt2)
        assert a != b

    def test_not_subtower(self, q2_sqrt2, q3_sqrt3):
        with pytest.raises(NotSubtower):
            nr.embed(q2_sqrt2.one(), q3_sqrt3)


@pytest.mark.parametrize("p, f", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_residue_field_arithmetic_matches_polynomial_path(p, f):
    """fq_mul and fq_inv against reduction modulo gbar and the power q - 2
    by square-and-multiply, over every nonzero residue of F_q, q = p^f."""
    gbar = modp.smallest_irreducible(p, f)
    nonzero = [modp.trim(v) for v in itertools.product(range(p), repeat=f) if any(v)]
    for a in nonzero:
        inv = modp.fq_inv(a, gbar, p)
        assert inv == modp.pow_mod(a, p ** f - 2, gbar, p)
        assert modp.fq_mul(a, inv, gbar, p) == (1,)
        for b in nonzero:
            assert modp.fq_mul(a, b, gbar, p) == modp.poly_divmod(modp.mul(a, b, p), gbar, p)[1]


class TestSplitting:
    def test_x2_plus_1(self):
        rep = nr.find_nonsplit_prime([1, 0, 1], 100)
        assert rep.prime == 3 and rep.factor_degrees == (2,)
        assert not rep.ramified and not rep.splits_completely and rep.equal_degrees

    def test_x3_minus_2(self):
        rep = nr.find_nonsplit_prime([-2, 0, 0, 1], 100)
        assert rep.prime == 7 and rep.factor_degrees == (3,)

    def test_x3_minus_2_scan_details(self):
        # 2 and 3 are ramified, 5 has unequal degrees {1, 2}
        assert nr.analyze_prime((-2, 0, 0, 1), 2).ramified
        assert nr.analyze_prime((-2, 0, 0, 1), 3).ramified
        rep5 = nr.analyze_prime((-2, 0, 0, 1), 5)
        assert rep5.factor_degrees == (1, 2) and not rep5.equal_degrees

    def test_degree_one_always_splits(self):
        with pytest.raises(NoSuitablePrimeFound) as exc:
            nr.find_nonsplit_prime([-1, 1], 30)
        assert all(r.splits_completely for r in exc.value.scan_table)

    def test_degrees_sum_to_degree(self):
        for p in (2, 3, 5, 7, 11, 13):
            rep = nr.analyze_prime((-2, 0, 0, 1), p)
            assert sum(rep.factor_degrees) == 3

    def test_brute_force_oracle(self):
        # -1 is a square mod p iff p = 1 mod 4; first prime where x^2+1 is
        # squarefree and irreducible must therefore be 3
        squares_mod3 = {x * x % 3 for x in range(3)}
        assert 2 not in squares_mod3  # -1 = 2 mod 3
        # 2 is not a cube mod 7
        cubes_mod7 = {x ** 3 % 7 for x in range(7)}
        assert 2 not in cubes_mod7

"""Property tests of the exact-arithmetic layer: the multiplication kernel
against the polynomial-reduction reference, inverses, the closed-form
valuation, graded products and multivariate division."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fmcalc.formal import trivial_tower
from fmcalc.gradedpoly import (
    GradedPoly,
    PolyRing,
    divide,
    leading_monomial,
    monomial,
    monomial_divide,
    monomial_mul,
)
from fmcalc.numberring import (
    FieldElement,
    ResidueElement,
    _basis_mul,
    is_integral,
    make_tower,
    residue,
    valuation,
)

TOWERS = [
    make_tower(2, [0, 1], [-2, 0, 1], "Q2(x^2-2)"),
    make_tower(3, [0, 1], [-3, 0, 0, 1], "Q3(x^3-3)"),
    make_tower(2, [1, 1, 1], [0, 1], "unram f=2 over Q2"),
    make_tower(2, [1, 1, 1], [[-2], [0], [1]], "f=2, x^2-2 over Q2"),
    # Eisenstein polynomial x^2 + 3w*x + 3w over Q3(w), w^2 = -1.
    make_tower(3, [1, 0, 1], [[0, 3], [0, 3], [1]], "f=2, x^2+3wx+3w over Q3"),
    make_tower(5, [0, 1], [-5, 0, 1], "Q5(x^2-5)"),
]

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


def elements(tower):
    return st.lists(rationals, min_size=tower.d, max_size=tower.d).map(
        lambda flat: FieldElement.from_flat(tower, flat)
    )


@st.composite
def tower_and_elements(draw, count):
    tower = draw(st.sampled_from(TOWERS))
    return (tower,) + tuple(draw(elements(tower)) for _ in range(count))


# Small monomials in v_1..v_3, so products and divisions stay small.
monomials = st.builds(
    lambda a, b, c: monomial({1: a, 2: b, 3: c}),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 1),
)


def polys(ring, coeffs, max_terms):
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(
        lambda terms: GradedPoly(ring, terms)
    )


@PROPERTY_SETTINGS
@given(tower_and_elements(2))
def test_product_matches_polynomial_reduction(args):
    tower, x, y = args
    assert x * y == FieldElement(tower, _basis_mul(tower, x.coords, y.coords))


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_inverse(args):
    tower, x = args
    assume(x)
    assert x * x.inverse() == tower.one()


@PROPERTY_SETTINGS
@given(st.data())
def test_graded_product_is_sum_of_coefficient_products(data):
    tower = data.draw(st.sampled_from(TOWERS))
    ring = PolyRing(tower, N=3)
    f = data.draw(polys(ring, elements(tower), 3))
    g = data.draw(polys(ring, elements(tower), 3))
    expected = ring.zero()
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            expected = expected + GradedPoly(ring, {monomial_mul(m1, m2): c1 * c2})
    assert f * g == expected


@PROPERTY_SETTINGS
@given(tower_and_elements(2))
def test_valuation_is_multiplicative_and_ultrametric(args):
    tower, x, y = args
    assert valuation(x * y) == valuation(x) + valuation(y)
    assert valuation(x + y) >= min(valuation(x), valuation(y))


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_valuation_leaves_a_unit(args):
    tower, x = args
    assume(x)
    unit = x / tower.uniformizer() ** valuation(x)
    assert is_integral(unit) and residue(unit)


def test_valuation_normalization():
    for tower in TOWERS:
        assert valuation(tower.uniformizer()) == 1
        assert valuation(tower.from_rational(tower.p)) == tower.e
        assert valuation(tower.zero()) == float("inf")


def _check_division(f, divisors):
    quots, rem = divide(f, divisors)
    total = rem
    for q, d in zip(quots, divisors):
        total = total + q * d
    assert total == f
    leads = [leading_monomial(d) for d in divisors]
    for m in rem.terms:
        assert all(monomial_divide(m, lm) is None for lm in leads)


@PROPERTY_SETTINGS
@given(st.data())
def test_divide_over_field_coefficients(data):
    tower = data.draw(st.sampled_from([trivial_tower(3), TOWERS[0]]))
    ring = PolyRing(tower, N=3)
    f = data.draw(polys(ring, elements(tower), 4))
    divisors = data.draw(st.lists(polys(ring, elements(tower), 2), min_size=1, max_size=3))
    assume(all(divisors))
    _check_division(f, divisors)


@PROPERTY_SETTINGS
@given(st.data())
def test_divide_over_residue_coefficients(data):
    tower = data.draw(st.sampled_from([trivial_tower(2), trivial_tower(5), TOWERS[2]]))
    ring = PolyRing(tower, N=3, coefficients="residue")
    coeffs = st.lists(
        st.integers(0, tower.p - 1), min_size=tower.f, max_size=tower.f
    ).map(lambda vec: ResidueElement(tower, tuple(vec)))
    f = data.draw(polys(ring, coeffs, 4))
    divisors = data.draw(st.lists(polys(ring, coeffs, 2), min_size=1, max_size=3))
    assume(all(divisors))
    _check_division(f, divisors)

"""Property tests of the exact-arithmetic layer: the integer-numerator
representation, the multiplication kernel against the polynomial-reduction
reference, inverses against Gauss-Jordan elimination over Q, the
closed-form valuation, coordinate serialization, graded products, squares
and single-monomial shifts, gamma
as a ring map and its memoized monomial images, multivariate division,
eventual-division scans against
every power built and divided from scratch, the monomial order, the monomials
of one weight, Groebner bases over F_p against the reference Buchberger
loop, normal forms modulo them and the v_n-power scans read from them, module specs as obstruct reads and writes
them, with their certificates' witnesses, Smith normal form, and logs and gamma
images that do not depend on N."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fmcalc import torsion as ts
from fmcalc.errors import ConfigParseError, TruncationUnsound
from fmcalc.formal import hazewinkel_log, log_closed_form, trivial_tower
from fmcalc.gamma import (
    GammaTable,
    compute_gamma,
    eventual_division_witness,
    gamma_images,
    in_ideal_In,
    match_log,
    poly_divide,
)
from fmcalc.gradedpoly import (
    GradedPoly,
    PolyRing,
    divide,
    divisible_below,
    graded_basis,
    leading_monomial,
    monomial,
    monomial_key,
    monomial_mul,
    monomial_to_json,
    monomial_weight,
    monomials_of_weight,
    reduce_mod_ideal,
    strip,
    widen,
)
from fmcalc.numberring import (
    FieldElement,
    ResidueElement,
    TowerDescriptor,
    _basis_mul,
    embed,
    format_rational,
    is_integral,
    padic_valuation_rational,
    residue,
    valuation,
)

TOWERS = [
    TowerDescriptor(2, [0, 1], [-2, 0, 1], "Q2(x^2-2)"),
    TowerDescriptor(3, [0, 1], [-3, 0, 0, 1], "Q3(x^3-3)"),
    TowerDescriptor(2, [1, 1, 1], [0, 1], "unram f=2 over Q2"),
    TowerDescriptor(2, [1, 1, 1], [[-2], [0], [1]], "f=2, x^2-2 over Q2"),
    # Eisenstein polynomial x^2 + 3w*x + 3w over Q3(w), w^2 = -1.
    TowerDescriptor(3, [1, 0, 1], [[0, 3], [0, 3], [1]], "f=2, x^2+3wx+3w over Q3"),
    TowerDescriptor(5, [0, 1], [-5, 0, 1], "Q5(x^2-5)"),
    # d = 6: x^3 + 2w*x + 2 over Q2(w), w^2 + w + 1 = 0.
    TowerDescriptor(2, [1, 1, 1], [[2], [0, 2], [0], [1]], "f=2, x^3+2wx+2 over Q2"),
    # Rational Eisenstein polynomial: structure constants over ds = 2.
    TowerDescriptor(3, [0, 1], [Fraction(-3, 2), 0, 1], "Q3(x^2-3/2)"),
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


def residues(tower):
    """Elements of F_q, drawn as an integer below q read in base p."""
    p = tower.p
    return st.integers(0, tower.q - 1).map(
        lambda n: ResidueElement(tower, [n // p ** i % p for i in range(tower.f)])
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


def _assert_canonical(x):
    assert len(x.nums) == x.tower.d
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    if not x:
        assert x.nums == (0,) * x.tower.d and x.den == 1


def test_rational_tower_scales_structure_constants():
    assert TOWERS[-1].structure_constants()[1] == 2
    assert all(T.structure_constants()[1] == 1 for T in TOWERS[:-1])


@PROPERTY_SETTINGS
@given(tower_and_elements(2))
def test_results_are_canonical(args):
    tower, x, y = args
    for z in (x, y, x + y, x - y, x - x, x * y, x * tower.from_rational(Fraction(3, 4)), -x,
              tower.zero()):
        _assert_canonical(z)
    if x:
        _assert_canonical(x.inverse())


@PROPERTY_SETTINGS
@given(tower_and_elements(1), st.integers(1, 36))
def test_coords_round_trip_and_scaled_numerators(args, k):
    tower, x = args
    assert all(isinstance(c, Fraction) for row in x.coords for c in row)
    for z in (
        FieldElement(tower, x.coords),
        FieldElement.from_numerators(tower, [k * n for n in x.nums], k * x.den),
    ):
        assert (z.nums, z.den) == (x.nums, x.den)
        assert z == x and hash(z) == hash(x)


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_to_json_formats_each_coordinate(args):
    # to_json reads the numerators; the Fraction rows of coords are its oracle.
    tower, x = args
    for z in (x, -x, tower.zero()):
        assert z.to_json() == [[format_rational(c) for c in row] for row in z.coords]


@PROPERTY_SETTINGS
@given(tower_and_elements(2))
def test_equal_elements_hash_equal(args):
    tower, x, y = args
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_integrality_and_valuation_match_per_coordinate_reference(args):
    tower, x = args
    p, e = tower.p, tower.e
    coords = x.coords
    assert is_integral(x) == all(c.denominator % p for row in coords for c in row)
    assert valuation(x) == min(
        (e * padic_valuation_rational(c, p) + j
         for j, row in enumerate(coords) for c in row if c),
        default=float("inf"),
    )


@PROPERTY_SETTINGS
@given(tower_and_elements(2))
def test_product_matches_polynomial_reduction(args):
    tower, x, y = args
    assert x * y == FieldElement(tower, _basis_mul(tower, x.coords, y.coords))


def _inverse_reference(x):
    """1/x by Gauss-Jordan elimination over Q: column l of the matrix holds
    the coordinates of x * basis_l from the polynomial-reduction product,
    and the solution of A y = e_0 is the coordinates of 1/x."""
    tower = x.tower
    d, f, e = tower.d, tower.f, tower.e
    A = [[Fraction(0)] * d + [Fraction(int(r == 0))] for r in range(d)]
    for l in range(d):
        basis = [[Fraction(0)] * f for _ in range(e)]
        basis[l // f][l % f] = Fraction(1)
        column = [c for row in _basis_mul(tower, x.coords, basis) for c in row]
        for r in range(d):
            A[r][l] = column[r]
    for col in range(d):
        piv = next(r for r in range(col, d) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        A[col] = [a / A[col][col] for a in A[col]]
        for r in range(d):
            factor = A[r][col]
            if r != col and factor:
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
    return FieldElement.from_flat(tower, [A[r][d] for r in range(d)])


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_inverse(args):
    tower, x = args
    assume(x)
    assert x * x.inverse() == tower.one()


@PROPERTY_SETTINGS
@given(tower_and_elements(1))
def test_inverse_matches_gauss_jordan_over_q(args):
    _, x = args
    assume(x)
    y, expected = x.inverse(), _inverse_reference(x)
    assert (y.nums, y.den) == (expected.nums, expected.den)


@PROPERTY_SETTINGS
@given(st.data())
def test_graded_product_is_sum_of_coefficient_products(data):
    # Field coefficients over one tower; residue coefficients over every
    # tower, the f = 2 towers and the ds = 2 tower among them.
    tower = data.draw(st.sampled_from(TOWERS))
    cases = [(PolyRing(tower), elements(tower))]
    cases += [(PolyRing(T, "residue"), residues(T)) for T in TOWERS]
    for ring, coeffs in cases:
        f = data.draw(polys(ring, coeffs, 3))
        g = data.draw(polys(ring, coeffs, 3))
        expected = ring.zero()
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                expected = expected + GradedPoly(ring, {monomial_mul(m1, m2): c1 * c2})
        assert f * g == expected, ring


def _termwise_product(f, g):
    """f * g summed term by term with monomial_mul, keys in first-seen
    order with f's terms outermost."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = monomial_mul(m1, m2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if c}


def test_graded_product_with_skipped_generators():
    # Monomials in v_1, v_2, v_3, v_5: the products skip v_4, and
    # v_1*v_2*v_5^4 arises twice.
    for ring, c in [
        (PolyRing(TOWERS[1]), TOWERS[1].theta() + TOWERS[1].from_rational(Fraction(1, 3))),
        (PolyRing(TOWERS[-1]), TOWERS[-1].theta() * TOWERS[-1].from_rational(Fraction(2, 5))),
        (PolyRing(TOWERS[4], coefficients="residue"), ResidueElement(TOWERS[4], (0, 1))),
    ]:
        one = ring.coeff_one()
        f = GradedPoly(ring, {monomial({2: 1, 5: 3}): one, monomial({1: 1, 5: 1}): c})
        g = GradedPoly(ring, {
            monomial({1: 1, 5: 1}): c,
            monomial({3: 2}): one,
            monomial({2: 1, 5: 3}): one,
        })
        product = f * g
        expected = _termwise_product(f, g)
        assert monomial({1: 1, 2: 1, 5: 4}) in expected
        assert list(product.terms) == list(expected)
        assert product.terms == expected


@PROPERTY_SETTINGS
@given(st.data())
def test_square_matches_the_termwise_product(data):
    # A square takes each unordered pair of terms once; its terms, in their
    # order, are those of the product term by term, for field and residue
    # coefficients.
    T = data.draw(st.sampled_from(TOWERS))
    for ring, coeffs in ((PolyRing(T), elements(T)), (PolyRing(T, "residue"), residues(T))):
        f = data.draw(polys(ring, coeffs, 5))
        square, expected = f * f, _termwise_product(f, f)
        assert list(square.terms) == list(expected), ring
        assert square.terms == expected, ring


@PROPERTY_SETTINGS
@given(st.data())
def test_shift_is_the_product_with_one_term(data):
    # The kernel is the oracle of shift, for field and residue coefficients
    # over every tower, and of the Groebner core's c * x^e * f on exponent
    # tuples over every residue field F_p, for c in 1..p-1.
    for T in TOWERS:
        for ring, coeffs in ((PolyRing(T), elements(T)), (PolyRing(T, "residue"), residues(T))):
            f = data.draw(polys(ring, coeffs, 3))
            m = data.draw(monomials)
            assert f.shift(m) == f * GradedPoly(ring, {m: ring.coeff_one()}), ring
            if ring.coefficients == "residue" and T.f == 1:
                c = data.draw(st.integers(1, T.p - 1))
                term = GradedPoly(ring, {m: ring.coeff_from_int(c)})
                width = max(map(len, itertools.chain(f.terms, [m])))
                shifted = ts._shift(_fp_dict(f, width), widen(m, width), c, T.p)
                assert _from_fp_dict(ring, shifted) == f * term, ring


def _is_canonical(m):
    """A monomial key is () or an exponent tuple whose first exponent, that
    of its highest generator, is nonzero."""
    return m == () or (type(m) is tuple and m[0] > 0 and min(m) >= 0)


@PROPERTY_SETTINGS
@given(st.data())
def test_every_operation_yields_canonical_monomials(data):
    # Products, shifts and divisions widen exponent tuples to a common
    # width; what they return must carry no leading zero, or equal
    # monomials would be two keys.
    T = data.draw(st.sampled_from(TOWERS))
    for ring, coeffs in ((PolyRing(T), elements(T)), (PolyRing(T, "residue"), residues(T))):
        f = data.draw(polys(ring, coeffs, 3))
        g = data.draw(polys(ring, coeffs, 3))
        d = data.draw(polys(ring, coeffs, 2))
        assume(d)
        quots, rem = divide(f * g + f, [d, g] if g else [d])
        results = [f + g, f - g, f * g, f * f, f.shift(data.draw(monomials)),
                   f ** data.draw(st.integers(0, 3)), rem] + quots
        for h in results:
            assert all(map(_is_canonical, h.terms)), (ring, h)
    table = compute_gamma(trivial_tower(2), TOWERS[0], 3)
    table.monomial_image(data.draw(monomials))
    assert all(map(_is_canonical, table.monomials))
    assert all(_is_canonical(m) for img in table.monomials.values() for m in img.terms)
    p = data.draw(st.sampled_from([2, 3]))
    basis = graded_basis(PolyRing(trivial_tower(p)), data.draw(st.integers(0, 4)), 3 * p)
    assert all(_is_canonical(m) for ms in basis.values() for m in ms)


def test_polynomials_built_from_different_generators_are_equal():
    # (v_1 + v_2) * v_1 - v_2 * v_1 is built from v_1 and v_2; v_1^2 from
    # v_1 alone.  Both hold the one key of v_1^2.
    for ring in (PolyRing(TOWERS[0]), PolyRing(TOWERS[1], "residue")):
        v1, v2 = ring.gen(1), ring.gen(2)
        lhs, rhs = (v1 + v2) * v1 - v2 * v1, v1 ** 2
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert list(lhs.terms) == list(rhs.terms) == [monomial({1: 2})]


def test_monomial_refuses_generators_below_v1():
    for exps in ({0: 1}, {-1: 2}, {1: 1, 0: 3}):
        with pytest.raises(ValueError, match="no generator"):
            monomial(exps)
    assert monomial({0: 0, 2: 0}) == () and monomial({3: 1, 1: 2}) == (1, 0, 2)


# gamma tables at N = 3: from Q_p into every tower, and from the unramified
# layer into the f = 2, e = 2 tower.
GAMMA_PAIRS = [(trivial_tower(T.p), T) for T in TOWERS] + [(TOWERS[2], TOWERS[3])]


@PROPERTY_SETTINGS
@given(st.sampled_from(GAMMA_PAIRS), st.data())
def test_gamma_is_a_ring_map(pair, data):
    source, target = pair
    table = compute_gamma(source, target, 3)
    ring = PolyRing(source)
    f = data.draw(polys(ring, elements(source), 4))
    g = data.draw(polys(ring, elements(source), 4))
    assert table.apply(f * g) == table.apply(f) * table.apply(g)
    assert table.apply(f + g) == table.apply(f) + table.apply(g)


def _exponents(m):
    """{n: a} over the generators v_n^a of the exponent tuple m = (a_W, ...,
    a_1), read from its definition."""
    return {len(m) - i: a for i, a in enumerate(m) if a}


def _quotient(x, y):
    """The monomial x / y from the exponents, None when y does not divide x."""
    ex, ey = _exponents(x), _exponents(y)
    if any(ex.get(n, 0) < a for n, a in ey.items()):
        return None
    return monomial({n: a - ey.get(n, 0) for n, a in ex.items()})


def _image_from_scratch(table, m):
    """gamma(m) as the product of gamma(v_n)^a over m's factors."""
    out = table.target_ring.one()
    for n, a in _exponents(m).items():
        out = out * table.image(n) ** a
    return out


@PROPERTY_SETTINGS
@given(
    st.sampled_from(GAMMA_PAIRS),
    st.lists(
        st.builds(
            lambda a, b, c: monomial({1: a, 2: b, 3: c}),
            st.integers(0, 5), st.integers(0, 3), st.integers(0, 2),
        ),
        min_size=1,
        max_size=10,
    ),
    st.randoms(use_true_random=False),
)
def test_monomial_images_match_products_from_scratch(pair, ms, rnd):
    cached = compute_gamma(pair[0], pair[1], 3)
    table = GammaTable(cached.source, cached.target, cached.N, cached.images, {})
    expected = {m: _image_from_scratch(table, m) for m in ms}
    for m in ms:  # cold memo, in drawn order
        assert table.monomial_image(m) == expected[m]
    rnd.shuffle(ms)
    for m in ms:  # warm memo, in another order
        assert table.monomial_image(m) == expected[m]
    # Every entry the memo holds, prefixes and powers included, is the
    # image of its own key.
    for m, img in table.monomials.items():
        assert img == _image_from_scratch(table, m)
    assert table == cached and hash(table) == hash(cached)
    assert table.to_json() == cached.to_json()


# F_2, F_4 and F_9 unramified, and F_9 below a ramified extension.
RESIDUE_TOWERS = [trivial_tower(2), TOWERS[2], TowerDescriptor(3, [1, 0, 1], [0, 1]), TOWERS[4]]


def integral_elements(tower):
    """Elements with denominators prime to p, so each has a residue."""
    coords = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 7, 11]))
    return st.lists(coords, min_size=tower.d, max_size=tower.d).map(
        lambda flat: FieldElement.from_flat(tower, flat)
    )


@PROPERTY_SETTINGS
@given(st.sampled_from(RESIDUE_TOWERS), st.data())
def test_residue_is_a_ring_homomorphism_onto_canonical_vectors(tower, data):
    a, b = data.draw(integral_elements(tower)), data.draw(integral_elements(tower))
    ra, rb = residue(a), residue(b)
    for result, expected in ((ra + rb, residue(a + b)), (ra - rb, residue(a - b)),
                             (-ra, residue(-a)), (ra * rb, residue(a * b))):
        assert result == expected
        vec = result.vec
        assert all(0 <= c < tower.p for c in vec) and vec[-1:] != (0,)
        assert len(vec) < len(tower.gbar)


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
        assert all(_quotient(m, lm) is None for lm in leads)
    # Each step takes the leading term of what is left, so the remainder's
    # terms arrive in descending order.
    assert list(rem.terms) == sorted(rem.terms, key=monomial_key, reverse=True)


@PROPERTY_SETTINGS
@given(st.data())
def test_divide_over_field_coefficients(data):
    tower = data.draw(st.sampled_from([trivial_tower(3), TOWERS[0]]))
    ring = PolyRing(tower)
    f = data.draw(polys(ring, elements(tower), 4))
    divisors = data.draw(st.lists(polys(ring, elements(tower), 2), min_size=1, max_size=3))
    assume(all(divisors))
    _check_division(f, divisors)


@PROPERTY_SETTINGS
@given(st.data())
def test_divide_over_residue_coefficients(data):
    tower = data.draw(st.sampled_from([trivial_tower(2), trivial_tower(5), TOWERS[2]]))
    ring = PolyRing(tower, coefficients="residue")
    coeffs = st.lists(
        st.integers(0, tower.p - 1), min_size=tower.f, max_size=tower.f
    ).map(lambda vec: ResidueElement(tower, tuple(vec)))
    f = data.draw(polys(ring, coeffs, 4))
    divisors = data.draw(st.lists(polys(ring, coeffs, 2), min_size=1, max_size=3))
    assume(all(divisors))
    _check_division(f, divisors)


@PROPERTY_SETTINGS
@given(st.data())
def test_in_ideal_In_reads_p_divisibility_from_valuations(data):
    # A coefficient lies in p * O exactly when its quotient by p is
    # integral; a non-integral one never does.
    tower = data.draw(st.sampled_from(TOWERS))
    f = data.draw(polys(PolyRing(tower), elements(tower), 4))
    n = data.draw(st.integers(1, 3))
    assert in_ideal_In(f, n) == all(divisible_below(m, n) or is_integral(c / tower.from_rational(tower.p))
                                    for m, c in f.terms.items())


def _eventual_division_reference(table, n, m_max):
    """eventual_division_witness's report from its definition: each power
    of gamma(v_{n+1}) by repeated multiplication, the zero case at the
    powers of p tested with in_ideal_In and, at n = 1, modulo the
    uniformizer with reduce_mod_ideal, then the division case over every
    m <= m_max by divide."""
    d, g = table.image(n), table.image(n + 1)
    powers = [None, g]

    def power(m):
        while len(powers) <= m:
            powers.append(powers[-1] * g)
        return powers[m]

    p_powers = list(itertools.takewhile(lambda m: m <= m_max,
                                        (table.target.p ** k for k in itertools.count())))
    report = {"n": n, "m_max": m_max,
              "ideal_convention": "coefficients mod p, generators v_1..v_%d dropped" % (n - 1)}
    if n == 1:
        report["zero_case_mod_uniformizer"] = next(
            (m for m in p_powers if reduce_mod_ideal(power(m), 1).is_zero()), None)
    for m in p_powers:
        if in_ideal_In(power(m), n):
            report.update(found=True, case="zero", m=m, y="0")
            return report
    for m in range(1, m_max + 1):
        (quot,), rem = divide(power(m), [d]) if d else ([d], power(m))
        if in_ideal_In(rem, n) and all(is_integral(c) for c in quot.terms.values()):
            report.update(found=True, case="divide", m=m, y=quot.to_json(table.N))
            return report
    report.update(found=False, not_found_up_to=m_max)
    return report


SCAN_BOUNDS = [0, 1, 2, 8, 32]


@pytest.mark.parametrize("source, target", [
    ("q2", "q2_sqrt2"), ("q2", "q2_cbrt2"), ("q3", "q3_sqrt3"), ("q3", "q3_cbrt3"),
    ("q2", "unram2_f2"), ("q3", "unram3_f2"), ("q2", "unram2_f3"),
])
def test_eventual_division_matches_the_reference_on_gamma_tables(request, source, target):
    # Every tower fixture, every n < N <= 4 and every bound.
    source, target = request.getfixturevalue(source), request.getfixturevalue(target)
    for N in (2, 3, 4):
        table = compute_gamma(source, target, N)
        for n, m_max in itertools.product(range(1, N), SCAN_BOUNDS):
            assert eventual_division_witness(table, n, m_max) == _eventual_division_reference(
                table, n, m_max), (N, n, m_max)


# e = 2, 3, 2 and 1.
SCAN_TOWERS = [TOWERS[0], TOWERS[1], TOWERS[5], trivial_tower(3)]


def valued_elements(tower, k):
    """Elements of valuation exactly k: pi^k times a unit a + pi * x."""
    pi = tower.uniformizer()
    return st.builds(lambda a, x: pi ** k * (tower.from_rational(a) + pi * x),
                     st.integers(1, tower.p - 1), integral_elements(tower))


def _scan_table(tower, n, d, g):
    """A synthetic table at N = n + 1 with gamma(v_n) = d and
    gamma(v_{n+1}) = g (and gamma(v_1) = v_1 below them)."""
    ring = PolyRing(tower)
    images = (None, d, g) if n == 1 else (None, ring.gen(1), d, g)
    return GammaTable(trivial_tower(tower.p), tower, n + 1, images, {})


@st.composite
def synthetic_scans(draw):
    """(table, n, m_max) with gamma(v_n) = c * mu, v(c) in {0, 1, 2}, and
    gamma(v_{n+1}) of up to three terms, mu dividing its least term, its
    leading term or drawn alone; or gamma(v_n) or gamma(v_{n+1}) zero."""
    tower = draw(st.sampled_from(SCAN_TOWERS))
    ring = PolyRing(tower)
    ms = draw(st.lists(monomials, min_size=1, max_size=3, unique=True))
    g = GradedPoly(ring, {m: draw(st.integers(0, 3).flatmap(
        lambda k: valued_elements(tower, k))) for m in ms})
    shape = draw(st.sampled_from(["least", "leading", "neither", "d zero", "g zero"]))
    if shape in ("least", "leading"):
        t = (min if shape == "least" else max)(ms, key=monomial_key)
        mu = monomial({i: draw(st.integers(0, a)) for i, a in _exponents(t).items()})
    else:
        mu = draw(monomials)
    d = GradedPoly(ring, {mu: draw(valued_elements(tower, draw(st.integers(0, 2))))})
    if shape == "d zero":
        d = ring.zero()
    elif shape == "g zero":
        g = ring.zero()
    n = draw(st.sampled_from([1, 2]))
    return _scan_table(tower, n, d, g), n, draw(st.sampled_from(SCAN_BOUNDS))


def _divide_case_images(n):
    """At n = 1, test_divide_case's images: gamma(v_1) = v_1 and
    gamma(v_2) = v_1 + theta * v_2, found at m = 2.  At n = 2,
    gamma(v_2) = theta * v_2 and gamma(v_3) = v_1 + theta * v_2: v_1 lies
    in I_2 and the quotient 1 is integral at m = 1, although the least term
    v_1 of gamma(v_3) has valuation 0 < v(theta)."""
    tower = TOWERS[0]
    ring = PolyRing(tower)
    v1, v2, theta = ring.gen(1), ring.gen(2), tower.theta()
    d = v1 if n == 1 else v2.scale(theta)
    return _scan_table(tower, n, d, v1 + v2.scale(theta))


@PROPERTY_SETTINGS
@given(synthetic_scans())
@example((_divide_case_images(1), 1, 8))
@example((_divide_case_images(2), 2, 1))
def test_eventual_division_matches_the_reference_on_synthetic_images(scan):
    table, n, m_max = scan
    assert eventual_division_witness(table, n, m_max) == _eventual_division_reference(
        table, n, m_max)


def _reference_compare(x, y):
    """The monomial order by its definition: -1, 0 or 1 as x is below,
    equal to or above y, exponents compared from the highest generator
    index present in either monomial down."""
    dx, dy = _exponents(x), _exponents(y)
    for n in sorted(set(dx) | set(dy), reverse=True):
        a, b = dx.get(n, 0), dy.get(n, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


# Monomials in v_1..v_4 with gaps, so one often extends another.
sparse_monomials = st.dictionaries(
    st.integers(1, 4), st.integers(1, 3), max_size=4
).map(monomial)


@PROPERTY_SETTINGS
@given(st.lists(sparse_monomials, min_size=2, max_size=12))
def test_monomial_key_agrees_with_the_order(ms):
    for x in ms:
        for y in ms:
            kx, ky = monomial_key(x), monomial_key(y)
            assert (kx > ky) - (kx < ky) == _reference_compare(x, y)
    assert sorted(ms, key=monomial_key) == sorted(
        ms, key=lambda m: [_reference_compare(m, y) for y in ms].count(1)
    )


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 3, 4, 5, 9]), st.integers(0, 4), st.integers(0, 40))
def test_monomials_of_weight_match_brute_force(q, N, w):
    ranges = [range(w // (q ** n - 1) + 1) for n in range(1, N + 1)]
    expected = [
        m for m in (monomial(dict(enumerate(exps, 1))) for exps in itertools.product(*ranges))
        if monomial_weight(m, q) == w
    ]
    expected.sort(key=monomial_key, reverse=True)
    assert monomials_of_weight(q, N, w) == expected


# ---------------------------------------------------------------------------
# Normal forms over F_p


RESIDUE_RINGS = {p: PolyRing(trivial_tower(p), coefficients="residue") for p in (2, 3, 5)}
RESIDUE_BASES = {p: graded_basis(ring, 3, 2 * (ring.q ** 3 - 1)) for p, ring in RESIDUE_RINGS.items()}


def _fp_dict(f, width=3):
    """The polynomial f over F_p as the Groebner core takes it: a dict from
    exponent tuples of the given width (v_1..v_3 by default) to ints."""
    return {widen(m, width): c.vec[0] for m, c in f.terms.items()}


def _from_fp_dict(ring, f):
    """The dict f of the Groebner core as a polynomial over `ring`."""
    return GradedPoly(ring, {strip(e): ring.coeff_from_int(c) for e, c in f.items()})


def _groebner(gens, degree_bound):
    """groebner_basis of the polynomials over F_p, in v_1..v_3."""
    p = gens[0].ring.tower.p
    return ts.groebner_basis([_fp_dict(g) for g in gens], p, degree_bound)


def _normal_form(f, gb):
    """normal_form of the polynomial f, as a polynomial over f's ring."""
    width = max([3, *map(len, f.terms)])
    return _from_fp_dict(f.ring, ts.normal_form(_fp_dict(f, width), gb))


@st.composite
def homogeneous_polys(draw, p, lead=None):
    """A homogeneous polynomial over F_p in v_1..v_3: `lead` (default: a
    random monomial of small weight) plus up to three other monomials of
    its weight, all with nonzero coefficients."""
    ring = RESIDUE_RINGS[p]
    if lead is None:
        weights = [w for w in range(1, p * p + 3) if RESIDUE_BASES[p][w]]
        lead = draw(st.sampled_from(RESIDUE_BASES[p][draw(st.sampled_from(weights))]))
    others = [m for m in RESIDUE_BASES[p][monomial_weight(lead, p)] if m != lead]
    tail = draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
    coeffs = st.integers(1, p - 1).map(ring.coeff_from_int)
    return GradedPoly(ring, {m: draw(coeffs) for m in [lead] + tail})


@st.composite
def complete_bases(draw):
    """(ring, generators, basis) with a basis that was not truncated.  Each
    generator holds a power v_n^a, n <= 3 and a <= 2, so powers of the v_n
    reduce to other monomials."""
    p = draw(st.sampled_from([2, 3]))
    powers = st.builds(lambda n, a: monomial({n: a}), st.integers(1, 3), st.integers(1, 2))
    gens = draw(st.lists(powers.flatmap(lambda m: homogeneous_polys(p, m)), min_size=1, max_size=3))
    gb = _groebner(gens, 10 ** 6)
    assume(not gb.truncated)
    return RESIDUE_RINGS[p], gens, gb


def _reference_groebner(gens, degree_bound):
    """(basis, truncated) from the Buchberger loop of groebner_basis written
    on GradedPolys over gradedpoly.divide: the pairs taken last in, first
    out, coprime leading monomials skipped, S-polynomials above the bound
    skipped as truncation, then each element reduced by all the others,
    equal ones dropped and the rest sorted by leading monomial."""
    def monic(f):
        return f.scale(f.terms[leading_monomial(f)].inverse())

    basis = [monic(g) for g in gens if g]
    truncated = False
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        mi, mj = leading_monomial(basis[i]), leading_monomial(basis[j])
        di, dj = _exponents(mi), _exponents(mj)
        lcm = monomial({n: max(di.get(n, 0), dj.get(n, 0)) for n in di.keys() | dj.keys()})
        if monomial_mul(mi, mj) == lcm:
            continue
        if monomial_weight(lcm, basis[0].ring.q) > degree_bound:
            truncated = True
            continue
        s = basis[i].shift(_quotient(lcm, mi)) - basis[j].shift(_quotient(lcm, mj))
        rem = divide(s, basis)[1]
        if rem:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(monic(rem))
    reduced = []
    for idx, b in enumerate(basis):
        others = basis[:idx] + basis[idx + 1:]
        r = divide(b, others)[1] if others else b
        if r:
            reduced.append(monic(r))
    reduced = list(dict.fromkeys(reduced))
    reduced.sort(key=lambda b: monomial_key(leading_monomial(b)))
    return reduced, truncated


@st.composite
def generator_lists(draw):
    """(generators, weight bound, f) over F_p, p in {2, 3, 5}: up to four
    homogeneous generators whose leading monomials come from a pool of
    three, so they often repeat, a bound that may truncate, and a
    homogeneous f to reduce."""
    p = draw(st.sampled_from([2, 3, 5]))
    pool = draw(st.lists(homogeneous_polys(p), min_size=1, max_size=3))
    leads = [leading_monomial(g) for g in pool]
    gens = draw(st.lists(st.sampled_from(leads).flatmap(lambda m: homogeneous_polys(p, m)),
                         min_size=1, max_size=4))
    bound = draw(st.sampled_from([p - 1, 2 * (p * p - 1), 10 ** 6]))
    return gens, bound, draw(homogeneous_polys(p))


def _fp_poly(p, terms):
    """A polynomial over F_p from {monomial: int coefficient}."""
    ring = RESIDUE_RINGS[p]
    return GradedPoly(ring, {m: ring.coeff_from_int(c) for m, c in terms.items()})


# At p = 2, (v_1, v_1) and (v_2, v_2 + v_1^3) repeat a leading monomial,
# and the inter-reduction drops both elements of the pair.
V1, V2 = _fp_poly(2, {monomial({1: 1}): 1}), _fp_poly(2, {monomial({2: 1}): 1})
V2_PLUS_V1_CUBED = _fp_poly(2, {monomial({2: 1}): 1, monomial({1: 3}): 1})


@PROPERTY_SETTINGS
@given(generator_lists())
@example(([V1, V1], 10 ** 6, V2 + _fp_poly(2, {monomial({1: 3}): 1})))
@example(([V2, V2_PLUS_V1_CUBED], 10 ** 6, V2))
def test_groebner_core_matches_the_reference_loop(case):
    gens, bound, f = case
    gb = _groebner(gens, bound)
    basis, truncated = _reference_groebner(gens, bound)
    assert ([_from_fp_dict(f.ring, b) for b in gb.polys], gb.truncated) == (basis, truncated)
    rem = divide(f, basis)[1]
    if truncated and rem:
        with pytest.raises(TruncationUnsound):
            _normal_form(f, gb)
    else:
        assert _normal_form(f, gb) == rem


@PROPERTY_SETTINGS
@given(complete_bases(), st.data())
def test_normal_form_is_idempotent_and_independent_of_generator_order(args, data):
    ring, gens, gb = args
    f = data.draw(homogeneous_polys(ring.tower.p))
    nf = _normal_form(f, gb)
    assert _normal_form(nf, gb) == nf
    assert _normal_form(f - nf, gb).is_zero()
    order = data.draw(st.permutations(gens))
    assert _normal_form(f, _groebner(order, 10 ** 6)) == nf


@PROPERTY_SETTINGS
@given(complete_bases(), st.integers(1, 4))
def test_scanned_powers_match_normal_forms_from_scratch(args, n):
    # The scan takes forms from the first reducible power j on; below j,
    # v_n^k is its own normal form.  No generator names v_4.
    ring, _, gb = args
    j, scan = ts._power_normal_forms(gb, n)
    for k in range(1, 9):
        power = GradedPoly(ring, {monomial({n: k}): ring.coeff_one()})
        nf = power if j is None or k < j else _from_fp_dict(ring, next(scan))
        assert nf == _normal_form(power, gb)


def _power_form(ring, gb, n, k):
    return _normal_form(GradedPoly(ring, {monomial({n: k}): ring.coeff_one()}), gb)


def _torsion_reference(ring, gb, N, n, k_max):
    """is_vn_power_torsion's report, each NF(v_n^k) taken from scratch."""
    for k in range(1, k_max + 1):
        if _power_form(ring, gb, n, k).is_zero():
            return {"torsion": True, "k": k, "n": n}
    return {"torsion": False, "no_up_to": k_max, "n": n, "nonzero_normal_forms": [
        {"element": "v_%d^%d" % (n, k), "normal_form": _power_form(ring, gb, n, k).to_json(N)}
        for k in (1, k_max)]}


def _division_reference(ring, gb, N, r, s, m_max):
    """eventual_division_module's report, each NF(v_r^m) taken from scratch."""
    for m in range(1, m_max + 1):
        nf = _power_form(ring, gb, r, m)
        if nf.is_zero():
            return {"found": True, "case": "zero", "m": m, "y": "0", "r": r, "s": s}
        quotients = {_quotient(t, monomial({s: 1})): c for t, c in nf.terms.items()}
        if None not in quotients:
            return {"found": True, "case": "divide", "m": m,
                    "y": GradedPoly(ring, quotients).to_json(N), "r": r, "s": s}
    return {"found": False, "not_found_up_to": m_max, "r": r, "s": s}


@PROPERTY_SETTINGS
@given(complete_bases(), st.integers(1, 4))
def test_scans_match_reports_from_scratch(args, s):
    # Every n up to 4 and every bound, on one basis whose scans resume one
    # another; no leading monomial divides a power of v_4.
    ring, _, gb = args
    module = ts.CyclicModulePresentation(ring.tower.p, 4, (), True, "bp", 1)
    for n, bound in itertools.product(range(1, 5), (0, 1, 2, 8)):
        if bound:
            assert ts.is_vn_power_torsion(module, n, bound, gb=gb) == _torsion_reference(
                ring, gb, 4, n, bound)
        else:
            with pytest.raises(ValueError):
                ts.is_vn_power_torsion(module, n, bound, gb=gb)
        assert ts.eventual_division_module(module, n, s, bound, gb=gb) == _division_reference(
            ring, gb, 4, n, s, bound)


# ---------------------------------------------------------------------------
# Module specs: read into rationals, written as GradedPoly writes them


@st.composite
def spec_coefficients(draw, p):
    """A coefficient in Z_(p), possibly 0, as integer text, a JSON int,
    "a/b" text with p not dividing b, or one coordinate row: [[text]], or
    [[]] for 0."""
    a = draw(st.integers(-6, 6))
    b = draw(st.sampled_from([b for b in range(1, 8) if b % p]))
    form = draw(st.sampled_from(["text", "int", "ratio", "row", "row-ratio", "row-empty"]))
    if form == "int":
        return a
    if form == "row-empty":
        return [[]]
    text = "%d/%d" % (a, b) if form.endswith("ratio") else str(a)
    return [[text]] if form.startswith("row") else text


@st.composite
def spec_generators(draw, p, N):
    """A homogeneous generator in v_1..v_N of weight 0 (a constant) or
    k (p - 1), k <= 6, with up to three terms, any of them zero."""
    weights = [w for w in [0] + [k * (p - 1) for k in range(1, 7)] if monomials_of_weight(p, N, w)]
    w = draw(st.sampled_from(weights))
    monos = draw(st.lists(st.sampled_from(monomials_of_weight(p, N, w)), min_size=1,
                          max_size=3, unique=True))
    return {"terms": [{"exps": monomial_to_json(m), "coeff": draw(spec_coefficients(p))}
                      for m in monos]}


@st.composite
def module_specs(draw):
    """A module spec over p in {2, 3, 5}, N <= 4: mostly with p among the
    generators, so that its scans run."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(0, 4))
    ideal = draw(st.lists(spec_generators(p, N), max_size=3))
    if draw(st.integers(0, 3)):
        ideal.insert(draw(st.integers(0, len(ideal))), {"terms": [{"exps": {}, "coeff": str(p)}]})
    return {"p": p, "N": N, "ideal": ideal, "finitely_presented": draw(st.booleans()),
            "context": "bp"}


def _quotient_json(f, s, N):
    """f / v_s term by term, written by to_json."""
    return GradedPoly(f.ring, {_quotient(m, monomial({s: 1})): c
                               for m, c in f.terms.items()}).to_json(N)


@PROPERTY_SETTINGS
@given(module_specs())
# J = (3, 1/2 v_2 + 1/4 v_1^4): R1 fires with a division witness y, whose
# coefficient 2 is wrong unless each denominator is inverted mod 3.
@example({"p": 3, "N": 2, "finitely_presented": True, "context": "bp", "ideal": [
    {"terms": [{"exps": {}, "coeff": 3}]},
    {"terms": [{"exps": {"2": 1}, "coeff": "1/2"}, {"exps": {"1": 4}, "coeff": [["1/4"]]}]}]})
def test_module_specs_read_and_write_as_gradedpoly_does(spec):
    # The oracle reads each generator with GradedPoly.from_json, reduces it
    # with reduce_mod_ideal, completes with the reference loop, takes normal
    # forms with gradedpoly.divide and writes with to_json.
    p, N = spec["p"], spec["N"]
    module = ts.CyclicModulePresentation.from_json(spec)
    polys = [GradedPoly.from_json(PolyRing(trivial_tower(p)), g) for g in spec["ideal"]]
    assert module.to_json()["ideal"] == [f.to_json(N) for f in polys]
    assert ts.CyclicModulePresentation.from_json(module.to_json()).to_json() == module.to_json()
    constants = [f.terms[()].coords[0][0] for f in polys if () in f.terms]
    assert module.contains_p == min((padic_valuation_rational(c, p) for c in constants),
                                    default=None)
    if module.contains_p != 1:
        assert ts.realizability_obstruction(module).verdict == "OutsideScope"
        return
    ring = RESIDUE_RINGS[p]
    basis, truncated = _reference_groebner([reduce_mod_ideal(f, 1) for f in polys],
                                           2 * (p ** N - 1))
    try:
        cert = ts.realizability_obstruction(module, k_max=4, m_max=4)
    except TruncationUnsound:
        assert truncated
        return
    for entry in cert.scan_log:
        for w in entry.get("nonzero_normal_forms", []):
            n, k = map(int, w["element"][2:].split("^"))
            assert w["normal_form"] == divide(ring.gen(n, k), basis)[1].to_json(N)
        if entry.get("found") and entry["case"] == "divide":
            nf = divide(ring.gen(entry["r"], entry["m"]), basis)[1]
            assert entry["y"] == _quotient_json(nf, entry["s"], N)


SPEC_DEFECTS = {
    "denominator-divisible-by-p": lambda p, N: {"terms": [{"exps": {}, "coeff": "1/%d" % p}]},
    "generator-twice": lambda p, N: {"terms": [{"exps": {"1": 1, "01": 1}, "coeff": "1"}]},
    "monomial-twice": lambda p, N: {"terms": [{"exps": {"1": 1}, "coeff": "1"},
                                              {"exps": {"1": 1}, "coeff": "0"}]},
    "generator-v0": lambda p, N: {"terms": [{"exps": {"0": 1}, "coeff": "0"}]},
    "generator-above-N": lambda p, N: {"terms": [{"exps": {str(N + 1): 1}, "coeff": [["1"]]}]},
    "inhomogeneous": lambda p, N: {"terms": [{"exps": {"1": 1}, "coeff": 1},
                                             {"exps": {}, "coeff": "1"}]},
}


@PROPERTY_SETTINGS
@given(module_specs(), st.sampled_from(sorted(SPEC_DEFECTS)), st.data())
def test_module_spec_defects_are_refused(spec, defect, data):
    # One defective generator anywhere in a spec refuses the whole spec.
    at = data.draw(st.integers(0, len(spec["ideal"])))
    spec["ideal"].insert(at, SPEC_DEFECTS[defect](spec["p"], spec["N"]))
    with pytest.raises(ConfigParseError):
        ts.CyclicModulePresentation.from_json(spec)


# ---------------------------------------------------------------------------
# Smith normal form


def _det(M):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


def _matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


@st.composite
def integer_matrices(draw):
    g = draw(st.integers(1, 6))
    r = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.integers(-40, 40), st.integers(-10 ** 6, 10 ** 6))
    rows = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=g, max_size=g))
    zero_rows = draw(st.sets(st.integers(0, g - 1), max_size=2))
    return [[0] * r if i in zero_rows else row for i, row in enumerate(rows)]


@PROPERTY_SETTINGS
@given(integer_matrices())
def test_smith_normal_form(A):
    g, r = len(A), len(A[0])
    U, D, V = ts.smith_normal_form(A)
    assert _matmul(_matmul(U, A), V) == D
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    assert all(D[i][j] == 0 for i in range(g) for j in range(r) if i != j)
    diag = [D[i][i] for i in range(min(g, r))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    # local cohomology reads the p-parts of the same diagonal, and the
    # rank, from its own elimination over Z_(p)
    rank = sum(1 for x in diag if x)
    for p in (2, 3, 5):
        rep = ts.local_cohomology_degreewise({0: A}, p)["degrees"]["0"]
        p_parts = [p ** padic_valuation_rational(x, p) for x in diag if x]
        assert rep["H0_invariants"] == [q for q in p_parts if q > 1]
        assert rep["H1_corank"] == g - rank


# ---------------------------------------------------------------------------
# Ring identity: N bounds tables, not rings


@pytest.mark.parametrize("tower", TOWERS, ids=[t.label for t in TOWERS])
def test_log_entries_are_equal_across_N(tower):
    short, long = hazewinkel_log(tower, 3), hazewinkel_log(tower, 6)
    closed = log_closed_form(tower, 3)
    for k in range(4):
        assert short[k] == long[k] == closed[k], k


def _gamma_images_from_scratch(source, target, N):
    """gamma(v_1), ..., gamma(v_N) by the recursion of the module docstring
    of fmcalc.gamma, with no cache of earlier images."""
    c = [match_log(source, target, i) for i in range(N + 1)]
    pi_a = embed(source.uniformizer(), target)
    images = [None]
    for n in range(1, N + 1):
        acc = c[n].scale(pi_a)
        for i in range(1, n):
            acc = acc - c[i] * images[n - i] ** (source.q ** i)
        images.append(acc)
    return images


@pytest.mark.parametrize("pair", GAMMA_PAIRS, ids=["%s->%s" % (s.label, t.label) for s, t in GAMMA_PAIRS])
def test_gamma_images_are_equal_across_N(pair):
    # The larger table is asked for first, so the smaller one is served
    # from the images it cached on the way.
    gamma_images.cache_clear()
    long, short = compute_gamma(*pair, 4), compute_gamma(*pair, 2)
    scratch = _gamma_images_from_scratch(*pair, 4)
    for n in range(1, 5):
        assert long.image(n) == scratch[n], n
    for n in (1, 2):
        assert short.image(n) == scratch[n], n
    assert len(short.images) == 3 and short.N == 2
    m = monomial({1: 2, 2: 1})
    assert short.monomial_image(m) == long.monomial_image(m)

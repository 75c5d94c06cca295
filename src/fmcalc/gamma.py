"""The comparison map gamma between classifying rings of typical formal
modules along a tower extension, computed degree-by-degree from naturality
in the logarithm, plus the verification suites for its identities.

Writing l^A, l^B for the logarithm coefficients of source and target and
f_rel for the relative residue degree, gamma is determined by
gamma(l_i^A) = l^B_{i/f_rel} (zero when f_rel does not divide i), which
unwinds to the recursion

    gamma(v_n) = pi_A * c_n - sum_{i=1}^{n-1} c_i * gamma(v_{n-i})^{q_A^i},

with c_i the matched log coefficient.
"""

from __future__ import annotations

import functools
from operator import le

from .errors import CongruenceFailed, IntegralityFailure, NotSubtower
from .formal import hazewinkel_log
from .gradedpoly import (
    GradedPoly,
    PolyRing,
    apply_ring_map,
    divide,
    divisible_below,
    graded_basis,
    leading_monomial,
    monomial,
    monomial_image,
    monomial_key,
    monomial_to_json,
    monomials_of_weight,
    reduce_mod_ideal,
    widen,
)
from .numberring import INFINITY, ReadOnly, embed, is_integral, residue, valuation


class GammaTable(ReadOnly):
    """Images gamma(v_n) for n <= N over the target ring.

    `monomials` holds gamma(m) of each source monomial m evaluated so far
    (see monomial_image).  Equality and hashing ignore it, and tables over
    equal towers share it at every N, so it may hold monomials in
    generators above this table's N; monomial_image refuses those, as
    `images` ends at v_N.  compute_gamma builds a table only after every
    image has passed its integrality check."""

    __slots__ = ("source", "target", "N", "images", "f_rel", "e_rel", "target_ring",
                 "monomials")
    integrality_verified = True

    def __init__(self, source, target, N, images, monomials):
        # images[0] is unused
        super().__init__(source, target, N, images, target.f // source.f,
                         target.e // source.e, PolyRing(target), monomials)

    def _key(self):
        return (self.source, self.target, self.N, self.images)

    def __eq__(self, other):
        if other.__class__ is not GammaTable:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def image(self, n):
        return self.images[n]

    def totally_ramified(self, check):
        """This table, when its extension of the source is totally
        ramified; else NotSubtower, naming the check that needs one."""
        if self.f_rel == 1 and self.e_rel > 1:
            return self
        raise NotSubtower("%s requires a totally ramified table" % check)

    def is_unramified(self):
        return self.e_rel == 1 and self.f_rel > 1

    def apply(self, f):
        """Evaluate gamma (coefficient-embedded) on a source polynomial."""
        return apply_ring_map(f, self.target_ring, self.images, self.monomials)

    def monomial_image(self, m):
        """gamma(m) for a source monomial m, built once per pair of towers;
        the result is shared, so callers must not change its terms."""
        return monomial_image(m, self.target_ring, self.images, self.monomials)

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "N": self.N,
            "f_rel": self.f_rel,
            "e_rel": self.e_rel,
            "uniformizer": {
                "source": self.source.uniformizer_name(),
                "target": self.target.uniformizer_name(),
            },
            "integrality_verified": self.integrality_verified,
            "images": {str(n): self.images[n].to_json(self.N) for n in range(1, self.N + 1)},
        }


def match_log(source, target, i):
    """gamma of the i-th source log coefficient: the target log coefficient
    of the same X-degree, i.e. l^B_{i/f_rel} when f_rel | i, else 0."""
    if not source.is_subtower_of(target):
        raise NotSubtower(
            "%s is not a structural subtower of %s" % (source.label, target.label)
        )
    f_rel = target.f // source.f
    if i % f_rel != 0:
        return PolyRing(target).zero()
    return hazewinkel_log(target, i // f_rel)[i // f_rel]


@functools.lru_cache(maxsize=None)
def gamma_images(source, target, N):
    """(images, monomial memo) for compute_gamma: solve gamma(l_i^A) =
    matched log coefficient for the images of the generators, and verify
    that each image is integral.  The images for N extend those cached for
    N - 1 by gamma(v_N), and every N shares one memo.  Cached by tower
    equality, which ignores labels, so the result carries no tower."""
    if N == 0:
        match_log(source, target, 0)  # refuses a non-subtower at N = 0 too
        return (None,), {}
    images, memo = gamma_images(source, target, N - 1)
    acc = match_log(source, target, N).scale(embed(source.uniformizer(), target))
    for i in range(1, N):
        c = match_log(source, target, i)
        if not c.is_zero():
            acc = acc - c * images[N - i] ** (source.q ** i)
    if not all(is_integral(coeff) for coeff in acc.terms.values()):
        raise IntegralityFailure("a gamma image has a non-integral coefficient")
    return images + (acc,), memo


def compute_gamma(source, target, N):
    """The gamma table from `source` to `target` up to v_N.  The images and
    their monomial memo are computed once per pair of towers; the table
    reports the towers it was asked for."""
    images, memo = gamma_images(source, target, N)
    return GammaTable(source, target, N, images, memo)


def check_unramified_formula(table):
    """For an unramified extension of relative degree f: gamma(v_i) = 0 when
    f does not divide i and gamma(v_{fi}) = v_i exactly."""
    if not table.is_unramified():
        raise NotSubtower("table is not for an unramified extension")
    f = table.f_rel
    violations = []
    for i in range(1, table.N + 1):
        img = table.image(i)
        if i % f != 0:
            if not img.is_zero():
                violations.append({"n": i, "expected": "0", "got": img.to_json(table.N)})
        else:
            expected = table.target_ring.gen(i // f)
            if img != expected:
                violations.append(
                    {"n": i, "expected": expected.to_json(table.N), "got": img.to_json(table.N)}
                )
    return {"f_rel": f, "N": table.N, "passed": not violations, "violations": violations}


def gamma_sharp_matrix(table, weight):
    """Matrix of gamma in one weight, bases sorted descending in the
    monomial order, with triangularity/diagonal diagnostics.  The matrix
    is sparse: {(row, col): coeff} over its nonzero entries."""
    basis = monomials_of_weight(table.target_ring.q, table.N, weight)
    index = {m: i for i, m in enumerate(basis)}
    matrix = {}
    for col, m in enumerate(basis):
        img = table.monomial_image(m)
        for mono, coeff in img.terms.items():
            row = index.get(mono)
            if row is None:
                raise CongruenceFailed("image leaves the expected graded piece")
            matrix[row, col] = coeff
    triangular = all(row >= col for row, col in matrix)
    diag_vals = [valuation(matrix[i, i]) if (i, i) in matrix else None
                 for i in range(len(basis))]
    injective = triangular and all(dv is not None for dv in diag_vals)
    return {
        "weight": weight,
        "basis": [monomial_to_json(m) for m in basis],
        "matrix": matrix,
        "triangular": triangular,
        "diagonal_valuations": diag_vals,
        "injective": injective,
    }


def kappa_congruence(table, j):
    """Verify gamma(v_{jn}) = (pi_A/pi_B^n) v_j^{(q^{jn}-1)/(q^j-1)} modulo
    (pi_B, v_1, ..., v_{j-1}) for a totally ramified extension of relative
    degree n, and minimality: gamma(v_h) = 0 mod the ideal for h < jn."""
    n = table.totally_ramified("kappa congruence").e_rel
    q = table.source.q
    h = j * n
    if h > table.N:
        raise ValueError("jn = %d exceeds table truncation N = %d" % (h, table.N))
    lhs = reduce_mod_ideal(table.image(h), j)
    exponent = (q ** h - 1) // (q ** j - 1)
    coeff = embed(table.source.uniformizer(), table.target) / (
        table.target.uniformizer() ** n
    )
    rhs_ring = table.target_ring.residue_ring()
    rhs = GradedPoly(rhs_ring, {monomial({j: exponent}): residue(coeff)})
    if lhs != rhs:
        raise CongruenceFailed("kappa congruence failed at j=%d" % j)
    for smaller in range(1, h):
        if not reduce_mod_ideal(table.image(smaller), j).is_zero():
            raise CongruenceFailed("gamma(v_%d) nonzero mod the ideal below h = jn" % smaller)
    return {
        "j": j,
        "n": n,
        "h": h,
        "exponent": exponent,
        "lhs": lhs.to_json(table.N),
        "rhs": rhs.to_json(table.N),
        "minimality_checked_below_h": list(range(1, h)),
        "passed": True,
    }


# ---------------------------------------------------------------------------
# Eventual division


def in_ideal_In(f, n):
    """True iff every term of f lies in (p, v_1, ..., v_{n-1}) * V, i.e.
    its monomial is divisible by some v_i with i < n or its coefficient has
    valuation at least e = valuation(p)."""
    return all(divisible_below(m, n) or valuation(c) >= c.tower.e for m, c in f.terms.items())


def poly_divide(f, d):
    """Division of f by a single divisor d: f = q*d + r with no term of r
    divisible by lm(d)."""
    (quot,), rem = divide(f, [d])
    return quot, rem


def _no_integral_quotient(d, g, m_max):
    """Rule 2 of eventual_division_witness: True when it shows that no
    quotient of g^m by d with 1 <= m <= m_max is integral."""
    if len(d.terms) != 1 or not g:
        return False
    (mu, c), = d.terms.items()
    for t in (min(g.terms, key=monomial_key), leading_monomial(g)):
        vt = valuation(g.terms[t])
        if (len(mu) <= len(t) and all(map(le, widen(mu, len(t)), t))
                and max(vt, m_max * vt) < valuation(c)):
            return True
    return False


def eventual_division_witness(table, n, m_max):
    """Search for the smallest m <= m_max with gamma(v_n) * y congruent to
    gamma(v_{n+1})^m modulo I_n = (p, v_1, ..., v_{n-1}) * V^B.

    The zero case (y = 0) is scanned over powers of p first — mirroring the
    vanishing bound "smallest power of p exceeding e" — then the division
    case over all m.  For n = 1 the raw zero-case outcome modulo the
    uniformizer is reported alongside the modulo-p convention.  y is
    serialized with this table's N.  With g_n = gamma(v_n) and
    g_next = gamma(v_{n+1}), two rules settle most scans without a power:

    1. Zero case.  Let v be the least valuation of a coefficient of g_next
       on a monomial that no v_i with i < n divides (infinite if none).
       Then g_next^m lies in I_n exactly when m * v >= e = valuation(p),
       and at n = 1 it vanishes modulo the uniformizer exactly when
       m * v >= 1.  Proof: dropping the terms divisible by v_1..v_{n-1} is
       a ring map whose kernel lies in I_n, and what it leaves is pi^v * h,
       h with a unit coefficient, whose powers are nonzero modulo pi since
       F_q[v_n, v_{n+1}, ...] is a domain.
    2. Division case refuted.  If g_n = c * mu is one term, the quotient
       q_m of g_next^m by it is its mu-divisible part over c * mu.  If mu
       divides the least or the leading term c_t * t of g_next and
       max(v(c_t), m_max * v(c_t)) < v(c), no q_m with m <= m_max is
       integral.  Proof: a monomial order is multiplicative, so c_t^m * t^m
       is a term of g_next^m, and it puts c_t^m / c, of valuation
       m * v(c_t) - v(c) < 0, into q_m.

    A scan that neither rule settles divides each power g_next^m by g_n."""
    if n + 1 > table.N:
        raise ValueError("need gamma(v_%d): exceeds table truncation" % (n + 1))
    g_n, g_next, e = table.image(n), table.image(n + 1), table.target.e
    v = min((valuation(c) for m, c in g_next.terms.items() if not divisible_below(m, n)),
            default=INFINITY)
    report = {"n": n, "m_max": m_max,
              "ideal_convention": "coefficients mod p, generators v_1..v_%d dropped" % (n - 1)}
    if n == 1:
        report["zero_case_mod_uniformizer"] = 1 if m_max and v >= 1 else None
    m = 1  # the first power of p with g_next^m in I_n
    while m <= m_max and m * v < e:
        m *= table.target.p
    if m <= m_max:
        report.update({"found": True, "case": "zero", "m": m, "y": "0"})
        return report
    # With gamma(v_n) = 0 (unramified towers) only y = 0 is possible.
    if not g_n:
        m = next((m for m in range(1, m_max + 1) if m * v >= e), None)
        if m is not None:
            report.update({"found": True, "case": "divide", "m": m, "y": g_n.to_json(table.N)})
            return report
    elif not _no_integral_quotient(g_n, g_next, m_max):
        for m in range(1, m_max + 1):
            quot, rem = poly_divide(g_next ** m, g_n)
            if in_ideal_In(rem, n) and all(is_integral(c) for c in quot.terms.values()):
                report.update({"found": True, "case": "divide", "m": m,
                               "y": quot.to_json(table.N)})
                return report
    report.update({"found": False, "not_found_up_to": m_max})
    return report


def order_preservation_check(table, sample_size, weight_bound, seed=0):
    """Sampled check that the monomial order is preserved at the level of
    leading monomials, and that no monomial maps to zero."""
    table.totally_ramified("order preservation check")
    import random

    rng = random.Random(seed)
    basis = graded_basis(PolyRing(table.source), table.N, weight_bound)
    pool = [m for ms in basis.values() for m in ms]
    failures = []
    nonvanishing_failures = []
    checked = 0
    for _ in range(sample_size):
        x = rng.choice(pool)
        y = rng.choice(pool)
        if monomial_key(x) > monomial_key(y):
            x, y = y, x
        fx = table.monomial_image(x)
        fy = table.monomial_image(y)
        for m, img in ((x, fx), (y, fy)):
            if img.is_zero():
                nonvanishing_failures.append(monomial_to_json(m))
        if fx.is_zero() or fy.is_zero():
            continue
        if monomial_key(leading_monomial(fx)) > monomial_key(leading_monomial(fy)):
            failures.append({"x": monomial_to_json(x), "y": monomial_to_json(y)})
        checked += 1
    return {
        "sample_size": sample_size,
        "weight_bound": weight_bound,
        "seed": seed,
        "checked": checked,
        "order_failures": failures,
        "vanishing_monomials": nonvanishing_failures,
        "passed": not failures and not nonvanishing_failures,
    }

"""Sparse graded polynomials in generators v_1, v_2, ... with exact
coefficients.

A ring is its coefficient tower and coefficient kind; it has no truncation.
A bound N on generator indices belongs to what enumerates or serializes
(graded_basis, and the tables, logs and modules that call to_json).

A monomial is its exponent tuple (a_W, ..., a_1), highest generator first,
with a_W > 0 (() is 1): one tuple whatever generators a polynomial was built
from.  Monomials carry the weight w(v_n) = q^n - 1 (topological degree 2w)
and are compared by a pure lexicographic order in which the highest
generator index is the most significant: v_3 beats every monomial in v_1,
v_2, and v_2^2 beats v_1^n * v_2 for every n.  Its key is (len(m), m); on
tuples of one width it is plain tuple order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from operator import add, ge, neg, sub

from .errors import MissingImage, RingMismatch, TowerMismatch, ZeroPolynomial
from .numberring import (
    FieldElement,
    ResidueElement,
    binary_power,
    embed,
    mul_accumulate,
    mul_rows,
    parse_integer,
    residue,
)


# ---------------------------------------------------------------------------
# Monomials: exponent tuples (see the module docstring)


def monomial(exps):
    """The exponent tuple of the product of the v_n^a over the int mapping
    {n: a}; ValueError for a negative exponent or a nonzero one on n < 1."""
    e = [0] * max((n for n, a in exps.items() if a), default=0)
    for n, a in exps.items():
        if a < 0:
            raise ValueError("negative exponent")
        if a:
            if n < 1:
                raise ValueError("no generator v_%d" % n)
            e[-n] = a
    return tuple(e)


def monomial_weight(m, q):
    return sum(a * (q ** n - 1) for n, a in enumerate(reversed(m), 1) if a)


def widen(m, width):
    """The monomial m as an exponent tuple of the given width >= len(m)."""
    return (0,) * (width - len(m)) + m


def strip(e):
    """The monomial of the exponent tuple e: e without its leading zeros."""
    for i, a in enumerate(e):
        if a:
            return e[i:]
    return ()


def monomial_mul(x, y):
    if len(x) < len(y):
        x, y = y, x
    return tuple(map(add, x, widen(y, len(x))))


def monomial_key(m):
    """Sort key of the monomial order (see the module docstring)."""
    return len(m), m


def divisible_below(m, n):
    """True iff some v_i with i < n divides the monomial m."""
    return n > 1 and any(m[1 - n:])


def monomial_to_json(m):
    """{"n": a} over the generators v_n of m, lowest index first."""
    return {str(n): a for n, a in enumerate(reversed(m), 1) if a}


# ---------------------------------------------------------------------------
# Rings and polynomials


class PolyRing:
    """A polynomial ring in v_1, v_2, ..., named by its coefficient tower
    (which gives the grading q) and its coefficient kind: "field"
    (FieldElement coefficients) or "residue" (ResidueElement coefficients
    over the tower's residue field).
    """

    def __init__(self, tower, coefficients="field"):
        self.tower = tower
        self.q = tower.q
        self.coefficients = coefficients

    def same_ring(self, other):
        return self.tower.same_tower(other.tower) and self.coefficients == other.coefficients

    def residue_ring(self):
        return PolyRing(self.tower, "residue")

    def coeff_one(self):
        if self.coefficients == "residue":
            return ResidueElement(self.tower, (1,))
        return self.tower.one()

    def coeff_from_int(self, c):
        if self.coefficients == "residue":
            return ResidueElement(self.tower, (c % self.tower.p,))
        return self.tower.from_rational(c)

    def zero(self):
        return GradedPoly(self, {})

    def one(self):
        return GradedPoly(self, {(): self.coeff_one()})

    def gen(self, n, exp=1):
        return GradedPoly(self, {monomial({n: exp}): self.coeff_one()})

    def __repr__(self):
        return "PolyRing(%s, %s)" % (self.tower.label, self.coefficients)


class GradedPoly:
    """Sparse polynomial: map from monomial to nonzero coefficient.  A
    polynomial is not changed after it is built, so its terms are
    serialized once (see to_json).  Arithmetic takes operands of one kind:
    a product is of two polynomials, and a scalar enters through scale."""

    __slots__ = ("ring", "terms", "_json")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._json = None

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ring.same_ring(other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check(self, other):
        if not isinstance(other, GradedPoly):
            raise RingMismatch("expected a polynomial")
        if not self.ring.same_ring(other.ring):
            raise RingMismatch("polynomials over different rings")

    def weight(self):
        """Weight when homogeneous; None for 0; raises otherwise."""
        ws = {monomial_weight(m, self.ring.q) for m in self.terms}
        if not ws:
            return None
        if len(ws) != 1:
            raise ValueError("polynomial is not homogeneous: weights %s" % sorted(ws))
        return ws.pop()

    def is_homogeneous(self):
        ws = {monomial_weight(m, self.ring.q) for m in self.terms}
        return len(ws) <= 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return GradedPoly(self.ring, out)

    def __neg__(self):
        return GradedPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product on integer numerators, for both coefficient kinds.  Each
        factor is put over one common denominator; a residue coefficient
        enters as its omega-coordinates over 1.  Each factor's monomials are
        widened once to the width of both, so a product of monomials is a
        componentwise sum.  Each coefficient of the shorter factor builds
        its integer multiplication rows once, and every partial product
        accumulates into an integer vector under its exponent tuple.  Each
        output term is then divided by den_a * den_b * ds once (for
        residues, reduced mod p as `residue` does) and its tuple stripped of
        leading zeros, in first-seen order.  A square takes each pair of
        terms i < j once, with term j doubled (Monagan & Pearce, CASC 2012);
        the key of (j, i) is first seen at (i, j), so the order holds."""
        self._check(other)
        T = self.ring.tower
        a_poly, b_poly = self, other
        if len(a_poly.terms) > len(b_poly.terms):
            a_poly, b_poly = b_poly, a_poly
        width = max(map(len, itertools.chain(a_poly.terms, b_poly.terms)), default=0)
        den_a, a_terms = _over_common_den(a_poly)
        den_b, b_terms = _over_common_den(b_poly)
        b_wide = [(widen(m2, width), b) for m2, b in b_terms]
        square = other is self
        if square:
            twice = [(e2, [2 * x for x in b]) for e2, b in b_wide]
        out = {}
        for i, (m1, a) in enumerate(a_terms):
            e1 = widen(m1, width)
            rows = mul_rows(T, a)
            for e2, b in [b_wide[i]] + twice[i + 1:] if square else b_wide:
                key = tuple(map(add, e1, e2))
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = [0] * T.d
                mul_accumulate(acc, rows, b)
        den = den_a * den_b * T.structure_constants()[1]
        terms = {
            strip(key): FieldElement.from_numerators(T, acc, den)
            for key, acc in out.items() if any(acc)
        }
        if self.ring.coefficients == "residue":
            terms = {m: residue(c) for m, c in terms.items()}
        return GradedPoly(self.ring, terms)

    def shift(self, m):
        """m * self term by term: exponents add, coefficients stay."""
        return GradedPoly(self.ring, {monomial_mul(t, m): a for t, a in self.terms.items()})

    def scale(self, c):
        """c * self for c of the ring's kind and tower, else TowerMismatch."""
        kind = ResidueElement if self.ring.coefficients == "residue" else FieldElement
        if not (isinstance(c, kind) and self.ring.tower.same_tower(c.tower)):
            raise TowerMismatch("scalar %r, ring %r" % (c, self.ring))
        return self * GradedPoly(self.ring, {(): c})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return GradedPoly(self.ring, {tuple(a * n for a in m) if n else (): c ** n})
        return binary_power(self, n, self.ring.one())

    # -- serialization ---------------------------------------------------------

    def to_json(self, N):
        """Canonical JSON, recording the bound N of the table, log or
        module the polynomial belongs to.  The term dicts are built on the
        first call and shared by later ones, each in a new list."""
        if self._json is None:
            self._json = terms_to_json(self.terms, lambda c: c.to_json())
        return {"terms": list(self._json), "q": self.ring.q, "N": N}

    @staticmethod
    def from_json(ring, obj):
        if ring.coefficients == "residue":
            return GradedPoly(ring, read_terms(obj, lambda c: ResidueElement(ring.tower, tuple(c))))
        return GradedPoly(ring, read_terms(obj, lambda c: FieldElement.from_json(ring.tower, c)))

    def __repr__(self):
        if not self.terms:
            return "<poly 0>"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=True):
            mono = "*".join(("v" + n) if a == 1 else ("v%s^%d" % (n, a))
                            for n, a in monomial_to_json(m).items())
            parts.append("(%r)%s" % (c, "*" + mono if mono else ""))
        return "<poly " + " + ".join(parts) + ">"


def read_terms(obj, read_coeff):
    """The dict from monomials to coefficients (each read by read_coeff) of
    a polynomial's JSON form; ValueError for a generator or monomial twice."""
    terms = {}
    for t in obj["terms"]:
        exps = {int(n): parse_integer(a) for n, a in t["exps"].items()}
        m = monomial(exps)
        if len(exps) < len(t["exps"]) or m in terms:
            raise ValueError("a generator or a monomial is listed twice")
        terms[m] = read_coeff(t["coeff"])
    return terms


def terms_to_json(terms, coeff_json):
    """The JSON term list of the dict `terms` from monomials to coefficients,
    in descending monomial order, each coefficient written by coeff_json."""
    return [{"exps": monomial_to_json(m), "coeff": coeff_json(terms[m])}
            for m in sorted(terms, key=monomial_key, reverse=True)]


def _over_common_den(poly):
    """(den, [(monomial, numerators over den)]): for field coefficients, den
    is the lcm of their denominators; residues are their omega-coordinates
    over 1."""
    if poly.ring.coefficients == "residue":
        return 1, [(m, c.vec) for m, c in poly.terms.items()]
    den = math.lcm(*(c.den for c in poly.terms.values()))
    return den, [
        (m, c.nums if c.den == den else [n * (den // c.den) for n in c.nums])
        for m, c in poly.terms.items()
    ]


def leading_monomial(f):
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no leading monomial")
    return max(f.terms, key=monomial_key)


def _reduce(f, divisors, quots):
    """The remainder of f on division by the divisors, as a dict of terms;
    each quotient term is recorded in quots, one dict per divisor.  Each
    step reduces the leading term of what is left by the first divisor
    whose leading monomial divides it; coefficients divide exactly (field
    or residue field) by the inverse of the divisor's leading coefficient,
    taken once per call.  A zero divisor raises ZeroPolynomial.

    What is left is one dict, changed in place, on the monomials widened to
    one width and negated, as in torsion._remainder: a min-heap of its keys
    yields the leading monomial, skipping monomials since cancelled."""
    width = max(map(len, itertools.chain(f.terms, *(d.terms for d in divisors))), default=0)

    def negated(m):
        return tuple(map(neg, widen(m, width)))

    leads = []
    for d in divisors:
        lm = leading_monomial(d)
        leads.append((negated(lm), d.terms[lm].inverse(),
                      [(negated(u), a) for u, a in d.terms.items() if u != lm]))
    rem = {}
    work = {negated(m): c for m, c in f.terms.items()}
    heap = list(work)
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for i, (lead, lc_inv, tail) in enumerate(leads):
            if all(map(ge, lead, m)):
                ratio = tuple(map(sub, m, lead))
                q = quots[i][strip(tuple(map(neg, ratio)))] = c * lc_inv
                # Subtracting q * ratio * d_i cancels the term at m; over a
                # field no product a * q of nonzero coefficients is zero.
                for u, a in tail:
                    t = tuple(map(add, u, ratio))
                    s = a * q
                    old = work.get(t)
                    if old is None:
                        work[t] = -s
                        heapq.heappush(heap, t)
                    elif old == s:
                        del work[t]
                    else:
                        work[t] = old - s
                break
        else:
            rem[strip(tuple(map(neg, m)))] = c
    return rem


def divide(f, divisors):
    """Multivariate division under the monomial order: returns ([q_i], r)
    with f = sum q_i * d_i + r and no term of r divisible by any lm(d_i)
    (see _reduce)."""
    quots = [{} for _ in divisors]
    rem = _reduce(f, divisors, quots)
    return [GradedPoly(f.ring, q) for q in quots], GradedPoly(f.ring, rem)


def monomial_image(m, ring, images, memo):
    """Image of the monomial m under v_n -> images[n] (images[0] is unused),
    a polynomial over `ring`, held in `memo`: a dict from monomials to
    images, which may also hold monomials in generators past the end of
    `images`.  Such a generator raises MissingImage; m's largest generator
    is v_n, n = len(m).  For that factor v_n^a and the rest m',
    image(m) = image(m') * image(v_n^a), and
    image(v_n^a) = image(v_n^(a-1)) * images[n]: one product per new entry."""
    n = len(m)
    if n >= len(images):
        raise MissingImage("no image for generator v_%d" % n)
    img = memo.get(m)
    if img is None:
        rest = strip(m[1:])
        zeros = (0,) * (n - 1)
        if rest:
            img = monomial_image(rest, ring, images, memo) * monomial_image(
                m[:1] + zeros, ring, images, memo
            )
        elif not m:
            img = ring.one()
        else:
            a = m[0]
            k = a - 1  # the highest power of v_n held, or 0
            while k and (k,) + zeros not in memo:
                k -= 1
            img = memo[(k,) + zeros] if k else images[n]
            for b in range(max(k, 1) + 1, a + 1):
                img = memo[(b,) + zeros] = img * images[n]
        memo[m] = img
    return img


def apply_ring_map(f, ring, images, memo):
    """Substitute v_n -> images[n], polynomials over the target `ring`, and
    embed coefficients into its tower.  `images` is indexed by generator
    (images[0] is unused), and `memo` holds the monomial images (see
    monomial_image).  Only a term whose embedded coefficient is not 1
    is scaled.
    """
    one = ring.coeff_one()
    out = ring.zero()
    for m, c in f.terms.items():
        term = monomial_image(m, ring, images, memo)
        c = embed(c, ring.tower)
        out = out + (term if c == one else term.scale(c))
    return out


def reduce_mod_ideal(f, n):
    """Reduce modulo (pi, v_1, ..., v_{n-1}): drop terms divisible by a
    generator of index < n, reduce surviving coefficients to the residue
    field (residue refuses a non-integral one).  n = 1 reduces only those."""
    out_ring = f.ring.residue_ring()
    terms = {}
    for m, c in f.terms.items():
        if divisible_below(m, n):
            continue
        r = residue(c)
        if r:
            terms[m] = r
    return GradedPoly(out_ring, terms)


def monomials_of_weight(q, N, w):
    """All monomials in v_1..v_N of weight exactly w (grading q), sorted
    descending in the monomial order, in a new list."""
    return list(_monomials_of_weight(q, N, w))


@functools.lru_cache(maxsize=None)
def _monomials_of_weight(q, N, w):
    """monomials_of_weight as a tuple, enumerated once per process: the
    exponent of v_N from the largest down, each followed by the monomials
    of v_1..v_{N-1} of the weight left.  Every generator has positive
    weight, so no monomial of weight w extends another."""
    if N == 0:
        return ((),) if w == 0 else ()
    wn = q ** N - 1
    out = []
    for a in range(w // wn, -1, -1):
        out += [(a,) + widen(m, N - 1) if a else m
                for m in _monomials_of_weight(q, N - 1, w - a * wn)]
    return tuple(out)


def monomial_count(q, N, w, limit):
    """len(monomials_of_weight(q, N, w)), building none of them, or a number
    above limit once the count passes it."""
    if w % (q - 1):  # every generator's weight q^n - 1 is a multiple of q - 1
        return 0
    if N <= 2:  # v_1^a * v_2^b with b = 0..w // (q^2 - 1)
        return w // (q * q - 1) + 1 if N == 2 else int(N == 1 or w == 0)
    count, wn = 0, q ** N - 1
    for a in range(w // wn + 1):
        count += monomial_count(q, N - 1, w - a * wn, limit - count)
        if count > limit:
            break
    return count


def graded_basis(ring, N, weight_bound):
    """All monomials in v_1..v_N of each weight <= weight_bound, per
    weight, each list sorted descending in the monomial order."""
    return {w: monomials_of_weight(ring.q, N, w) for w in range(weight_bound + 1)}

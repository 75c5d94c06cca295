"""Sparse graded polynomials in generators v_1, v_2, ... with exact
coefficients.

A ring is its coefficient tower and coefficient kind; it has no truncation.
A bound N on generator indices belongs to what enumerates or serializes
(graded_basis, and the tables, logs and modules that call to_json).

Monomials carry the weight w(v_n) = q^n - 1 (topological degree 2w) and are
compared by a pure lexicographic order in which the highest generator index
is the most significant: v_3 beats every monomial in v_1, v_2, and v_2^2
beats v_1^n * v_2 for every n.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from operator import add

from .errors import MissingImage, NotIntegral, RingMismatch, TowerMismatch, ZeroPolynomial
from .numberring import (
    FieldElement,
    ResidueElement,
    binary_power,
    embed,
    is_integral,
    mul_accumulate,
    mul_rows,
    residue,
)


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (generator index, positive exponent)


def monomial(exps):
    """Canonical monomial from a mapping or iterable of (index, exponent)."""
    if isinstance(exps, dict):
        items = exps.items()
    else:
        items = exps
    out = {}
    for n, a in items:
        n, a = int(n), int(a)
        if a < 0:
            raise ValueError("negative exponent")
        if a:
            out[n] = out.get(n, 0) + a
    return tuple(sorted(out.items()))


ONE_MONOMIAL = ()


def monomial_weight(m, q):
    return sum(a * (q ** n - 1) for n, a in m)


def monomial_mul(x, y):
    out = dict(x)
    for n, a in y:
        out[n] = out.get(n, 0) + a
    return tuple(sorted(out.items()))


def monomial_divide(x, y):
    """x / y, or None when y does not divide x."""
    out = dict(x)
    for n, a in y:
        b = out.get(n, 0) - a
        if b < 0:
            return None
        if b:
            out[n] = b
        else:
            out.pop(n, None)
    return tuple(sorted(out.items()))


def monomial_key(m):
    """Sort key of the monomial order: the (index, exponent) pairs from the
    highest index down.  Tuples compare pair by pair, so the first
    difference decides, and a monomial that extends another by lower
    generators is the larger."""
    return m[::-1]


def _descending_key(m):
    """Key whose ascending order is the descending monomial order, for a
    min-heap: the pairs of monomial_key negated, closed by (0, 0), which
    ranks above every negated pair, so a monomial comes after its
    extensions."""
    return tuple((-n, -a) for n, a in reversed(m)) + ((0, 0),)


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
        return GradedPoly(self, {ONE_MONOMIAL: self.coeff_one()})

    def gen(self, n, exp=1):
        return GradedPoly(self, {monomial({n: exp}): self.coeff_one()})

    def __repr__(self):
        return "PolyRing(%s, %s)" % (self.tower.label, self.coefficients)


class GradedPoly:
    """Sparse polynomial: map from monomial to nonzero coefficient.  A
    polynomial is not changed after it is built, so its leading term is
    taken once (see leading_term) and its terms are serialized once (see
    to_json)."""

    __slots__ = ("ring", "terms", "_lead", "_json")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._lead = None
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

    def sorted_terms(self):
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=True)

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
        enters as its omega-coordinates over 1.  Each coefficient of the
        shorter factor builds its integer multiplication rows once, and every
        partial product accumulates into an integer vector under a dense
        exponent key.  Each output term is then divided by den_a * den_b * ds
        once (for residues, reduced mod p as `residue` does) and its key
        turned back into a monomial, in first-seen order.  A square takes each
        pair of terms i < j once, with term j doubled (Monagan & Pearce, CASC
        2012); the key of (j, i) is first seen at (i, j), so the order holds."""
        if isinstance(other, (int, Fraction, FieldElement, ResidueElement)):
            return self.scale(other)
        self._check(other)
        T = self.ring.tower
        a_poly, b_poly = self, other
        if len(a_poly.terms) > len(b_poly.terms):
            a_poly, b_poly = b_poly, a_poly
        gens = sorted({n for poly in (a_poly, b_poly) for m in poly.terms for n, _ in m})
        slot = {n: k for k, n in enumerate(gens)}

        def dense(m):
            exps = [0] * len(gens)
            for n, a in m:
                exps[slot[n]] = a
            return tuple(exps)

        den_a, a_terms = _over_common_den(a_poly)
        den_b, b_terms = _over_common_den(b_poly)
        b_dense = [(dense(m2), b) for m2, b in b_terms]
        square = other is self
        if square:
            twice = [(e2, [2 * x for x in b]) for e2, b in b_dense]
        out = {}
        for i, (m1, a) in enumerate(a_terms):
            e1 = dense(m1)
            rows = mul_rows(T, a)
            for e2, b in [b_dense[i]] + twice[i + 1:] if square else b_dense:
                key = tuple(map(add, e1, e2))
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = [0] * T.d
                mul_accumulate(acc, rows, b)
        den = den_a * den_b * T.structure_constants()[1]
        terms = {
            tuple((gens[k], x) for k, x in enumerate(key) if x):
                FieldElement.from_numerators(T, acc, den)
            for key, acc in out.items() if any(acc)
        }
        if self.ring.coefficients == "residue":
            terms = {m: residue(c) for m, c in terms.items()}
        return GradedPoly(self.ring, terms)

    __rmul__ = __mul__

    def shift(self, m):
        """m * self term by term: exponents add, coefficients stay."""
        return GradedPoly(self.ring, {monomial_mul(t, m): a for t, a in self.terms.items()})

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.coeff_from_int(c)
        elif isinstance(c, Fraction):
            c = self.ring.tower.from_rational(c)
        elif not self.ring.tower.same_tower(c.tower):
            raise TowerMismatch(
                "scalar from %s, ring over %s" % (c.tower.label, self.ring.tower.label)
            )
        return self * GradedPoly(self.ring, {ONE_MONOMIAL: c})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return GradedPoly(self.ring, {monomial({k: a * n for k, a in m}): c ** n})
        return binary_power(self, n, self.ring.one())

    # -- serialization ---------------------------------------------------------

    def to_json(self, N):
        """Canonical JSON, recording the bound N of the table, log or
        module the polynomial belongs to.  The term dicts are built on the
        first call and shared by later ones, each in a new list."""
        if self._json is None:
            self._json = [{"exps": {str(n): a for n, a in m}, "coeff": c.to_json()}
                          for m, c in self.sorted_terms()]
        return {"terms": list(self._json), "q": self.ring.q, "N": N}

    @staticmethod
    def from_json(ring, obj):
        terms = {}
        for t in obj["terms"]:
            m = monomial({int(n): a for n, a in t["exps"].items()})
            if ring.coefficients == "residue":
                c = ResidueElement(ring.tower, tuple(t["coeff"]))
            else:
                c = FieldElement.from_json(ring.tower, t["coeff"])
            terms[m] = c
        return GradedPoly(ring, terms)

    def __repr__(self):
        if not self.terms:
            return "<poly 0>"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                ("v%d" % n) if a == 1 else ("v%d^%d" % (n, a)) for n, a in m
            )
            parts.append("(%r)%s" % (c, "*" + mono if mono else ""))
        return "<poly " + " + ".join(parts) + ">"


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


def leading_term(f):
    """(lm, lc, 1/lc) of f, taken on the first call and kept on f."""
    if f._lead is None:
        m = leading_monomial(f)
        f._lead = (m, f.terms[m], f.terms[m].inverse())
    return f._lead


def _reduce(f, divisors, quots):
    """The remainder of f on division by the divisors, as a dict of terms;
    each quotient term is recorded in quots, one dict per divisor.  Each
    step reduces the leading term of what is left by the first divisor
    whose leading monomial divides it; coefficients divide exactly (field
    or residue field).  A zero divisor raises ZeroPolynomial.

    What is left is one dict, changed in place; a heap of its monomials
    yields the leading one, skipping monomials that have since cancelled."""
    leads = [leading_term(d) for d in divisors]
    rem = {}
    work = dict(f.terms)
    heap = [(_descending_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        for i, (lm, _, lc_inv) in enumerate(leads):
            ratio = monomial_divide(m, lm)
            if ratio is not None:
                q = quots[i][ratio] = c * lc_inv
                # Subtracting q * ratio * d_i cancels the term at m; over a
                # field no product a * q of nonzero coefficients is zero.
                for u, a in divisors[i].terms.items():
                    t = monomial_mul(u, ratio)
                    s = a * q
                    old = work.get(t)
                    if old is None:
                        work[t] = -s
                        heapq.heappush(heap, (_descending_key(t), t))
                    elif old == s:
                        del work[t]
                    else:
                        work[t] = old - s
                break
        else:
            rem[m] = c
            del work[m]
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
    `images`.  Such a generator raises MissingImage; m's last factor holds
    its largest.  For that factor v_n^a and the rest m',
    image(m) = image(m') * image(v_n^a), and
    image(v_n^a) = image(v_n^(a-1)) * images[n]: one product per new entry."""
    if m and m[-1][0] >= len(images):
        raise MissingImage("no image for generator v_%d" % m[-1][0])
    img = memo.get(m)
    if img is None:
        if len(m) > 1:
            img = monomial_image(m[:-1], ring, images, memo) * monomial_image(
                m[-1:], ring, images, memo
            )
        elif not m:
            img = ring.one()
        else:
            (n, a), = m
            k = a - 1  # the highest power of v_n held, or 0
            while k and ((n, k),) not in memo:
                k -= 1
            img = memo[((n, k),)] if k else images[n]
            for b in range(max(k, 1) + 1, a + 1):
                img = memo[((n, b),)] = img * images[n]
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
    field.  n = 1 reduces coefficients only."""
    out_ring = f.ring.residue_ring()
    terms = {}
    for m, c in f.terms.items():
        if any(idx < n for idx, _ in m):
            continue
        if not is_integral(c):
            raise NotIntegral("surviving term has a non-integral coefficient")
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
        return (ONE_MONOMIAL,) if w == 0 else ()
    wn = q ** N - 1
    out = []
    for a in range(w // wn, -1, -1):
        top = ((N, a),) if a else ()
        out += [m + top for m in _monomials_of_weight(q, N - 1, w - a * wn)]
    return tuple(out)


def graded_basis(ring, N, weight_bound):
    """All monomials in v_1..v_N of each weight <= weight_bound, per
    weight, each list sorted descending in the monomial order."""
    return {w: monomials_of_weight(ring.q, N, w) for w in range(weight_bound + 1)}

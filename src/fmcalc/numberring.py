"""Exact arithmetic in towers Q_p < unramified < totally ramified.

A tower is described by a prime p, a monic integer polynomial g of degree f
(irreducible mod p, generator omega) and a monic Eisenstein polynomial h of
degree e over the unramified subring (generator theta).  Elements of the
fraction field are written in the power basis omega^i * theta^j, which is
an integral basis for such towers, with d = e*f coordinates at flat index
k = j*f + i.

An element is stored as integer numerators over one common denominator:
`nums`, a tuple of d integers, and `den`, a positive integer, so that
coordinate k is nums[k] / den.  The form is canonical: gcd(den, *nums) == 1,
and zero is all-zero nums over den == 1.  Equal elements therefore have
equal (nums, den).  `coords` gives the nested Fraction rows on demand.

Every product goes through one integer kernel.  The tower's structure
constants basis_k * basis_l = sum (s_klm / ds) * basis_m are scaled once, on
first use, to integers s_klm over their common denominator ds (ds = 1 for
integral Eisenstein polynomials).  An element x = nums / den has integer
multiplication rows r_l = sum_k nums_k * s_kl, with x * basis_l = r_l /
(den * ds) (`mul_rows`).  A product x * y is then one integer accumulate
step acc += sum_l y.nums_l * r_l (`mul_accumulate`) followed by one division
by den_x * den_y * ds, reduced with a single gcd.  `FieldElement.__mul__`,
`FieldElement.inverse` (which solves against the same matrix, fraction-free
on integers) and the graded-polynomial product all use it; that product
also runs residue coefficients through it, as omega-coordinates over 1,
and reduces each result the way `residue` does.

Valuation and integrality read the integers directly.  x is integral iff p
does not divide den: in canonical form some numerator is prime to p
whenever p | den.  The valuation of sum c_{j,i} omega^i theta^j is the
minimum of e * v_p(c_{j,i}) + j over nonzero coordinates, that is
min e * (v_p(nums_k) - v_p(den)) + j.  The omega^i are a unit basis of the
unramified ring, so each theta-layer sum_i c_{j,i} omega^i has p-adic
valuation min_i v_p(c_{j,i}); the layers j = 0..e-1 then have distinct
valuations modulo e, so the smallest one decides.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest

from . import modp
from .errors import (
    ConfigParseError,
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

INFINITY = math.inf
_ZERO = Fraction(0)


class ReadOnly:
    """Base of the package's immutable records.  A subclass lists its
    fields in __slots__; the record is built from one value per field, in
    that order, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is read-only" % type(self).__name__)


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def binary_power(x, n, one):
    """x ** n for an integer n >= 0 by square-and-multiply; x is squared
    only while bits of n remain, and `one` is returned only for n = 0, so
    no product is taken by it.  For n = 1 the result is x itself."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return one if result is None else result


def _int_valuation(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation_rational(r, p):
    """p-adic valuation of a rational, an int or a Fraction; +infinity
    for 0."""
    if r == 0:
        return INFINITY
    return _int_valuation(r.numerator, p) - _int_valuation(r.denominator, p)


def parse_rational(s):
    """A rational from its text or number: an int when the text reads as
    an integer (int and Fraction agree on every text int accepts), else a
    Fraction."""
    s = str(s)
    try:
        return int(s)
    except ValueError:
        return Fraction(s)


def is_integer(x):
    """True for the JSON numbers read as integers: an int that is not a
    bool, or an integral float such as 2.0."""
    return type(x) is int or isinstance(x, float) and x.is_integer()


def parse_integer(x):
    """An int from an integer number or integer text such as "2".  Booleans,
    fractions and other text raise ValueError instead of being rounded."""
    if isinstance(x, str):
        x = int(x)
    if not is_integer(x):
        raise ValueError("not an integer: %r" % (x,))
    return int(x)


def format_rational(r):
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


# ---------------------------------------------------------------------------
# Polynomials over Q and over the unramified subring Q[omega]/(g)


def _qpoly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return modp.trim(out)


def _qpoly_rem_monic(f, g):
    """Remainder of f modulo a monic polynomial g, over Q."""
    f = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1]
        if c:
            for j in range(len(g)):
                f[k + j] -= c * g[j]
    return modp.trim(f)


def _upoly_pad(vec, f):
    return tuple(vec) + (Fraction(0),) * (f - len(vec))


class TowerDescriptor:
    """Immutable description of a tower Q_p < Q_p(omega) < Q_p(omega, theta).

    `unram_poly` lists the integer coefficients of g, constant first.  Each
    coefficient of `eis_poly`, constant first, is either a row of rationals
    in powers of omega (constant first) or a plain number, which stands for
    the row holding just that number.  g must be irreducible mod p.  Every
    entry of h's rows below theta^e has valuation >= 1, and some entry of
    its constant row valuation 1: the constant term is p times a unit."""

    def __init__(self, p, unram_poly, eis_poly, label=""):
        if not is_prime(p):
            raise NotPrime("%r is not prime" % (p,))
        g = tuple(int(c) for c in unram_poly)
        if len(g) < 2 or g[-1] != 1:
            raise NotIrreducibleModP("unramified polynomial must be monic of degree >= 1")
        f = len(g) - 1
        gbar = modp.make(g, p)
        if modp.deg(gbar) != f or not modp.is_irreducible(gbar, p):
            raise NotIrreducibleModP("polynomial is not irreducible modulo %d" % p)
        rows = (c if isinstance(c, (list, tuple)) else (c,) for c in eis_poly)
        h = tuple(_upoly_pad(tuple(Fraction(c) for c in row), f) for row in rows)
        if len(h) < 2 or h[-1] != _upoly_pad((Fraction(1),), f):
            raise NotEisenstein("Eisenstein polynomial must be monic of degree >= 1")
        e = len(h) - 1

        self.p = p
        self.unram_poly = g
        self.eis_poly = h
        self.label = label or "p=%d,f=%d,e=%d" % (p, f, e)
        self.f = f
        self.e = e
        self.q = p ** f
        self.d = e * f
        self.gbar = gbar
        self._gq = tuple(Fraction(c) for c in g)

        if e > 1:
            self._check_eisenstein()
        self._struct = None  # lazily built multiplication table

    def _check_eisenstein(self):
        p = self.p
        for j in range(self.e):
            if any(padic_valuation_rational(c, p) < 1 for c in self.eis_poly[j]):
                raise NotEisenstein(
                    "non-leading coefficient of theta^%d not divisible by %d" % (j, p))
        if all(padic_valuation_rational(c, p) >= 2 for c in self.eis_poly[0]):
            raise NotEisenstein("constant term divisible by p^2: not a uniformizer")

    # -- element constructors ------------------------------------------------

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, r):
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        nums = (r.numerator,) + (0,) * (self.d - 1)
        return FieldElement.from_numerators(self, nums, r.denominator)

    def theta(self):
        if self.e == 1:
            return self.zero()
        nums = [0] * self.d
        nums[self.f] = 1
        return FieldElement.from_numerators(self, nums, 1)

    def uniformizer(self):
        """theta when e > 1, otherwise p (the recorded choice)."""
        if self.e > 1:
            return self.theta()
        return self.from_rational(self.p)

    @functools.cached_property
    def uniformizer_inverse(self):
        """1 / uniformizer, computed on first use."""
        return self.uniformizer().inverse()

    def uniformizer_name(self):
        return "theta" if self.e > 1 else "p"

    def structure_constants(self):
        """Integer multiplication table of the power basis and its common
        denominator: (table, ds), where entry table[k][l] lists (m, s) with
        basis_k * basis_l = sum (s / ds) * basis_m.  Built on first use."""
        if self._struct is None:
            f, e, d = self.f, self.e, self.d
            table = []
            for k in range(d):
                jk, ik = divmod(k, f)
                row = []
                for l in range(d):
                    jl, il = divmod(l, f)
                    a = [[Fraction(0)] * f for _ in range(e)]
                    b = [[Fraction(0)] * f for _ in range(e)]
                    a[jk][ik] = Fraction(1)
                    b[jl][il] = Fraction(1)
                    flat = [c for rw in _basis_mul(self, a, b) for c in rw]
                    row.append(tuple((m, c) for m, c in enumerate(flat) if c))
                table.append(row)
            ds = math.lcm(*(c.denominator for row in table for skl in row for _, c in skl))
            self._struct = (
                [[tuple((m, c.numerator * (ds // c.denominator)) for m, c in skl)
                  for skl in row] for row in table],
                ds,
            )
        return self._struct

    # -- structural relations ------------------------------------------------

    def same_tower(self, other):
        return self is other or (
            self.p == other.p
            and self.unram_poly == other.unram_poly
            and self.eis_poly == other.eis_poly
        )

    def is_subtower_of(self, other):
        if self.p != other.p:
            return False
        if self.e > 1:
            return self.same_tower(other)
        if self.f > 1:
            return self.unram_poly == other.unram_poly
        return True

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "p": self.p,
            "unram_poly": list(self.unram_poly),
            "eis_poly": [[format_rational(c) for c in coeff] for coeff in self.eis_poly],
            "label": self.label,
        }

    @staticmethod
    def from_json(obj):
        """Parse a tower object with p, unram_poly, eis_poly and an optional
        label.  A malformed object raises ConfigParseError; a well-formed one
        that names no valid tower raises the constructor's error."""
        try:
            eis = [[parse_rational(c) for c in coeff] for coeff in obj["eis_poly"]]
            return TowerDescriptor(
                parse_integer(obj["p"]),
                [parse_integer(c) for c in obj["unram_poly"]],
                eis,
                obj.get("label", ""),
            )
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as ex:
            raise ConfigParseError("tower: %s: %s" % (type(ex).__name__, ex))

    def __repr__(self):
        return "TowerDescriptor(%s)" % self.label

    def __eq__(self, other):
        return isinstance(other, TowerDescriptor) and self.same_tower(other)

    def __hash__(self):
        return hash((self.p, self.unram_poly, self.eis_poly))


def _basis_mul(T, ca, cb):
    """Multiply two coordinate arrays by polynomial reduction: as
    polynomials in theta over Q[omega]/(g), then theta-degree reduction via
    the Eisenstein relation.  Seeds the structure-constant table, and is
    the reference product the property tests compare against."""
    e = T.e
    prod = [()] * (2 * e - 1)
    for j1, row1 in enumerate(ca):
        a = modp.trim(row1)
        if not a:
            continue
        for j2, row2 in enumerate(cb):
            b = modp.trim(row2)
            if not b:
                continue
            ab = _qpoly_rem_monic(_qpoly_mul(a, b), T._gq)
            cur = prod[j1 + j2]
            n = max(len(cur), len(ab))
            cur = _upoly_pad(cur, n)
            ab = _upoly_pad(ab, n)
            prod[j1 + j2] = modp.trim(x + y for x, y in zip(cur, ab))
    prod = [list(_upoly_pad(c, T.f)) for c in prod]
    for k in range(2 * e - 2, e - 1, -1):
        top = prod[k]
        if all(c == 0 for c in top):
            continue
        for j in range(e):
            hj = modp.trim(T.eis_poly[j])
            if not hj:
                continue
            corr = _qpoly_rem_monic(_qpoly_mul(modp.trim(top), hj), T._gq)
            corr = _upoly_pad(corr, T.f)
            tgt = prod[k - e + j]
            for i in range(T.f):
                tgt[i] -= corr[i]
        prod[k] = [Fraction(0)] * T.f
    return prod[:e]


def mul_rows(tower, nums):
    """Integer rows of the multiplication matrix of x = nums / den: rows[l]
    lists (m, c) with x * basis_l = sum c / (den * ds) * basis_m, where ds
    is the tower's structure-constant denominator."""
    struct, _ = tower.structure_constants()
    d = tower.d
    rows = [[0] * d for _ in range(d)]
    for ak, sk in zip(nums, struct):
        if not ak:
            continue
        for row, skl in zip(rows, sk):
            for m, s in skl:
                row[m] += ak * s
    return [[(m, v) for m, v in enumerate(row) if v] for row in rows]


def mul_accumulate(acc, rows, b):
    """acc += rows . b in place on integers: add b_l * r_l for every nonzero
    numerator b_l, with rows as returned by `mul_rows`."""
    for bl, row in zip(b, rows):
        if bl:
            for m, v in row:
                acc[m] += bl * v


class FieldElement:
    """Element of the fraction field: nums[j*f + i] / den is the coefficient
    of omega^i * theta^j, in the canonical form of the module docstring.
    `FieldElement(tower, coords)` takes rows of rationals, one per power of
    theta."""

    __slots__ = ("tower", "nums", "den")

    def __init__(self, tower, coords):
        if len(coords) != tower.e:
            raise FmcalcError("coordinate array has wrong theta-degree")
        flat = []
        for row in coords:
            row = [Fraction(c) for c in row]
            if len(row) > tower.f:
                raise FmcalcError("coordinate row longer than the residue degree")
            flat += row + [_ZERO] * (tower.f - len(row))
        # Over the lcm of reduced denominators the form is already canonical.
        den = math.lcm(*(c.denominator for c in flat))
        self.tower = tower
        self.nums = tuple(c.numerator * (den // c.denominator) for c in flat)
        self.den = den

    @staticmethod
    def from_numerators(tower, nums, den):
        """The element nums / den (integers, den > 0), in canonical form."""
        g = math.gcd(den, *nums)
        z = object.__new__(FieldElement)
        z.tower = tower
        if g == 1:
            z.nums, z.den = tuple(nums), den
        else:
            z.nums, z.den = tuple(n // g for n in nums), den // g
        return z

    @staticmethod
    def from_flat(tower, flat):
        """The element with rational coordinates flat[j*f + i]."""
        f = tower.f
        return FieldElement(tower, [flat[j * f : (j + 1) * f] for j in range(tower.e)])

    # -- basic structure -------------------------------------------------------

    @property
    def coords(self):
        """Coordinates as Fraction rows: coords[j][i] multiplies omega^i * theta^j."""
        f, den, nums = self.tower.f, self.den, self.nums
        return tuple(
            tuple(Fraction(n, den) for n in nums[j : j + f]) for j in range(0, len(nums), f)
        )

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TowerMismatch("expected a FieldElement")
        if not self.tower.same_tower(other.tower):
            raise TowerMismatch(
                "elements of different towers: %s vs %s"
                % (self.tower.label, other.tower.label)
            )

    def is_zero(self):
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.tower.same_tower(other.tower)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.tower, self.nums, self.den))

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = [a + b for a, b in zip(self.nums, other.nums)]
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            nums = [a * sa + b * sb for a, b in zip(self.nums, other.nums)]
            da *= sa
        return FieldElement.from_numerators(self.tower, nums, da)

    def __neg__(self):
        return FieldElement.from_numerators(self.tower, [-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        T = self.tower
        acc = [0] * T.d
        mul_accumulate(acc, mul_rows(T, self.nums), other.nums)
        ds = T.structure_constants()[1]
        return FieldElement.from_numerators(T, acc, self.den * other.den * ds)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        T = self.tower
        d = T.d
        # Column l of the integer matrix A is the numerator row of
        # self * basis_l, so self * y = (A y) / (den * ds).  Solve
        # A x = den * ds * e_0 by fraction-free (Bareiss) Gauss-Jordan
        # elimination on integers: each division by the previous pivot is
        # exact, and at the end M = [pivot * I | pivot * x].
        M = [[0] * d + [self.den * T.structure_constants()[1] if r == 0 else 0]
             for r in range(d)]
        for l, row in enumerate(mul_rows(T, self.nums)):
            for m, c in row:
                M[m][l] = c
        prev = 1
        for col in range(d):
            piv = next((r for r in range(col, d) if M[r][col]), None)
            if piv is None:
                raise DivisionByZero("singular multiplication matrix (zero divisor?)")
            M[col], M[piv] = M[piv], M[col]
            top, pivot = M[col], M[col][col]
            for r in range(d):
                if r != col:
                    factor = M[r][col]
                    M[r] = [(pivot * x - factor * y) // prev for x, y in zip(M[r], top)]
            prev = pivot
        sign = 1 if prev > 0 else -1
        return FieldElement.from_numerators(T, [sign * row[d] for row in M], sign * prev)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, self.tower.one())

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        """Rows of coordinate strings, as format_rational writes them, read
        from the numerators with one gcd per coordinate."""
        f, den = self.tower.f, self.den
        out = []
        for n in self.nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else "%d/%d" % (n // g, den // g))
        return [out[j : j + f] for j in range(0, len(out), f)]

    @staticmethod
    def from_json(tower, obj):
        if isinstance(obj, (str, int)):
            return tower.from_rational(parse_rational(obj))
        return FieldElement(tower, [[parse_rational(c) for c in row] for row in obj])

    def __repr__(self):
        names = []
        for j, row in enumerate(self.coords):
            for i, c in enumerate(row):
                if c == 0:
                    continue
                basis = "".join(
                    s
                    for s in (
                        ("w" if i == 1 else "w^%d" % i) if i else "",
                        ("t" if j == 1 else "t^%d" % j) if j else "",
                    )
                    if s
                )
                names.append("%s%s%s" % (format_rational(c), "*" if basis else "", basis))
        return "<%s>" % (" + ".join(names) if names else "0")


# ---------------------------------------------------------------------------
# Integrality, valuation, residue, embedding


def is_integral(z):
    """True iff every power-basis coordinate is a p-integral rational, that
    is, p does not divide the canonical denominator."""
    return z.den % z.tower.p != 0


def valuation(z):
    """pi-adic valuation normalized so valuation(uniformizer) = 1 and
    valuation(p) = e; valuation(0) = +infinity.  Closed form: see the module
    docstring."""
    T = z.tower
    p, e, f = T.p, T.e, T.f
    v_den = _int_valuation(z.den, p)
    return min(
        (e * (_int_valuation(n, p) - v_den) + k // f for k, n in enumerate(z.nums) if n),
        default=INFINITY,
    )


def residue(z):
    """Image in F_q = F_p[omega]/(gbar) under theta -> 0, coefficients mod p."""
    if not is_integral(z):
        raise NotIntegral("residue of a non-integral element")
    T = z.tower
    inv = pow(z.den, -1, T.p)
    return ResidueElement(T, [n * inv for n in z.nums[: T.f]])


class ResidueElement(ReadOnly):
    """Element of the residue field F_q, as a vector over F_p modulo gbar.
    The constructor reduces any integer vector mod p and mod gbar, so the
    arithmetic below hands it unreduced vectors."""

    __slots__ = ("tower", "vec")

    def __init__(self, tower, vec):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "vec", modp.fq_reduce(vec, tower.gbar, tower.p))

    def __eq__(self, other):
        if other.__class__ is not ResidueElement:
            return NotImplemented
        return self.vec == other.vec and self.tower == other.tower

    def __hash__(self):
        return hash((self.tower, self.vec))

    def __repr__(self):
        return "ResidueElement(%s)" % (list(self.vec),)

    def is_zero(self):
        return not self.vec

    def __bool__(self):
        return bool(self.vec)

    def _check(self, other):
        if self.tower.p != other.tower.p or self.tower.gbar != other.tower.gbar:
            raise TowerMismatch("residue fields differ")

    def __add__(self, other):
        self._check(other)
        pairs = zip_longest(self.vec, other.vec, fillvalue=0)
        return ResidueElement(self.tower, [a + b for a, b in pairs])

    def __sub__(self, other):
        self._check(other)
        pairs = zip_longest(self.vec, other.vec, fillvalue=0)
        return ResidueElement(self.tower, [a - b for a, b in pairs])

    def __neg__(self):
        return ResidueElement(self.tower, [-c for c in self.vec])

    def __mul__(self, other):
        self._check(other)
        return ResidueElement(
            self.tower, modp.fq_mul(self.vec, other.vec, self.tower.gbar, self.tower.p)
        )

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero residue")
        return ResidueElement(
            self.tower, modp.fq_inv(self.vec, self.tower.gbar, self.tower.p)
        )

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, ResidueElement(self.tower, (1,)))

    def to_json(self):
        return list(self.vec)


def embed(z, target):
    """Reinterpret an element of a structural subtower inside `target`."""
    src = z.tower
    if not src.is_subtower_of(target):
        raise NotSubtower(
            "%s is not a structural subtower of %s" % (src.label, target.label)
        )
    # A proper structural subtower has e = 1: its coordinates are the
    # leading omega-coordinates of the theta^0 row.
    nums = z.nums + (0,) * (target.d - src.d)
    return FieldElement.from_numerators(target, nums, z.den)


# ---------------------------------------------------------------------------
# Prime splitting of a global polynomial


class SplittingReport(ReadOnly):
    """How a global polynomial factors modulo one prime."""

    __slots__ = ("prime", "factor_degrees", "ramified", "splits_completely", "equal_degrees")

    def to_json(self):
        return {
            "prime": self.prime,
            "factor_degrees": list(self.factor_degrees),
            "ramified": self.ramified,
            "splits_completely": self.splits_completely,
            "equal_degrees": self.equal_degrees,
        }


def analyze_prime(global_poly, p):
    """Splitting behaviour of a monic integer polynomial modulo p."""
    fbar = modp.make(global_poly, p)
    if modp.deg(fbar) != len(global_poly) - 1:
        # Leading coefficient vanished mod p; treat as ramified/degenerate.
        return SplittingReport(p, tuple(modp.factor_degrees(fbar, p)) if fbar else (), True, False, False)
    derivative = modp.derivative(fbar, p)
    squarefree = modp.deg(modp.gcd(fbar, derivative, p)) == 0 if derivative else False
    degrees = tuple(modp.factor_degrees(fbar, p))
    splits = all(d == 1 for d in degrees)
    equal = len(set(degrees)) == 1
    return SplittingReport(p, degrees, not squarefree, splits, equal)


def find_nonsplit_prime(global_poly, p_max):
    """Smallest prime p <= p_max at which the polynomial is squarefree mod p,
    not totally split, and has all factor degrees equal."""
    global_poly = tuple(int(c) for c in global_poly)
    if len(global_poly) < 2 or global_poly[-1] != 1:
        raise FmcalcError("global polynomial must be monic of degree >= 1")
    scan_table = []
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        report = analyze_prime(global_poly, p)
        scan_table.append(report)
        if not report.ramified and not report.splits_completely and report.equal_degrees:
            return report
    raise NoSuitablePrimeFound(
        "no unramified, non-split, equal-degree prime up to %d" % p_max,
        scan_table,
    )

"""Power-torsion and eventual-division analysis of cyclic graded modules,
degreewise local cohomology at (p), and nonrealizability certificates.

Torsion questions for a cyclic module R/J with p in J reduce to normal
forms modulo a Groebner basis of the reduction of J over F_p, taken with
respect to the same monomial order as everywhere else (highest generator
index most significant).  A module's generators are read once into dicts
from monomials (exponent tuples, as gradedpoly.monomial builds them) to
rationals in Z_(p).  Completion, normal forms and the v_n-power scans run
on their reductions mod p: dicts from a monomial (a_W, ..., a_1), padded
with leading zeros to the one width W = N of the computation, to an int in
1..p-1.  Plain tuple order is then the monomial order, divisibility a
componentwise <=, a product of monomials a componentwise sum and an inverse
pow(c, p - 2, p) (dense exponent vectors in division as in Monagan &
Pearce, CASC 2007).  The module and every witness are written from these
dicts by gradedpoly.terms_to_json, over Q_p and over F_p.  Local
cohomology reads the p-parts of the elementary divisors, and the rank, from
one fraction-free elimination over Z_(p); `smith_normal_form`, the exact
oracle the tests check it against, runs a Smith elimination on the matrix
bordered by identities, so U and V come out beside and below it.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, ge, mul, neg, sub

from .errors import ConfigParseError, NonIntegerMatrix, OutsideScope, TruncationUnsound
from .gradedpoly import monomial, monomial_weight, read_terms, terms_to_json, widen
from .numberring import (
    INFINITY,
    ReadOnly,
    TowerDescriptor,
    format_rational,
    is_prime,
    padic_valuation_rational,
    parse_integer,
    parse_rational,
)


# ---------------------------------------------------------------------------
# Cyclic module presentations


class CyclicModulePresentation(ReadOnly):
    """R/J for R = Z_(p)[v_1..v_N] (the q = p grading) and J homogeneous.

    gens: the generators of J, each a dict from a monomial to a nonzero
    rational in Z_(p), an int or a Fraction; context: "bp" or a
    TowerDescriptor; contains_p: the least valuation of a constant generator
    (0 for a unit), or None when there is none."""

    __slots__ = ("p", "N", "gens", "finitely_presented", "context", "contains_p")

    @staticmethod
    def from_json(obj):
        """Parse a module spec and check it: a prime p, N >= 0, homogeneous
        generators in v_1..v_N over Z_(p), finitely_presented true or false
        (default true) and a context "bp" (default) or {"tower": T} with T
        over the same p.  A malformed spec raises ConfigParseError."""
        if not isinstance(obj, dict) or "p" not in obj or "N" not in obj:
            raise ConfigParseError("module spec must be an object with 'p' and 'N'")
        ideal = obj.get("ideal", [])
        if not isinstance(ideal, list):
            raise ConfigParseError("module spec: 'ideal' must be a list of polynomials")
        try:
            p, N = parse_integer(obj["p"]), parse_integer(obj["N"])
        except (TypeError, ValueError) as ex:
            raise ConfigParseError("module spec: p and N must be integers (%s)" % ex)
        if not is_prime(p) or N < 0:
            raise ConfigParseError("module spec: p must be a prime and N nonnegative")
        try:
            gens = tuple(map(_read_generator, ideal))
            context = obj.get("context", "bp")
            if isinstance(context, dict) and context.keys() == {"tower"}:
                context = TowerDescriptor.from_json(context["tower"])
        except (KeyError, TypeError, ValueError, AttributeError, IndexError,
                ZeroDivisionError) as ex:
            raise ConfigParseError("module spec: %s: %s" % (type(ex).__name__, ex))
        if not (isinstance(context, TowerDescriptor) or context == "bp"):
            raise ConfigParseError('module spec: context must be "bp" or {"tower": ...}')
        for g in gens:
            if any(len(m) > N for m in g):
                raise ConfigParseError(
                    "module spec: the ideal names a generator outside v_1..v_%d" % N
                )
            if len({monomial_weight(m, p) for m in g}) > 1:
                raise ConfigParseError("module spec: ideal generators must be homogeneous")
            if any(c.denominator % p == 0 for c in g.values()):
                raise ConfigParseError("module spec: coefficients must lie in Z_(%d)" % p)
        if isinstance(context, TowerDescriptor) and context.p != p:
            raise ConfigParseError(
                "module spec: context tower has p = %d, not %d" % (context.p, p)
            )
        finitely_presented = obj.get("finitely_presented", True)
        if not isinstance(finitely_presented, bool):
            raise ConfigParseError("module spec: 'finitely_presented' must be true or false")
        # a homogeneous generator with a constant term is a constant
        contains_p = min((padic_valuation_rational(g[()], p) for g in gens if () in g),
                         default=None)
        return CyclicModulePresentation(p, N, gens, finitely_presented, context, contains_p)

    def to_json(self):
        ctx = (
            {"tower": self.context.to_json()}
            if isinstance(self.context, TowerDescriptor)
            else self.context
        )
        return {
            "p": self.p,
            "N": self.N,
            "ideal": [_poly_json(g, self.p, self.N, field=True) for g in self.gens],
            "finitely_presented": self.finitely_presented,
            "context": ctx,
        }


def _read_generator(obj):
    """A generator's JSON terms (see gradedpoly.read_terms), as a dict from
    monomials to the nonzero rationals.  A coefficient is text, a JSON int,
    or its coordinate rows over Q_p: one row of at most one entry."""
    return {m: c for m, c in read_terms(obj, _read_rational).items() if c}


def _read_rational(c):
    if not isinstance(c, (str, int)):
        if len(c) != 1 or len(c[0]) > 1:
            raise ValueError("a coefficient over Q_p is one row of at most one entry")
        c = c[0][0] if c[0] else 0
    return parse_rational(c)


def _poly_json(terms, p, N, field=False):
    """The dict `terms` from monomials (of any widths) to coefficients as
    GradedPoly.to_json writes it: over Q_p (field) a rational c has the
    coordinate rows [[c]], over F_p an int c the vector [c]."""
    coeff_json = (lambda c: [[format_rational(c)]]) if field else (lambda c: [c])
    return {"terms": terms_to_json(terms, coeff_json), "q": p, "N": N}


# ---------------------------------------------------------------------------
# Groebner bases over F_p, on exponent tuples (see the module docstring);
# the tuples of one computation share one width W


def _shift(f, e, c, p):
    """c * x^e * f: exponents add, coefficients are multiplied by c mod p."""
    return {tuple(map(add, u, e)): a * c % p for u, a in f.items()}


def _divide_by_var(f, n):
    """f / v_n when every term is divisible by v_n, else None."""
    out = {}
    for e, c in f.items():
        k = len(e) - n
        if not (0 <= k < len(e) and e[k]):
            return None
        out[e[:k] + (e[k] - 1,) + e[k + 1:]] = c
    return out


def _divisor(f, width=0):
    """The monic f, widened to `width`, as _remainder takes it: (lead, tail)
    with every exponent tuple negated, so that a min-heap pops the largest
    monomial first; the tail omits the leading term."""
    lead = max(f)
    return (tuple(map(neg, widen(lead, width))),
            [(tuple(map(neg, widen(e, width))), c) for e, c in f.items() if e != lead])


def _remainder(f, divisors, p):
    """The remainder of f on division by monic divisors (see _divisor).
    Each step reduces the leading term of what is left by the first divisor
    whose leading monomial divides it, as gradedpoly.divide does.  What is
    left is one dict on negated exponents, changed in place; a heap of its
    keys yields the leading monomial, skipping those since cancelled."""
    work = {tuple(map(neg, e)): c for e, c in f.items()}
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for lead, tail in divisors:
            if all(map(ge, lead, m)):
                # subtract c * (m / lead) * divisor; its leading term is c * m
                ratio = tuple(map(sub, m, lead))
                for u, a in tail:
                    t = tuple(map(add, u, ratio))
                    old = work.get(t)
                    if old is None:
                        heapq.heappush(heap, t)
                        old = 0
                    d = (old - c * a) % p
                    if d:
                        work[t] = d
                    else:
                        del work[t]
                break
        else:
            rem[tuple(map(neg, m))] = c
    return rem


class GroebnerBasis:
    """A reduced basis over F_p, as dicts of exponent tuples of the given
    width, whether its completion was degree-truncated, and per n the pair
    (j, forms): j is the first power of v_n that a leading monomial
    divides, and forms the normal forms NF(v_n^k), k = j, j+1, ..., that
    scans have taken so far (see _power_normal_forms)."""

    __slots__ = ("p", "polys", "width", "truncated", "power_forms", "_divisors")

    def __init__(self, p, polys, width, truncated=False):
        self.p = p
        self.polys = polys
        self.width = width
        self.truncated = truncated
        self.power_forms = {}
        self._divisors = {}

    def divisors(self, width):
        """The basis as _remainder takes it, widened to `width` >= self.width."""
        divs = self._divisors.get(width)
        if divs is None:
            divs = self._divisors[width] = [_divisor(b, width) for b in self.polys]
        return divs


def normal_form(f, gb):
    """Remainder of f, a dict over F_p on exponent tuples of one width at
    least gb.width, on division by the basis; zero certifies membership
    (only up to the truncation caveat, which is raised as an error)."""
    rem = _remainder(f, gb.divisors(len(next(iter(f)))), gb.p) if f else f
    if gb.truncated and rem:
        raise TruncationUnsound(
            "basis was degree-truncated; nonzero normal form proves nothing"
        )
    return rem


def groebner_basis(gens, p, degree_bound):
    """Buchberger completion over F_p of homogeneous generators, dicts from
    exponent tuples of one width to ints in 0..p-1, under the monomial
    order, with S-polynomial weight (grading q = p) capped by
    degree_bound."""
    gens = [g for g in ({e: c for e, c in g.items() if c} for g in gens) if g]
    if not gens:
        return GroebnerBasis(p, [], 0)
    width = len(next(iter(gens[0])))
    weights = [p ** n - 1 for n in range(width, 0, -1)]

    def monic(f):
        inv = pow(f[max(f)], p - 2, p)
        return {e: c * inv % p for e, c in f.items()}

    basis = [monic(g) for g in gens]
    divisors = [_divisor(b) for b in basis]
    truncated = False
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fi, fj = basis[i], basis[j]
        mi, mj = max(fi), max(fj)
        if not any(map(min, mi, mj)):
            continue  # coprime leading monomials: S-poly reduces to zero
        lcm = tuple(map(max, mi, mj))
        if sum(map(mul, lcm, weights)) > degree_bound:
            truncated = True
            continue
        s = _shift(fi, tuple(map(sub, lcm, mi)), 1, p)
        for e, c in _shift(fj, tuple(map(sub, lcm, mj)), 1, p).items():
            d = (s.get(e, 0) - c) % p
            if d:
                s[e] = d
            else:
                del s[e]
        rem = _remainder(s, divisors, p)
        if rem:
            rem = monic(rem)
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(rem)
            divisors.append(_divisor(rem))
    # Inter-reduce for a canonical-ish basis.
    reduced = []
    for idx, b in enumerate(basis):
        others = divisors[:idx] + divisors[idx + 1:]
        r = _remainder(b, others, p) if others else b
        if r:
            reduced.append(monic(r))
    basis = list({frozenset(b.items()): b for b in reduced}.values())
    basis.sort(key=max)
    return GroebnerBasis(p, basis, width, truncated)


def module_groebner(module, degree_bound=None):
    """Groebner basis of the reduction mod p of the module's ideal, on
    exponent tuples of width N; OutsideScope, with the certificate's
    reason, unless the ideal holds p and no unit."""
    if module.contains_p is None:
        raise OutsideScope("ideal does not contain a power of p")
    if module.contains_p == 0:
        raise OutsideScope("the ideal contains a unit; the module is zero")
    if module.contains_p > 1:
        raise OutsideScope("ideal contains p^%d but not p" % module.contains_p)
    p, N = module.p, module.N
    if degree_bound is None:
        degree_bound = 2 * (p ** N - 1)
    # c = a/b in Z_(p) reduces to a * b^-1 mod p; the constant p reduces to 0
    return groebner_basis(
        [{widen(m, N): c.numerator * pow(c.denominator, -1, p) % p for m, c in g.items()}
         for g in module.gens], p, degree_bound)


# ---------------------------------------------------------------------------
# Torsion and eventual-division scans


def _power_normal_forms(gb, n):
    """(j, forms): j is the least k >= 1 for which a leading monomial of
    the basis (v_n^a with a <= k, or 1) divides v_n^k, None if none does,
    and 1 on a truncated basis, so that its first nonzero form raises.
    Below j the division returns v_n^k unchanged, so callers read those
    powers without taking a form.  forms yields NF(v_n^k), k = j, j+1, ...,
    as dicts of width max(gb.width, n), each the normal form of v_n times
    the one before: unique on a complete basis.  The forms are kept on gb,
    so a later scan of the same n resumes where the longest one stopped."""
    width = max(gb.width, n)
    unit = (0,) * (width - n) + (1,) + (0,) * (n - 1)  # v_n
    if n not in gb.power_forms:
        # a leading monomial divides a power of v_n when its only nonzero
        # exponent, if any, is that of v_n (the divisors' leads are negated)
        powers = (-lead[width - n] or 1 for lead, _ in gb.divisors(width)
                  if sum(lead) == lead[width - n])
        gb.power_forms[n] = (1 if gb.truncated else min(powers, default=None), [])
    j, forms = gb.power_forms[n]

    def scan():
        for i in itertools.count():
            if i == len(forms):
                prev = (_shift(forms[-1], unit, 1, gb.p) if forms
                        else {tuple(j * a for a in unit): 1})
                forms.append(normal_form(prev, gb))
            yield forms[i]
    return j, scan()


def is_vn_power_torsion(module, n, k_max, gb=None):
    """Smallest k <= k_max with v_n^k = 0 in R/J, else a bounded 'no' with
    the nonzero normal forms of v_n and v_n^k_max as replayable witnesses.
    With k_max < 1 no power would be scanned: ValueError."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if gb is None:
        gb = module_groebner(module)
    j, scan = _power_normal_forms(gb, n)
    forms = {}
    if j is not None:
        for k, nf in zip(range(j, k_max + 1), scan):
            if not nf:
                return {"torsion": True, "k": k, "n": n}
            forms[k] = nf
    # an unscanned power lies below j and is its own normal form
    nonzero = [{"element": "v_%d^%d" % (n, k),
                "normal_form": _poly_json(forms.get(k) or {monomial({n: k}): 1},
                                          module.p, module.N)}
               for k in (1, k_max)]
    return {"torsion": False, "no_up_to": k_max, "n": n, "nonzero_normal_forms": nonzero}


def eventual_division_module(module, r_index, s_index, m_max, gb=None):
    """Smallest m <= m_max and y with v_s * y = v_r^m in R/J; the zero case
    is preferred over the division case at equal m."""
    if gb is None:
        gb = module_groebner(module)
    p, N = module.p, module.N
    j, scan = _power_normal_forms(gb, r_index)
    # below j, v_r^m is its own nonzero form, divisible by v_s only if s = r
    if r_index == s_index and m_max >= 1 and j != 1:
        return {"found": True, "case": "divide", "m": 1, "y": _poly_json({(): 1}, p, N),
                "r": r_index, "s": s_index}
    if j is not None:
        for m, nf in zip(range(j, m_max + 1), scan):
            if not nf:
                return {"found": True, "case": "zero", "m": m, "y": "0",
                        "r": r_index, "s": s_index}
            y = _divide_by_var(nf, s_index)
            if y is not None:
                return {"found": True, "case": "divide", "m": m,
                        "y": _poly_json(y, p, N), "r": r_index, "s": s_index}
    return {"found": False, "not_found_up_to": m_max, "r": r_index, "s": s_index}


# ---------------------------------------------------------------------------
# Smith normal form and degreewise local cohomology


def _int_rows(A):
    rows = [list(map(int, row)) for row in A]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows differ in length")
    return rows


def smith_normal_form(A):
    """U, D, V with U*A*V = D diagonal, U and V unimodular, and each
    diagonal entry dividing the next; exact integer arithmetic.  One
    elimination runs on M = [[A, I_g], [I_r, 0]]: pivots and tests read the
    block of A alone, row operations act on whole rows of M and column
    operations on whole columns, so they build U beside A and V below it."""
    A = _int_rows(A)
    g, r = len(A), len(A[0]) if A else 0
    M = [row + [int(i == k) for k in range(g)] for i, row in enumerate(A)]
    M += [[int(j == k) for k in range(r)] + [0] * g for j in range(r)]
    t = 0
    while t < min(g, r):
        # find a pivot: smallest nonzero |entry| in the remaining block, the
        # first in row-major order among equals; the pivot keeps its |entry|
        pivot = None
        for i in range(t, g):
            for j in range(t, r):
                x = M[i][j]
                if x and (pivot is None or abs(x) < pivot[0]):
                    pivot = (abs(x), i, j)
        if pivot is None:
            break
        _, i, j = pivot
        M[t], M[i] = M[i], M[t]
        for row in M:
            row[t], row[j] = row[j], row[t]
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
        dirty = False
        for i in range(t + 1, g):
            if M[i][t]:
                c = M[i][t] // M[t][t]
                M[i] = [a - c * b for a, b in zip(M[i], M[t])]
                dirty = dirty or M[i][t] != 0
        for j in range(t + 1, r):
            if M[t][j]:
                c = M[t][j] // M[t][t]
                for row in M:
                    row[j] -= c * row[t]
                dirty = dirty or M[t][j] != 0
        if dirty:
            continue
        # pivot divides everything in its row/column; check the block
        bad = next((i for i in range(t + 1, g)
                    if any(M[i][j] % M[t][t] for j in range(t + 1, r))), None)
        if bad is not None:
            # fold the offending row into the pivot row and redo the step;
            # afterwards the pivot divides the whole remaining block, which
            # is what makes the final diagonal a divisibility chain
            M[t] = [a + b for a, b in zip(M[t], M[bad])]
            continue
        t += 1
    return [row[r:] for row in M[:g]], [row[:r] for row in M[:g]], [row[:r] for row in M[g:]]


def _p_local_divisor_valuations(M, p):
    """The p-adic valuations of the nonzero elementary divisors of the
    integer matrix M (a list of row lists, changed in place), in ascending
    order; their number is the rank.

    One fraction-free (Bareiss) elimination over Z_(p): step t swaps a
    pivot of least valuation in the remaining block to (t, t), the first
    in row-major order (a unit ends the search), and updates the rows
    below it, M[i][j] <- (piv*M[i][j] - M[i][t]*M[t][j]) // prev with prev
    the pivot before (1 at first).  The division is exact, since each
    entry is then a minor of M.  Over the discrete valuation ring Z_(p) a
    pivot of least valuation divides its whole Schur complement, so the
    t-th elementary divisor has valuation v(piv_t) - v(piv_{t-1}) (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4)."""
    g, r = len(M), len(M[0])
    vals = []
    prev, v_prev = 1, 0
    for t in range(min(g, r)):
        v_piv, pivot = INFINITY, None
        for i in range(t, g):
            for j in range(t, r):
                v = padic_valuation_rational(M[i][j], p)
                if v < v_piv:
                    v_piv, pivot = v, (i, j)
                    if not v:
                        break
            if not v_piv:
                break
        if pivot is None:
            break  # the remaining block is zero
        i, j = pivot
        M[t], M[i] = M[i], M[t]
        for row in M[t:]:
            row[t], row[j] = row[j], row[t]
        top = M[t]
        piv = top[t]
        for row in M[t + 1:]:
            a = row[t]
            row[t + 1:] = [(piv * x - a * y) // prev
                           for x, y in zip(row[t + 1:], top[t + 1:])]
        vals.append(v_piv - v_prev)
        prev, v_prev = piv, v_piv
    return vals


def local_cohomology_degreewise(presentations, p):
    """Per degree: M_d = coker(Z^r -> Z^g) from a g x r integer matrix;
    H0 at (p) lists the p-power elementary divisors, H1 corank is the free
    rank; H^n vanishes for n >= 2.  Only the p-parts of the elementary
    divisors and the rank are needed, so they come from one elimination
    over Z_(p) (see _p_local_divisor_valuations), not a Smith form."""
    report = {}
    for degree, matrix in presentations.items():
        if not matrix or not matrix[0]:
            g = len(matrix)
            report[str(degree)] = {"H0_invariants": [], "H1_corank": g, "H2_and_above": 0}
            continue
        for row in matrix:
            for x in row:
                if isinstance(x, float) and not x.is_integer() or int(x) != x:
                    raise NonIntegerMatrix("presentation entries must be integers")
        vals = _p_local_divisor_valuations(_int_rows(matrix), p)
        report[str(degree)] = {
            "H0_invariants": [p ** v for v in vals if v],
            "H1_corank": len(matrix) - len(vals),
            "H2_and_above": 0,
        }
    return {"p": p, "degrees": report}


# ---------------------------------------------------------------------------
# Verdict assembly


class ObstructionCertificate(ReadOnly):
    __slots__ = ("verdict", "rules_fired", "witnesses", "scan_log", "bounds")

    def to_json(self):
        return {name: getattr(self, name) for name in self.__slots__}


def realizability_obstruction(module, k_max=20, m_max=32):
    """Apply the verdict rules in order:

    R1 — the module is p-power-torsion, some v_{n+1} acts with eventual
         v_n-division modulo the ideal, and the module is NOT
         v_n-power-torsion up to k_max;
    R2 — the context tower is not totally ramified and the module is not
         v_n-power-torsion for some n (with V^A itself witnessed by 1);
    R3 — finite presentation declared and every scanned v_n is torsion.

    Otherwise NoObstructionFound with the scan log, or OutsideScope.  With
    k_max < 1 no power is scanned, so R1 could fire on v_n in J: ValueError.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    bounds = {"k_max": k_max, "m_max": m_max}
    scan_log = []

    def certificate(verdict, rule=None, **witnesses):
        return ObstructionCertificate(
            verdict, [rule] if rule else [], witnesses, scan_log, bounds
        )

    tower_context = isinstance(module.context, TowerDescriptor)
    nontrivially_unramified = tower_context and module.context.f > 1

    if not module.gens and tower_context:
        # The free route: no relation at all, so no p-torsion relation.
        # V^A over itself qualifies.
        if not nontrivially_unramified:
            scan_log.append({"check": "context tower totally ramified or trivial"})
            return certificate("NoObstructionFound")
        scan_log.append({"check": "p-power-torsion of the generator 1",
                         "outcome": "p^k * 1 != 0 for all k (free module)"})
        return certificate(
            "NotRealizable", "R2",
            not_p_power_torsion_witness="1",
            tower=module.context.to_json(),
            reason="context tower is not totally ramified and "
            "the module is not p-power-torsion",
        )
    try:
        gb = module_groebner(module)
    except OutsideScope as ex:
        return certificate("OutsideScope", reason=str(ex))
    torsion = {}
    for n in range(1, module.N + 1):
        torsion[n] = is_vn_power_torsion(module, n, k_max, gb=gb)
        scan_log.append(torsion[n])

    # R1: p-torsion (automatic: p is in the ideal, the module is cyclic),
    # eventual division witness, and non-torsion in the same index.
    for n in range(1, module.N):
        if torsion[n]["torsion"]:
            continue
        div = eventual_division_module(module, n + 1, n, m_max, gb=gb)
        scan_log.append(div)
        if div["found"]:
            return certificate(
                "NotRealizable", "R1",
                p_power_torsion={"k": 1, "reason": "p lies in the ideal"},
                division_witness=div,
                not_vn_power_torsion=torsion[n],
            )

    if nontrivially_unramified:
        for n in range(1, module.N + 1):
            if not torsion[n]["torsion"]:
                return certificate("NotRealizable", "R2", tower=module.context.to_json(),
                                   not_vn_power_torsion=torsion[n])

    if module.finitely_presented and all(t["torsion"] for t in torsion.values()):
        return certificate("NotRealizable", "R3", torsion_exponents={
            str(n): torsion[n]["k"] for n in torsion})

    return certificate("NoObstructionFound", torsion_exponents={
        str(n): (torsion[n].get("k") if torsion[n]["torsion"] else
                 {"unresolved_up_to": k_max})
        for n in torsion
    })

"""Polynomial arithmetic over prime fields F_p.

Polynomials are tuples of ints in [0, p), constant coefficient first,
with no trailing zeros; the zero polynomial is the empty tuple.  One
distinct-degree loop, `distinct_degree_degrees`, answers irreducibility.
"""

from __future__ import annotations

import itertools


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def make(coeffs, p):
    return trim(c % p for c in coeffs)


def deg(f):
    return len(f) - 1


def sub(f, g, p):
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    return trim((a - b) % p for a, b in zip(f, g))


def mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def scalar_mul(c, f, p):
    c %= p
    return trim((c * a) % p for a in f)


def poly_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], p - 2, p)
    for k in range(len(f) - len(g), -1, -1):
        c = (f[k + len(g) - 1] * inv_lead) % p
        if c:
            q[k] = c
            for j, b in enumerate(g):
                f[k + j] = (f[k + j] - c * b) % p
    return trim(q), trim(f)


def gcd(f, g, p):
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    return monic(f, p)


def monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return scalar_mul(inv, f, p)


def pow_mod(f, n, mod, p):
    result = (1,)
    f = poly_divmod(f, mod, p)[1]
    while n > 0:
        if n & 1:
            result = poly_divmod(mul(result, f, p), mod, p)[1]
        f = poly_divmod(mul(f, f, p), mod, p)[1]
        n >>= 1
    return result


def derivative(f, p):
    return trim((i * c) % p for i, c in enumerate(f) if i >= 1)


def is_irreducible(f, p):
    """True when the distinct-degree loop finds one factor, of degree
    deg(f) >= 1 (see distinct_degree_degrees on f not squarefree)."""
    return deg(f) >= 1 and distinct_degree_degrees(monic(f, p), p) == [deg(f)]


def squarefree_decomposition(f, p):
    """Yun-style decomposition over F_p, handling p-th power parts.

    Returns a list of (squarefree factor, multiplicity) with the product of
    factor^multiplicity equal to monic(f).
    """
    f = monic(f, p)
    out = []
    if deg(f) <= 0:
        return out
    fprime = derivative(f, p)
    if not fprime:
        # f = g(x^p) = g_frob(x)^p with coefficients' p-th roots (identity on F_p)
        g = trim(f[i] for i in range(0, len(f), p))
        for base, mult in squarefree_decomposition(g, p):
            out.append((base, mult * p))
        return out
    c = gcd(f, fprime, p)
    w = poly_divmod(f, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(w, c, p)
        z = poly_divmod(w, y, p)[0]
        if deg(z) > 0:
            out.append((z, i))
        c = poly_divmod(c, y, p)[0]
        w = y
        i += 1
    if deg(c) > 0:
        for base, mult in squarefree_decomposition(c, p):
            out.append((base, mult * p))
    return out


def distinct_degree_degrees(f, p):
    """Factor degrees (with count) of a squarefree monic f over F_p.

    Returns a sorted list of degrees, one entry per irreducible factor.  On
    a monic f that is not squarefree the list is wrong but holds some
    d < deg(f): a factor of degree d held twice keeps what remains of degree
    >= 2d until step d, whose gcd finds it.
    """
    degrees = []
    x = (0, 1)
    h = x
    rest = f
    d = 0
    while deg(rest) > 0:
        d += 1
        if 2 * d > deg(rest):
            degrees.extend([deg(rest)])
            break
        h = pow_mod(h, p, rest, p)
        g = gcd(sub(h, x, p), rest, p)
        if deg(g) > 0:
            degrees.extend([d] * (deg(g) // d))
            rest = poly_divmod(rest, g, p)[0]
            h = poly_divmod(h, rest, p)[1]
    return sorted(degrees)


def factor_degrees(f, p):
    """Degrees of all irreducible factors of f mod p, with multiplicity."""
    degrees = []
    for base, mult in squarefree_decomposition(f, p):
        degrees.extend(distinct_degree_degrees(base, p) * mult)
    return sorted(degrees)


def smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over F_p."""
    for tail in itertools.product(range(p), repeat=n):
        f = trim(tuple(tail) + (1,))
        if is_irreducible(f, p):
            return f
    raise AssertionError("irreducible polynomials of every degree exist")


# ---------------------------------------------------------------------------
# Arithmetic in F_q = F_p[w]/(gbar), elements as int tuples of length deg(gbar)


def fq_reduce(vec, gbar, p):
    vec = make(vec, p)
    return vec if len(vec) < len(gbar) else poly_divmod(vec, gbar, p)[1]


def fq_mul(a, b, gbar, p):
    return fq_reduce(mul(a, b, p), gbar, p)


def fq_inv(a, gbar, p):
    if not a:
        raise ZeroDivisionError("inverse of zero in F_q")
    if deg(gbar) == 1:
        # F_q = F_p: a is the constant (a_0,), inverted by Fermat.
        return (pow(a[0], p - 2, p),)
    return pow_mod(a, p ** deg(gbar) - 2, gbar, p)

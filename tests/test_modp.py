"""Irreducibility and factor degrees over F_p against trial division."""

import itertools

import pytest

from fmcalc import modp

def monic_polys(p, n):
    for tail in itertools.product(range(p), repeat=n):
        yield tuple(tail) + (1,)


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(p, n):
    """Number of monic irreducibles of degree n over F_p."""
    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def sieve_irreducibles(p, n_max):
    """Monic irreducibles of degree <= n_max over F_p by trial division:
    a monic f is irreducible when no monic irreducible of degree at most
    deg(f) / 2 divides it."""
    found = {}
    for n in range(1, n_max + 1):
        small = [g for d in range(1, n // 2 + 1) for g in found[d]]
        found[n] = [f for f in monic_polys(p, n)
                    if all(modp.poly_divmod(f, g, p)[1] for g in small)]
    return found


@pytest.mark.parametrize("p, n_max", [(2, 8), (3, 5), (5, 3)])
def test_is_irreducible_accepts_gauss_count_of_monic_polys(p, n_max):
    sieve = sieve_irreducibles(p, n_max)
    for n in range(1, n_max + 1):
        accepted = [f for f in monic_polys(p, n) if modp.is_irreducible(f, p)]
        assert accepted == sieve[n]
        assert len(accepted) == gauss_count(p, n)
        # a unit multiple of f is irreducible exactly when f is
        for f in monic_polys(p, n):
            assert modp.is_irreducible(modp.scalar_mul(p - 1, f, p), p) == (f in accepted)
    assert not modp.is_irreducible((), p) and not modp.is_irreducible((1,), p)


def distinct_products(irreducibles, p, budget, start=0):
    """(product, sorted degrees) for every set of distinct irreducibles,
    taken from index `start` on, whose degrees sum to at most budget."""
    yield (1,), []
    for i in range(start, len(irreducibles)):
        f = irreducibles[i]
        if modp.deg(f) <= budget:
            for g, degrees in distinct_products(irreducibles, p, budget - modp.deg(f), i + 1):
                yield modp.mul(f, g, p), sorted(degrees + [modp.deg(f)])


@pytest.mark.parametrize("p, n_max", [(2, 8), (3, 6), (5, 4)])
def test_factor_degrees_of_distinct_irreducibles(p, n_max):
    irreducibles = [f for fs in sieve_irreducibles(p, n_max).values() for f in fs]
    checked = 0
    for product, degrees in distinct_products(irreducibles, p, n_max):
        assert modp.factor_degrees(product, p) == degrees
        checked += 1
    assert checked > 100


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="squarefree_decomposition recurses on c = h^p instead of "
                   "its p-th root h, then multiplies the multiplicities by p again")
def test_factor_degrees_of_a_square_times_a_linear():
    # x^3 + x^2 = x^2 (x + 1) over F_2
    assert modp.factor_degrees((0, 0, 1, 1), 2) == [1, 1, 1]

"""Logarithm coefficients of the universal typical formal module.

Computes the coefficients l_0, l_1, ..., l_N (of X^{q^n} in the logarithm)
as exact graded polynomials in v_1..v_N with fraction-field coefficients,
both by the defining recursion

    pi * l_n = sum_{i=0}^{n-1} l_i * (v_{n-i})^{q^i},   l_0 = 1,

and by the closed form summing over ordered compositions of n.
"""

from __future__ import annotations

import functools

from .gradedpoly import GradedPoly, PolyRing, monomial
from .numberring import ReadOnly, TowerDescriptor


class LogCoefficients(ReadOnly):
    """Entries l_0..l_N over one tower."""

    __slots__ = ("ring", "entries")

    @property
    def tower(self):
        return self.ring.tower

    def __getitem__(self, n):
        return self.entries[n]

    def to_json(self):
        N = len(self.entries) - 1
        return {
            "tower": self.tower.to_json(),
            "uniformizer": self.tower.uniformizer_name(),
            "entries": [f.to_json(N) for f in self.entries],
        }


@functools.lru_cache(maxsize=None)
def log_entries(tower, N):
    """(l_0, ..., l_N) by the defining recursion; the entries for N extend
    those cached for N - 1 by l_N."""
    ring = PolyRing(tower)
    if N == 0:
        return (ring.one(),)
    entries = log_entries(tower, N - 1)
    acc = ring.zero()
    for i in range(N):
        acc = acc + entries[i].shift(monomial({N - i: tower.q ** i}))
    return entries + (acc.scale(tower.uniformizer_inverse),)


def hazewinkel_log(tower, N):
    """Log coefficients l_0..l_N over `tower` by the defining recursion.
    The cached entries do not depend on the tower's label, so the table
    reports the tower it was asked for."""
    return LogCoefficients(PolyRing(tower), log_entries(tower, N))


def _compositions(h):
    """All ordered tuples of positive integers summing to h."""
    if h == 0:
        return [()]
    out = []
    for first in range(1, h + 1):
        for rest in _compositions(h - first):
            out.append((first,) + rest)
    return out


def log_closed_form(tower, N):
    """Log coefficients by the composition sum: l_h is the sum over ordered
    compositions (i_1, ..., i_r) of h of
    pi^{-r} * v_{i_1} * v_{i_2}^{q^{i_1}} * ... * v_{i_r}^{q^{i_1+...+i_{r-1}}}.
    Each exponent is a sum of distinct powers of q, whose base-q digits
    give back the composition, so every composition is its own term."""
    ring = PolyRing(tower)
    pi_inv = tower.uniformizer_inverse
    pi_inv_pow = [tower.one()]  # pi^{-r} at index r, one per composition length
    for _ in range(N):
        pi_inv_pow.append(pi_inv_pow[-1] * pi_inv)
    q = tower.q
    entries = [ring.one()]
    for h in range(1, N + 1):
        terms = {}
        for comp in _compositions(h):
            exps, partial = {}, 0
            for part in comp:
                exps[part] = exps.get(part, 0) + q ** partial
                partial += part
            terms[monomial(exps)] = pi_inv_pow[len(comp)]
        entries.append(GradedPoly(ring, terms))
    return LogCoefficients(ring, tuple(entries))


@functools.lru_cache(maxsize=None)
def trivial_tower(p):
    """The base tower with e = f = 1 (coefficients in Q, uniformizer p)."""
    return TowerDescriptor(p, [0, 1], [0, 1], "Q_%d" % p)

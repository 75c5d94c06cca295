"""Logarithm coefficients of the universal typical formal module.

Computes the coefficients l_0, l_1, ..., l_N (of X^{q^n} in the logarithm)
as exact graded polynomials in v_1..v_N with fraction-field coefficients,
both by the defining recursion

    pi * l_n = sum_{i=0}^{n-1} l_i * (v_{n-i})^{q^i},   l_0 = 1,

and by the closed form summing over ordered compositions of n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .gradedpoly import PolyRing
from .numberring import make_tower


@dataclass(frozen=True)
class LogCoefficients:
    """Entries l_0..l_N over one tower."""

    ring: PolyRing
    entries: tuple

    @property
    def tower(self):
        return self.ring.tower

    def __getitem__(self, n):
        return self.entries[n]

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return {
            "tower": self.tower.to_json(),
            "uniformizer": self.tower.uniformizer_name(),
            "entries": [f.to_json() for f in self.entries],
        }


@functools.lru_cache(maxsize=None)
def hazewinkel_log(tower, N):
    """Log coefficients by the defining recursion."""
    ring = PolyRing(tower, N=max(N, 1))
    pi_inv = tower.uniformizer().inverse()
    q = tower.q
    entries = [ring.one()]
    for n in range(1, N + 1):
        acc = ring.zero()
        for i in range(n):
            acc = acc + entries[i] * ring.gen(n - i) ** (q ** i)
        entries.append(acc.scale(pi_inv))
    return LogCoefficients(ring, tuple(entries))


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
    pi^{-r} * v_{i_1} * v_{i_2}^{q^{i_1}} * ... * v_{i_r}^{q^{i_1+...+i_{r-1}}}."""
    ring = PolyRing(tower, N=max(N, 1))
    pi_inv = tower.uniformizer().inverse()
    pi_inv_pow = [tower.one()]  # pi^{-r} at index r, one per composition length
    for _ in range(N):
        pi_inv_pow.append(pi_inv_pow[-1] * pi_inv)
    q = tower.q
    entries = [ring.one()]
    for h in range(1, N + 1):
        acc = ring.zero()
        for comp in _compositions(h):
            term = ring.one()
            partial = 0
            for part in comp:
                term = term * ring.gen(part) ** (q ** partial)
                partial += part
            acc = acc + term.scale(pi_inv_pow[len(comp)])
        entries.append(acc)
    return LogCoefficients(ring, tuple(entries))


@functools.lru_cache(maxsize=None)
def trivial_tower(p):
    """The base tower with e = f = 1 (coefficients in Q, uniformizer p)."""
    return make_tower(p, [0, 1], [0, 1], "Q_%d" % p)


def bp_star(p, N):
    """The q = pi = p specialization over the trivial tower."""
    return hazewinkel_log(trivial_tower(p), N)

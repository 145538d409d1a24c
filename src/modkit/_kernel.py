"""Integer-level kernels for exact cyclotomic arithmetic (pure-Python backend).

An element of Q(zeta_n) is carried as a pair ``(num, den)``: ``num`` is a
tuple of ints of length phi(n) holding the coordinates in the power basis
``1, zeta, ..., zeta^(phi(n)-1)`` of the n-th cyclotomic polynomial, and
``den`` is a positive int with gcd(den, content(num)) == 1.  Everything in
this module stays at that level; the user-facing wrapper is
:class:`modkit.cyclotomic.CycNum`.  Whole matrices run on integer coefficient
slices in :mod:`modkit.matrix`, which reads the power vectors and the largest
reduction row entry kept here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

BACKEND = "python"


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    # ascending coefficients, b monic; remainder is asserted to vanish
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + db]
        out[i] = c
        if c:
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    assert all(v == 0 for v in a[:db]), "inexact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    p = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            p = _poly_div_exact(p, list(cyclotomic_int_coeffs(d)))
    return tuple(p)


class ConductorTable:
    """Reduction data for one conductor: x^k mod Phi_n for phi(n) <= k."""

    __slots__ = ("n", "phi", "poly", "rows", "max_row")

    def __init__(self, n: int):
        poly = cyclotomic_int_coeffs(n)
        phi = len(poly) - 1
        upto = max(2 * phi - 2, n - 1)
        rows: list[tuple[int, ...]] = []
        if upto >= phi:
            base = tuple(-c for c in poly[:phi])
            cur = base
            rows.append(base)
            for _ in range(phi + 1, upto + 1):
                top = cur[-1]
                shifted = (0,) + cur[:-1]
                cur = tuple(s + top * b for s, b in zip(shifted, base))
                rows.append(cur)
        self.n = n
        self.phi = phi
        self.poly = poly
        self.rows = tuple(rows)
        self.max_row = max((max(abs(v) for v in r) for r in rows), default=1)


@lru_cache(maxsize=None)
def table(n: int) -> ConductorTable:
    return ConductorTable(n)


def power_vector(tab: ConductorTable, e: int) -> tuple[int, ...]:
    """x^e mod Phi_n as an integer coordinate vector (0 <= e < n required)."""
    phi = tab.phi
    if e < phi:
        v = [0] * phi
        v[e] = 1
        return tuple(v)
    return tab.rows[e - phi]


def normalize(num, den: int):
    g = 0
    for v in num:
        if v:
            g = gcd(g, v)
    if g == 0:
        return (0,) * len(num), 1
    if den < 0:
        den = -den
        num = [-v for v in num]
    g = gcd(g, den)
    if g > 1:
        return tuple(v // g for v in num), den // g
    return tuple(num), den


def add(num_a, den_a: int, num_b, den_b: int):
    if den_a == den_b:
        return normalize([x + y for x, y in zip(num_a, num_b)], den_a)
    g = gcd(den_a, den_b)
    fa = den_b // g
    fb = den_a // g
    return normalize([x * fa + y * fb for x, y in zip(num_a, num_b)], den_a * fa)


def mul(num_a, den_a: int, num_b, den_b: int, tab: ConductorTable):
    phi = tab.phi
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(num_a):
        if ai:
            for j, bj in enumerate(num_b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    rows = tab.rows
    for k in range(phi, 2 * phi - 1):
        ck = conv[k]
        if ck:
            row = rows[k - phi]
            for i in range(phi):
                ri = row[i]
                if ri:
                    out[i] += ck * ri
    return normalize(out, den_a * den_b)


def scale(num, den: int, p: int, q: int):
    """Multiply by the rational p/q."""
    return normalize([p * v for v in num], den * q)

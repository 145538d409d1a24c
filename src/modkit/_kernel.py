"""Integer-level kernels for exact cyclotomic arithmetic (pure-Python backend).

An element of Q(zeta_n) is carried as a pair ``(num, den)``: ``num`` is a
tuple of ints of length phi(n) holding the coordinates in the power basis
``1, zeta, ..., zeta^(phi(n)-1)`` of the n-th cyclotomic polynomial, and
``den`` is a positive int with gcd(den, content(num)) == 1.  Everything in
this module stays at that level; the user-facing wrapper is
:class:`modkit.cyclotomic.CycNum`.

Only the integer coefficients of Phi_n are kept.  Three functions move
coordinates:

- :func:`reduce` takes a polynomial modulo Phi_n: it wraps modulo x^n - 1
  (x^(n/2) + 1 for an even n), then divides by the nonzero coefficients of
  Phi_n.  It reduces the product of two numbers (:func:`mul`) and, along the
  leading axis of an integer array, the coefficient slices of the matrices
  of :mod:`modkit.matrix`, which also read :func:`max_row` here.
- :func:`substitute` maps zeta_n^i -> zeta_m^(i e), then reduces: lifts to a
  larger conductor, Galois conjugates and roots of unity.
- :func:`descend` goes the other way, to a divisor m of n, one prime of
  n / m at a time, and says when the value is not in Q(zeta_m).  It finds
  the smallest field of a value and the conductor of a normalizer.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, Optional

import numpy as np

BACKEND = "python"
INT64_LIMIT = 1 << 63   # int64 holds every v with |v| < 2^63


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, in increasing order."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(out + [n] if n > 1 else out)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def has_order(x: int, k: int, m: int) -> bool:
    """Whether x has multiplicative order exactly k modulo m."""
    one = 1 % m
    return pow(x, k, m) == one and all(pow(x, k // q, m) != one for q in prime_divisors(k))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    for p in prime_divisors(n):
        n -= n // p
    return n


def mobius(q: int) -> int:
    primes = prime_divisors(q)
    return 0 if any(q % (p * p) == 0 for p in primes) else (-1) ** len(primes)


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial: the
    product of (x^d - 1)^mu(n/d) over the divisors d of n.  Each factor with
    mu = 1 multiplies first, then each with mu = -1 divides exactly."""
    p, dividers = [1], []
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            p = [a - b for a, b in zip([0] * d + p, p + [0] * d)]
        elif mu == -1:
            dividers.append(d)
    for d in dividers:   # p = q (x^d - 1), so q[k] = q[k - d] - p[k]
        q: list[int] = []
        for k in range(len(p) - d):
            q.append((q[k - d] if k >= d else 0) - p[k])
        p = q
    return tuple(p)


@lru_cache(maxsize=None)
def _reduction(n: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """phi(n); w and s with x^w = s modulo Phi_n, that is w = n / 2, s = -1
    for an even n and w = n, s = 1 otherwise; and the nonzero coefficients
    ``(j, c)`` of Phi_n below its leading 1."""
    poly = cyclotomic_int_coeffs(n)
    w, s = (n // 2, -1) if n % 2 == 0 else (n, 1)
    return len(poly) - 1, w, s, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def reduce(c, n: int):
    """The phi(n) coefficients of the remainder modulo Phi_n of the polynomial
    whose coefficient of x^k is ``c[k]``.  ``c`` is a list of at least phi(n)
    ints, or an integer array whose leading axis indexes the powers and whose
    dtype holds every value reached; it is overwritten, and the result is of
    the same kind.  The powers from w on are first wrapped by x^w = s (a
    wrap modulo x^n - 1, or modulo x^(n/2) + 1 when n is even); then Phi_n
    divides from the top down, one step per power from w - 1 to phi(n)
    that is still nonzero."""
    phi, w, s, terms = _reduction(n)
    is_array = isinstance(c, np.ndarray)
    for k in range(len(c) - 1, w - 1, -1):   # from the top, so x^(2w) wraps twice
        c[k - w] += s * c[k]
    for k in range(min(len(c), w) - 1, phi - 1, -1):
        top = c[k]
        if top.any() if is_array else top:
            for j, p in terms:
                c[k - phi + j] -= p * top
    return c[:phi].copy() if is_array else c[:phi]


def substitute(num, n: int, m: int, e: int):
    """The coordinates at conductor m of the image of ``num`` (coordinates at
    conductor n) under zeta_n^i -> zeta_m^(i e), for a lift (e = m / n) or a
    Galois map (m = n, e a unit): each coordinate is scattered to the power
    i e mod m, then the whole is reduced modulo Phi_m.  ``num`` is a sequence
    of ints (one number) or an integer array of slices along its leading axis
    (a matrix), whose dtype must hold the result.  On an array the scatter is
    one indexed assignment, already wrapped by x^w = s (see :func:`reduce`):
    the targets i e for i < phi(n) are distinct even modulo w, since two of
    them w apart would need i - i' = n / 2 (mod n), with both below
    phi(n) <= n / 2."""
    if n * e % m:
        raise ValueError(f"zeta_{n} -> zeta_{m}^{e} does not respect zeta_{n}^{n} = 1")
    if not isinstance(num, np.ndarray):
        out = [0] * m
        for i in range(len(num)):
            out[i * e % m] = num[i]
        return reduce(out, m)
    _, w, s, _ = _reduction(m)
    t = np.arange(len(num)) * e % m
    out = np.zeros((w,) + num.shape[1:], dtype=num.dtype)
    out[t % w] = num
    out[t[t >= w] - w] *= s
    return reduce(out, m)


def descend(num, n: int, m: int):
    """The coordinates at conductor m | n of the value whose coordinates at
    conductor n are ``num``, as a tuple, or None when the value is not in
    Q(zeta_m).  One prime p of n / m goes at a time, with k = n / p.  When
    p | k, Phi_n(x) = Phi_k(x^p): only the multiples of p may be nonzero, and
    num[::p] is the value at k.  Otherwise Q(zeta_n) = Q(zeta_k) (x) Q(zeta_p)
    with zeta_n = zeta_k^u zeta_p^v, u p + v k = 1: coordinate i goes to
    (i u mod k, i v mod p), reduced modulo Phi_k and then Phi_p, and only the
    zeta_p^0 column may be left."""
    if m < 1 or n % m:
        raise ValueError(f"conductor {m} does not divide {n}")
    num = tuple(num)
    while n != m:
        p = prime_divisors(n // m)[0]
        k = n // p
        if k % p == 0:
            if any(v for i, v in enumerate(num) if i % p):
                return None
            num = num[::p]
        else:
            u, v = pow(p, -1, k), pow(k, -1, p)
            grid = np.zeros((k, p), dtype=object)
            for i, c in enumerate(num):
                grid[i * u % k, i * v % p] = c
            out = reduce(reduce(grid, k).T, p)
            if out[1:].any():
                return None
            num = tuple(out[0].tolist())
        n = k
    return num


def powers(n: int) -> Iterator[list[int]]:
    """x^k mod Phi_n for k = 0, 1, ..., n - 1, each from the one before by
    one step of the division in :func:`reduce`; one vector is held at a time."""
    phi, _, _, terms = _reduction(n)
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        yield cur
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j, p in terms:
                cur[j] -= p * top


@lru_cache(maxsize=None)
def max_row(n: int) -> int:
    """The largest magnitude of a coordinate of x^k mod Phi_n over
    phi(n) <= k < n (1 when n = 1): how far the reduction can grow a
    coefficient.

    With r the product of the primes of n and s = n / r, Phi_n(x) =
    Phi_r(x^s), so x^(a s + b) mod Phi_n, for b < s, has the coordinates of
    y^a mod Phi_r at the powers i s + b: n and r have the same rows.  Those
    of r are walked from x^phi(r) as one numpy vector, shifted up a power
    and reduced by one multiple of Phi_r per step, in int64 while the next
    step cannot reach 2^63 and in Python integers past that."""
    r = 1
    for p in prime_divisors(n):
        r *= p
    phi, _, _, terms = _reduction(r)
    low = np.zeros(phi, dtype=np.int64)   # Phi_r below its leading 1
    for j, c in terms:
        low[j] = c
    grow = 1 + max(abs(c) for _, c in terms)   # |next row| <= grow * |row|
    cur = -low   # x^phi(r)
    best = int(np.abs(cur).max())
    for _ in range(phi + 1, r):
        if cur.dtype != object and best * grow >= INT64_LIMIT:
            cur, low = cur.astype(object), low.astype(object)
        top = cur[-1]
        cur[1:] = cur[:-1].copy()
        cur[0] = 0
        if top:
            cur -= top * low
        best = max(best, int(np.abs(cur).max()))
    return best


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


def ring_mul(a, b, n: int, mod: Optional[int] = None) -> list[int]:
    """a * b modulo Phi_n, a and b coordinate lists: their convolution, zero
    terms skipped, then :func:`reduce`; taken modulo ``mod`` when given."""
    conv = [0] * (len(a) + len(b) - 1)
    terms_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms_b:
                conv[i + j] += ai * bj
    out = reduce(conv, n)
    return out if mod is None else [v % mod for v in out]


def ring_pow(a, e: int, n: int, mod: Optional[int] = None) -> list[int]:
    """a^e modulo Phi_n (e >= 0) by square and multiply; modulo ``mod`` when given."""
    out = [1] + [0] * (len(a) - 1)
    for bit in bin(e)[2:]:
        out = ring_mul(out, out, n, mod)
        if bit == "1":
            out = ring_mul(out, a, n, mod)
    return out


def mul(num_a, den_a: int, num_b, den_b: int, n: int):
    return normalize(ring_mul(num_a, num_b, n), den_a * den_b)


def scale(num, den: int, p: int, q: int):
    """Multiply by the rational p/q."""
    return normalize([p * v for v in num], den * q)

"""Reference square root in Q(zeta_n) by factoring over Q, with sympy.

A root y of x is a root of the norm-style polynomial prod_j (t^2 -
sigma_j(x)), whose coefficients are rational; an irreducible factor of it
over Q gives y as -a(x) / b(x) from its even and odd parts.  When the roots
+-y are conjugate the factor is even and b vanishes, so x is scaled by the
square of a unit w (1 + zeta, then 1 + zeta + zeta^2) and the root of x w^2
is divided by w.  This is how :func:`modkit.cyclotomic.sqrt_in_field`
searched before the exact p-adic search, and the tests keep it as an
independent second route: both must find a root at the same conductors,
equal up to sign, and the sign rule of :func:`modkit.cyclotomic._canonical_root`
must pick the root this search returns.
"""

import math
from fractions import Fraction
from typing import Optional

import sympy

from modkit.cyclotomic import CycNum, root_of_unity


def factor_root(x: CycNum, retry: bool = True) -> Optional[CycNum]:
    """A root of x in Q(zeta_n), n = x.conductor, with the sign the factor
    search gives, or None when the search finds none."""
    n = x.conductor
    one = CycNum.from_rational(1, n)
    poly: list[CycNum] = [one]
    for j in range(1, n + 1):
        if math.gcd(j, n) != 1:
            continue
        c = x.galois(j)
        nxt = [CycNum.from_rational(0, n) for _ in range(len(poly) + 2)]
        for i, p in enumerate(poly):
            nxt[i + 2] = nxt[i + 2] + p
            nxt[i] = nxt[i] - p * c
        poly = nxt
    try:
        rat_coeffs = [c.as_rational() for c in poly]
    except ValueError:
        return None
    den = math.lcm(*(c.denominator for c in rat_coeffs))
    ints = [int(c * den) for c in rat_coeffs]
    t = sympy.Symbol("t")
    _, factors = sympy.Poly(list(reversed(ints)), t).factor_list()
    for g, _mult in sorted(factors, key=lambda fm: fm[0].degree()):
        gc = [Fraction(int(v)) for v in reversed(g.all_coeffs())]
        a = CycNum.from_rational(0, n)
        b = CycNum.from_rational(0, n)
        xpow = one
        for i in range(0, len(gc), 2):
            if gc[i]:
                a = a + xpow * gc[i]
            if i + 1 < len(gc) and gc[i + 1]:
                b = b + xpow * gc[i + 1]
            xpow = xpow * x
        if not b.is_zero():
            y = -(a / b)
            if y * y == x:
                return y
    if retry:
        for w in (one + root_of_unity(n), one + root_of_unity(n) + root_of_unity(n, 2)):
            if w.is_zero():
                continue
            y2 = factor_root(x * w * w, retry=False)
            if y2 is not None:
                y = y2 / w
                if y * y == x:
                    return y
    return None


def searched_root(x: CycNum) -> Optional[CycNum]:
    """The factor search's own root of x at the first conductor of (n, 2n,
    4n) where it finds one, before the sign rule picks between +-y."""
    n = x.conductor
    for m in dict.fromkeys((n, 2 * n, 4 * n)):
        y = factor_root(x.lift(m))
        if y is not None:
            return y
    return None

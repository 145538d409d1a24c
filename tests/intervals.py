"""Interval reference for the sign questions :mod:`modkit.cyclotomic` decides
exactly.

Each Galois embedding of a cyclotomic number is enclosed in an mpmath
interval; a sign is known only when the enclosure misses zero.  This is how
total positivity was decided before the exact power-sum test, and the tests
keep it as an independent second route: the two must agree wherever the
intervals decide.
"""

import math
from typing import NamedTuple

from modkit.cyclotomic import CycNum


class PrecisionError(ArithmeticError):
    """An interval computation could not separate a value from zero."""


def _iv_context(precision_bits: int):
    from mpmath.ctx_iv import MPIntervalContext

    if precision_bits < 16:
        raise ValueError(f"precision_bits must be at least 16, got {precision_bits}")
    ctx = MPIntervalContext()
    ctx.prec = precision_bits
    return ctx


def _iv_embedding(a: CycNum, j: int, ctx):
    """Rigorous enclosure of the image of a under zeta -> exp(2*pi*i*j/n)."""
    n = a.conductor
    re = ctx.mpf(0)
    im = ctx.mpf(0)
    two_pi = 2 * ctx.pi
    for i, v in enumerate(a.num):
        if v:
            angle = two_pi * ((i * j) % n) / n
            re += v * ctx.cos(angle)
            im += v * ctx.sin(angle)
    return re / a.den, im / a.den


class ComplexEnclosure(NamedTuple):
    re: object  # interval
    im: object  # interval

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return (self.re.a <= z.real <= self.re.b) and (self.im.a <= z.imag <= self.im.b)


def embed_complex(a: CycNum, precision_bits: int = 256) -> ComplexEnclosure:
    """Rigorous complex enclosure of a under zeta_n -> exp(2*pi*i/n)."""
    ctx = _iv_context(precision_bits)
    re, im = _iv_embedding(a, 1, ctx)
    return ComplexEnclosure(re, im)


def is_totally_positive(a: CycNum, precision_bits: int = 256) -> bool:
    """True iff every Galois embedding of a is provably > 0.

    Requires a to lie in the real subfield (conj(a) == a).  Raises
    :class:`PrecisionError` when some embedding's enclosure straddles zero.
    """
    if a.conj() != a:
        raise ValueError("total positivity is only defined in the real subfield")
    if a.is_zero():
        return False
    if a.is_rational():
        return a.as_rational() > 0
    ctx = _iv_context(precision_bits)
    n = a.conductor
    for j in range(1, n + 1):
        if math.gcd(j, n) != 1 or 2 * j > n:
            continue  # conjugate embeddings agree on real values
        re, _ = _iv_embedding(a, j, ctx)
        if re.a > 0:
            continue
        if re.b < 0:
            return False
        raise PrecisionError(
            f"embedding zeta -> zeta^{j} of {a} straddles zero at {precision_bits} bits")
    return True

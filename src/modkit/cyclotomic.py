"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`CycNum` stores coordinates in the power basis ``1, z, ...,
z^(phi(N)-1)`` of the N-th cyclotomic polynomial, as an integer vector over a
common positive denominator.  That representation is canonical, so equality
is coefficient-vector equality (after lifting both operands to the lcm of
their conductors).  All field operations are exact; floating point enters
only through the rigorous interval routines :func:`embed_complex` and
:func:`is_totally_positive`, which are never used to decide exact identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .kernel import impl as _K

Rat = Union[int, Fraction]


class PrecisionError(ArithmeticError):
    """An interval computation could not separate a value from zero."""


class RootOfUnityWitness(NamedTuple):
    order: int       # multiplicative order: value**order == 1 exactly
    exponent: int    # value == sign * zeta_conductor**exponent
    sign: int        # +1 or -1


def _check_conductor(n: int) -> None:
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")


class CycNum:
    """An element of Q(zeta_N), immutable and hashable."""

    __slots__ = ("conductor", "num", "den", "_min")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int, _trusted: bool = False):
        if not _trusted:
            _check_conductor(conductor)
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            num, den = _K.normalize(list(num), den)
            if len(num) != _K.table(conductor).phi:
                raise ValueError(f"need phi({conductor}) = {_K.table(conductor).phi} coordinates")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_min", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # ---------- construction ----------

    @staticmethod
    def _make(n: int, num: tuple[int, ...], den: int) -> "CycNum":
        self = CycNum.__new__(CycNum)
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_min", None)
        return self

    @classmethod
    def from_rational(cls, q: Rat, conductor: int = 1) -> "CycNum":
        _check_conductor(conductor)
        q = Fraction(q)
        phi = _K.table(conductor).phi
        num = [0] * phi
        num[0] = q.numerator
        return cls._make(conductor, *_K.normalize(num, q.denominator))

    @classmethod
    def from_coeffs(cls, conductor: int, coeffs) -> "CycNum":
        _check_conductor(conductor)
        phi = _K.table(conductor).phi
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != phi:
            raise ValueError(f"need phi({conductor}) = {phi} coordinates, got {len(fracs)}")
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [int(f * den) for f in fracs]
        return cls._make(conductor, *_K.normalize(num, den))

    # ---------- basic queries ----------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(v == 0 for v in self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    # ---------- conductor handling ----------

    def lift(self, m: int) -> "CycNum":
        """The same value expressed in Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n or m < 1:
            raise ValueError(f"cannot lift conductor {n} to {m}")
        tab = _K.table(m)
        step = m // n
        out = [0] * tab.phi
        for i, v in enumerate(self.num):
            if v:
                for k, r in enumerate(_K.power_vector(tab, i * step)):
                    if r:
                        out[k] += v * r
        return CycNum._make(m, *_K.normalize(out, self.den))

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        n = math.lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n), n

    def minimal(self) -> "CycNum":
        """Equivalent value at the smallest conductor dividing the current one."""
        m = self._min
        if m is None:
            for d in _K.divisors(self.conductor):
                m = self._project(d)
                if m is not None:
                    break
            object.__setattr__(self, "_min", m)
        return m

    def _project(self, m: int) -> Optional["CycNum"]:
        n = self.conductor
        if m == n:
            return self
        tab_n, tab_m = _K.table(n), _K.table(m)
        step = n // m
        cols = [_K.power_vector(tab_n, i * step) for i in range(tab_m.phi)]
        # solve sum_i x_i cols[i] = self over Q; None when inconsistent
        rows = tab_n.phi
        aug = [[Fraction(cols[c][r]) for c in range(tab_m.phi)] + [Fraction(self.num[r], self.den)]
               for r in range(rows)]
        x: list[Optional[Fraction]] = [None] * tab_m.phi
        pr = 0
        for pc in range(tab_m.phi):
            piv = next((r for r in range(pr, rows) if aug[r][pc]), None)
            if piv is None:
                continue
            aug[pr], aug[piv] = aug[piv], aug[pr]
            inv = 1 / aug[pr][pc]
            aug[pr] = [v * inv for v in aug[pr]]
            for r in range(rows):
                if r != pr and aug[r][pc]:
                    f = aug[r][pc]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[pr])]
            pr += 1
        # rank == phi(m) always (the columns are linearly independent)
        sol = [Fraction(0)] * tab_m.phi
        pr = 0
        for pc in range(tab_m.phi):
            if pr < rows and aug[pr][pc] == 1 and all(aug[pr][c] == 0 for c in range(pc)):
                sol[pc] = aug[pr][-1]
                pr += 1
        for r in range(pr, rows):
            if aug[r][-1] != 0:
                return None
        cand = CycNum.from_coeffs(m, sol)
        return cand if cand.lift(n) == self else None

    # ---------- arithmetic ----------

    @staticmethod
    def _coerce(other) -> Optional["CycNum"]:
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, n = self._pair(o)
        return CycNum._make(n, *_K.add(a.num, a.den, b.num, b.den))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.conductor, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            return CycNum._make(self.conductor, *_K.scale(self.num, self.den, o.num[0], o.den))
        if self.conductor == 1:
            return CycNum._make(o.conductor, *_K.scale(o.num, o.den, self.num[0], self.den))
        a, b, n = self._pair(o)
        return CycNum._make(n, *_K.mul(a.num, a.den, b.num, b.den, _K.table(n)))

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if self.is_rational():
            q = 1 / self.as_rational()
            return CycNum.from_rational(q, self.conductor)
        tab = _K.table(self.conductor)
        a = [Fraction(v, self.den) for v in self.num]
        u = _poly_inverse_mod(a, [Fraction(c) for c in tab.poly])
        u += [Fraction(0)] * (tab.phi - len(u))
        return CycNum.from_coeffs(self.conductor, u[:tab.phi])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inv()
            e = -e
        out = CycNum.from_rational(1, base.conductor)
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # ---------- Galois action ----------

    def galois(self, j: int) -> "CycNum":
        n = self.conductor
        if math.gcd(j, n) != 1:
            raise ValueError(f"galois exponent {j} is not coprime to the conductor {n}")
        j %= n
        tab = _K.table(n)
        out = [0] * tab.phi
        for i, v in enumerate(self.num):
            if v:
                for k, r in enumerate(_K.power_vector(tab, (i * j) % n)):
                    if r:
                        out[k] += v * r
        return CycNum._make(n, *_K.normalize(out, self.den))

    def conj(self) -> "CycNum":
        return self.galois(-1 % self.conductor) if self.conductor > 1 else self

    # ---------- comparison ----------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.conductor == o.conductor:
            return self.num == o.num and self.den == o.den
        a, b, _ = self._pair(o)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        m = self.minimal()
        return hash((m.conductor, m.num, m.den))

    # ---------- display ----------

    def __str__(self):
        if self.is_zero():
            return "0"
        var = f"z{self.conductor}"
        terms = []
        for i, v in enumerate(self.num):
            if not v:
                continue
            if i == 0:
                terms.append(f"{v}")
            else:
                mon = var if i == 1 else f"{var}^{i}"
                if v == 1:
                    terms.append(mon)
                elif v == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{v}*{mon}")
        s = " + ".join(terms).replace("+ -", "- ")
        if self.den != 1:
            s = f"({s})/{self.den}"
        return s

    def __repr__(self):
        return str(self)


def _poly_inverse_mod(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """u with u*a == 1 modulo the (irreducible) polynomial ``mod``."""

    def deg(p):
        d = len(p) - 1
        while d > 0 and p[d] == 0:
            d -= 1
        return d

    def trim(p):
        return p[:deg(p) + 1]

    def divmod_(x, y):
        x = list(x)
        dy = deg(y)
        lead = y[dy]
        q = [Fraction(0)] * max(deg(x) - dy + 1, 1)
        for i in range(deg(x) - dy, -1, -1):
            c = x[i + dy] / lead
            q[i] = c
            if c:
                for j in range(dy + 1):
                    x[i + j] -= c * y[j]
        return q, trim(x)

    def mul_(x, y):
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        out[i + j] += xi * yj
        return out

    r0, r1 = trim(mod), trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = mul_(q, s1)
        ns = [Fraction(0)] * max(len(s0), len(qs))
        for i, v in enumerate(s0):
            ns[i] += v
        for i, v in enumerate(qs):
            ns[i] -= v
        s0, s1 = s1, trim(ns)
    c = r1[0]
    if c == 0:
        raise ZeroDivisionError("inverse of zero in a cyclotomic field")
    return [v / c for v in s1]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def root_of_unity(n: int, k: int = 1) -> CycNum:
    """The canonical representation of zeta_n**k in Q(zeta_n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    tab = _K.table(n)
    return CycNum._make(n, _K.power_vector(tab, k % n), 1)


zeta = root_of_unity


def inv(a: CycNum) -> CycNum:
    return a.inv()


def conj(a: CycNum) -> CycNum:
    return a.conj()


def galois_apply(a: CycNum, j: int) -> CycNum:
    return a.galois(j)


def is_root_of_unity(a: CycNum) -> Optional[RootOfUnityWitness]:
    """Witness (order, exponent, sign) when a == sign * zeta**exponent.

    Complete for cyclotomic ambient fields: every root of unity in Q(zeta_n)
    is of the form +-zeta_n**k, so plain enumeration decides membership.
    """
    if a.den != 1:
        return None
    n = a.conductor
    tab = _K.table(n)
    for k in range(n):
        cand = _K.power_vector(tab, k)
        if a.num == cand:
            order = n // math.gcd(n, k) if k else 1
            return RootOfUnityWitness(order, k, 1)
        if all(x == -y for x, y in zip(a.num, cand)):
            order = n // math.gcd(n, k) if k else 1
            return RootOfUnityWitness(math.lcm(2, order), k, -1)
    return None


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


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    pn, pd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


def _sqrt_at_conductor(x: CycNum, retry: bool = True) -> Optional[CycNum]:
    import sympy

    n = x.conductor
    one = CycNum.from_rational(1, n)
    # norm-style polynomial prod_j (t^2 - sigma_j(x)); its coefficients are rational
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
        # split the conjugate-root degeneracy by a unit multiplier
        for w in (one + root_of_unity(n), one + root_of_unity(n) + root_of_unity(n, 2)):
            if w.is_zero():
                continue
            y2 = _sqrt_at_conductor(x * w * w, retry=False)
            if y2 is not None:
                y = y2 / w
                if y * y == x:
                    return y
    return None


def sqrt_in_field(x: CycNum) -> Optional[CycNum]:
    """An exact y with y*y == x, searched in Q(zeta_n) up to Q(zeta_4n).

    Conductor 4n covers the square root of every root of unity of Q(zeta_n).
    Returns None when no such element exists there (the result, when present,
    is verified by squaring before it is returned; either sign may come back).
    """
    if x.is_zero():
        return x
    if x.is_rational():
        r = _rational_sqrt(x.as_rational())
        if r is not None:
            return CycNum.from_rational(r)
    n = x.conductor
    for m in dict.fromkeys((n, 2 * n, 4 * n)):
        y = _sqrt_at_conductor(x.lift(m))
        if y is not None:
            return y
    return None

"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`CycNum` stores coordinates in the power basis ``1, z, ...,
z^(phi(N)-1)`` of the N-th cyclotomic polynomial, as an integer vector over a
common positive denominator.  That representation is canonical, so equality
is coefficient-vector equality (after lifting both operands to the lcm of
their conductors).  All field operations are exact, and so are the sign
questions: :func:`is_totally_positive` and the sign rule of the square roots
read integer traces (Ramanujan sums) through Newton's identities.  The module
uses no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Union

from .kernel import impl as _K

Rat = Union[int, Fraction]


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

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        _check_conductor(conductor)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num, den = _K.normalize(list(num), den)
        if len(num) != _K.euler_phi(conductor):
            raise ValueError(f"need phi({conductor}) = {_K.euler_phi(conductor)} coordinates")
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
        num = [0] * _K.euler_phi(conductor)
        num[0] = q.numerator
        return cls._make(conductor, *_K.normalize(num, q.denominator))

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

    # ---------- conductor handling ----------

    def lift(self, m: int) -> "CycNum":
        """The same value expressed in Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n or m < 1:
            raise ValueError(f"cannot lift conductor {n} to {m}")
        return CycNum._make(m, *_K.normalize(_K.substitute(self.num, n, m, m // n), self.den))

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        n = math.lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n), n

    def descend(self, m: int) -> Optional["CycNum"]:
        """The same value expressed in Q(zeta_m), m | conductor, or None when
        it is not in that field."""
        num = _K.descend(self.num, self.conductor, m)
        return None if num is None else CycNum._make(m, num, self.den)

    def minimal(self) -> "CycNum":
        """Equivalent value at the smallest conductor dividing the current one:
        the conductors holding a value are closed under gcd, so each prime is
        removed while the value stays in the smaller field."""
        m = self._min
        if m is None:
            m = self
            for p in _K.prime_divisors(self.conductor):
                while m.conductor % p == 0 and (down := m.descend(m.conductor // p)) is not None:
                    m = down
            object.__setattr__(self, "_min", m)
        return m

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
        return CycNum._make(n, *_K.mul(a.num, a.den, b.num, b.den, n))

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if self.is_rational():
            q = 1 / self.as_rational()
            return CycNum.from_rational(q, self.conductor)
        # a^-1 = conj(a) / (a conj(a)) when a conj(a) is rational, as it is for
        # roots of unity, twists and Gauss sums
        bar = self.conj()
        sqnorm = self * bar
        if sqnorm.is_rational():
            return bar * (1 / sqnorm.as_rational())
        # otherwise a^-1 = adj / N(a) with adj = prod_{j != 1} sigma_j(a); the norm
        # N(a) = a * adj is fixed by every sigma_j, so rational, and nonzero for a != 0
        n = self.conductor
        adj = math.prod(self.galois(j) for j in range(2, n) if math.gcd(j, n) == 1)
        return adj * (1 / (self * adj).as_rational())

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
        if e < 0:
            return self.inv() ** -e
        n = self.conductor
        return CycNum._make(n, *_K.normalize(_K.ring_pow(self.num, e, n), self.den ** e))

    # ---------- Galois action ----------

    def galois(self, j: int) -> "CycNum":
        n = self.conductor
        if math.gcd(j, n) != 1:
            raise ValueError(f"galois exponent {j} is not coprime to the conductor {n}")
        return CycNum._make(n, *_K.normalize(_K.substitute(self.num, n, n, j % n), self.den))

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
        # a rational value hashes as the Fraction it equals
        m = self.minimal()
        if m.conductor == 1:
            return hash(Fraction(m.num[0], m.den))
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


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def root_of_unity(n: int, k: int = 1) -> CycNum:
    """The canonical representation of zeta_n**k in Q(zeta_n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    c = [0] * n
    c[k % n] = 1
    return CycNum._make(n, tuple(_K.reduce(c, n)), 1)


zeta = root_of_unity


def is_root_of_unity(a: CycNum) -> Optional[RootOfUnityWitness]:
    """Witness (order, exponent, sign) when a == sign * zeta**exponent.

    Complete for cyclotomic ambient fields: every root of unity in Q(zeta_n)
    is of the form +-zeta_n**k, so plain enumeration decides membership.
    """
    if a.den != 1:
        return None
    n = a.conductor
    pos, neg = list(a.num), [-v for v in a.num]
    for k, power in enumerate(_K.powers(n)):   # zeta^k, one at a time
        if power == pos:
            return RootOfUnityWitness(n // math.gcd(n, k), k, 1)
        if power == neg:
            return RootOfUnityWitness(math.lcm(2, n // math.gcd(n, k)), k, -1)
    return None


def root_of_unity_sqrt(a: CycNum) -> Optional[CycNum]:
    """A square root of the root of unity a, or None when a is not one.

    With N = a.conductor, a == zeta_N**k has the root zeta_2N**k and
    a == -zeta_N**k = zeta_2N**(N + 2k) the root zeta_4N**(N + 2k).
    """
    wit = is_root_of_unity(a)
    if wit is None:
        return None
    n = a.conductor
    if wit.sign == 1:
        return root_of_unity(2 * n, wit.exponent)
    return root_of_unity(4 * n, n + 2 * wit.exponent)


# ---------------------------------------------------------------------------
# traces and signs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _power_traces(n: int) -> tuple[int, ...]:
    """Tr(zeta_n**i) down to Q for i < phi(n): the Ramanujan sums
    mu(q) phi(n) / phi(q) with q = n / gcd(i, n)."""
    phi = _K.euler_phi(n)
    return tuple(_K.mobius(q) * (phi // _K.euler_phi(q))
                 for q in (n // math.gcd(i, n) for i in range(phi)))


def _power_sums(y: CycNum, step: int = 1) -> Iterator[int]:
    """The power sums p_k = Tr(x^k) down to Q of the integral x = den * y,
    for k = 1, 1 + step, 1 + 2 step, ...: integers, with the signs of the
    Tr(y^k).  Each is read off x^k by the Ramanujan sums."""
    n = y.conductor
    traces = _power_traces(n)
    x = CycNum._make(n, y.num, 1)
    power, mult = x, x ** step
    while True:
        yield sum(v * r for v, r in zip(power.num, traces))
        power = power * mult


def is_totally_positive(a: CycNum) -> bool:
    """True iff every Galois conjugate of a is > 0, decided exactly.

    Requires a to lie in the real subfield (conj(a) == a).  There x = den * a
    is an integral element with the signs of a, and its conjugates over the
    real subfield, of degree d = phi / 2, are the real roots of an integer
    polynomial.  They are all > 0 iff each elementary symmetric function
    e_1, ..., e_d is > 0 (for real roots, Descartes' rule of signs is exact).
    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i give
    them in integers from the power sums p_i = Tr(x^i) / 2 over that
    subfield (each conjugate appears twice in the full field's trace).
    """
    if a.conj() != a:
        raise ValueError("total positivity is only defined in the real subfield")
    if a.is_rational():
        return a.as_rational() > 0
    e, p = [1], []
    for k, tr in zip(range(1, _K.euler_phi(a.conductor) // 2 + 1), _power_sums(a)):
        p.append(tr // 2)
        ek = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) // k
        if ek <= 0:
            return False
        e.append(ek)
    return True


def _odd_trace_sign(y: CycNum) -> int:
    """The sign of the first nonzero odd elementary symmetric function e_i of
    the conjugates of y, or 0 when every odd e_i vanishes (-y is then a
    conjugate of y).

    In log(sum_k e_k t^k) = sum_k (-1)^(k-1) p_k t^k / k the odd part starts
    with the odd part of the series itself, so the first nonzero odd e_i and
    the first nonzero odd power sum p_i = Tr(y^i) sit at one index, with
    p_i = i e_i: Newton's identities reduce to reading Tr(y), Tr(y^3), ...
    up to the degree phi of the characteristic polynomial.
    """
    for _, t in zip(range(0, _K.euler_phi(y.conductor), 2), _power_sums(y, 2)):
        if t:
            return 1 if t > 0 else -1
    return 0


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


_SPREAD = (1 << 61) - 1


def _elements(phi: int, p: int) -> Iterator[list[int]]:
    """Every element of F_p[x] / Phi_n, phi = deg Phi_n, in one fixed order:
    k M mod p^phi for k = 0, 1, 2, ..., written in base p, lowest digit
    first.  M = 2^61 - 1 is prime, so this is a bijection of [0, p^phi), and
    its elements have dense digits from the start."""
    k = 0
    while True:
        v = k * _SPREAD % p ** phi
        yield [v // p ** i % p for i in range(phi)]
        k += 1


def _carmichael(n: int) -> int:
    """The exponent of the unit group (Z/n)^x."""
    lam = 1
    for p in _K.prime_divisors(n):
        k = 1
        while n % p ** (k + 1) == 0:
            k += 1
        lam = math.lcm(lam, p ** (k - 1) * (p - 1) // (2 if p == 2 and k >= 3 else 1))
    return lam


def _full_order_primes(n: int, lam: int) -> Iterator[int]:
    """The odd primes p, not dividing n, of multiplicative order lam modulo
    n, in increasing order."""
    p = 1
    while True:
        p += 2
        if n % p and _K.is_prime(p) and _K.has_order(p, lam, n):
            yield p


def _cipolla(u: list[int], n: int, p: int, q: int) -> list[int]:
    """A square root of u in R = F_p[x] / Phi_n, a product of fields F_q in
    each of which u is a nonzero square.  For d = b^2 - u a non-square in
    every field, (b + w)^((q + 1) / 2) in R[w] / (w^2 - d) lies in R and
    squares to (b + w)^(q + 1) = b^2 - d = u (Cipolla's algorithm, run in
    every field at once)."""
    one = [1] + [0] * (len(u) - 1)
    for b in _elements(len(u), p):
        d = [(s - t) % p for s, t in zip(_K.ring_mul(b, b, n, p), u)]
        if _K.ring_pow(d, (q - 1) // 2, n, p) == [p - 1] + one[1:]:
            break

    def mul(x, y):   # (r + s w)(t + v w) = r t + s v d + (r v + s t) w
        (r, s), (t, v) = x, y
        rt, sv, rv, st = (_K.ring_mul(f, g, n, p) for f, g in ((r, t), (s, v), (r, v), (s, t)))
        return ([(f + g) % p for f, g in zip(rt, _K.ring_mul(sv, d, n, p))],
                [(f + g) % p for f, g in zip(rv, st)])

    out = (one, [0] * len(u))
    for bit in bin((q + 1) // 2)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, (b, one))
    return out[0]


def _sign_patterns(n: int, p: int, q: int, g: int) -> list[list[int]]:
    """One of each pair +-s of the 2^g units s of R = F_p[x] / Phi_n, a
    product of g fields F_q, that are +-1 in every field.  They are the
    Euler symbols a^((q - 1) / 2) of the units a, taken in the order of
    :func:`_elements` until they generate all 2^(g - 1) classes."""
    one = [1] + [0] * (_K.euler_phi(n) - 1)
    signs = [one]
    for a in _elements(len(one), p):
        if len(signs) == 1 << (g - 1):
            return signs
        s = _K.ring_pow(a, (q - 1) // 2, n, p)
        if _K.ring_mul(s, s, n, p) == one and s not in signs and [-v % p for v in s] not in signs:
            signs += [_K.ring_mul(s, t, n, p) for t in signs]


def _newton_root(a: list[int], z: list[int], n: int, p: int, bound: int) -> list[int]:
    """The y = A z, lifted symmetrically modulo p^k > 2 bound, of the inverse
    square root z of A modulo p, after the steps z <- z + z (1 - A z^2) / 2
    that each double the power of p to which A z^2 = 1 holds."""
    mod = p
    while mod <= 2 * bound:
        mod *= mod
        e = _K.ring_mul(a, _K.ring_mul(z, z, n, mod), n, mod)
        e[0] -= 1
        half = (mod + 1) // 2
        z = [(v - half * t) % mod for v, t in zip(z, _K.ring_mul(z, e, n, mod))]
    return [v - mod if 2 * v > mod else v for v in _K.ring_mul(a, z, n, mod)]


def _sqrt_at_conductor(x: CycNum) -> Optional[CycNum]:
    """A root y of x in Q(zeta_n), n = x.conductor, with y*y == x exactly, or
    None when Q(zeta_n) holds none.  The sign of y is not chosen.

    A = den^2 x = den * num is integral, and so is each root y of it: y lies
    in Z[zeta_n].  Every embedding of y has magnitude at most sqrt(L1(A)),
    so y = sum_(j < n) a_j zeta^j with a_j = Tr(y zeta^-j) / n of magnitude
    at most phi sqrt(L1(A)) / n.  Each coordinate of y sums n of them, each
    times a coordinate of zeta^j mod Phi_n, so it is at most B = phi
    ceil(sqrt(L1(A))) max_row(n).

    Modulo an odd prime p of order lam = lambda(n) modulo n, Phi_n splits
    into g = phi / lam factors of degree lam, so R = F_p[x] / Phi_n is a
    product of g fields F_q, q = p^lam.  The smallest such p at which A is a
    unit is taken.  If A^((q - 1) / 2) is not 1 in R, A is a non-square in
    one field, and so in Q(zeta_n): None.  Otherwise every root of A reduces
    to s r for a root r of A in R and one of the 2^g sign patterns s, and
    its Newton lift from the inverse root is unique, as p is odd.  So the
    answer is exact: y is accepted only when y * y == A, and when no pattern
    up to the global sign gives a root, none exists.
    """
    if x.is_zero():
        return x
    n, a = x.conductor, [v * x.den for v in x.num]
    one = [1] + [0] * (len(a) - 1)
    lam = _carmichael(n)
    for p in _full_order_primes(n, lam):
        q = p ** lam
        euler = _K.ring_pow(a, (q - 1) // 2, n, p)
        if euler == one:
            break
        if _K.ring_mul(euler, euler, n, p) == one:
            return None   # A is a non-square modulo one factor of Phi_n
    bound = len(a) * (math.isqrt(sum(map(abs, a)) - 1) + 1) * _K.max_row(n)
    z = _cipolla(_K.ring_pow(a, q - 2, n, p), n, p, q)   # a root of 1 / A in R
    for s in _sign_patterns(n, p, q, len(a) // lam):
        y = _newton_root(a, _K.ring_mul(z, s, n, p), n, p, bound)
        if _K.ring_mul(y, y, n) == a:
            return CycNum._make(n, *_K.normalize(y, x.den))
    return None


def _canonical_root(c: CycNum, n: int) -> Optional[CycNum]:
    """The one of +-c that the sign rule picks, at the first conductor m in
    (n, 2n, 4n) whose field holds c.

    A rational c gives |c|.  Otherwise the rule takes the sign that makes the
    first nonzero odd e_i of the conjugates positive; when -c is a conjugate
    of c it decides on c*w instead, for w = 1 + zeta_m, then 1 + zeta_m +
    zeta_m^2, and then it tries the next conductor.  The rule picks the root
    that a factor search over Q gives (the tests keep that search as a
    reference), and :func:`sqrt_in_field` applies it to the root it finds.
    Returns None when c is not written at a conductor dividing 4n or the
    rule decides nowhere.
    """
    if c.is_rational():
        return CycNum.from_rational(abs(c.as_rational()))
    if (4 * n) % c.conductor:
        return None
    y = c.lift(4 * n)
    for m in (n, 2 * n):
        if (down := y.descend(m)) is not None:
            y = down
            break
    while True:
        m = y.conductor
        one, z = CycNum.from_rational(1, m), root_of_unity(m)
        for w in (one, one + z, one + z + z * z):
            sign = 0 if w.is_zero() else _odd_trace_sign(y * w)
            if sign:
                return y if sign > 0 else -y
        if m == 4 * n:
            return None
        y = y.lift(2 * m)


def sqrt_in_field(x: CycNum) -> Optional[CycNum]:
    """An exact y with y*y == x, searched in Q(zeta_n) up to Q(zeta_4n).

    Conductor 4n covers the square root of every root of unity of Q(zeta_n).
    Each conductor m is decided exactly by the p-adic search of
    :func:`_sqrt_at_conductor`, so None means that no such element exists
    there.  A root is verified by squaring, and its sign and conductor are
    those :func:`_canonical_root` fixes.
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
            # the rule picks one of +-y, whichever sign the search gave
            return _canonical_root(y, n)
    return None

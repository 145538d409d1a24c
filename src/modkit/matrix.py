"""Dense exact matrices over Q(zeta_N), stored as integer coefficient slices.

A :class:`CycMatrix` of conductor N holds one integer array ``num`` of shape
``(phi(N), rows, cols)`` and one positive common denominator ``den``: entry
``(i, j)`` is ``sum_k num[k, i, j] * zeta_N**k / den`` in the power basis of
the N-th cyclotomic polynomial.  Products, sums, comparisons and the Galois
action run as whole-array integer operations.  The :class:`CycNum` entries
are built from the slices, normalized one by one, only when they are read.
Lifts, Galois conjugates and matrices of roots of unity reduce their slices
modulo Phi_N with the scalar kernel's own :func:`modkit._kernel.reduce`,
along the leading axis, so scalars and matrices share one substitution.

Products are multimodular.  For a prime p = 1 (mod N), Phi_N splits modulo p
into phi(N) linear factors, so evaluating the slices at its roots turns one
product over Q(zeta_N) into phi(N) independent residue products, then one
interpolation.  Each product states a bound on the magnitude of its exact
result, and takes split primes below 2^21 until their product exceeds twice
that bound; Garner's CRT and the symmetric lift then give the exact integers.
Every residue matmul is a float64 (BLAS) matmul over blocks of at most 2^11
products: residues below 2^21 make each partial sum an integer below 2^53,
which float64 holds exactly whatever the order of summation, and each block
goes back to int64 to be reduced.  Float64 carries exact integers only;
nothing is rounded or compared with a tolerance.  ``object`` inputs are
reduced to int64 residues first; past that, Python integers appear only in
the CRT combine, once the product of the primes passes 2^62.

Every split prime set of a conductor leads its one stack of primes and
tables, which are built only for primes a product uses.  A matrix keeps its
own residues at the last set it was evaluated at, and reads any set with no
more primes and roots (the one-root Verlinde route reads the first root) as
a slice; products, Galois conjugates and transposes start with none.

The entrywise inverse runs on the same residues: the product of an entry's
residues at the other phi(N) - 1 roots is the residue there of the product
of its other Galois conjugates, so one evaluation, one interpolation and one
CRT invert a whole row, with primes chosen by an L1 bound on the norm
(:func:`slice_inv`).

Every integer array is ``int64`` when a bound on every value a computation
can reach stays below 2^63 in magnitude, and ``object`` (Python integers)
otherwise, so results are exact on both paths; the float64 blocks of a
residue matmul hold integers in [0, 2^53).  Matrices are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ._kernel import INT64_LIMIT
from .cyclotomic import CycNum
from .kernel import impl as _K


class ShapeError(ValueError):
    pass


class SignedPermutation(NamedTuple):
    perm: tuple[int, ...]   # row i has its nonzero entry in column perm[i]
    signs: tuple[int, ...]  # that entry, +1 or -1


# ---------------------------------------------------------------------------
# integer slices
# ---------------------------------------------------------------------------

def max_abs(a: np.ndarray) -> int:
    """The largest magnitude in ``a`` (0 when it is empty), as a Python int."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def with_bound(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` as int64 when ``bound`` caps every value the caller will compute
    from it below 2^63, else as Python integers."""
    return a.astype(np.int64 if bound < INT64_LIMIT else object, copy=False)


def int_array(values) -> np.ndarray:
    """An integer array of ``values``: int64 when every |v| < 2^63, else object."""
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    return a.astype(object) if a.size and a.min() == -INT64_LIMIT else a


def match_lines(src: np.ndarray, dst: np.ndarray) -> list[Optional[int]]:
    """For each line ``dst[:, i]`` of integer slices ``(phi, lines, width)``,
    the first j with ``src[:, j]`` equal to it, or None; pass
    ``a.transpose(0, 2, 1)`` to match columns.  Both sides are keyed in the
    smallest integer type that holds every value of either (Python integers
    past int64), whatever their dtypes, so equal values get equal keys."""
    bound = max(max_abs(src), max_abs(dst))
    dtype = np.min_scalar_type(-bound - 1) if bound < INT64_LIMIT else object

    def keys(a: np.ndarray) -> list:
        lines = np.ascontiguousarray(a.transpose(1, 0, 2), dtype).reshape(a.shape[1], -1)
        return list(map(tuple, lines.tolist())) if dtype == object else [v.tobytes() for v in lines]

    first = {key: j for j, key in reversed(list(enumerate(keys(src))))}
    return [first.get(key) for key in keys(dst)]


def signed_permutation(m: np.ndarray) -> Optional[SignedPermutation]:
    """The permutation and signs of the square integer matrix ``m`` when each
    row and each column holds one nonzero entry, 1 or -1; else None."""
    nonzero = m != 0
    if m.shape[0] != m.shape[1] or (nonzero.sum(axis=1) != 1).any() or \
            (nonzero.sum(axis=0) != 1).any():
        return None
    perm = nonzero.argmax(axis=1)
    signs = tuple(m[np.arange(len(m)), perm].tolist())
    return SignedPermutation(tuple(perm.tolist()), signs) if set(signs) <= {1, -1} else None


def slice_growth(n: int) -> int:
    """How far one slice product at conductor n can grow a coefficient: each
    product coefficient sums at most phi terms before the reduction modulo
    Phi_n, which adds at most phi - 1 further multiples of it, each by a
    coordinate of x^k mod Phi_n of magnitude at most max_row(n)."""
    phi = _K.euler_phi(n)
    return phi * (1 + (phi - 1) * _K.max_row(n))


# ---------------------------------------------------------------------------
# products modulo split primes
# ---------------------------------------------------------------------------

PRIME_LIMIT = 1 << 21   # residues stay below 2^21, so a product of two is below 2^42
_TERMS = 1 << 11        # and a sum of 2^11 such products stays below 2^53
# float64 holds every integer below 2^53 exactly, so a residue product summed
# in float64 is exact in any order of summation
assert PRIME_LIMIT ** 2 * _TERMS <= 1 << 53
TABLE_BYTES = 1 << 30   # the most the split tables of one conductor may take


def _root_of_order(n: int, p: int) -> int:
    """An element of exact order n modulo the prime p = 1 (mod n); p - 1 is
    never factored, only n."""
    for g in range(2, p):
        w = pow(g, (p - 1) // n, p)
        if _K.has_order(w, n, p):
            return w
    raise ValueError(f"{p} is not a prime = 1 (mod {n})")


def _split_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Modulo p = 1 (mod n), Phi_n has the phi distinct roots r = w^e, for w
    of order n and e the units mod n.  Row i of the evaluation matrix holds
    the powers 0..phi-1 of the i-th root; column i of the second matrix, its
    inverse, is the Lagrange polynomial Phi_n(x) / ((x - r) Phi_n'(r)) of that
    root.  The quotients q = Phi_n(x) / (x - r) come from phi - 1 steps of
    synthetic division, over all roots at once, and Phi_n'(r) = q(r); every
    value stays below p^2."""
    w = _root_of_order(n, p)
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * w % p)
    powers = np.array(powers, dtype=np.int64)
    units = np.array([e for e in range(n) if math.gcd(e, n) == 1])
    ev = powers[np.outer(units, np.arange(len(units))) % n]
    roots, coeffs = powers[units], [c % p for c in _K.cyclotomic_int_coeffs(n)]
    q = np.ones_like(ev)   # q[j, i]: the coefficient of x^j in Phi_n(x) / (x - roots[i])
    for j in range(len(units) - 1, 0, -1):
        q[j - 1] = (coeffs[j] + roots * q[j]) % p
    slopes = (ev * q.T).sum(axis=1) % p   # Phi_n'(roots[i]) = q_i(roots[i])
    return ev, q * np.array([pow(int(d), -1, p) for d in slopes]) % p


@lru_cache(maxsize=None)
def _split_stack(n: int) -> list[np.ndarray]:
    """``[primes, ev, iv]``: the split primes of conductor n whose tables are
    built so far, largest first, with their evaluation and interpolation
    matrices stacked in float64, exact for their values below 2^21.  Only
    :func:`split_primes` reads and extends it."""
    phi = _K.euler_phi(n)
    return [np.zeros(0, np.int64), *np.zeros((2, 0, phi, phi), np.float64)]


class SplitPrimes(NamedTuple):
    """Primes p = 1 (mod n) below PRIME_LIMIT, and for each the evaluation of
    the power basis at the phi roots of Phi_n modulo p, and its inverse."""
    primes: np.ndarray   # (k,) int64
    ev: np.ndarray       # (k, r, phi) float64: ev[t, i, j] = (i-th root mod primes[t]) ** j
    iv: np.ndarray       # (k, phi, phi) float64: ev[t] (all phi roots) inverted mod primes[t]
    modulus: int         # the product of the primes

    def mod(self, x: np.ndarray) -> np.ndarray:
        """``x`` (integers, int64 or object) modulo the prime of its leading index."""
        return x % self.primes.reshape((-1,) + (1,) * (x.ndim - 1))


def split_primes(n: int, bound: int) -> SplitPrimes:
    """The fewest split primes of conductor n whose product exceeds 2 * bound,
    so that every integer of magnitude at most ``bound`` is read back exactly
    from its residues: the largest primes p = 1 (mod n) below PRIME_LIMIT, a
    leading set of the one stack of n.  The primes are counted first; tables
    are built only for those the stack lacks, and none when n has too few
    primes or their tables would pass TABLE_BYTES (OverflowError)."""
    stack = _split_stack(n)
    primes = stack[0].tolist()
    step = n if n % 2 == 0 else 2 * n   # the odd p = 1 (mod n) are the p = 1 (mod step)
    cand = primes[-1] - step if primes else 1 + (PRIME_LIMIT - 2) // step * step
    k, modulus = 0, 1
    while k == 0 or modulus <= 2 * bound:
        while k == len(primes) and cand >= 3:
            if _K.is_prime(cand):
                primes.append(cand)
            cand -= step
        if k == len(primes):
            raise OverflowError(f"conductor {n} has only {k} split primes below "
                                f"2^{PRIME_LIMIT.bit_length() - 1}; their product cannot hold "
                                f"this exact product")
        modulus *= primes[k]
        k += 1
    built, phi = len(stack[0]), stack[1].shape[1]
    if k > built:
        size = 16 * phi * phi * k   # ev and iv, float64 each
        if size > TABLE_BYTES:
            raise OverflowError(f"conductor {n} needs {k} split primes, whose tables would take "
                                f"{size:,} bytes, past the budget of {TABLE_BYTES:,} bytes")
        tables = np.empty((2, k, phi, phi), np.float64)   # ev, then iv
        tables[0, :built], tables[1, :built] = stack[1:]
        for t in range(built, k):
            tables[:, t] = _split_tables(n, primes[t])
        stack[:] = [np.array(primes[:k], dtype=np.int64), *tables]
        for a in stack:
            a.flags.writeable = False
    primes, ev, iv = stack
    return SplitPrimes(primes[:k], ev[:k], iv[:k], modulus)


def residue_matmul(x: np.ndarray, y: np.ndarray, sp: SplitPrimes) -> np.ndarray:
    """``x @ y`` modulo the prime of the leading index, for integers (int64,
    or float64 like the split tables) of magnitude below PRIME_LIMIT
    (residues, or signed in ``y``).  The contraction runs as one float64
    matmul per block of at most _TERMS products: every partial sum is an
    integer of magnitude below 2^53, so each block is exact whatever order
    BLAS sums it in, and is reduced in int64."""
    xf, yf = x.astype(np.float64, copy=False), y.astype(np.float64, copy=False)
    out = sp.mod(np.matmul(xf[..., :_TERMS], yf[..., :_TERMS, :]).astype(np.int64))
    for s in range(_TERMS, x.shape[-1], _TERMS):
        block = np.matmul(xf[..., s:s + _TERMS], yf[..., s:s + _TERMS, :]).astype(np.int64)
        out = sp.mod(out + sp.mod(block))
    return out


def evaluate(a: np.ndarray, sp: SplitPrimes) -> np.ndarray:
    """Residues ``(k, r) + a.shape[1:]`` of the slices ``a`` (int64 or
    object) at the r roots of Phi_n that ``sp.ev`` holds (all phi of them,
    or the first row alone), modulo each of the k primes.

    int64 slices of magnitude below PRIME_LIMIT enter the product as they
    are, signed, without a reduction per prime: each product with a table
    entry is still below 2^42 in magnitude, so every float64 partial sum of
    :func:`residue_matmul` stays below 2^53, and it reduces its output."""
    flat = a.reshape(1, a.shape[0], -1 if a.size else 0)
    if a.dtype != np.int64 or (a.size and not -PRIME_LIMIT < a.min() <= a.max() < PRIME_LIMIT):
        flat = sp.mod(flat).astype(np.int64, copy=False)
    vals = residue_matmul(sp.ev, flat, sp)
    return vals.reshape(sp.ev.shape[:2] + a.shape[1:])


def interpolate(vals: np.ndarray, sp: SplitPrimes, bound: int) -> np.ndarray:
    """The integer slices ``(phi,) + shape`` of magnitude at most ``bound``
    whose residues at the roots are ``vals`` ``(k, phi) + shape``: one
    interpolation per prime, then :func:`crt`."""
    coeffs = residue_matmul(sp.iv, vals.reshape(vals.shape[:2] + (-1 if vals.size else 0,)), sp)
    return crt(coeffs, sp, bound).reshape(vals.shape[1:])


def crt(coeffs: np.ndarray, sp: SplitPrimes, bound: int) -> np.ndarray:
    """The integers ``shape`` of magnitude at most ``bound`` whose residues
    modulo the k primes are ``coeffs`` ``(k,) + shape``: Garner's mixed-radix
    digits, then the symmetric lift.  The digits are int64; the combined
    integers are int64 while the modulus is below 2^62 and Python integers
    above it."""
    ps = sp.primes.tolist()
    digits = [coeffs[0]]
    for t in range(1, len(ps)):
        p = ps[t]
        acc = digits[-1] % p   # the digits so far, read modulo p by Horner's rule
        for s in range(t - 2, -1, -1):
            acc = (acc * ps[s] + digits[s]) % p
        digits.append((coeffs[t] - acc) * pow(math.prod(ps[:t]), -1, p) % p)
    m = sp.modulus
    dtype = np.int64 if m < 1 << 62 else object
    x = digits[-1].astype(dtype, copy=False)
    for s in range(len(ps) - 2, -1, -1):
        x = x * ps[s] + digits[s].astype(dtype, copy=False)
    x = np.where(x > m // 2, x - m, x)
    return with_bound(x, bound)


def slice_matmul(a: "CycMatrix", b: "CycMatrix") -> np.ndarray:
    """Slices ``(phi, r, c)`` of the product of the numerators of ``a``
    ``r x m`` and ``b`` ``m x c``, both at one conductor, from their
    residues (:meth:`CycMatrix.residues`)."""
    n = a.conductor
    bound = max_abs(a.num) * max_abs(b.num) * a.cols * slice_growth(n)
    sp = split_primes(n, bound)
    return interpolate(residue_matmul(a.residues(sp), b.residues(sp), sp), sp, bound)


def slice_mul(a: "CycMatrix", b: "CycMatrix") -> np.ndarray:
    """Slices of the entrywise product of the numerators of ``a`` and ``b``,
    both at one conductor, whose shapes broadcast against each other."""
    n = a.conductor
    bound = max_abs(a.num) * max_abs(b.num) * slice_growth(n)
    sp = split_primes(n, bound)
    return interpolate(sp.mod(a.residues(sp) * b.residues(sp)), sp, bound)


def slice_inv(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the slices ``a`` ``(phi,) + shape`` of nonzero entries at conductor
    n, the slices ``adj`` of the product of the other phi - 1 Galois
    conjugates of each entry and the rational integers ``norm`` ``shape`` of
    its Galois norm, so that each entry's inverse is ``adj / norm``.

    The residue of adj at a root of Phi_n is the product of the entry's
    residues at the other phi - 1 roots: prefix times suffix products, with
    no modular division, so a prime that divides a norm does no harm.  In
    Z[x]/(x^n - 1) the Galois maps permute coefficients and products are
    cyclic convolutions, so the L1 norm of coefficients is submultiplicative.
    With L the largest L1 norm of an entry, |norm| <= L^phi, and adj,
    reduced modulo Phi_n, has coordinates of magnitude at most
    L^(phi - 1) max_row(n)."""
    phi = a.shape[0]
    l1 = max_abs(np.abs(with_bound(a, max_abs(a) * phi)).sum(axis=0))
    norm_bound, adj_bound = l1 ** phi, l1 ** (phi - 1) * _K.max_row(n)
    sp = split_primes(n, max(norm_bound, adj_bound))
    vals = evaluate(a, sp)
    # the products before each root, in root order and in reverse root order
    both = np.stack([vals, vals[:, ::-1]], axis=1)
    before = np.ones_like(both)
    for i in range(1, phi):
        before[:, :, i] = sp.mod(before[:, :, i - 1] * both[:, :, i - 1])
    adj = interpolate(sp.mod(before[:, 0] * before[:, 1, ::-1]), sp, adj_bound)
    return adj, crt(sp.mod(before[:, 0, -1] * vals[:, -1]), sp, norm_bound)


def root_slices(n: int, exps) -> np.ndarray:
    """Slices ``(phi(n),) + exps.shape`` of the matrix with entries zeta_n^exps,
    for any integer array of exponents: the indicator of each exponent
    modulo n along the leading axis, reduced modulo Phi_n."""
    exps = np.asarray(exps) % n
    powers = np.arange(n).reshape((n,) + (1,) * exps.ndim)
    return _K.reduce(with_bound((powers == exps).astype(np.int64), _K.max_row(n)), n)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class CycMatrix:
    __slots__ = ("rows", "cols", "conductor", "num", "den", "_res")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = [e if isinstance(e, CycNum) else CycNum.from_rational(Fraction(e))
                   for e in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        n = math.lcm(*(e.conductor for e in entries))
        entries = tuple(e.lift(n) for e in entries)
        den = math.lcm(*(e.den for e in entries))
        phi = _K.euler_phi(n)
        flat = int_array([[v * (den // e.den) for v in e.num] for e in entries])
        num = flat.reshape(rows * cols, phi).T.reshape(phi, rows, cols)
        self._set(n, np.ascontiguousarray(num), den)

    def _set(self, n: int, num: np.ndarray, den: int) -> None:
        num.flags.writeable = False
        object.__setattr__(self, "rows", num.shape[1])
        object.__setattr__(self, "cols", num.shape[2])
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycMatrix is immutable")

    # ---------- construction ----------

    @classmethod
    def from_slices(cls, conductor: int, num: np.ndarray, den: int) -> "CycMatrix":
        """The matrix ``num / den``; ``num`` has shape ``(phi(conductor), rows, cols)``."""
        content = int(np.gcd.reduce(num, axis=None)) if num.size else 0
        g = math.gcd(content, den) if content else den   # a zero matrix gets den 1
        if g > 1:
            num, den = (num // g if content else num), den // g
        if num.dtype == object and max_abs(num) < INT64_LIMIT:
            num = num.astype(np.int64)
        self = cls.__new__(cls)
        self._set(conductor, num, den)
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "CycMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ShapeError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int, c=1) -> "CycMatrix":
        """c Id, written down from the slices of c (a CycNum or a rational):
        the coordinate k of c on the diagonal of slice k, with no product."""
        c = c if isinstance(c, CycNum) else CycNum.from_rational(Fraction(c))
        eye = np.eye(n, dtype=np.int64)
        return cls.from_slices(c.conductor, int_array(c.num)[:, None, None] * eye, c.den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CycMatrix":
        return cls.from_slices(1, np.zeros((1, rows, cols), dtype=np.int64), 1)

    # ---------- access ----------

    @property
    def entries(self) -> tuple[CycNum, ...]:
        """The entries in row-major order, each in canonical form."""
        return self._entries_of(self.num.reshape(self.num.shape[0], self.rows * self.cols).T)

    def _entries_of(self, flat: np.ndarray) -> tuple[CycNum, ...]:
        """The entries whose coordinates are the rows of ``flat`` ``(count, phi)``."""
        den = self.den
        if flat.dtype == object or den >= INT64_LIMIT:
            pairs = [_K.normalize(v, den) for v in flat.tolist()]
        else:
            g = np.gcd(np.gcd.reduce(flat, axis=1), den)   # den for a zero entry
            pairs = zip((flat // g[:, None]).tolist(), (den // g).tolist())
        n = self.conductor
        return tuple(CycNum._make(n, tuple(v), d) for v, d in pairs)

    def __getitem__(self, ij: tuple[int, int]) -> CycNum:
        i, j = ij
        return self._entries_of(self.num[:, i, j][None])[0]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self._entries_of(self.num[:, i, :].T)

    def col(self, j: int) -> tuple[CycNum, ...]:
        return self._entries_of(self.num[:, :, j].T)

    def nonzero_in_row(self, i: int) -> np.ndarray:
        """Which entries of row i are nonzero, read off the slices (a bool
        array); builds no entry."""
        return self.num[:, i, :].any(axis=0)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.first_difference(other) is None

    def first_difference(self, other: "CycMatrix") -> Optional[tuple[int, int]]:
        """The first ``(i, j)``, in row-major order, where the two matrices
        (of equal shape) differ; None when they are equal."""
        x, y, _, _ = self._aligned(other)
        hit = np.flatnonzero((x != y).any(axis=0))
        if hit.size == 0:
            return None
        return divmod(int(hit[0]), self.cols)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"CycMatrix({self.rows}x{self.cols}: {body})"

    # ---------- arithmetic ----------

    def _common(self, other: "CycMatrix") -> tuple["CycMatrix", "CycMatrix", int]:
        n = math.lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n), n

    def _aligned(self, other: "CycMatrix"):
        """Both numerators at the common conductor over the common denominator,
        with room for their sum: ``(x, y, den, conductor)``."""
        a, b, n = self._common(other)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        bound = 2 * max(max(max_abs(a.num), 1) * fa, max(max_abs(b.num), 1) * fb)
        return with_bound(a.num, bound) * fa, with_bound(b.num, bound) * fb, den, n

    def lift(self, n: int) -> "CycMatrix":
        m = self.conductor
        if n == m:
            return self
        if n % m or n < 1:
            raise ValueError(f"cannot lift conductor {m} to {n}")
        return self._substitute(n, n // m)

    def _substitute(self, n: int, e: int) -> "CycMatrix":
        """The image at conductor n under zeta_m -> zeta_n^e, m the conductor."""
        num = self.num
        # each coordinate of the image sums at most phi(m) coordinates of num,
        # through one coordinate of some x^k mod Phi_n each
        num = with_bound(num, max_abs(num) * len(num) * _K.max_row(n))
        return CycMatrix.from_slices(n, _K.substitute(num, self.conductor, n, e), self.den)

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        x, y, den, n = self._aligned(other)
        return CycMatrix.from_slices(n, x + y, den)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in subtraction")
        x, y, den, n = self._aligned(other)
        return CycMatrix.from_slices(n, x - y, den)

    def __neg__(self) -> "CycMatrix":
        return CycMatrix.from_slices(self.conductor, -self.num, self.den)

    def _combine(self, other: "CycMatrix", slice_op) -> "CycMatrix":
        """``slice_op`` (:func:`slice_mul` or :func:`slice_matmul`) on the two
        matrices at the common conductor, over the product of denominators."""
        a, b, n = self._common(other)
        return CycMatrix.from_slices(n, slice_op(a, b), a.den * b.den)

    def residues(self, sp: SplitPrimes) -> np.ndarray:
        """The residues ``(k, r, rows, cols)`` of the numerator at the r roots
        and k primes of ``sp`` (:func:`evaluate`), a split prime set of the
        conductor.  The matrix keeps the residues of the last set it had to
        evaluate at; every split prime set of a conductor leads its one stack,
        and one root is the first, so a set with no more primes and roots than
        that is read as a slice of them."""
        k, r = sp.ev.shape[:2]
        res = getattr(self, "_res", None)   # the slot is unset until the first call
        if res is None or len(res) < k or res.shape[1] < r:
            res = evaluate(self.num, sp)
            res.flags.writeable = False
            object.__setattr__(self, "_res", res)
        return res[:k, :r]

    def scale(self, c) -> "CycMatrix":
        c = c if isinstance(c, CycNum) else CycNum.from_rational(Fraction(c))
        if not c.is_rational():
            return self * CycMatrix(1, 1, [c])
        # a rational multiplies the numerators; the result sits at the common
        # conductor, as a product would
        m = self.lift(math.lcm(self.conductor, c.conductor))
        q = c.as_rational()
        num = with_bound(m.num, max(max_abs(m.num), 1) * abs(q.numerator)) * q.numerator
        return CycMatrix.from_slices(m.conductor, num, m.den * q.denominator)

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        """The entrywise product; a factor with one row or one column is
        repeated along it, so a column scales rows and a row scales columns."""
        shapes = ((self.rows, other.rows), (self.cols, other.cols))
        if any(a != b and 1 not in (a, b) for a, b in shapes):
            raise ShapeError(f"{self.rows}x{self.cols} and {other.rows}x{other.cols} do not broadcast")
        return self._combine(other, slice_mul)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return self._combine(other, slice_matmul)

    def total(self) -> CycNum:
        """The sum of all entries, taken along the slices."""
        num = with_bound(self.num, max_abs(self.num) * self.rows * self.cols)
        return self._entries_of(num.sum(axis=(1, 2))[None])[0]

    def inverse(self) -> "CycMatrix":
        """The entrywise inverse, from one :func:`slice_inv`: the entry
        ``num / den`` has the inverse ``den * adj / norm``."""
        num, den = self.num, self.den
        if not num.any(axis=0).all():
            raise ZeroDivisionError("entrywise inverse of a matrix with a zero entry")
        adj, norm = slice_inv(num, self.conductor)
        # over the lcm of the norms; from_slices cancels what the entries share
        norms = norm.ravel().tolist()
        d = math.lcm(*norms)
        factors = int_array([den * d // v for v in norms]).reshape(norm.shape)
        out = with_bound(adj, max_abs(adj) * max_abs(factors)) * factors
        return CycMatrix.from_slices(self.conductor, out, d)

    # ---------- structural operations ----------

    def transpose(self) -> "CycMatrix":
        num = np.ascontiguousarray(self.num.transpose(0, 2, 1))
        return CycMatrix.from_slices(self.conductor, num, self.den)

    def columns(self, idx: Sequence[int], signs=1) -> "CycMatrix":
        """The columns ``idx``, in that order, each times its sign in
        ``signs`` (1 or -1, or one per column)."""
        num = self.num[:, :, list(idx)] * np.asarray(signs)
        return CycMatrix.from_slices(self.conductor, num, self.den)

    def conj(self) -> "CycMatrix":
        return self.galois(-1) if self.conductor > 1 else self

    def conj_transpose(self) -> "CycMatrix":
        return self.transpose().conj()

    def galois(self, j: int) -> "CycMatrix":
        n = self.conductor
        if math.gcd(j, n) != 1:
            raise ValueError(f"galois exponent {j} is not coprime to the conductor {n}")
        return self._substitute(n, j % n)

"""Dense exact matrices over Q(zeta_N), stored as integer coefficient slices.

A :class:`CycMatrix` of conductor N holds one integer array ``num`` of shape
``(phi(N), rows, cols)`` and one positive common denominator ``den``: entry
``(i, j)`` is ``sum_k num[k, i, j] * zeta_N**k / den`` in the power basis of
the N-th cyclotomic polynomial.  Products, sums, comparisons and the Galois
action run as whole-array integer operations.  The :class:`CycNum` entries
are built from the slices, normalized one by one, only when they are read.

Every array is ``int64`` when a bound on every value a computation can reach
stays below 2^63 in magnitude, and ``object`` (Python integers) otherwise, so
results are exact on both paths.  Matrices are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .cyclotomic import CycNum
from .kernel import impl as _K

INT64_LIMIT = 1 << 63   # int64 holds every v with |v| < 2^63


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


def _growth(tab) -> int:
    # each product coefficient sums at most phi terms before the reduction,
    # which adds at most phi - 1 further multiples of it, each by a reduction
    # row entry of magnitude at most max_row
    return tab.phi * (1 + (tab.phi - 1) * tab.max_row)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> np.ndarray:
    """Row k is x^(phi + k) mod Phi_n, for the phi - 1 powers a product reaches."""
    tab = _K.table(n)
    red = int_array([list(r) for r in tab.rows[:tab.phi - 1]]).reshape(tab.phi - 1, tab.phi)
    red.flags.writeable = False
    return red


def _reduce(conv: np.ndarray, tab) -> np.ndarray:
    """Power-basis slices of the (2 phi - 1)-long coefficient stack ``conv``."""
    phi = tab.phi
    if phi == 1:
        return conv
    return conv[:phi] + np.tensordot(_reduction_rows(tab.n).T, conv[phi:], axes=1)


def slice_matmul(a: np.ndarray, b: np.ndarray, tab) -> np.ndarray:
    """Slices ``(phi, r, c)`` of the matrix product of the numerators ``a``
    ``(phi, r, m)`` and ``b`` ``(phi, m, c)``, both at the conductor of ``tab``."""
    phi = tab.phi
    # |result| <= max|a| * max|b| * m * phi * (1 + (phi - 1) * max_row)
    bound = max_abs(a) * max_abs(b) * a.shape[2] * _growth(tab)
    a, b = with_bound(a, bound), with_bound(b, bound)
    conv = np.zeros((2 * phi - 1, a.shape[1], b.shape[2]), dtype=a.dtype)
    for i in range(phi):
        if a[i].any():
            for j in range(phi):
                conv[i + j] += a[i] @ b[j]
    return _reduce(conv, tab)


def slice_mul(a: np.ndarray, b: np.ndarray, tab) -> np.ndarray:
    """Slices of the entrywise product of ``a`` and ``b``, whose trailing
    shapes broadcast against each other."""
    phi = tab.phi
    bound = max_abs(a) * max_abs(b) * _growth(tab)
    a, b = with_bound(a, bound), with_bound(b, bound)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    conv = np.zeros((2 * phi - 1,) + shape, dtype=a.dtype)
    for i in range(phi):
        if a[i].any():
            for j in range(phi):
                conv[i + j] += a[i] * b[j]
    return _reduce(conv, tab)


@lru_cache(maxsize=None)
def _power_columns(n: int) -> np.ndarray:
    """Column e holds the power-basis coordinates of zeta_n^e, for 0 <= e < n."""
    tab = _K.table(n)
    out = int_array([_K.power_vector(tab, e) for e in range(n)]).T.copy()
    out.flags.writeable = False
    return out


def root_slices(n: int, exps) -> np.ndarray:
    """Slices ``(phi(n),) + exps.shape`` of the matrix with entries zeta_n^exps,
    for any integer array of exponents."""
    return _power_columns(n)[:, np.asarray(exps) % n]


@lru_cache(maxsize=None)
def _power_map(n: int, m: int, e: int) -> np.ndarray:
    """Column i holds the coordinates of zeta_m^(i e) at conductor m: the
    image of zeta_n^i under zeta_n -> zeta_m^e."""
    out = root_slices(m, [i * e for i in range(_K.table(n).phi)])
    out.flags.writeable = False
    return out


def _apply_map(mp: np.ndarray, num: np.ndarray) -> np.ndarray:
    bound = max_abs(mp) * max_abs(num) * mp.shape[1]
    return np.tensordot(with_bound(mp, bound), with_bound(num, bound), axes=1)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class CycMatrix:
    __slots__ = ("rows", "cols", "conductor", "num", "den", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = [e if isinstance(e, CycNum) else CycNum.from_rational(Fraction(e))
                   for e in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        n = math.lcm(*(e.conductor for e in entries))
        entries = tuple(e.lift(n) for e in entries)
        den = math.lcm(*(e.den for e in entries))
        phi = _K.table(n).phi
        flat = int_array([[v * (den // e.den) for v in e.num] for e in entries])
        num = flat.reshape(rows * cols, phi).T.reshape(phi, rows, cols)
        self._set(n, np.ascontiguousarray(num), den, entries)

    def _set(self, n: int, num: np.ndarray, den: int, entries) -> None:
        num.flags.writeable = False
        object.__setattr__(self, "rows", num.shape[1])
        object.__setattr__(self, "cols", num.shape[2])
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_entries", entries)

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
        self._set(conductor, num, den, None)
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
    def identity(cls, n: int) -> "CycMatrix":
        return cls.from_slices(1, np.eye(n, dtype=np.int64)[None], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CycMatrix":
        return cls.from_slices(1, np.zeros((1, rows, cols), dtype=np.int64), 1)

    @classmethod
    def diagonal(cls, values: Sequence[CycNum]) -> "CycMatrix":
        n = len(values)
        z = CycNum.from_rational(0)
        ent = [z] * (n * n)
        for i, v in enumerate(values):
            ent[i * n + i] = v
        return cls(n, n, ent)

    # ---------- access ----------

    @property
    def entries(self) -> tuple[CycNum, ...]:
        """The entries in row-major order, each in canonical form."""
        if self._entries is None:
            object.__setattr__(self, "_entries", self._build_entries())
        return self._entries

    def _build_entries(self) -> tuple[CycNum, ...]:
        phi = self.num.shape[0]
        flat = self.num.reshape(phi, self.rows * self.cols).T
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
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[CycNum, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

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
        return CycMatrix.from_slices(n, _apply_map(_power_map(m, n, n // m), self.num), self.den)

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
        numerators at the common conductor, over the product of denominators."""
        a, b, n = self._common(other)
        return CycMatrix.from_slices(n, slice_op(a.num, b.num, _K.table(n)), a.den * b.den)

    def scale(self, c) -> "CycMatrix":
        c = c if isinstance(c, CycNum) else CycNum.from_rational(Fraction(c))
        return self._combine(CycMatrix(1, 1, [c]), slice_mul)

    def scale_rows(self, values: Sequence[CycNum]) -> "CycMatrix":
        """Row i multiplied by ``values[i]``: diag(values) @ self, entrywise."""
        if len(values) != self.rows:
            raise ShapeError(f"{len(values)} scales for {self.rows} rows")
        return self._combine(CycMatrix(self.rows, 1, values), slice_mul)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return self._combine(other, slice_matmul)

    def row_combination(self, weights: Sequence[CycNum]) -> "CycMatrix":
        """The 1 x cols matrix ``sum_i weights[i] * row(i)``: a vector-matrix
        product, kept apart from ``@`` (the matrix-by-matrix product)."""
        if len(weights) != self.rows:
            raise ShapeError(f"{len(weights)} weights for {self.rows} rows")
        return CycMatrix(1, self.rows, weights)._combine(self, slice_matmul)

    def power(self, e: int) -> "CycMatrix":
        if self.rows != self.cols:
            raise ShapeError("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative matrix powers are not supported")
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out @ base
            e >>= 1
            if e:
                base = base @ base
        return CycMatrix.identity(self.rows) if out is None else out

    # ---------- structural operations ----------

    def transpose(self) -> "CycMatrix":
        num = np.ascontiguousarray(self.num.transpose(0, 2, 1))
        return CycMatrix.from_slices(self.conductor, num, self.den)

    def conj(self) -> "CycMatrix":
        return self.galois(-1) if self.conductor > 1 else self

    def conj_transpose(self) -> "CycMatrix":
        return self.transpose().conj()

    def galois(self, j: int) -> "CycMatrix":
        n = self.conductor
        if math.gcd(j, n) != 1:
            raise ValueError(f"galois exponent {j} is not coprime to the conductor {n}")
        return CycMatrix.from_slices(n, _apply_map(_power_map(n, n, j % n), self.num), self.den)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and \
            bool(np.array_equal(self.num, self.num.transpose(0, 2, 1)))

    def rank(self) -> int:
        """Rank over Q(zeta_N) by exact Gaussian elimination (first nonzero pivot)."""
        work = [list(self.row(i)) for i in range(self.rows)]
        rank = 0
        for col in range(self.cols):
            piv = next((r for r in range(rank, self.rows) if work[r][col]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            inv = work[rank][col].inv()
            work[rank] = [v * inv for v in work[rank]]
            for r in range(rank + 1, self.rows):
                f = work[r][col]
                if f:
                    work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
            rank += 1
            if rank == self.rows:
                break
        return rank

    def is_scalar_multiple_of_identity(self) -> Optional[CycNum]:
        """The scalar c when self == c * Id, else None."""
        if self.rows != self.cols:
            return None
        idx = np.arange(self.rows)
        diag = self.num[:, idx, idx]
        off = self.num.copy()
        off[:, idx, idx] = 0
        if off.any() or (diag != diag[:, :1]).any():
            return None
        return self[0, 0]

    def is_signed_permutation(self) -> Optional[SignedPermutation]:
        """Witness when every row and column has a single nonzero entry, +-1."""
        if self.rows != self.cols:
            return None
        nonzero = (self.num != 0).any(axis=0)
        if (nonzero.sum(axis=1) != 1).any() or (nonzero.sum(axis=0) != 1).any():
            return None
        perm = nonzero.argmax(axis=1)
        hits = self.num[:, np.arange(self.rows), perm]
        if hits[1:].any() or any(abs(v) != self.den for v in hits[0].tolist()):
            return None
        signs = tuple(1 if v > 0 else -1 for v in hits[0].tolist())
        return SignedPermutation(tuple(perm.tolist()), signs)

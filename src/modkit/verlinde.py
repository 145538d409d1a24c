"""Exact Verlinde-style fusion coefficients.

Two routes compute structure constants from an S-matrix:

* :func:`verlinde_raw` works on an unnormalized world (full nondegenerate or
  bold): N_{X,Y}^Z = sign(Z)/(D*u) * sum_W S_{W,X} S_{W,Y} S_{W,Zbar} / dim_r(W),
  where D is the (super)dimension, u = dim_r(unit_bar) and sign(Z) is read
  off the signed permutation S^2/(D*u).  No square roots appear.

* :func:`verlinde_fusion` works on a normalized datum:
  N_{i,j}^k = sum_l S_{i,l} S_{j,l} conj(S_{k,l}) / S_{unit,l}.

Integrality (and signs) of the output is a classification outcome, reported,
never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cyclotomic import CycNum
from .datum import ModularDatum, World
from .fusion import FusionTensor, tensor_duality
from .kernel import impl as _K
from .matrix import (CycMatrix, evaluate, interpolate, max_abs, residue_matmul,
                     slice_growth, split_primes, with_bound)


@dataclass
class IntegralityReport:
    integral: bool = True
    nonnegative: bool = True
    duality_ok: bool = True
    entries: int = 0
    negative_count: int = 0
    first_negative: Optional[tuple[int, int, int, int]] = None
    non_integral: list = field(default_factory=list)  # up to 5 witnesses (x, y, z, value)


# rows of pairwise products handled at once: each transient residue stack
# (primes x phi slices of rows x k int64 values) stays near this size
_BLOCK_BYTES = 1 << 18


def _structure_constants(a: CycMatrix, c: CycMatrix) -> tuple[Optional[np.ndarray],
                                                               IntegralityReport]:
    """N[x, y, z] = sum_w a[w, x] a[w, y] c[w, z], read off as integers.

    ``a`` and ``c`` are evaluated once at the roots of Phi_n modulo split
    primes.  N is symmetric in (x, y), so only the rows x <= y of the pairwise
    products P[(x, y), w] = a[w, x] a[w, y] are formed, a block of rows at a
    time, multiplied by ``c`` and interpolated.  An entry is an integer exactly
    when its non-constant slices vanish and its constant slice is divisible by
    the common denominator.  Witnesses come in the order x <= y, then z.
    """
    k = a.cols
    n = math.lcm(a.conductor, c.conductor)
    a, c = a.lift(n), c.lift(n)
    den = a.den * a.den * c.den
    rep = IntegralityReport(entries=k * k * k)
    # a pair product grows by at most G, and its product with c by k G more
    g = slice_growth(n)
    bound = max_abs(a.num) ** 2 * max_abs(c.num) * k * g * g
    # a constant is at most bound // den in magnitude (one more when negative)
    tensor = with_bound(np.zeros((k, k, k), dtype=np.int64), bound // den)
    sp = split_primes(n, bound)
    ea, ec = evaluate(a.num, sp), evaluate(c.num, sp)
    xs, ys = np.triu_indices(k)
    block = max(1, _BLOCK_BYTES // (8 * len(sp.primes) * a.num.shape[0] * max(k, 1)))
    for start in range(0, len(xs), block):
        bx, by = xs[start:start + block], ys[start:start + block]
        pairs = sp.mod(ea[..., bx] * ea[..., by]).swapaxes(2, 3)
        vals = interpolate(residue_matmul(pairs, ec, sp), sp, bound)
        vals = with_bound(vals, max(max_abs(vals), den))
        quot, rem = vals[0] // den, vals[0] % den   # np.divmod refuses object arrays
        integral = ~(vals[1:] != 0).any(axis=0) & (rem == 0)
        quot = np.where(integral, quot, 0)
        tensor[bx, by] = quot
        tensor[by, bx] = quot
        for r, z in zip(*np.nonzero(~integral)):
            rep.integral = False
            if len(rep.non_integral) == 5:
                break
            num, d = _K.normalize([int(v) for v in vals[:, r, z]], den)
            rep.non_integral.append((int(bx[r]), int(by[r]), int(z), CycNum._make(n, num, d)))
        negative = quot < 0
        if negative.any():
            rep.nonnegative = False
            rep.negative_count += int((negative.sum(axis=1) * np.where(bx == by, 1, 2)).sum())
            if rep.first_negative is None:
                r, z = (int(v[0]) for v in np.nonzero(negative))
                rep.first_negative = (int(bx[r]), int(by[r]), z, int(quot[r, z]))
    if not rep.integral:
        return None, rep
    return tensor, rep


def verlinde_raw(world: World) -> tuple[Optional[np.ndarray], IntegralityReport]:
    """Structure constants of a raw world, indexed like its labels."""
    k = world.size
    sp = world.e_matrix().is_signed_permutation()
    signs = sp.signs if sp is not None and sp.perm == world.bar else (1,) * k
    # c[w, z] = sign(z) S[w, bar(z)] / (dim_r(w) D u), read off the character table
    chars = world.raw.characters.chars()
    signed = CycMatrix.from_slices(chars.conductor,
                                   chars.num[:, :, list(world.bar)] * np.array(signs), chars.den)
    c = signed.scale((world.global_dim * world.dim_unit_bar).inv())
    return _structure_constants(world.s, c)


def verlinde_fusion(datum: ModularDatum) -> tuple[Optional[FusionTensor], IntegralityReport]:
    """Structure constants of a normalized datum, with duality read off the tensor."""
    s = datum.s_matrix
    unit_row = s.row(datum.unit)
    if any(e.is_zero() for e in unit_row):
        bad = next(i for i, e in enumerate(unit_row) if e.is_zero())
        raise ZeroDivisionError(f"unit row vanishes at {datum.labels[bad]}")
    # the summation index is the column index l: a[l, x] = S[x, l] and
    # c[l, z] = conj(S[z, l]) / S[unit, l]
    c = s.conj_transpose() * CycMatrix(datum.size, 1, [e.inv() for e in unit_row])
    tensor, rep = _structure_constants(s.transpose(), c)
    if tensor is None:
        return None, rep
    duality = tensor_duality(tensor, datum.unit)
    if duality is None:
        rep.duality_ok = False
        return None, rep
    return FusionTensor(datum.labels, tensor, datum.unit, duality), rep

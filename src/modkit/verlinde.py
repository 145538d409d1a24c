"""Exact Verlinde-style fusion coefficients.

Two routes compute structure constants from an S-matrix:

* :func:`verlinde_raw` works on an unnormalized world (full nondegenerate or
  bold): N_{X,Y}^Z = sign(Z)/(D*u) * sum_W S_{W,X} S_{W,Y} S_{W,Zbar} / dim_r(W),
  where D is the (super)dimension, u = dim_r(unit_bar) and sign(Z) is read
  off the signed permutation S^2/(D*u).  No square roots appear.

* :func:`verlinde_fusion` works on a normalized datum:
  N_{i,j}^k = sum_l S_{i,l} S_{j,l} conj(S_{k,l}) / S_{unit,l}.

Both are one triple sum N[x, y, z] = sum_w a[w, x] a[w, y] c[w, z], read off
as integers modulo split primes.  Galois automorphisms permute the characters
of a fusion ring (Coste & Gannon, Phys. Lett. B 323 (1994) 316): when each
sigma_e, e a generator of (Z/n)^x, maps the rows of ``a`` to rows of ``a`` up
to sign and the rows of ``c`` to the rows of ``c`` by one permutation, every N
is fixed by the Galois group, so rational, and its value at one root of Phi_n
per prime gives it.  The check matches rows of integer slices exactly, with
:func:`modkit.matrix.match_lines`; when it fails, or two rows are equal, the
sum is evaluated at all phi(n) roots and interpolated.

Integrality (and signs) of the output is a classification outcome, reported,
never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .cyclotomic import CycNum
from .datum import ModularDatum, World
from .fusion import FusionTensor, tensor_duality
from .kernel import impl as _K
from .matrix import (CycMatrix, crt, interpolate, match_lines, max_abs, residue_matmul,
                     slice_growth, split_primes, with_bound)

ROUTE_ONE_ROOT = "one root"    # the operands passed the Galois check
ROUTE_ALL_ROOTS = "all roots"  # every root of Phi_n, then interpolation


@dataclass
class IntegralityReport:
    integral: bool = True
    nonnegative: bool = True
    duality_ok: bool = True
    negative_count: int = 0
    first_negative: Optional[tuple[int, int, int, int]] = None
    non_integral: list = field(default_factory=list)  # up to 5 witnesses (x, y, z, value)
    route: str = ROUTE_ALL_ROOTS   # how the triple sum was evaluated; not part of any report

    def non_integral_witness(self) -> dict:
        """The witness of a non-integral tensor: its first such coefficient."""
        x, y, z, v = self.non_integral[0]
        return {"at": (x, y, z), "value": v}

    def negative_suffix(self) -> str:
        """The detail's tail ", N negative entries (first ...)", empty when
        no coefficient is negative."""
        if self.nonnegative:
            return ""
        return f", {self.negative_count} negative entries (first {self.first_negative})"


# rows of pairwise products handled at once: each transient residue stack
# (primes x phi slices of rows x k int64 values) stays near this size
_BLOCK_BYTES = 1 << 18


@lru_cache(maxsize=None)
def galois_generators(n: int) -> tuple[int, ...]:
    """Few units e of Z/n that generate (Z/n)^x (none when n <= 2): each is
    a unit of the largest multiplicative order outside the subgroup the ones
    before it generate, so a cyclic group gets one generator."""
    divisors = _K.divisors(_K.euler_phi(n))

    def order(e: int) -> int:
        return next(d for d in divisors if _K.has_order(e, d, n))

    group, gens = {1 % n}, []
    for e in sorted((e for e in range(2, n) if math.gcd(e, n) == 1), key=lambda e: (-order(e), e)):
        if e not in group:
            gens.append(e)
            # <H, e> is the union of the cosets e^i H up to the first e^i in H
            grown, x = set(group), e
            while x not in group:
                grown |= {x * h % n for h in group}
                x = x * e % n
            group = grown
    return tuple(gens)


def galois_permutations(a: CycMatrix, c: CycMatrix,
                        exponents) -> Optional[list[tuple[int, ...]]]:
    """For each exponent e, a permutation pi_e of the rows with
    sigma_e(a[w]) = +-a[pi_e(w)] and sigma_e(c[w]) = c[pi_e(w)] for every row
    w, where sigma_e: zeta -> zeta^e; None as soon as one e has none.  Rows
    are matched by their integer slices (:func:`modkit.matrix.match_lines`)
    against the rows of ``a`` beside ``c``, then of ``-a`` beside ``c``, so
    the test is exact; operands with two equal rows get None."""
    n, k = math.lcm(a.conductor, c.conductor), a.rows
    a, c = a.lift(n), c.lift(n)
    rows = np.concatenate([np.concatenate([x, c.num], axis=2) for x in (a.num, -a.num)], axis=1)
    perms = []
    for e in exponents:
        ga, gc = a.galois(e), c.galois(e)
        if (ga.den, gc.den) != (a.den, c.den):
            return None
        found = match_lines(rows, np.concatenate([ga.num, gc.num], axis=2))
        if None in found or len({w % k for w in found}) < k:
            return None
        perms.append(tuple(w % k for w in found))
    return perms


def galois_fixed(a: CycMatrix, c: CycMatrix) -> bool:
    """True when every generator of the Galois group of the common conductor
    permutes the rows of ``a`` (up to sign) and of ``c`` together: then each
    sum_w a[w, x] a[w, y] c[w, z] is fixed by every sigma_e, so rational."""
    gens = galois_generators(math.lcm(a.conductor, c.conductor))
    return galois_permutations(a, c, gens) is not None


def _structure_constants(a: CycMatrix, c: CycMatrix) -> tuple[Optional[np.ndarray],
                                                               IntegralityReport]:
    """N[x, y, z] = sum_w a[w, x] a[w, y] c[w, z], read off as integers.

    ``a`` and ``c`` give their residues modulo split primes: at one root of
    Phi_n per prime when :func:`galois_fixed` shows each X = den N to be a
    rational integer, so that its residue is its value there; otherwise at
    all the roots, and the slices of X are interpolated.  N is symmetric in
    (x, y), so only the rows x <= y of the pairwise products P[(x, y), w] =
    a[w, x] a[w, y] are formed, a block of rows at a time, and multiplied by
    ``c``.  An entry is an integer exactly when its non-constant slices vanish
    (always, on the one-root route) and its constant slice is divisible by
    the common denominator.  Witnesses come in the order x <= y, then z.
    """
    k = a.cols
    n = math.lcm(a.conductor, c.conductor)
    a, c = a.lift(n), c.lift(n)
    den = a.den * a.den * c.den
    rep = IntegralityReport()
    # a pair product grows by at most G, and its product with c by k G more
    g = slice_growth(n)
    bound = max_abs(a.num) ** 2 * max_abs(c.num) * k * g * g
    # a constant is at most bound // den in magnitude (one more when negative)
    tensor = with_bound(np.zeros((k, k, k), dtype=np.int64), bound // den)
    sp = split_primes(n, bound)
    if galois_fixed(a, c):
        rep.route = ROUTE_ONE_ROOT
        sp = sp._replace(ev=sp.ev[:, :1])   # row 0: the powers of w itself, w of order n
    ea, ec = a.residues(sp), c.residues(sp)
    phi, roots = len(a.num), ea.shape[1]
    xs, ys = np.triu_indices(k)
    block = max(1, _BLOCK_BYTES // (8 * len(sp.primes) * roots * max(k, 1)))
    for start in range(0, len(xs), block):
        bx, by = xs[start:start + block], ys[start:start + block]
        pairs = sp.mod(ea[..., bx] * ea[..., by]).swapaxes(2, 3)
        prods = residue_matmul(pairs, ec, sp)
        if roots == 1:   # the constant slice alone; the others vanish
            vals = crt(prods[:, 0], sp, bound)[None]
        else:
            vals = interpolate(prods, sp, bound)
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
            coords = [int(v) for v in vals[:, r, z]] + [0] * (phi - len(vals))
            num, d = _K.normalize(coords, den)
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


def raw_operands(world: World) -> tuple[CycMatrix, CycMatrix]:
    """``(a, c)`` whose triple sum is the structure constants of a raw world:
    a[w, x] = s_w(x), the character table, and c[w, z] = sign(z) s_w(bar(z))
    dim_r(w)^2 / (D u) = sign(z) S[w, bar(z)] dim_r(w) / (D u).  The terms are
    those of the sum above, in operands that the Galois group permutes."""
    sp = world.e_signed_permutation
    signs = sp.signs if sp is not None and sp.perm == world.bar else 1
    signed = world.s.columns(world.bar, signs)
    c = signed * world.dim_r.transpose().scale(world.d_u_inv)
    return world.raw.characters.chars(), c


def fusion_operands(datum: ModularDatum) -> tuple[CycMatrix, CycMatrix]:
    """``(a, c)`` whose triple sum is the structure constants of a normalized
    datum.  The summation index is the column index l: a[l, x] = S[x, l] and
    c[l, z] = conj(S[z, l]) / S[unit, l]."""
    s = datum.s_matrix
    nonzero = s.nonzero_in_row(datum.unit)
    if not nonzero.all():
        raise ZeroDivisionError(f"unit row vanishes at {datum.labels[nonzero.argmin()]}")
    dims = CycMatrix.from_slices(s.conductor, s.num[:, datum.unit, :, None], s.den)
    c = s.conj_transpose() * dims.inverse()
    return s.transpose(), c


def verlinde_raw(world: World) -> tuple[Optional[np.ndarray], IntegralityReport]:
    """Structure constants of a raw world, indexed like its labels."""
    return _structure_constants(*raw_operands(world))


def verlinde_fusion(datum: ModularDatum) -> tuple[Optional[FusionTensor], IntegralityReport]:
    """Structure constants of a normalized datum, with duality read off the tensor."""
    tensor, rep = _structure_constants(*fusion_operands(datum))
    if tensor is None:
        return None, rep
    duality = tensor_duality(tensor, datum.unit)
    if duality is None:
        rep.duality_ok = False
        return None, rep
    return FusionTensor(datum.labels, tensor, datum.unit, duality), rep

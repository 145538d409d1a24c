"""Datum types and structural analysis of raw S/T data.

A :class:`RawDatum` is what a braided pivotal fusion category hands us at the
Grothendieck level: the unnormalized S-matrix, the twist of each simple, and
optionally the duality permutation.  Everything else - quantum dimensions,
the symmetric center, the fermion's tensoring action, the representative set,
the bar involution - is recomputed here from those entries, exactly.

Each datum has one :class:`CharacterTable`, built on first use.  The center
(rows equal to the unit row of S), the duality (conjugated columns, which a
supplied duality must not contradict), the bar involution (a signed column
permutation), tensoring by an invertible (rows scaled by a column) and the
fermion action (negated rows of S) are read off it by
:func:`modkit.matrix.match_lines`, which matches whole rows or columns of
integer slices and takes the first of two equal lines.

``kind`` distinguishes a full matrix (every simple is a row) from a bold one
(rows indexed by representatives of the fermion orbits only).  For a bold
datum the duality involution may leave the representative set; ``duality``
then stores the representative of the dual and ``duality_signs`` the factor
dim(eps)^a relating the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cyclotomic import CycNum
from .matrix import (CycMatrix, SignedPermutation, match_lines, max_abs, signed_permutation,
                     with_bound)

KIND_FULL = "raw-full"
KIND_BOLD = "raw-bold"


class DegeneracyError(ValueError):
    """The input does not have the structure the operation requires.  Its
    ``witness`` locates the failure when one label does; ``check`` names the
    report entry it fails when that is not the stage that raised it."""

    check: Optional[str] = None

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


class ZeroGlobalDimensionError(DegeneracyError):
    """D * dim_r(unit_bar) = 0: the datum cannot be normalized."""

    check = "global_dimension_nonzero"


class DegenerateCenterError(DegeneracyError):
    """More than two simples in the symmetric center: the datum is degenerate."""

    check = "symmetric_center"


def _check_shape(labels: Sequence[str], unit: int, s_matrix: CycMatrix, vector: Sequence,
                 what: str) -> None:
    """Refuse an S-matrix, ``what`` vector or unit unfit for the labels, or a repeated label."""
    n = len(labels)
    if s_matrix.rows != n or s_matrix.cols != n:
        raise ValueError("S-matrix shape does not match the label count")
    if len(vector) != n:
        raise ValueError(f"{what} length does not match the label count")
    if not 0 <= unit < n:
        raise ValueError("unit index out of range")
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate label {label!r}")
        seen.add(label)


@dataclass(frozen=True)
class RawDatum:
    labels: tuple[str, ...]
    unit: int
    s_matrix: CycMatrix
    twists: tuple[CycNum, ...]
    kind: str = KIND_FULL
    duality: Optional[tuple[int, ...]] = None
    duality_signs: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _check_shape(self.labels, self.unit, self.s_matrix, self.twists, "twist vector")
        n = len(self.labels)
        if self.kind not in (KIND_FULL, KIND_BOLD):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.duality is not None and sorted(self.duality) != list(range(n)):
            raise ValueError("duality is not a permutation")
        if self.duality_signs is not None:
            if self.duality is None:
                raise ValueError("duality_signs given without a duality")
            if len(self.duality_signs) != n:
                raise ValueError("duality_signs length does not match the label count")
            if any(v not in (1, -1) for v in self.duality_signs):
                raise ValueError("duality_signs entries must be 1 or -1")

    @property
    def size(self) -> int:
        return len(self.labels)

    def dim_r(self, i: int) -> CycNum:
        return self.s_matrix[self.unit, i]

    @cached_property
    def characters(self) -> "CharacterTable":
        """The character table of this datum, built once."""
        return CharacterTable(self)


@dataclass(frozen=True)
class ModularDatum:
    """Normalized pair (S, T): S unitary symmetric, T the diagonal twist vector."""

    labels: tuple[str, ...]
    unit: int
    s_matrix: CycMatrix
    t_diag: tuple[CycNum, ...]

    def __post_init__(self):
        _check_shape(self.labels, self.unit, self.s_matrix, self.t_diag, "T diagonal")

    @property
    def size(self) -> int:
        return len(self.labels)


class Dims(NamedTuple):
    dim_r: CycMatrix       # 1 x k rows
    dim_l: CycMatrix
    sqnorm: CycMatrix
    global_dim: CycNum


def dims_of(raw: RawDatum) -> Dims:
    """Right/left dimensions, squared norms and their sum.

    dim_r is the unit row of S; dim_l(X) = dim_r(X*) times the orbit sign of
    X is that row with its columns permuted by the duality, which the datum
    must carry, and signed by ``duality_signs``.
    """
    if raw.duality is None:
        raise DegeneracyError("duality data is required to compute left dimensions")
    s = raw.s_matrix
    dim_r = CycMatrix.from_slices(s.conductor, s.num[:, raw.unit:raw.unit + 1, :], s.den)
    dim_l = dim_r.columns(raw.duality, raw.duality_signs or 1)
    sqnorm = dim_r * dim_l
    return Dims(dim_r, dim_l, sqnorm, sqnorm.total())


class CharacterTable:
    """The characters of one datum, with its symmetric center and fermion
    action, each computed once.

    ``matrix[X, Y] = S[X, Y] / dim_r(X)`` is the character s_X at Y: one
    :class:`CycMatrix`, so its entries share one conductor and denominator,
    and a negated, conjugated or multiplied copy is brought to the same
    denominator before rows or columns are matched.  A label of dimension
    zero has no character: its row stays its S-row and :meth:`chars` refuses.
    """

    def __init__(self, raw: RawDatum):
        self.labels, self.unit, self.s, self.kind = raw.labels, raw.unit, raw.s_matrix, raw.kind
        self.duality, self.duality_signs = raw.duality, raw.duality_signs
        s = self.s
        dims = s.num[:, raw.unit, :, None]
        self.has_dim = s.nonzero_in_row(raw.unit)
        # a label of dimension zero keeps its S-row: its entry is replaced by 1
        col = with_bound(dims, max(max_abs(dims), s.den)).copy()
        col[0, ~self.has_dim] = s.den
        self.matrix = s * CycMatrix.from_slices(s.conductor, col, s.den).inverse()

    def chars(self) -> CycMatrix:
        """The character matrix, once every label is known to have a character."""
        if not self.has_dim.all():
            raise DegeneracyError(f"dim_r({self.labels[self.has_dim.argmin()]}) = 0")
        return self.matrix

    @cached_property
    def center(self) -> tuple[int, ...]:
        """The labels X with S[X, Y] = dim_r(X) dim_r(Y) for every Y: the rows
        of the table equal to the unit row of S (a row of dimension zero
        qualifies when it vanishes)."""
        c, s, _, _ = self.matrix._aligned(self.s)
        want = np.where(self.has_dim[:, None], s[:, self.unit:self.unit + 1, :], 0)
        return tuple(np.flatnonzero((c == want).all(axis=(0, 2))).tolist())

    def conjugates(self) -> tuple[np.ndarray, np.ndarray, list]:
        """The columns of the character matrix and of its conjugate, over one
        denominator, as slices ``(phi, cols, rows)``, and for each conjugated
        column the first column equal to it, then on a bold datum the first
        negated one, as ``(label, sign)``; None when there is neither."""
        c = self.chars()
        cols, conj, _, _ = c._aligned(c.conj())
        cols, conj = cols.transpose(0, 2, 1), conj.transpose(0, 2, 1)
        k = len(self.labels)
        src = np.concatenate([cols, -cols], axis=1) if self.kind == KIND_BOLD else cols
        found = [None if y is None else (y % k, 1 - 2 * (y // k)) for y in match_lines(src, conj)]
        return cols, conj, found

    @cached_property
    def dual_mismatch(self) -> Optional[int]:
        """The first label X whose conjugated character column is not the
        column of the supplied duality[X], times its sign on a bold datum,
        though it is the column of some label (times -1 or 1 on a bold
        datum): the supplied duality contradicts the one S defines.  None
        when no duality is supplied or none contradicts; a label whose
        conjugate matches no column has no dual in S to compare with."""
        if self.duality is None:
            return None
        cols, conj, found = self.conjugates()
        signs = np.array(self.duality_signs or (1,) * len(self.labels))
        bad = (conj != cols[:, list(self.duality)] * signs[:, None]).any(axis=(0, 2))
        return next((int(x) for x in np.flatnonzero(bad) if found[x] is not None), None)

    @cached_property
    def eps_action(self) -> tuple[int, ...]:
        """X -> eps (x) X: the label whose S-row is the negated S-row of X."""
        act = tuple(match_lines(self.s.num, -self.s.num))
        if None in act:
            raise DegeneracyError(
                f"no label with the negated S-row of {self.labels[act.index(None)]}")
        _involution(act, "row negation does not define an involution")
        fixed = [x for x in range(len(act)) if act[x] == x]
        if fixed:
            raise DegeneracyError(f"fermion action fixes {self.labels[fixed[0]]}")
        return act


def _distinct(raw: RawDatum, lines: np.ndarray) -> None:
    """Refuse two equal lines of slices: their labels have identical characters."""
    for x, y in enumerate(match_lines(lines, lines)):
        if y != x:
            raise DegeneracyError(
                f"labels {raw.labels[y]} and {raw.labels[x]} have identical characters")


def _involution(f: Sequence[int], message: str) -> None:
    if any(f[f[x]] != x for x in range(len(f))):
        raise DegeneracyError(message)


def detect_symmetric_center(raw: RawDatum) -> tuple[int, ...]:
    """All labels X with S[X,Y] = dim_r(X) * dim_r(Y) for every Y (computed
    once per datum, on its character table)."""
    return raw.characters.center


def derive_duality(raw: RawDatum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the duality involution from the S-matrix alone.

    Complex conjugation carries the character column of X to the column of
    X*; on a bold datum the dual may sit in the other orbit, which shows up
    as an overall factor dim(eps) = -1 on the column.  Returns (duality,
    signs); signs are all +1 on a full datum.
    """
    cols, _, found = raw.characters.conjugates()
    _distinct(raw, cols)
    if None in found:
        raise DegeneracyError(f"no dual found for label {raw.labels[found.index(None)]}")
    duality = tuple(y for y, _ in found)
    _involution(duality, "derived duality is not an involution")
    return duality, tuple(sign for _, sign in found)


def with_duality(raw: RawDatum) -> RawDatum:
    """The same datum with duality data present (derived when missing).  The
    result shares the character table of ``raw``.  A supplied duality must
    not contradict the one the characters define.  When none can be derived
    for a full datum, a degenerate symmetric center decides: its repeated
    characters are what stop the derivation."""
    if raw.duality is not None:
        x = raw.characters.dual_mismatch
        if x is not None:
            raise DegeneracyError(f"the supplied duality does not conjugate the character of "
                                  f"{raw.labels[x]}", {"at": x, "label": raw.labels[x]})
        if raw.duality_signs is not None or raw.kind == KIND_FULL:
            return raw
        duality, signs = raw.duality, (1,) * raw.size
    else:
        try:
            duality, signs = derive_duality(raw)
        except DegeneracyError:
            if raw.kind == KIND_FULL and raw.unit in raw.characters.center:
                require_center(raw)
            raise
    out = RawDatum(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind, duality, signs)
    object.__setattr__(out, "characters", raw.characters)
    return out


def epsilon_action(raw: RawDatum) -> tuple[int, ...]:
    """The label involution X -> eps (x) X on a full datum.

    The fermion is central with dim(eps) = -1, so its tensoring action negates
    S-rows; the map is recovered from exact row negation (which also forces
    dim_r(eps (x) X) = -dim_r(X), reading the unit column).  The S-row of
    such an eps is the negated unit row, so an involution takes the unit to
    eps: eps (x) unit = eps needs no check of its own.  Computed once per
    datum, on its character table.
    """
    return raw.characters.eps_action


def bar_involution(raw: RawDatum) -> tuple[tuple[int, ...], int]:
    """The involution X -> Xbar defined by s_Xbar(Y) = s_X(Y*), plus bar(unit).

    Works on a full nondegenerate datum or on a bold datum whose duality
    (with orbit signs) is known; character rows must be pairwise distinct.
    The wanted rows are the character matrix with its columns permuted by the
    duality and signed by the orbit signs.
    """
    raw = with_duality(raw)
    c = raw.characters.chars()
    _distinct(raw, c.num)
    signs = np.array(raw.duality_signs or (1,) * raw.size)
    bar = tuple(match_lines(c.num, c.num[:, :, list(raw.duality)] * signs))
    if None in bar:
        raise DegeneracyError(f"no bar partner for label {raw.labels[bar.index(None)]}")
    _involution(bar, "bar is not an involution")
    return bar, bar[raw.unit]


def tensor_by_invertible(raw: RawDatum, g: int) -> tuple[int, ...]:
    """The label map X -> X (x) g for an invertible label g (full datum).

    Characters are ring homomorphisms, so the character column of X (x) g is
    the entrywise product of the columns of X and g: the columns of the
    character matrix with its rows scaled by the column of g.
    """
    c = raw.characters.chars()
    cols, prod, _, _ = c._aligned(c * c.columns([g]))
    act = tuple(match_lines(cols.transpose(0, 2, 1), prod.transpose(0, 2, 1)))
    if None in act:
        x = act.index(None)
        raise DegeneracyError(f"{raw.labels[x]} (x) {raw.labels[g]} does not match any label")
    return act


# ---------------------------------------------------------------------------
# worlds: the uniform view the identity checks operate on
# ---------------------------------------------------------------------------

class World:
    """A raw datum together with everything the exact identities consume.

    Covers both regimes, read off the datum's kind: the full matrix of a
    nondegenerate category, and the bold (representative-indexed) matrix of a
    slightly degenerate one.  In the latter case dim(eps) = -1 and
    twist(eps) = 1 are the standing hypotheses under which all J-world
    identities are stated.  Every per-label quantity is a 1 x k row:
    dim_r, dim_l, sqnorm, theta (the twists) and theta_inv; the Gauss sums
    tau_plus and tau_minus are the sums of sqnorm * theta and sqnorm * theta_inv.
    """

    def __init__(self, raw: RawDatum):
        raw = with_duality(raw)
        self.raw = raw
        self.nondegenerate = raw.kind == KIND_FULL
        self.labels = raw.labels
        self.size = raw.size
        self.unit = raw.unit
        self.s = raw.s_matrix
        self.twists = raw.twists
        self.duality = raw.duality
        self.dim_r, self.dim_l, self.sqnorm, self.global_dim = dims_of(raw)
        self.theta = CycMatrix(1, raw.size, raw.twists)
        nonzero = self.theta.nonzero_in_row(0)
        if not nonzero.all():
            raise DegeneracyError(f"twist({raw.labels[nonzero.argmin()]}) = 0")
        self.bar, self.unit_bar = bar_involution(raw)
        self.dim_unit_bar = self.dim_r[0, self.unit_bar]
        self.d_u = self.global_dim * self.dim_unit_bar
        if self.d_u.is_zero():
            raise ZeroGlobalDimensionError("D * dim_r(unit_bar) = 0")
        self.d_u_inv = self.d_u.inv()   # scales the Verlinde sum
        self.theta_inv = self.theta.inverse()
        self.tau_plus = (self.sqnorm * self.theta).total()
        self.tau_minus = (self.sqnorm * self.theta_inv).total()

    @cached_property
    def s_squared(self) -> CycMatrix:
        """S^2."""
        return self.s @ self.s

    @cached_property
    def anomaly_squared(self) -> CycNum:
        """xi^2 = tau_plus^2 u / D, or tau_plus^2 u^2 / D off the nondegenerate
        regime (u = dim_r(unit_bar))."""
        u = self.dim_unit_bar
        xi_sq = self.tau_plus * self.tau_plus * u
        if not self.nondegenerate:
            xi_sq = xi_sq * u
        return xi_sq / self.global_dim

    @cached_property
    def e_signed_permutation(self) -> Optional[SignedPermutation]:
        """E = S^2 / (D u) as a signed permutation, or None when it is not
        one, decided once and read off S^2 itself: over one denominator with
        D u, each entry of S^2 must be D u, -D u or 0."""
        s2, d_u, _, _ = self.s_squared._aligned(CycMatrix.identity(1, self.d_u))
        plus, minus = (s2 == d_u).all(axis=0), (s2 == -d_u).all(axis=0)
        if (s2.any(axis=0) & ~plus & ~minus).any():
            return None
        return signed_permutation(plus.astype(np.int64) - minus)


# ---------------------------------------------------------------------------
# reduction of a slightly degenerate full datum to its bold world
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlightlyDegenerateData:
    parent: RawDatum
    epsilon: int                       # full-label index of the fermion
    eps_action: tuple[int, ...]        # X -> eps (x) X on full labels
    reps: tuple[int, ...]              # chosen representatives, in bold order
    world: World = field(repr=False, compare=False)   # the bold world the reduction verified

    def signed_reps(self) -> tuple[tuple[int, int], ...]:
        """Each full label's bold index and sign (:func:`signed_positions`)."""
        return signed_positions(self.eps_action, self.reps)


def signed_positions(act: Sequence[int], reps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """For each label X, the index i of its orbit in ``reps`` and the sign s
    with X = reps[i] (s = 1) or X = eps (x) reps[i] (s = -1), where ``act``
    is X -> eps (x) X."""
    pos = {r: i for i, r in enumerate(reps)}
    return tuple((pos[x], 1) if x in pos else (pos[act[x]], -1) for x in range(len(act)))


def orbit_reps(act: Sequence[int], unit: int,
               reps: Optional[Sequence[int]] = None) -> list[int]:
    """One label per orbit of the fixed-point-free involution ``act``, the
    unit among them.

    Without ``reps`` the first label of each orbit is taken, with the unit in
    place of its partner; given ``reps`` are checked to be such a choice.
    """
    n = len(act)
    if reps is None:
        out = [i for i in range(n) if i < act[i]]
        if unit not in out:
            out[out.index(act[unit])] = unit
        return out
    out = list(reps)
    if any(not 0 <= r < n for r in out):
        raise DegeneracyError(f"reps must be label indices in 0..{n - 1}")
    seen = set(out) | {act[r] for r in out}
    if unit not in out or 2 * len(out) != n or len(seen) != n:
        raise DegeneracyError("reps must contain the unit and pick one label per orbit")
    return out


def require_center(raw: RawDatum) -> tuple[int, ...]:
    """The symmetric center, which must hold the unit and at most one more
    simple; more than two simples raise :class:`DegenerateCenterError`."""
    center = detect_symmetric_center(raw)
    if raw.unit not in center:
        raise DegeneracyError("unit is not in the symmetric center")
    if len(center) > 2:
        names = ", ".join(raw.labels[i] for i in center)
        raise DegenerateCenterError(
            f"{len(center)} simples in the symmetric center ({names}): degenerate")
    return center


def require_fermion(raw: RawDatum, center: Sequence[int]) -> int:
    """eps, the simple of a two-simple center besides the unit, which must
    have dim(eps) = -1 and twist(eps) = 1."""
    eps = center[0] if center[1] == raw.unit else center[1]
    dim_eps, t_eps, one = raw.dim_r(eps), raw.twists[eps], CycNum.from_rational(1)
    if dim_eps != -one or t_eps != one:
        raise DegeneracyError(
            f"dim(eps) = {dim_eps}, twist(eps) = {t_eps}"
            + ("; the dim +1 / twist -1 regime does not satisfy the S/T relations"
               if dim_eps == one and t_eps == -one else ""))
    return eps


def reduce_slightly_degenerate(full: RawDatum,
                               reps: Optional[Sequence[int]] = None) -> SlightlyDegenerateData:
    """Restrict a slightly degenerate full datum to representatives.

    Each hypothesis is decided by the function that decides it in
    :func:`modkit.pipeline.verify_raw`, with its wording: the duality, the
    center {unit, eps}, dim(eps) = -1 and twist(eps) = 1, the fermion action,
    then :func:`reduce_to_reps`.
    """
    if full.kind != KIND_FULL:
        raise DegeneracyError("reduction starts from a full datum")
    full = with_duality(full)
    center = require_center(full)
    if len(center) == 1:
        raise DegeneracyError("symmetric center is trivial: the datum is nondegenerate")
    eps = require_fermion(full, center)
    return reduce_to_reps(full, eps, epsilon_action(full), reps)


def reduce_to_reps(full: RawDatum, eps: int, act: Sequence[int],
                   reps: Optional[Sequence[int]] = None) -> SlightlyDegenerateData:
    """The reduction of a full datum, with its duality, whose fermion eps acts
    by ``act``.  The representatives default to the first label of each orbit
    (unit forced in); pass ``reps`` to override.  The square of the bold
    matrix is verified to be sdim * dim_r(unit_bar) times a signed permutation
    whose permutation part is the bar involution and whose signs track which
    duals leave the representative set."""
    reps_l = orbit_reps(act, full.unit, reps)
    signed = signed_positions(act, reps_l)
    s = full.s_matrix
    bold_s = CycMatrix.from_slices(s.conductor, s.num[:, reps_l][:, :, reps_l], s.den)
    # a dual outside the representatives is eps (x) a representative: sign -1
    duals = [signed[full.duality[x]] for x in reps_l]
    bold = RawDatum(
        labels=tuple(full.labels[r] for r in reps_l),
        unit=signed[full.unit][0],
        s_matrix=bold_s,
        twists=tuple(full.twists[r] for r in reps_l),
        kind=KIND_BOLD,
        duality=tuple(i for i, _ in duals),
        duality_signs=tuple(sign for _, sign in duals),
    )
    w = World(bold)
    if w.global_dim + w.global_dim != dims_of(full).global_dim:
        raise DegeneracyError("representative squared norms do not sum to half the global dimension")

    sp = w.e_signed_permutation
    if sp is None:
        raise DegeneracyError("S^2 is not sdim * dim_r(unit_bar) times a signed permutation")
    if sp.perm != w.bar:
        raise DegeneracyError("the permutation part of S^2 does not match the bar involution")
    # signs must record which duals leave the representative set, via 1bar
    t_unit_bar = tensor_by_invertible(full, reps_l[w.unit_bar])
    for i, x in enumerate(reps_l):
        expected = signed[t_unit_bar[full.duality[x]]][1]
        if sp.signs[i] != expected:
            raise DegeneracyError(
                f"sign of S^2 at {full.labels[x]} is {sp.signs[i]}, expected {expected}")

    return SlightlyDegenerateData(parent=full, epsilon=eps, eps_action=act, reps=tuple(reps_l),
                                  world=w)

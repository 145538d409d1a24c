"""Datum types and structural analysis of raw S/T data.

A :class:`RawDatum` is what a braided pivotal fusion category hands us at the
Grothendieck level: the unnormalized S-matrix, the twist of each simple, and
optionally the duality permutation.  Everything else - quantum dimensions,
the symmetric center, the fermion's tensoring action, the representative set,
the bar involution - is recomputed here from those entries, exactly.

``kind`` distinguishes a full matrix (every simple is a row) from a bold one
(rows indexed by representatives of the fermion orbits only).  For a bold
datum the duality involution may leave the representative set; ``duality``
then stores the representative of the dual and ``duality_signs`` the factor
dim(eps)^a relating the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .cyclotomic import CycNum
from .matrix import CycMatrix

KIND_FULL = "raw-full"
KIND_BOLD = "raw-bold"


class DegeneracyError(ValueError):
    """The input does not have the structure the operation requires."""


def _check_labels(labels: Sequence[str]) -> None:
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
        n = len(self.labels)
        if self.s_matrix.rows != n or self.s_matrix.cols != n:
            raise ValueError("S-matrix shape does not match the label count")
        if len(self.twists) != n:
            raise ValueError("twist vector length does not match the label count")
        if not 0 <= self.unit < n:
            raise ValueError("unit index out of range")
        if self.kind not in (KIND_FULL, KIND_BOLD):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.duality is not None and sorted(self.duality) != list(range(n)):
            raise ValueError("duality is not a permutation")
        _check_labels(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def dim_r(self, i: int) -> CycNum:
        return self.s_matrix[self.unit, i]


@dataclass(frozen=True)
class ModularDatum:
    """Normalized pair (S, T): S unitary symmetric, T the diagonal twist vector."""

    labels: tuple[str, ...]
    unit: int
    s_matrix: CycMatrix
    t_diag: tuple[CycNum, ...]

    def __post_init__(self):
        n = len(self.labels)
        if self.s_matrix.rows != n or self.s_matrix.cols != n:
            raise ValueError("S-matrix shape does not match the label count")
        if len(self.t_diag) != n:
            raise ValueError("T diagonal length does not match the label count")
        if not 0 <= self.unit < n:
            raise ValueError("unit index out of range")
        _check_labels(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)


class Dims(NamedTuple):
    dim_r: tuple[CycNum, ...]
    dim_l: tuple[CycNum, ...]
    sqnorm: tuple[CycNum, ...]
    global_dim: CycNum


def _entry_key(e: CycNum):
    # entries of one CycMatrix share a conductor, so (num, den) is canonical
    return (e.num, e.den)


def _row_key(row) -> tuple:
    return tuple(_entry_key(e) for e in row)


def dims_of(raw: RawDatum, duality: Optional[Sequence[int]] = None,
            duality_signs: Optional[Sequence[int]] = None) -> Dims:
    """Right/left dimensions, squared norms and their sum.

    dim_r is the unit row; dim_l(X) = dim_r(X*) needs the duality involution,
    supplied here or on the datum itself.
    """
    s = raw.s_matrix
    dim_r = s.row(raw.unit)
    duality = raw.duality if duality is None else tuple(duality)
    if duality is None:
        raise DegeneracyError("duality data is required to compute left dimensions")
    signs = raw.duality_signs if duality_signs is None else tuple(duality_signs)
    if signs is None:
        signs = (1,) * raw.size
    dim_l = tuple(dim_r[duality[i]] if signs[i] == 1 else -dim_r[duality[i]]
                  for i in range(raw.size))
    sqnorm = tuple(r * l for r, l in zip(dim_r, dim_l))
    total = CycNum.from_rational(0)
    for q in sqnorm:
        total = total + q
    return Dims(tuple(dim_r), dim_l, sqnorm, total)


def character_rows(raw: RawDatum) -> list[tuple[CycNum, ...]]:
    """Row X holds s_X(Y) = S[X,Y] / dim_r(X) for all Y."""
    s = raw.s_matrix
    dim_r = s.row(raw.unit)
    out = []
    for x in range(raw.size):
        if dim_r[x].is_zero():
            raise DegeneracyError(f"dim_r({raw.labels[x]}) = 0")
        inv = dim_r[x].inv()
        out.append(tuple(e * inv for e in s.row(x)))
    return out


def detect_symmetric_center(raw: RawDatum) -> tuple[int, ...]:
    """All labels X with S[X,Y] = dim_r(X) * dim_r(Y) for every Y."""
    s = raw.s_matrix
    dim_r = s.row(raw.unit)
    out = []
    for x in range(raw.size):
        dx = dim_r[x]
        if all(s[x, y] == dx * dim_r[y] for y in range(raw.size)):
            out.append(x)
    return tuple(out)


def derive_duality(raw: RawDatum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the duality involution from the S-matrix alone.

    Complex conjugation carries the character column of X to the column of
    X*; on a bold datum the dual may sit in the other orbit, which shows up
    as an overall factor dim(eps) = -1 on the column.  Returns (duality,
    signs); signs are all +1 on a full datum.
    """
    chars = character_rows(raw)
    n = raw.size
    cols = {}
    for x in range(n):
        key = _row_key([chars[y][x] for y in range(n)])
        if key in cols:
            raise DegeneracyError(
                f"labels {raw.labels[cols[key]]} and {raw.labels[x]} have identical characters")
        cols[key] = x
    duality = [0] * n
    signs = [1] * n
    for x in range(n):
        conj_col = [chars[y][x].conj() for y in range(n)]
        hit = cols.get(_row_key(conj_col))
        if hit is not None:
            duality[x], signs[x] = hit, 1
            continue
        if raw.kind == KIND_BOLD:
            hit = cols.get(_row_key([-e for e in conj_col]))
            if hit is not None:
                duality[x], signs[x] = hit, -1
                continue
        raise DegeneracyError(f"no dual found for label {raw.labels[x]}")
    if any(duality[duality[x]] != x for x in range(n)):
        raise DegeneracyError("derived duality is not an involution")
    return tuple(duality), tuple(signs)


def with_duality(raw: RawDatum) -> RawDatum:
    """The same datum with duality data present (derived when missing)."""
    if raw.duality is not None:
        if raw.duality_signs is not None or raw.kind == KIND_FULL:
            return raw
        return RawDatum(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind,
                        raw.duality, (1,) * raw.size)
    duality, signs = derive_duality(raw)
    return RawDatum(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind,
                    duality, signs)


def epsilon_action(raw: RawDatum) -> tuple[int, ...]:
    """The label involution X -> eps (x) X on a full datum.

    The fermion is central with dim(eps) = -1, so its tensoring action negates
    S-rows; the map is recovered from exact row negation (which also forces
    dim_r(eps (x) X) = -dim_r(X), reading the unit column).
    """
    s = raw.s_matrix
    n = raw.size
    rows = {_row_key(s.row(x)): x for x in range(n)}
    act = []
    for x in range(n):
        hit = rows.get(_row_key([-e for e in s.row(x)]))
        if hit is None:
            raise DegeneracyError(f"no label with the negated S-row of {raw.labels[x]}")
        act.append(hit)
    if any(act[act[x]] != x for x in range(n)):
        raise DegeneracyError("row negation does not define an involution")
    if any(act[x] == x for x in range(n)):
        x = next(x for x in range(n) if act[x] == x)
        raise DegeneracyError(f"fermion action fixes {raw.labels[x]}")
    return tuple(act)


def bar_involution(raw: RawDatum) -> tuple[tuple[int, ...], int]:
    """The involution X -> Xbar defined by s_Xbar(Y) = s_X(Y*), plus bar(unit).

    Works on a full nondegenerate datum or on a bold datum whose duality
    (with orbit signs) is known; character rows must be pairwise distinct.
    """
    raw = with_duality(raw)
    chars = character_rows(raw)
    n = raw.size
    rows = {}
    for x in range(n):
        key = _row_key(chars[x])
        if key in rows:
            raise DegeneracyError(
                f"labels {raw.labels[rows[key]]} and {raw.labels[x]} have identical characters")
        rows[key] = x
    signs = raw.duality_signs or (1,) * n
    bar = []
    for x in range(n):
        target = [chars[x][raw.duality[y]] if signs[y] == 1 else -chars[x][raw.duality[y]]
                  for y in range(n)]
        hit = rows.get(_row_key(target))
        if hit is None:
            raise DegeneracyError(f"no bar partner for label {raw.labels[x]}")
        bar.append(hit)
    if any(bar[bar[x]] != x for x in range(n)):
        raise DegeneracyError("bar is not an involution")
    return tuple(bar), bar[raw.unit]


def tensor_by_invertible(raw: RawDatum, g: int) -> tuple[int, ...]:
    """The label map X -> X (x) g for an invertible label g (full datum).

    Characters are ring homomorphisms, so the character column of X (x) g is
    the entrywise product of the columns of X and g; exact column matching
    recovers the map.
    """
    chars = character_rows(raw)
    n = raw.size
    cols = {_row_key([chars[y][x] for y in range(n)]): x for x in range(n)}
    out = []
    for x in range(n):
        prod = [chars[y][x] * chars[y][g] for y in range(n)]
        hit = cols.get(_row_key(prod))
        if hit is None:
            raise DegeneracyError(
                f"{raw.labels[x]} (x) {raw.labels[g]} does not match any label")
        out.append(hit)
    return tuple(out)


# ---------------------------------------------------------------------------
# worlds: the uniform view the identity checks operate on
# ---------------------------------------------------------------------------

MODE_NONDEGENERATE = "nondegenerate"
MODE_SLIGHTLY_DEGENERATE = "slightly_degenerate"


class World:
    """A raw datum together with everything the exact identities consume.

    Covers both regimes: the full matrix of a nondegenerate category, and the
    bold (representative-indexed) matrix of a slightly degenerate one.  In
    the latter case dim(eps) = -1 and twist(eps) = 1 are the standing
    hypotheses under which all J-world identities are stated.
    """

    def __init__(self, raw: RawDatum, mode: str):
        raw = with_duality(raw)
        self.raw = raw
        self.mode = mode
        self.labels = raw.labels
        self.size = raw.size
        self.unit = raw.unit
        self.s = raw.s_matrix
        self.twists = raw.twists
        self.duality = raw.duality
        self.duality_signs = raw.duality_signs or (1,) * raw.size
        d = dims_of(raw)
        for label, t in zip(raw.labels, raw.twists):
            if t.is_zero():
                raise DegeneracyError(f"twist({label}) = 0")
        self.dim_r = d.dim_r
        self.dim_l = d.dim_l
        self.sqnorm = d.sqnorm
        self.global_dim = d.global_dim
        self.bar, self.unit_bar = bar_involution(raw)
        self.dim_unit_bar = self.dim_r[self.unit_bar]
        if (self.global_dim * self.dim_unit_bar).is_zero():
            raise DegeneracyError("D * dim_r(unit_bar) = 0")
        tp = CycNum.from_rational(0)
        tm = CycNum.from_rational(0)
        for q, t in zip(self.sqnorm, self.twists):
            tp = tp + q * t
            tm = tm + q * t.inv()
        self.tau_plus = tp
        self.tau_minus = tm
        self._s2 = None
        self._e = None
        self._xi_sq = None

    @property
    def t_matrix(self) -> CycMatrix:
        """The categorical T-matrix diag(theta^-1)."""
        return CycMatrix.diagonal([t.inv() for t in self.twists])

    def s_squared(self) -> CycMatrix:
        """S^2, computed once."""
        if self._s2 is None:
            self._s2 = self.s @ self.s
        return self._s2

    def anomaly_squared(self) -> CycNum:
        """xi^2 = tau_plus^2 u / D, or tau_plus^2 u^2 / D off the nondegenerate
        regime (u = dim_r(unit_bar)), computed once."""
        if self._xi_sq is None:
            u = self.dim_unit_bar
            xi_sq = self.tau_plus * self.tau_plus * u
            if self.mode != MODE_NONDEGENERATE:
                xi_sq = xi_sq * u
            self._xi_sq = xi_sq / self.global_dim
        return self._xi_sq

    def e_matrix(self) -> CycMatrix:
        """S^2 / (D * dim_r(unit_bar)); a signed permutation on valid input."""
        if self._e is None:
            scale_inv = (self.global_dim * self.dim_unit_bar).inv()
            self._e = self.s_squared().scale(scale_inv)
        return self._e


def nondegenerate_world(raw: RawDatum) -> World:
    if raw.kind != KIND_FULL:
        raise DegeneracyError("a nondegenerate world needs the full matrix")
    return World(raw, MODE_NONDEGENERATE)


def bold_world(raw: RawDatum) -> World:
    if raw.kind != KIND_BOLD:
        raise DegeneracyError("a bold world needs a representative-indexed matrix")
    return World(raw, MODE_SLIGHTLY_DEGENERATE)


# ---------------------------------------------------------------------------
# reduction of a slightly degenerate full datum to its bold world
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlightlyDegenerateData:
    parent: RawDatum
    epsilon: int                       # full-label index of the fermion
    eps_action: tuple[int, ...]        # X -> eps (x) X on full labels
    reps: tuple[int, ...]              # chosen representatives, in bold order
    bold: RawDatum                     # kind raw-bold, duality/signs on reps
    bar: tuple[int, ...]               # involution on bold indices
    unit_bar: int                      # bold index
    e_matrix: CycMatrix
    e_signs: tuple[int, ...]
    sdim: CycNum
    dim_unit_bar: CycNum
    bold_world: World = field(repr=False, compare=False)

    def world(self) -> World:
        """The bold world the reduction verified (built once)."""
        return self.bold_world

    def signed_reps(self) -> tuple[tuple[int, int], ...]:
        """For each full label X, the bold index i of its orbit and the sign
        s with X = reps[i] (s = 1) or X = eps (x) reps[i] (s = -1)."""
        pos = {r: i for i, r in enumerate(self.reps)}
        return tuple((pos[x], 1) if x in pos else (pos[self.eps_action[x]], -1)
                     for x in range(self.parent.size))


def orbit_reps(act: Sequence[int], unit: int,
               reps: Optional[Sequence[int]] = None) -> list[int]:
    """One label per orbit of the fixed-point-free involution ``act``, the
    unit among them.

    Without ``reps`` the first label of each orbit is taken, with the unit in
    place of its partner; given ``reps`` are checked to be such a choice.
    """
    n = len(act)
    if reps is None:
        out, seen = [], set()
        for i in range(n):
            if i not in seen:
                out.append(i)
                seen.add(i)
                seen.add(act[i])
        if unit not in out:
            out[out.index(act[unit])] = unit
        return out
    out = list(reps)
    if any(not 0 <= r < n for r in out):
        raise DegeneracyError(f"reps must be label indices in 0..{n - 1}")
    seen = set()
    for r in out:
        seen.add(r)
        seen.add(act[r])
    if unit not in out or 2 * len(out) != n or len(seen) != n:
        raise DegeneracyError("reps must contain the unit and pick one label per orbit")
    return out


def reduce_slightly_degenerate(full: RawDatum,
                               reps: Optional[Sequence[int]] = None) -> SlightlyDegenerateData:
    """Restrict a slightly degenerate full datum to representatives.

    Checks the hypotheses exactly: symmetric center {unit, eps} with
    dim(eps) = -1 and twist(eps) = 1, fixed-point-free tensoring action.  The
    representative set defaults to the first label of each orbit (unit forced
    in); pass ``reps`` to override.  The square of the bold matrix is
    verified to be sdim * dim_r(unit_bar) times a signed permutation whose
    permutation part is the bar involution and whose signs track which duals
    leave the representative set.
    """
    if full.kind != KIND_FULL:
        raise DegeneracyError("reduction starts from a full datum")
    full = with_duality(full)
    center = detect_symmetric_center(full)
    if len(center) == 1:
        raise DegeneracyError("symmetric center is trivial: the datum is nondegenerate")
    if len(center) != 2:
        names = ", ".join(full.labels[i] for i in center)
        raise DegeneracyError(f"symmetric center has {len(center)} labels ({names}): degenerate")
    if full.unit not in center:
        raise DegeneracyError("the unit is not in the symmetric center: malformed input")
    eps = center[0] if center[1] == full.unit else center[1]
    dim_eps = full.dim_r(eps)
    one = CycNum.from_rational(1)
    if dim_eps == one and full.twists[eps] == -one:
        raise DegeneracyError(
            "central invertible with dim +1 and twist -1: this regime does not "
            "yield the S/T relations (see the q16 counterexample); refusing to reduce")
    if dim_eps != -one:
        raise DegeneracyError(f"dim(eps) = {dim_eps}, expected -1")
    if full.twists[eps] != one:
        raise DegeneracyError(f"twist(eps) = {full.twists[eps]}, expected 1")
    act = epsilon_action(full)
    if act[full.unit] != eps:
        raise DegeneracyError("row negation of the unit does not land on eps")

    reps_l = orbit_reps(act, full.unit, reps)
    pos = {r: i for i, r in enumerate(reps_l)}
    k = len(reps_l)
    bold_s = CycMatrix(k, k, [full.s_matrix[x, y] for x in reps_l for y in reps_l])
    bold_duality = []
    bold_signs = []
    for x in reps_l:
        d = full.duality[x]
        if d in pos:
            bold_duality.append(pos[d])
            bold_signs.append(1)
        else:
            bold_duality.append(pos[act[d]])
            bold_signs.append(-1)
    bold = RawDatum(
        labels=tuple(full.labels[r] for r in reps_l),
        unit=pos[full.unit],
        s_matrix=bold_s,
        twists=tuple(full.twists[r] for r in reps_l),
        kind=KIND_BOLD,
        duality=tuple(bold_duality),
        duality_signs=tuple(bold_signs),
    )
    w = bold_world(bold)
    full_dims = dims_of(full)
    if w.global_dim + w.global_dim != full_dims.global_dim:
        raise DegeneracyError("representative squared norms do not sum to half the global dimension")

    e = w.e_matrix()
    sp = e.is_signed_permutation()
    if sp is None:
        raise DegeneracyError("S^2 is not sdim * dim_r(unit_bar) times a signed permutation")
    if sp.perm != w.bar:
        raise DegeneracyError("the permutation part of S^2 does not match the bar involution")
    # signs must record which duals leave the representative set, via 1bar
    t_unit_bar = tensor_by_invertible(full, reps_l[w.unit_bar])
    for i, x in enumerate(reps_l):
        expected = 1 if t_unit_bar[full.duality[x]] in pos else -1
        if sp.signs[i] != expected:
            raise DegeneracyError(
                f"sign of S^2 at {full.labels[x]} is {sp.signs[i]}, expected {expected}")

    return SlightlyDegenerateData(
        parent=full,
        epsilon=eps,
        eps_action=act,
        reps=tuple(reps_l),
        bold=bold,
        bar=w.bar,
        unit_bar=w.unit_bar,
        e_matrix=e,
        e_signs=sp.signs,
        sdim=w.global_dim,
        dim_unit_bar=w.dim_unit_bar,
        bold_world=w,
    )

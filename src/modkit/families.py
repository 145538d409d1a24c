"""Generators for the built-in families and their independent fusion oracles.

Three sources of data:

* ``pointed_cyclic(n, a, k0)``: graded lines over Z/nZ (n odd) with braiding
  parameter zeta = zeta_n^a and pivot parameter xi = zeta^k0.  Nondegenerate
  exactly when zeta has order n; degenerate instances are valid test inputs.

* ``taft_double(d)``: the slightly degenerate category on d(d-1) simples
  M_{l,p} (1 <= l < d, p mod d) with closed-form S-matrix and twists; the
  fermion is M_{d-1,1}.  ``taft_fusion`` decomposes tensor products through
  the translation/recursion rules and is the oracle the S-matrix route is
  checked against.

* ``sl2_q16_counterexample()``: the rank-4 datum (and its rank-2 restriction)
  whose central invertible has dimension +1 and twist -1; the restriction
  must fail the S/T relations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import matrix
from .cyclotomic import CycNum, root_of_unity
from .datum import KIND_BOLD, KIND_FULL, RawDatum
from .fusion import FusionTensor
from .matrix import CycMatrix, root_slices


class FamilySpecError(ValueError):
    """A family spec string could not be parsed or has invalid parameters."""


def _within_budget(what: str, shape: tuple[int, ...]) -> None:
    """Refuse ``what`` before it is built when its largest array, int64 of
    ``shape``, would pass ``matrix.TABLE_BYTES``: the (conductor, k, k) root
    slices of a datum's S-matrix, or the (k, k, k) tensor of an oracle."""
    size = 8 * math.prod(shape)
    if size > matrix.TABLE_BYTES:
        raise FamilySpecError(f"{what} needs an int64 array of shape {shape}, {size:,} bytes, "
                              f"past the budget of {matrix.TABLE_BYTES:,} bytes")


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    raw: RawDatum
    oracle: Optional[Callable[[], FusionTensor]] = field(default=None, repr=False, compare=False)
    reps: Optional[tuple[int, ...]] = None      # representative indices for the reduction

    @cached_property
    def fusion_oracle(self) -> Optional[FusionTensor]:
        """The independent fusion tensor, built on first read (``modkit
        generate`` never reads it) and the same object on every later read."""
        return None if self.oracle is None else self.oracle()


# ---------------------------------------------------------------------------
# pointed cyclic family
# ---------------------------------------------------------------------------

def pointed_cyclic(n: int, a: int = 1, k0: int = 0) -> RawDatum:
    """Graded-lines datum on Z/nZ: S[k,l] = xi^(k+l) zeta^(2kl), theta_k =
    xi^k zeta^(k^2), dim_r(delta_k) = xi^k, duality k -> -k."""
    if n < 3 or n % 2 == 0:
        raise FamilySpecError(f"the pointed family needs an odd n >= 3, got {n}")
    _within_budget(f"pointed:n={n}", (n, n, n))
    twists = tuple(root_of_unity(n, a * (k0 * k + k * k)) for k in range(n))
    k, l = np.ogrid[:n, :n]
    s = CycMatrix.from_slices(n, root_slices(n, a * (k0 * (k + l) + 2 * k * l)), 1)
    return RawDatum(
        labels=tuple(f"d{k}" for k in range(n)),
        unit=0,
        s_matrix=s,
        twists=twists,
        kind=KIND_FULL,
        duality=tuple((-k) % n for k in range(n)),
    )


def pointed_fusion_tensor(n: int) -> FusionTensor:
    """The group law of Z/nZ as a fusion tensor."""
    _within_budget(f"the fusion oracle of pointed:n={n}", (n, n, n))
    t = np.zeros((n, n, n), dtype=np.int64)
    k, l = np.ogrid[:n, :n]
    t[k, l, (k + l) % n] = 1
    return FusionTensor(tuple(f"d{k}" for k in range(n)), t, 0,
                        tuple((-k) % n for k in range(n)))


# ---------------------------------------------------------------------------
# Taft double family
# ---------------------------------------------------------------------------

class TaftLabel(NamedTuple):
    l: int
    p: int

    def __str__(self):
        return f"({self.l},{self.p})"


def taft_labels(d: int) -> list[TaftLabel]:
    return [TaftLabel(l, p) for l in range(1, d) for p in range(d)]


def taft_label_index(d: int, x: TaftLabel) -> int:
    return (x.l - 1) * d + x.p


def parse_taft_label(d: int, text: str) -> TaftLabel:
    body = text.strip().lstrip("(").rstrip(")")
    try:
        l, p = (int(v) for v in body.split(","))
    except ValueError as exc:
        raise FamilySpecError(f"cannot parse label {text!r}") from exc
    if not (1 <= l <= d - 1 and 0 <= p < d):
        raise FamilySpecError(f"label {text!r} is out of range for d={d}")
    return TaftLabel(l, p)


def taft_dual(d: int, x: TaftLabel) -> TaftLabel:
    return TaftLabel(x.l, (1 - x.l - x.p) % d)


def taft_epsilon_action(d: int, x: TaftLabel) -> TaftLabel:
    """Tensoring with the fermion: (l, p) -> (d - l, l + p)."""
    return TaftLabel(d - x.l, (x.l + x.p) % d)


def _taft_exponents(labels: list[TaftLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrices ``e1 = -(ll' + lp' + pl' + 2pp')`` and ``e2 = e1 + ll'``
    over pairs of ``labels``: zeta^e1 (1 - zeta^(ll')) = zeta^e1 - zeta^e2."""
    lab = np.array(labels, dtype=np.int64).reshape(-1, 2)
    l, p = lab[:, :1], lab[:, 1:]
    e1 = -(l * l.T + l * p.T + p * l.T + 2 * p * p.T)
    return e1, e1 + l * l.T


def taft_double(d: int) -> RawDatum:
    """Full datum on the d(d-1) labels (l, p), lexicographically ordered.

    S[(l,p),(l',p')] = zeta/(1-zeta) * zeta^-(ll'+lp'+pl'+2pp') (1-zeta^(ll'))
    with zeta the canonical primitive d-th root.  The twist convention is
    pinned by consistency with this S: theta_(l,p) = zeta^(-p(l+p)) is the
    choice under which balancing, the S/T cubes and the Gauss-sum laws all
    hold exactly (the opposite exponent pairs with the conjugate braiding).
    Galois-conjugate variants are one entrywise ``galois`` call away.
    """
    if d < 2:
        raise FamilySpecError(f"the Taft family needs d >= 2, got {d}")
    _within_budget(f"taft:d={d}", (d, d * (d - 1), d * (d - 1)))
    z = root_of_unity(d)
    pref = z / (CycNum.from_rational(1) - z)
    labels = taft_labels(d)
    e1, e2 = _taft_exponents(labels)
    s = CycMatrix.from_slices(d, root_slices(d, e1) - root_slices(d, e2), 1).scale(pref)
    twists = tuple(root_of_unity(d, -p * (l + p)) for (l, p) in labels)
    duality = tuple(taft_label_index(d, taft_dual(d, x)) for x in labels)
    return RawDatum(
        labels=tuple(str(x) for x in labels),
        unit=0,
        s_matrix=s,
        twists=twists,
        kind=KIND_FULL,
        duality=duality,
    )


@lru_cache(maxsize=None)
def _mul_l0(d: int, l: int, lp: int, q: int) -> tuple:
    """M_{l,0} (x) M_{l',q} as a sorted tuple of ((l, p), multiplicity)."""
    if l == 1:
        return (((lp, q), 1),)
    if l == 2:
        if lp == 1:
            return (((2, q), 1),)
        if lp == d - 1:
            return (((d - 2, (q + 1) % d), 1),)
        return tuple(sorted((((lp + 1, q), 1), ((lp - 1, (q + 1) % d), 1))))
    # M_{l,0} = M_{2,0} (x) M_{l-1,0} - M_{l-2,1} in the fusion ring
    acc: Counter = Counter()
    for (a, b), m in _mul_l0(d, l - 1, lp, q):
        for lab, m2 in _mul_l0(d, 2, a, b):
            acc[lab] += m * m2
    for lab, m in _mul_l0(d, l - 2, lp, (q + 1) % d):
        acc[lab] -= m
        if acc[lab] < 0:
            raise AssertionError(f"negative multiplicity at {lab} in d={d}")
    out = tuple(sorted((lab, m) for lab, m in acc.items() if m))
    if any(not 1 <= lab[0] <= d - 1 for lab, _ in out):
        raise AssertionError(f"killed label appeared in d={d}")
    return out


def taft_fusion(d: int, x: TaftLabel, y: TaftLabel) -> Counter:
    """Exact decomposition of M_x (x) M_y as a multiset of labels."""
    x, y = TaftLabel(*x), TaftLabel(*y)
    for lab in (x, y):
        if not (1 <= lab.l <= d - 1 and 0 <= lab.p < d):
            raise ValueError(f"label {lab} is out of range for d={d}")
    return Counter({TaftLabel(*lab): m
                    for lab, m in _mul_l0(d, x.l, y.l, (x.p + y.p) % d)})


def taft_fusion_tensor(d: int) -> FusionTensor:
    """:func:`taft_fusion` on every pair: M_{l,p} (x) M_{l',p'} = M_{l,0} (x)
    M_{l',p+p'}, so ``rows[l, l', q]`` is the row of each pair with p + p' = q."""
    labels = taft_labels(d)
    n = len(labels)
    _within_budget(f"the fusion oracle of taft:d={d}", (n, n, n))
    rows = np.zeros((d, d, d, n), dtype=np.int64)
    for l in range(1, d):
        for lp in range(1, d):
            for q in range(d):
                for lab, m in _mul_l0(d, l, lp, q):
                    rows[l, lp, q, taft_label_index(d, TaftLabel(*lab))] = m
    l, p = np.array(labels).T
    t = rows[l[:, None], l, (p[:, None] + p) % d]
    duality = tuple(taft_label_index(d, taft_dual(d, x)) for x in labels)
    return FusionTensor(tuple(str(x) for x in labels), t, 0, duality)


def taft_J(d: int) -> list[TaftLabel]:
    """Representatives of the fermion orbits: 0 <= p < l + p < d, lex order."""
    return [x for x in taft_labels(d) if 0 <= x.p < x.l + x.p < d]


def taft_J_indices(d: int) -> tuple[int, ...]:
    return tuple(taft_label_index(d, x) for x in taft_J(d))


def taft_sdim(d: int) -> CycNum:
    """-zeta d^2 / (1-zeta)^2, the representative-set sum of squared norms."""
    z = root_of_unity(d)
    one_minus = CycNum.from_rational(1) - z
    return -(z * d * d) / (one_minus * one_minus)


def taft_normalizer(d: int) -> CycNum:
    """c = d*zeta/(zeta-1); satisfies c^2 = sdim * dim_r(unit_bar) exactly.

    The opposite sign squares to the same value; this branch reproduces the
    closed-form normalized matrix of :func:`taft_normalized_S`.
    """
    z = root_of_unity(d)
    c = (z * d) / (z - CycNum.from_rational(1))
    u = -z  # dim_r of the bar of the unit, M_{d-1,0}
    assert c * c == taft_sdim(d) * u
    return c


def taft_normalized_S(d: int) -> CycMatrix:
    """Closed form zeta^-(ll'+lp'+pl'+2pp') (zeta^(ll')-1)/d on the
    representative set."""
    e1, e2 = _taft_exponents(taft_J(d))
    return CycMatrix.from_slices(d, root_slices(d, e2) - root_slices(d, e1), d)


# ---------------------------------------------------------------------------
# the q16 counterexample
# ---------------------------------------------------------------------------

def sl2_q16_counterexample() -> tuple[RawDatum, RawDatum]:
    """The rank-4 datum with central invertible of dimension +1, twist -1,
    and its representative-indexed restriction (which fails the S/T cube)."""
    q = root_of_unity(16)
    one = CycNum.from_rational(1)
    br = q ** 2 + one + q ** 14          # [3] = q^-2 + 1 + q^2
    i = q ** 4
    full_s = CycMatrix.from_rows([
        [one, br, br, one],
        [br, -one, -one, br],
        [br, -one, -one, br],
        [one, br, br, one],
    ])
    # printed T-matrix diag(1, -i, i, -1) is diag(theta^-1)
    full_twists = (one, i, -i, -one)
    full = RawDatum(
        labels=("V0", "V2", "V4", "V6"),
        unit=0,
        s_matrix=full_s,
        twists=full_twists,
        kind=KIND_FULL,
        duality=(0, 1, 2, 3),
    )
    bold_s = CycMatrix.from_rows([[one, br], [br, -one]])
    bold = RawDatum(
        labels=("V0", "V2"),
        unit=0,
        s_matrix=bold_s,
        twists=(one, i),
        kind=KIND_BOLD,
        duality=(0, 1),
        duality_signs=(1, 1),
    )
    return full, bold


# ---------------------------------------------------------------------------
# family spec strings
# ---------------------------------------------------------------------------

def from_spec(spec: str) -> FamilyInstance:
    """Parse a family spec string: ``taft:d=5``, ``pointed:n=7,a=1,k0=2``,
    ``counterexample:sl2q16`` (or ``counterexample:sl2q16,part=full``).  A key
    or flag the family does not take, or one given twice, is refused."""
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    args: dict[str, str] = {}
    given: list[str] = []   # the keys (as "key=") and flags, in spec order
    for tok in filter(None, (t.strip() for t in body.split(","))):
        k, eq, v = tok.partition("=")
        given.append(k.strip() + eq)
        if eq:
            args[k.strip()] = v.strip()

    def takes(*known: str) -> None:
        bad = next((t for t in given if t not in known), None)
        if bad is not None:
            raise FamilySpecError(f"family {name!r} does not take {bad!r}")
        twice = next((t for i, t in enumerate(given) if t in given[:i]), None)
        if twice is not None:
            raise FamilySpecError(f"family {name!r} takes {twice!r} once")

    def intarg(key: str, default: Optional[int] = None) -> int:
        if key not in args:
            if default is None:
                raise FamilySpecError(f"family {name!r} needs {key}=...")
            return default
        try:
            return int(args[key])
        except ValueError as exc:
            raise FamilySpecError(f"{key}={args[key]!r} is not an integer") from exc

    if name == "taft":
        takes("d=")
        d = intarg("d")
        return FamilyInstance(
            name=f"taft:d={d}",
            raw=taft_double(d),
            oracle=lambda: taft_fusion_tensor(d),
            reps=taft_J_indices(d),
        )
    if name == "pointed":
        takes("n=", "a=", "k0=")
        n = intarg("n")
        a = intarg("a", 1)
        k0 = intarg("k0", 0)
        return FamilyInstance(
            name=f"pointed:n={n},a={a},k0={k0}",
            raw=pointed_cyclic(n, a, k0),
            oracle=lambda: pointed_fusion_tensor(n),
        )
    if name == "counterexample":
        if "sl2q16" not in given:
            raise FamilySpecError("the only counterexample is counterexample:sl2q16")
        takes("sl2q16", "part=")
        full, bold = sl2_q16_counterexample()
        part = args.get("part", "bold")
        if part not in ("bold", "full"):
            raise FamilySpecError(f"part must be bold or full, got {part!r}")
        return FamilyInstance(
            name=f"counterexample:sl2q16,part={part}",
            raw=bold if part == "bold" else full,
        )
    raise FamilySpecError(f"unknown family {name!r} (expected taft, pointed or counterexample)")

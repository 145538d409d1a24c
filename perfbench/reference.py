"""Reference values and output checks made apart from modkit.

Nothing here imports modkit.  Closed forms are evaluated numerically in
complex128 under the standard embedding zeta_N -> exp(2 pi i / N), which is
the embedding modkit's power basis uses, so a scalar written by modkit can be
compared with a value computed here.  Every check returns ``(ok, message)``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def cyc_value(conductor: int, coeffs) -> complex:
    """Numeric value of sum_i coeffs[i] zeta_N^i (coefficients as strings,
    Fractions or ints)."""
    total = 0j
    for i, c in enumerate(coeffs):
        q = Fraction(c)
        if q:
            total += float(q) * cmath.exp(2j * math.pi * i / conductor)
    return total


def json_value(obj: dict) -> complex:
    """Numeric value of a scalar in modkit's JSON form."""
    return cyc_value(int(obj["conductor"]), obj["coeffs"])


def num_value(x) -> complex:
    """Numeric value of an object with ``conductor`` and ``coeffs`` attributes."""
    return cyc_value(x.conductor, x.coeffs)


def close(a: complex, b: complex, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, scale)


def _root(n: int, k: int) -> complex:
    return cmath.exp(2j * math.pi * (k % n) / n)


# ---------------------------------------------------------------------------
# Taft doubles, conjugated by sigma_j (zeta_d -> zeta_d^j)
# ---------------------------------------------------------------------------

def taft_labels(d: int) -> list[tuple[int, int]]:
    return [(l, p) for l in range(1, d) for p in range(d)]


def taft_eps(d: int, x: tuple[int, int]) -> tuple[int, int]:
    """Tensoring with the fermion: (l, p) -> (d - l, l + p)."""
    l, p = x
    return (d - l, (l + p) % d)


def taft_dual(d: int, x: tuple[int, int]) -> tuple[int, int]:
    l, p = x
    return (l, (1 - l - p) % d)


def _taft_exponent(x, y) -> int:
    (l, p), (lp, pp) = x, y
    return -(l * lp + l * pp + p * lp + 2 * p * pp)


def taft_raw_entry(d: int, j: int, x, y) -> complex:
    """sigma_j of zeta/(1-zeta) zeta^-(ll'+lp'+pl'+2pp') (1 - zeta^(ll'))."""
    z1 = _root(d, j)
    return z1 / (1 - z1) * _root(d, j * _taft_exponent(x, y)) * (1 - _root(d, j * x[0] * y[0]))


def taft_normalized_entry(d: int, j: int, x, y) -> complex:
    """sigma_j of the closed form zeta^-(ll'+lp'+pl'+2pp') (zeta^(ll') - 1) / d."""
    return _root(d, j * _taft_exponent(x, y)) * (_root(d, j * x[0] * y[0]) - 1) / d


def taft_twist(d: int, j: int, x) -> complex:
    l, p = x
    return _root(d, -j * p * (l + p))


def taft_dim(d: int, j: int, x) -> complex:
    return taft_raw_entry(d, j, (1, 0), x)


def taft_scale(d: int, j: int, reps) -> complex:
    """D * dim_r(unit_bar) of the bold world on ``reps`` (labels (l, p)):
    D sums dim_r(X) dim_r(X*) over the representatives, and unit_bar is the
    representative of the orbit of (d-1, 0)."""
    total = sum(taft_dim(d, j, x) * taft_dim(d, j, taft_dual(d, x)) for x in reps)
    unit_bar = (d - 1, 0) if (d - 1, 0) in reps else (1, d - 1)
    return total * taft_dim(d, j, unit_bar)


def taft_phases(d: int, reps) -> list[complex]:
    """The factors the emitted S may differ from the closed form by.

    With (d-1, 0) among the representatives c^2 is the square of the closed
    form's normalizer and the factor is +-1; with its orbit partner (1, d-1)
    the scale changes sign and the factor is +-i."""
    return [1, -1] if (d - 1, 0) in reps else [1j, -1j]


def check_taft_reps(d: int, reps) -> tuple[bool, str]:
    """One label per fermion orbit, the unit among them."""
    orbits = {frozenset((x, taft_eps(d, x))) for x in reps}
    if not (len(orbits) == len(reps) == d * (d - 1) // 2 and (1, 0) in reps):
        return False, "labels are not one representative per fermion orbit"
    return True, ""


def parse_taft_label(text: str) -> tuple[int, int]:
    l, p = text.strip().strip("()").split(",")
    return int(l), int(p)


# ---------------------------------------------------------------------------
# pointed data over Z/nZ
# ---------------------------------------------------------------------------

def pointed_entry(n: int, a: int, k0: int, k: int, l: int) -> complex:
    return _root(n, a * (k0 * (k + l) + 2 * k * l))


def pointed_twist(n: int, a: int, k0: int, k: int) -> complex:
    return _root(n, a * (k0 * k + k * k))


def pointed_scale(n: int, a: int, k0: int) -> complex:
    """D * dim_r(unit_bar): D sums dim_r(k) dim_r(-k), and unit_bar is the
    label whose character s_X(Y) = S[X,Y]/dim_r(X) equals dim_r(-Y)."""
    dim = [pointed_entry(n, a, k0, 0, k) for k in range(n)]
    total = sum(dim[k] * dim[-k % n] for k in range(n))
    unit_bar = next(x for x in range(n)
                    if all(close(pointed_entry(n, a, k0, x, y) / dim[x], dim[-y % n])
                           for y in range(n)))
    return total * dim[unit_bar]


def pointed_phases(n: int, a: int, k0: int) -> list[complex]:
    """S / c with c^2 = D * dim_r(unit_bar): the factors +-1/sqrt(c^2)."""
    w = cmath.sqrt(pointed_scale(n, a, k0))
    return [1 / w, -1 / w]


def group_law(n: int) -> np.ndarray:
    t = np.zeros((n, n, n), dtype=np.int64)
    for k in range(n):
        for l in range(n):
            t[k, l, (k + l) % n] = 1
    return t


# ---------------------------------------------------------------------------
# q16
# ---------------------------------------------------------------------------

def q16_entries(part: str) -> list[list[complex]]:
    q = lambda k: _root(16, k)  # noqa: E731
    br = q(2) + 1 + q(14)
    if part == "bold":
        return [[1, br], [br, -1]]
    return [[1, br, br, 1], [br, -1, -1, br], [br, -1, -1, br], [1, br, br, 1]]


def q16_twists(part: str) -> list[complex]:
    i = _root(16, 4)
    return [1, i] if part == "bold" else [1, i, -i, -1]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_classification(got: str, want: str) -> tuple[bool, str]:
    if got != want:
        return False, f"classification {got!r}, expected {want!r}"
    return True, ""


def check_failures(got: list[str], want: list[str] | None = None,
                   must_include: tuple[str, ...] = ()) -> tuple[bool, str]:
    """``want`` None: any list containing ``must_include``; otherwise exact."""
    if want is not None and list(got) != list(want):
        return False, f"failed checks {got}, expected {want}"
    missing = [c for c in must_include if c not in got]
    if missing:
        return False, f"failed checks {got} miss {missing}"
    return True, ""


def check_unit_and_associativity(tensor: np.ndarray, unit: int) -> tuple[bool, str]:
    """N_{unit,X}^Y = delta_{X,Y} and (X Y) Z = X (Y Z) on integer structure
    constants, computed with numpy."""
    t = np.asarray(tensor, dtype=np.int64)
    k = t.shape[0]
    if t.shape != (k, k, k):
        return False, f"tensor shape {t.shape} is not cubic"
    eye = np.eye(k, dtype=np.int64)
    if not np.array_equal(t[unit], eye):
        return False, "unit slice N_{1,X}^Y is not the identity"
    lhs = np.einsum("xym,mzw->xyzw", t, t)
    rhs = np.einsum("yzm,xmw->xyzw", t, t)
    if not np.array_equal(lhs, rhs):
        bad = tuple(int(v) for v in np.argwhere(lhs != rhs)[0])
        return False, f"not associative at (x, y, z, w) = {bad}"
    return True, ""


def check_group_law(tensor: np.ndarray, n: int) -> tuple[bool, str]:
    want = group_law(n)
    t = np.asarray(tensor)
    if t.shape != want.shape:
        return False, f"tensor shape {t.shape}, expected {want.shape}"
    if not np.array_equal(t, want):
        bad = tuple(int(v) for v in np.argwhere(t != want)[0])
        return False, f"differs from the Z/{n}Z group law at {bad}"
    return True, ""


def check_one_phase(values, refs, phases) -> tuple[bool, str]:
    """values[i] == lam * refs[i] for one lam among ``phases``, at every i."""
    values, refs = list(values), list(refs)
    if len(values) != len(refs):
        return False, f"{len(values)} entries, expected {len(refs)}"
    # the first entry with a nonzero reference fixes lam; every entry must agree
    first = next((i for i, r in enumerate(refs) if abs(r) > TOL), 0)
    lam = min(phases, key=lambda p: abs(values[first] - p * refs[first]))
    bad = next((i for i, (v, r) in enumerate(zip(values, refs))
                if not close(v, lam * r, abs(r))), None)
    if bad is None:
        return True, ""
    return False, (f"entry {bad} is {values[bad]:.6g}, expected {lam * refs[bad]:.6g}"
                   f" (factor {lam} fixed by entry {first})")


def check_close(got: complex, want: complex, what: str) -> tuple[bool, str]:
    if not close(got, want, abs(want)):
        return False, f"{what} is {got:.9g}, expected {want:.9g}"
    return True, ""


def check_dims_product(d: int, x: str, y: str, line: list[tuple[str, int]]) -> tuple[bool, str]:
    """dim(X) dim(Y) == sum_Z m_Z dim(Z) over a (possibly folded, signed)
    decomposition of the Taft product X (x) Y."""
    lhs = taft_dim(d, 1, parse_taft_label(x)) * taft_dim(d, 1, parse_taft_label(y))
    rhs = sum(m * taft_dim(d, 1, parse_taft_label(lab)) for lab, m in line)
    return check_close(rhs, lhs, f"sum of N_XY^Z dim(Z) for {x} (x) {y}")


def parse_multiset(text: str) -> list[tuple[str, int]]:
    """Inverse of modkit's printed multiset ``{-(3,2), 2*(5,1), d4}``."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a multiset: {text!r}")
    body = body[1:-1].strip()
    out, depth, cur = [], 0, ""
    for ch in body + ",":
        if ch == "," and depth == 0:
            term = cur.strip()
            cur = ""
            if not term:
                continue
            m = 1
            if "*" in term:
                mult, term = term.split("*", 1)
                m = int(mult)
            elif term.startswith("-"):
                m, term = -1, term[1:]
            out.append((term, m))
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur += ch
    return sorted(out)

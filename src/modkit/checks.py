"""Exact identity checks and the normalized-datum axiom suite.

Every check function returns one :class:`CheckResult` or a list of them,
each made by :func:`_run_check`, which times the work that decides it, with
an exact witness on failure (indices plus the offending values); nothing
here rounds or approximates.  Checks that need derived data (dimensions,
bar involution, Gauss sums) operate on a :class:`~modkit.datum.World`.

Square-root-free policy: unnormalized matrices are verified through squared
identities (S S^dag = D*u' Id, (ST)^3 = tau^- S^2, anomaly^2 a root of
unity).  These are equivalent to the unitary/scalar statements about
S / (sqrt(u) sqrt(D)) because the root-of-unity factor sqrt(u) has exact
modulus one: sqrt(u) * conj(sqrt(u)) = 1 whenever u is a root of unity.  The
equivalence keeps the whole pipeline inside Q(zeta_N).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .cyclotomic import is_root_of_unity, is_totally_positive
from .datum import DegeneracyError, ModularDatum, World
from .matrix import CycMatrix, max_abs, with_bound
from .verlinde import verlinde_fusion

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str = ""
    witness: Optional[dict] = None
    ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _run_check(name: str, fn: Callable[[], tuple]) -> CheckResult:
    """Time ``fn``, which returns (ok, detail, witness), as the check ``name``.
    A DegeneracyError that ``fn`` raises fails the check with the error's
    message and witness, as the entry the error names if it names one."""
    t0 = time.perf_counter()
    try:
        ok, detail, witness = fn()
    except DegeneracyError as exc:
        ok, detail, witness, name = False, str(exc), exc.witness, exc.check or name
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckResult(name, PASS if ok else FAIL, detail, witness, ms)


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def run(self, name: str, fn: Callable[[], tuple]) -> CheckResult:
        return self.add(_run_check(name, fn))

    def skip(self, name: str, detail: str = "") -> CheckResult:
        return self.add(CheckResult(name, SKIPPED, detail))

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]


def _compare(lhs: CycMatrix, rhs: CycMatrix, detail: str = "",
             labels: Optional[Sequence[str]] = None) -> tuple:
    """(ok, detail, witness) for the identity ``lhs == rhs``, decided by one
    :meth:`~CycMatrix.first_difference`, whose first differing entry in
    row-major order is the witness: ``{"at": (i, j), "lhs", "rhs"}`` for
    matrices, ``{"at": y, "lhs", "rhs"}`` for two 1 x k rows (``labels=()``)
    and ``{"at": y, "label"}`` for a row of values of the labels ``labels``."""
    at = lhs.first_difference(rhs)
    if at is None:
        return True, detail, None
    if labels:
        return False, detail, {"at": at[1], "label": labels[at[1]]}
    return False, detail, {"at": at if labels is None else at[1],
                           "lhs": lhs[at], "rhs": rhs[at]}


def _nonzero(flags: Sequence[bool], labels: Sequence[str]) -> tuple:
    """(ok, "", witness) for one flag per label that says its value is
    nonzero (e.g. :meth:`~CycMatrix.nonzero_in_row`); the witness is the first
    label whose value is zero."""
    flags = np.asarray(flags, dtype=bool)
    if flags.all():
        return True, "", None
    at = int(flags.argmin())
    return False, "", {"at": at, "label": labels[at]}


# ---------------------------------------------------------------------------
# raw-world checks
# ---------------------------------------------------------------------------

def check_raw_unitarity(w: World) -> CheckResult:
    """S * conj(S)^T == D Id exactly, D the world's (super)dimension."""
    return _run_check("raw_unitarity", lambda: _compare(
        w.s @ w.s.conj_transpose(), CycMatrix.identity(w.size, w.global_dim),
        "S conj(S)^T = D Id"))


def check_gauss_product(w: World) -> CheckResult:
    """The product of the Gauss sums tau_plus tau_minus (twist-weighted sums
    of squared norms) equals the world's (super)dimension D."""
    def product():
        p, d = w.tau_plus * w.tau_minus, w.global_dim
        ok = p == d
        return ok, f"tau+ tau- = {p}, D = {d}", None if ok else {"product": p, "expected": d}

    return _run_check("gauss_product", product)


def check_twist_laws(w: World) -> list[CheckResult]:
    """Each law compares two 1 x k rows; its witness is the first label at
    which they differ."""
    tb = w.twists[w.unit_bar]

    def dual_dim():
        return _compare(w.theta.columns(w.duality) * w.dim_r, w.theta * w.dim_l, labels=w.labels)

    def bar_law():
        return _compare(w.theta.columns(w.bar), w.theta.scale(tb), labels=w.labels)

    def unit_bar_law():
        return tb == 1, f"twist(unit_bar) = {tb}", None if tb == 1 else {"value": tb}

    def tau_plus_rows():
        return _compare((w.theta * w.dim_l) @ w.s, (w.theta_inv * w.dim_r).scale(w.tau_plus),
                        labels=())

    def tau_minus_rows():
        return _compare((w.theta_inv * w.dim_r) @ w.s,
                        (w.theta * w.dim_r).scale(tb * w.tau_minus), labels=())

    return [_run_check("twist_dual_dim", dual_dim),
            _run_check("twist_bar", bar_law),
            _run_check("twist_unit_bar", unit_bar_law),
            _run_check("twist_tau_plus_rows", tau_plus_rows),
            _run_check("twist_tau_minus_rows", tau_minus_rows)]


def check_sl2_relations(w: World) -> list[CheckResult]:
    """(ST)^3 = tau^- S^2, S^4 = (D u)^2 Id, (S T^-1)^3 = tau^+ D u^2 Id and
    S^2 = D u E with E a signed permutation matching bar; T = diag(theta^-1),
    so S T is S with its columns scaled by the row theta^-1."""
    def st_cubed():
        st = w.s * w.theta_inv
        return _compare(st @ st @ st, w.s_squared.scale(w.tau_minus),
                        "(S T)^3 = tau_minus * S^2")

    def s_fourth():
        return _compare(w.s_squared @ w.s_squared, CycMatrix.identity(w.size, w.d_u * w.d_u),
                        "S^4 = (D u)^2 Id")

    def st_inv_cubed():
        st_inv = w.s * w.theta
        scalar = w.tau_plus * w.global_dim * w.dim_unit_bar * w.dim_unit_bar
        return _compare(st_inv @ st_inv @ st_inv, CycMatrix.identity(w.size, scalar),
                        "(S T^-1)^3 = tau_plus D u^2 Id")

    def squared_signed_perm():
        sp = w.e_signed_permutation
        if sp is None:
            return False, "S^2 / (D u) is not a signed permutation", {"matrix": "S^2/(D u)"}
        if sp.perm != w.bar:
            return False, "signed permutation does not match bar", {"perm": sp.perm, "bar": w.bar}
        if w.nondegenerate and any(s != 1 for s in sp.signs):
            return False, "nondegenerate E must have all signs +1", {"signs": sp.signs}
        return True, f"signs {sp.signs}", None

    return [_run_check("sl2_st_cubed", st_cubed),
            _run_check("sl2_s_fourth", s_fourth),
            _run_check("sl2_st_inv_cubed", st_inv_cubed),
            _run_check("sl2_s_squared_signed_perm", squared_signed_perm)]


def check_vafa(w: World) -> list[CheckResult]:
    """Every twist is a root of unity, and so is the squared anomaly
    tau_plus^2 * u / D (nondegenerate) resp. tau_plus^2 * u^2 / D (bold)."""

    def twists_ru():
        for x, t in enumerate(w.twists):
            if is_root_of_unity(t) is None:
                return False, "", {"at": x, "label": w.labels[x], "value": t}
        return True, "", None

    def anomaly_ru():
        xi_sq = w.anomaly_squared
        wit = is_root_of_unity(xi_sq)
        if wit is None:
            return False, "", {"anomaly_squared": xi_sq}
        return True, f"anomaly^2 has order {wit.order}", None

    return [_run_check("vafa_twists", twists_ru), _run_check("vafa_anomaly", anomaly_ru)]


def check_balancing(w: World, tensor: np.ndarray) -> CheckResult:
    """theta_X theta_Y S[X,Y] == sum_Z N_{X,Y}^Z dim_r(Z) theta_Z at every pair.

    ``tensor`` holds the structure constants indexed like the world's labels
    (the quotient constants, in the bold case).
    """

    def balance():
        lhs = w.s * w.theta.transpose() * w.theta
        # rhs[x, y] = sum_z N[x, y, z] dim_r(z) theta(z), on the weights' slices
        wv = w.dim_r * w.theta
        bound = max_abs(tensor) * max_abs(wv.num) * w.size
        rhs_num = np.tensordot(with_bound(wv.num[:, 0, :], bound), with_bound(tensor, bound),
                               axes=([1], [2]))
        return _compare(lhs, CycMatrix.from_slices(wv.conductor, rhs_num, wv.den))

    return _run_check("balancing", balance)


def check_total_positivity(w: World) -> CheckResult:
    """Each squared norm |X|^2 = dim_r(X) dim_l(X) is totally positive
    (decided exactly, by :func:`is_totally_positive`).  A squared norm
    outside the real subfield fails, with the detail "not real"."""

    def positive():
        a, a_bar, _, _ = w.sqnorm._aligned(w.sqnorm.conj())
        real = (a == a_bar).all(axis=(0, 1)).tolist()
        for x, q in enumerate(w.sqnorm.entries):
            if not (real[x] and is_totally_positive(q)):
                return False, "" if real[x] else "not real", \
                    {"at": x, "label": w.labels[x], "value": q}
        return True, "", None

    return _run_check("sqnorm_totally_positive", positive)


# ---------------------------------------------------------------------------
# normalized datum: the axiom suite
# ---------------------------------------------------------------------------

AXIOM_CHECKS = (
    "unit_row_nonzero",
    "s_symmetric",
    "s_unitary",
    "s_fourth_identity",
    "st_cubed_scalar",
    "s_squared_t_commute",
    "verlinde_integrality",
)


def check_axioms(datum: ModularDatum) -> VerificationReport:
    """Run the defining checks of a modular datum, all exact.

    The checks, in order: the unit row of S has no zero; S is symmetric; S is
    unitary; S^4 = Id; (ST)^3 is a scalar matrix (the scalar is reported); S^2
    commutes with T; the Verlinde coefficients are integers (all natural:
    N-modular; some negative: Z-modular).  Failures carry exact witnesses.
    """
    rep = VerificationReport()
    s = datum.s_matrix
    n = datum.size
    t_row = CycMatrix(1, n, datum.t_diag)   # T = diag(t_diag) acts by scaling
    t_col = CycMatrix(n, 1, datum.t_diag)

    unit_ok = rep.run("unit_row_nonzero",
                      lambda: _nonzero(s.nonzero_in_row(datum.unit), datum.labels)).ok
    rep.run("s_symmetric", lambda: _compare(s, s.transpose()))
    rep.run("s_unitary", lambda: _compare(s @ s.conj_transpose(), CycMatrix.identity(n)))
    s2 = s @ s
    rep.run("s_fourth_identity", lambda: _compare(s2 @ s2, CycMatrix.identity(n)))

    def st_cubed_scalar():
        st = s * t_row
        m = st @ st @ st
        lam = m[0, 0]
        ok, _, witness = _compare(m, CycMatrix.identity(n, lam))
        return ok, f"lambda = {lam}" if ok else "(ST)^3 is not a scalar matrix", witness

    rep.run("st_cubed_scalar", st_cubed_scalar)
    rep.run("s_squared_t_commute", lambda: _compare(s2 * t_row, t_col * s2))

    if not unit_ok:
        rep.skip("verlinde_integrality", "unit row has zeros")
        return rep

    def verlinde():
        tensor, irep = verlinde_fusion(datum)
        if not irep.integral:
            return False, "non-integral coefficient", irep.non_integral_witness()
        if not irep.duality_ok:
            return False, "coefficients do not define a duality involution", None
        cls = "N-modular" if irep.nonnegative else "Z-modular"
        return True, f"class {cls}{irep.negative_suffix()}", None

    rep.run("verlinde_integrality", verlinde)
    return rep

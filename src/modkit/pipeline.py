"""End-to-end verification: branch on the symmetric center, run the exact
identity suite for the detected regime, classify the datum.

Classification semantics: a nondegenerate datum whose checks pass and whose
fusion coefficients are natural numbers is ``N-modular``; a slightly
degenerate (or bold) datum whose checks pass with integer quotient
coefficients is ``Z-modular`` (negative entries allowed and recorded); a
symmetric center with more than two simples is ``degenerate``; anything that
fails its checks is ``fail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .checks import (FAIL, CheckResult, VerificationReport, check_axioms, check_balancing,
                     check_raw_unitarity, check_sl2_relations, check_total_positivity,
                     check_twist_laws, check_vafa, gauss_sums)
from .cyclotomic import CycNum, _canonical_root, root_of_unity_sqrt, sqrt_in_field
from .datum import (KIND_BOLD, DegeneracyError, ModularDatum, RawDatum, SlightlyDegenerateData,
                    World, ZeroGlobalDimensionError, detect_symmetric_center,
                    epsilon_action, reduce_slightly_degenerate, with_duality)
from .fusion import FusionTensor, quotient_constants
from .verlinde import verlinde_raw

N_MODULAR = "N-modular"
Z_MODULAR = "Z-modular"
DEGENERATE = "degenerate"
FAILED = "fail"

BRANCH_NONDEG = "nondegenerate"
BRANCH_SLDEG = "slightly_degenerate"
BRANCH_DEGENERATE = "degenerate"
BRANCH_NORMALIZED = "normalized"


@dataclass
class PipelineResult:
    report: VerificationReport
    classification: str
    branch: str
    world: Optional[World] = None
    sldeg: Optional[SlightlyDegenerateData] = None
    tensor: Optional[np.ndarray] = None   # structure constants on the world's labels

    @property
    def passed(self) -> bool:
        return self.report.passed

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def verify_raw(raw: RawDatum, mode: str = "auto",
               reps: Optional[Sequence[int]] = None,
               fusion_oracle: Optional[FusionTensor] = None) -> PipelineResult:
    """Full verification of a raw datum.

    ``mode`` is ``auto`` (branch on the detected symmetric center), ``nondeg``
    or ``sldeg`` (fail when the detection disagrees).  ``reps`` overrides the
    canonical representative choice of the slightly degenerate reduction.
    ``fusion_oracle`` is an independently computed fusion tensor on the full
    labels; when present, the Verlinde output is compared against it (against
    its sign (-1) quotient, in the slightly degenerate case).
    """
    if mode not in ("auto", "nondeg", "sldeg"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = VerificationReport()

    def structural(name, ok, detail="", witness=None):
        rep.add(CheckResult(name, "pass" if ok else FAIL, detail, witness))
        return ok

    if not structural("s_raw_symmetric", raw.s_matrix.is_symmetric()):
        return PipelineResult(rep, FAILED, BRANCH_DEGENERATE)
    if not structural("dims_nonzero", all(raw.s_matrix.row(raw.unit))):
        return PipelineResult(rep, FAILED, BRANCH_DEGENERATE)
    if not structural("twists_nonzero", all(raw.twists)):
        return PipelineResult(rep, FAILED, BRANCH_DEGENERATE)
    supplied = raw.duality is not None
    try:
        raw = with_duality(raw)
        structural("duality", True, "supplied" if supplied else "derived")
    except DegeneracyError as exc:
        center = () if supplied or raw.kind == KIND_BOLD else raw.characters.center
        if raw.unit in center and len(center) > 2:   # repeated characters: the center decides
            rep.skip("duality", "not derived: the symmetric center is degenerate")
            structural("symmetric_center", False, _degenerate_detail(raw, center))
            return PipelineResult(rep, DEGENERATE, BRANCH_DEGENERATE)
        x = raw.characters.dual_mismatch
        structural("duality", False, str(exc), None if x is None else
                   {"at": x, "label": raw.labels[x]})
        return PipelineResult(rep, FAILED, BRANCH_DEGENERATE)

    stage = "bar_involution"   # the check a failure to build the world is reported as
    branch = BRANCH_SLDEG
    if raw.kind == KIND_BOLD:
        if mode == "nondeg":
            structural("mode", False, "bold input cannot be verified as nondegenerate")
            return PipelineResult(rep, FAILED, branch)
    else:
        center = detect_symmetric_center(raw)
        names = ", ".join(raw.labels[i] for i in center)
        if raw.unit not in center:
            structural("symmetric_center", False, "unit is not in the symmetric center")
            return PipelineResult(rep, FAILED, BRANCH_DEGENERATE)
        if len(center) > 2:
            structural("symmetric_center", False, _degenerate_detail(raw, center))
            return PipelineResult(rep, DEGENERATE, BRANCH_DEGENERATE)
        if len(center) == 1:
            branch = BRANCH_NONDEG
            structural("symmetric_center", True, "trivial center: nondegenerate")
            if mode == "sldeg":
                structural("mode", False, "requested sldeg but the center is trivial")
                return PipelineResult(rep, FAILED, branch)
        else:   # exactly two central simples: candidate slightly degenerate datum
            stage = "reduction"
            structural("symmetric_center", True,
                       f"center {{{names}}}: slightly degenerate candidate")
            if mode == "nondeg":
                structural("mode", False, "requested nondeg but the center is not trivial")
                return PipelineResult(rep, FAILED, branch)
            eps = center[0] if center[1] == raw.unit else center[1]
            dim_eps, t_eps = raw.dim_r(eps), raw.twists[eps]
            one = CycNum.from_rational(1)
            if not structural("epsilon_shape", dim_eps == -one and t_eps == one,
                              f"dim(eps) = {dim_eps}, twist(eps) = {t_eps}"
                              + ("; the dim +1 / twist -1 regime does not satisfy the S/T "
                                 "relations" if dim_eps == one and t_eps == -one else "")):
                return PipelineResult(rep, FAILED, branch)
            try:
                epsilon_action(raw)
                structural("epsilon_row_negation", True)
            except DegeneracyError as exc:
                structural("epsilon_row_negation", False, str(exc))
                return PipelineResult(rep, FAILED, branch)
            # epsilon_action refuses an action with a fixed point
            structural("epsilon_fixed_point_free", True)

    try:
        world, sldeg = resolve_world(raw, reps)
    except DegeneracyError as exc:
        if stage == "reduction":
            rep.skip("rank_half", "not certified: the reduction failed")
        if isinstance(exc, ZeroGlobalDimensionError):   # a check of its own
            stage = "global_dimension_nonzero"
        structural(stage, False, str(exc))
        return PipelineResult(rep, FAILED, branch)
    if sldeg is not None:
        # rows pair under negation (rank <= n/2); S[reps,reps]^2 = D*u*E is invertible (>= n/2)
        structural("rank_half", True, f"rank {len(sldeg.reps)} of size {raw.size}")
        structural("reduction", True, f"representatives {[raw.labels[r] for r in sldeg.reps]}")
    tensor = _world_suite(rep, world, sldeg, fusion_oracle)
    cls = (N_MODULAR if branch == BRANCH_NONDEG else Z_MODULAR) if rep.passed else FAILED
    return PipelineResult(rep, cls, branch, world=world, sldeg=sldeg, tensor=tensor)


def _degenerate_detail(raw: RawDatum, center: Sequence[int]) -> str:
    names = ", ".join(raw.labels[i] for i in center)
    return f"{len(center)} simples in the symmetric center ({names}): degenerate"


def resolve_world(raw: RawDatum, reps: Optional[Sequence[int]] = None
                  ) -> tuple[World, Optional[SlightlyDegenerateData]]:
    """The world a raw datum is verified in, with the reduction behind it.

    Bold input gives the bold world, a trivial symmetric center the
    nondegenerate world; any other full datum is reduced to its fermion-orbit
    representatives (``reps``, or the canonical choice), which checks that it
    is slightly degenerate.  Raises :class:`DegeneracyError` when no world can
    be built.  The center comes from the datum's character table, computed once.
    """
    raw = with_duality(raw)
    if raw.kind == KIND_BOLD or len(raw.characters.center) == 1:
        return World(raw), None
    sldeg = reduce_slightly_degenerate(raw, reps=reps)
    return sldeg.world(), sldeg


def _world_suite(rep: VerificationReport, world: World,
                 sldeg: Optional[SlightlyDegenerateData],
                 fusion_oracle: Optional[FusionTensor]) -> Optional[np.ndarray]:
    rep.add(_raw_unitarity(world))
    g = gauss_sums(world)
    rep.add(CheckResult("gauss_product", "pass" if g.ok else FAIL,
                        f"tau+ tau- = {g.product}, D = {g.expected}",
                        None if g.ok else {"product": g.product, "expected": g.expected}))
    for c in check_twist_laws(world):
        rep.add(c)
    for c in check_sl2_relations(world):
        rep.add(c)
    for c in check_vafa(world):
        rep.add(c)
    rep.add(check_total_positivity(world))

    tensor, irep = verlinde_raw(world)
    if not irep.integral:
        x, y, z, v = irep.non_integral[0]
        rep.add(CheckResult("verlinde_classification", FAIL, "non-integral coefficient",
                            {"at": (x, y, z), "value": v}))
        rep.skip("balancing", "no integral fusion tensor")
        return None
    if world.nondegenerate:
        ok = irep.nonnegative
        detail = "N-modular" if ok else \
            f"negative coefficient {irep.first_negative} in a nondegenerate datum"
        rep.add(CheckResult("verlinde_classification", "pass" if ok else FAIL, detail,
                            None if ok else {"first_negative": irep.first_negative}))
    else:
        detail = "Z-modular"
        if not irep.nonnegative:
            detail += (f", {irep.negative_count} negative entries"
                       f" (first {irep.first_negative})")
        rep.add(CheckResult("verlinde_classification", "pass", detail))
    rep.add(check_balancing(world, tensor))

    if fusion_oracle is not None:
        if sldeg is not None:
            want, _ = quotient_constants(fusion_oracle, sldeg.epsilon, -1, reps=sldeg.reps)
        else:
            want = fusion_oracle.table
        same = want.shape == tensor.shape and bool(np.array_equal(want, tensor))
        rep.add(CheckResult("oracle_equivalence", "pass" if same else FAIL,
                            "Verlinde tensor vs independent fusion oracle"))
    return tensor


def _raw_unitarity(world: World) -> CheckResult:
    ok, witness = check_raw_unitarity(world, world.global_dim)
    return CheckResult("raw_unitarity", "pass" if ok else FAIL, "S conj(S)^T = D Id", witness)


def verify_normalized(datum: ModularDatum) -> PipelineResult:
    """Axiom suite for a normalized datum, with sign-based classification."""
    rep = check_axioms(datum)
    cls = FAILED
    if rep.passed:
        detail = rep["verlinde_integrality"].detail
        cls = N_MODULAR if "N-modular" in detail else Z_MODULAR
    return PipelineResult(rep, cls, BRANCH_NORMALIZED)


# ---------------------------------------------------------------------------
# emission of a normalized datum
# ---------------------------------------------------------------------------

@dataclass
class EmitResult:
    datum: Optional[ModularDatum]
    normalizer: Optional[CycNum]
    certificate: Optional[VerificationReport]   # set when no normalizer exists
    note: str = ""


def emit_zmodular(source: Union[SlightlyDegenerateData, World],
                  normalizer: Optional[CycNum] = None) -> EmitResult:
    """Normalized datum (S/c, diag(theta)) with c^2 = D * dim_r(unit_bar).

    The datum's T is the vector of twists itself, the inverse of the
    categorical T-matrix; with that convention (S T)^3 lands on a scalar
    matrix.  When no ``normalizer`` is supplied, c is read off the Gauss sum
    (:func:`gauss_normalizer`); when that route does not apply, an exact
    square root of D * dim_r(unit_bar) is searched.  Both routes give the
    same c.  If no root exists in a cyclotomic field of conductor up to 4N,
    the identities are re-verified in square-root-free form instead and
    returned as a certificate marked 'verified up to scalar'.  ``note`` says
    which route gave c.
    """
    world = source.world() if isinstance(source, SlightlyDegenerateData) else source
    scale = world.d_u
    if normalizer is not None:
        if normalizer * normalizer != scale:
            raise ValueError("normalizer^2 does not equal D * dim_r(unit_bar)")
        c, note = normalizer, ""
    else:
        c, note = gauss_normalizer(world), "normalizer from the Gauss sum"
        if c is None:
            c, note = sqrt_in_field(scale), "normalizer from the square-root search"
    if c is None:
        cert = VerificationReport([_raw_unitarity(world)] + check_sl2_relations(world))
        return EmitResult(None, None, cert,
                          note="no exact normalizer in conductor <= 4N; "
                               "identities verified up to scalar")
    s_tilde = world.s.scale(c.inv())
    datum = ModularDatum(world.labels, world.unit, s_tilde, tuple(world.twists))
    return EmitResult(datum, c, None, note)


def gauss_normalizer(world: World) -> Optional[CycNum]:
    """c with c^2 = D u (u = dim_r(unit_bar)), written down from the Gauss sum.

    On a valid datum xi^2 = :meth:`World.anomaly_squared` is a root of unity
    (the check ``vafa_anomaly``; Bakalov & Kirillov, Lectures on Tensor
    Categories and Modular Functors, 3.1: p_+ p_- = D and p_+ / sqrt(D) is a
    root of unity), so xi is explicit.  Then c = tau_plus u / xi, times
    sqrt(u) off the nondegenerate regime, and c^2 is checked to be D u
    exactly.  The sign and conductor are those of :func:`sqrt_in_field`.
    None when xi^2 or u is not a root of unity.
    """
    scale = world.d_u
    xi = root_of_unity_sqrt(world.anomaly_squared())
    if xi is None:
        return None
    c = world.tau_plus * world.dim_unit_bar * xi.conj()   # 1/xi = conj(xi)
    if not world.nondegenerate:
        root_u = root_of_unity_sqrt(world.dim_unit_bar)
        if root_u is None:
            return None
        c = c * root_u
    if c * c != scale:
        return None
    return _canonical_root(c, scale.conductor)

"""End-to-end verification: read the regime off the datum's kind and
symmetric center, run the exact identity suite for it, classify the datum.
Every entry of a report, structural checks and stages included, is a timed
check (:func:`modkit.checks._run_check`).

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

from .checks import (VerificationReport, _run_check, check_axioms, check_balancing,
                     check_gauss_product, check_raw_unitarity, check_sl2_relations,
                     check_total_positivity, check_twist_laws, check_vafa)
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


@dataclass
class PipelineResult:
    report: VerificationReport
    classification: str
    world: Optional[World] = None
    sldeg: Optional[SlightlyDegenerateData] = None
    tensor: Optional[np.ndarray] = None   # structure constants on the world's labels

    @property
    def passed(self) -> bool:
        return self.report.passed

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def verify_raw(raw: RawDatum, reps: Optional[Sequence[int]] = None,
               fusion_oracle: Optional[FusionTensor] = None) -> PipelineResult:
    """Full verification of a raw datum, in the regime read off its kind and
    its symmetric center.

    ``reps`` overrides the canonical representative choice of the slightly
    degenerate reduction.  ``fusion_oracle`` is an independently computed
    fusion tensor on the full labels; when present, the Verlinde output is
    compared against it (against its sVect^- quotient, in the slightly
    degenerate case).  Every entry of the report is one timed check
    (:func:`_run_check`) whose ms covers the work that decides it: the check
    that decides the regime builds the world of a bold datum (``duality``)
    or of a trivial center (``symmetric_center``), and ``reduction`` that of
    a slightly degenerate one.
    """
    rep, s, made = VerificationReport(), raw.s_matrix, {}
    for name, holds in (("s_raw_symmetric", s.is_symmetric),
                        ("dims_nonzero", lambda: all(s.row(raw.unit))),
                        ("twists_nonzero", lambda: all(raw.twists))):
        if not rep.run(name, lambda: (holds(), "", None)).ok:
            return PipelineResult(rep, FAILED)

    def build() -> None:   # the world into made, or the DegeneracyError that stops it
        try:
            made["world"], made["sldeg"] = resolve_world(raw, reps)
        except DegeneracyError as exc:
            made["error"] = exc

    def degenerate(center) -> tuple:
        made["degenerate"] = True
        names = ", ".join(raw.labels[i] for i in center)
        return False, f"{len(center)} simples in the symmetric center ({names}): degenerate", None

    supplied = raw.duality is not None

    def duality():
        nonlocal raw
        try:
            raw = with_duality(raw)
        except DegeneracyError as exc:
            center = () if supplied or raw.kind == KIND_BOLD else raw.characters.center
            if raw.unit in center and len(center) > 2:   # repeated characters: the center decides
                return degenerate(center)
            x = raw.characters.dual_mismatch
            return False, str(exc), None if x is None else {"at": x, "label": raw.labels[x]}
        if raw.kind == KIND_BOLD:
            build()
        return True, "supplied" if supplied else "derived", None

    checked = _run_check("duality", duality)
    if "degenerate" in made:   # renamed, not rebuilt, so that its ms stays
        rep.skip("duality", "not derived: the symmetric center is degenerate")
        checked.name = "symmetric_center"
    if not rep.add(checked).ok:
        return PipelineResult(rep, DEGENERATE if "degenerate" in made else FAILED)
    if raw.kind == KIND_BOLD:
        return _verify_world(rep, made, fusion_oracle)

    def symmetric_center():
        center = made["center"] = detect_symmetric_center(raw)
        if raw.unit not in center:
            return False, "unit is not in the symmetric center", None
        if len(center) > 2:
            return degenerate(center)
        if len(center) == 1:
            build()
            return True, "trivial center: nondegenerate", None
        names = ", ".join(raw.labels[i] for i in center)
        return True, f"center {{{names}}}: slightly degenerate candidate", None

    if not rep.run("symmetric_center", symmetric_center).ok:
        return PipelineResult(rep, DEGENERATE if "degenerate" in made else FAILED)
    center = made["center"]
    if len(center) == 1:
        return _verify_world(rep, made, fusion_oracle)
    eps = center[0] if center[1] == raw.unit else center[1]

    def epsilon_shape():
        dim_eps, t_eps, one = raw.dim_r(eps), raw.twists[eps], CycNum.from_rational(1)
        return dim_eps == -one and t_eps == one, f"dim(eps) = {dim_eps}, twist(eps) = {t_eps}" \
            + ("; the dim +1 / twist -1 regime does not satisfy the S/T relations"
               if dim_eps == one and t_eps == -one else ""), None

    def row_negation():
        try:
            epsilon_action(raw)
        except DegeneracyError as exc:
            return False, str(exc), None
        return True, "", None

    if not (rep.run("epsilon_shape", epsilon_shape).ok
            and rep.run("epsilon_row_negation", row_negation).ok):
        return PipelineResult(rep, FAILED)
    # epsilon_action refuses an action with a fixed point
    rep.run("epsilon_fixed_point_free", lambda: (True, "", None))

    def reduction():
        build()
        if "error" in made:
            return False, str(made["error"]), None
        return True, f"representatives {[raw.labels[r] for r in made['sldeg'].reps]}", None

    # decided by the reduction, rank_half comes before it: rows pair under
    # negation (rank <= n/2); S[reps,reps]^2 = D*u*E is invertible (>= n/2)
    reduced = _run_check("reduction", reduction)
    if reduced.ok:
        rep.run("rank_half", lambda: (True, f"rank {len(made['sldeg'].reps)} of size {raw.size}",
                                      None))
        rep.add(reduced)
        return _verify_world(rep, made, fusion_oracle)
    rep.skip("rank_half", "not certified: the reduction failed")
    if isinstance(made["error"], ZeroGlobalDimensionError):   # a check of its own
        reduced.name = "global_dimension_nonzero"
    rep.add(reduced)
    return PipelineResult(rep, FAILED)


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
    return sldeg.world, sldeg


def _verify_world(rep: VerificationReport, made: dict,
                  fusion_oracle: Optional[FusionTensor]) -> PipelineResult:
    """Run the world suite on the world ``made`` holds, or fail the stage
    whose DegeneracyError it holds, and classify."""
    exc = made.get("error")
    if exc is not None:   # a zero D * dim_r(unit_bar) is a check of its own
        stage = "global_dimension_nonzero" if isinstance(exc, ZeroGlobalDimensionError) \
            else "bar_involution"
        rep.run(stage, lambda: (False, str(exc), None))
        return PipelineResult(rep, FAILED)
    world, sldeg = made["world"], made["sldeg"]
    for c in [check_raw_unitarity(world), check_gauss_product(world)] + check_twist_laws(world) \
            + check_sl2_relations(world) + check_vafa(world) + [check_total_positivity(world)]:
        rep.add(c)
    tensor = None

    def classification():
        nonlocal tensor
        found, irep = verlinde_raw(world)
        if not irep.integral:
            x, y, z, v = irep.non_integral[0]
            return False, "non-integral coefficient", {"at": (x, y, z), "value": v}
        tensor = found
        if world.nondegenerate:
            ok = irep.nonnegative
            return ok, "N-modular" if ok else f"negative coefficient {irep.first_negative} " \
                "in a nondegenerate datum", None if ok else {"first_negative": irep.first_negative}
        detail = "Z-modular"
        if not irep.nonnegative:
            detail += f", {irep.negative_count} negative entries (first {irep.first_negative})"
        return True, detail, None

    rep.run("verlinde_classification", classification)
    if tensor is None:
        rep.skip("balancing", "no integral fusion tensor")
    else:
        rep.add(check_balancing(world, tensor))
        if fusion_oracle is not None:
            def oracle():
                if sldeg is None:
                    want = fusion_oracle.table
                else:
                    want, _ = quotient_constants(fusion_oracle, sldeg.epsilon, reps=sldeg.reps)
                same = want.shape == tensor.shape and bool(np.array_equal(want, tensor))
                return same, "Verlinde tensor vs independent fusion oracle", None

            rep.run("oracle_equivalence", oracle)
    cls = (N_MODULAR if world.nondegenerate else Z_MODULAR) if rep.passed else FAILED
    return PipelineResult(rep, cls, world=world, sldeg=sldeg, tensor=tensor)


def verify_normalized(datum: ModularDatum) -> PipelineResult:
    """Axiom suite for a normalized datum, with sign-based classification."""
    rep = check_axioms(datum)
    cls = FAILED
    if rep.passed:
        detail = rep["verlinde_integrality"].detail
        cls = N_MODULAR if "N-modular" in detail else Z_MODULAR
    return PipelineResult(rep, cls)


# ---------------------------------------------------------------------------
# emission of a normalized datum
# ---------------------------------------------------------------------------

@dataclass
class EmitResult:
    datum: Optional[ModularDatum]
    normalizer: Optional[CycNum]
    certificate: Optional[VerificationReport]   # set when no normalizer exists
    note: str = ""


def emit_zmodular(source: Union[SlightlyDegenerateData, World]) -> EmitResult:
    """Normalized datum (S/c, diag(theta)) with c^2 = D * dim_r(unit_bar).

    The datum's T is the vector of twists itself, the inverse of the
    categorical T-matrix; with that convention (S T)^3 lands on a scalar
    matrix.  c is read off the Gauss sum (:func:`gauss_normalizer`); when
    that route does not apply, :func:`sqrt_in_field` finds the square root of
    D * dim_r(unit_bar) by an exact p-adic search in integers.  Both routes
    give the same c.  If no root exists in a cyclotomic field of conductor up
    to 4N (the search proves it), the identities are re-verified in
    square-root-free form instead and returned as a certificate marked
    'verified up to scalar'.  ``note`` says which route gave c.
    """
    world = source.world if isinstance(source, SlightlyDegenerateData) else source
    c, note = gauss_normalizer(world), "normalizer from the Gauss sum"
    if c is None:
        c, note = sqrt_in_field(world.d_u), "normalizer from the square-root search"
    if c is None:
        cert = VerificationReport([check_raw_unitarity(world)] + check_sl2_relations(world))
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

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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .checks import (VerificationReport, _compare, _nonzero, _run_check, check_axioms,
                     check_balancing, check_gauss_product, check_raw_unitarity,
                     check_sl2_relations, check_total_positivity, check_twist_laws, check_vafa)
from .cyclotomic import CycNum, _canonical_root, root_of_unity_sqrt, sqrt_in_field
from .datum import (KIND_BOLD, KIND_FULL, DegeneracyError, DegenerateCenterError,
                    ModularDatum, RawDatum, SlightlyDegenerateData, World, epsilon_action,
                    reduce_to_reps, require_center, require_fermion, with_duality)
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
    compared against :func:`oracle_tensor` (its sVect^- quotient, in the
    slightly degenerate case).  Every entry of the report is one timed check
    (:func:`_run_check`) whose ms covers the work that decides it.
    """
    rep = VerificationReport()
    try:
        world, sldeg = _structure(rep, raw, reps)
    except DegeneracyError as exc:
        return PipelineResult(rep, DEGENERATE if isinstance(exc, DegenerateCenterError) else FAILED)
    return _verify_world(rep, world, sldeg, fusion_oracle)


def resolve_world(raw: RawDatum, reps: Optional[Sequence[int]] = None
                  ) -> tuple[World, Optional[SlightlyDegenerateData]]:
    """The world a raw datum is verified in, with the reduction behind it:
    the structural stages of :func:`verify_raw` without their report.  Raises
    the :class:`DegeneracyError` of the first stage that fails."""
    return _structure(VerificationReport(), raw, reps)


def reduce_slightly_degenerate(full: RawDatum, reps: Optional[Sequence[int]] = None
                               ) -> SlightlyDegenerateData:
    """The reduction of a slightly degenerate full datum (``reps`` as in
    :func:`verify_raw`): :func:`resolve_world`, then a trivial center refused."""
    if full.kind != KIND_FULL:
        raise DegeneracyError("reduction starts from a full datum")
    _, sldeg = resolve_world(full, reps)
    if sldeg is None:
        raise DegeneracyError("symmetric center is trivial: the datum is nondegenerate")
    return sldeg


def _structure(rep: VerificationReport, raw: RawDatum, reps: Optional[Sequence[int]]
               ) -> tuple[World, Optional[SlightlyDegenerateData]]:
    """The structural stages in report order, the one sequence every verb
    runs: the three basic checks (a failure raises an error naming the check
    and its witness's entry), then one hypothesis per stage, which raises its
    error.  The stage that decides the regime builds the world: ``duality``
    that of a bold datum, ``symmetric_center`` that of a trivial center (a
    world that cannot be built fails a check of its own after them),
    ``reduction`` that of a slightly degenerate one."""
    s = raw.s_matrix
    for name, decide in (
            ("s_raw_symmetric", lambda: _compare(s, s.transpose())),
            ("dims_nonzero", lambda: _nonzero(s.nonzero_in_row(raw.unit), raw.labels)),
            ("twists_nonzero", lambda: _nonzero(list(map(bool, raw.twists)), raw.labels))):
        if not (checked := rep.run(name, decide)).ok:
            raise DegeneracyError(f"{name} fails at {checked.witness['at']}", checked.witness)

    def duality():
        try:
            detail, dual = "supplied" if raw.duality is not None else "derived", with_duality(raw)
        except DegeneracyError:   # a degenerate center's repeated characters stop a derivation
            if raw.duality is None and raw.kind == KIND_FULL and raw.unit in raw.characters.center:
                require_center(raw)
            raise
        return detail, (dual, _built(dual) if dual.kind == KIND_BOLD else None)

    def symmetric_center():
        center = require_center(raw)
        if len(center) == 1:
            return "trivial center: nondegenerate", (center, _built(raw))
        names = ", ".join(raw.labels[i] for i in center)
        return f"center {{{names}}}: slightly degenerate candidate", (center, None)

    def reduction():
        sldeg = reduce_to_reps(raw, eps, act, reps)
        return f"representatives {[raw.labels[r] for r in sldeg.reps]}", sldeg

    raw, world = _stage(rep, "duality", duality,
                        ("duality", "", "not derived: the symmetric center is degenerate"))
    if world is None:
        center, world = _stage(rep, "symmetric_center", symmetric_center)
    if isinstance(world, DegeneracyError):
        _stage(rep, "bar_involution", lambda: _raise(world))
    if world is not None:
        return world, None
    eps = _stage(rep, "epsilon_shape",
                 lambda: ("dim(eps) = -1, twist(eps) = 1", require_fermion(raw, center)))
    act = _stage(rep, "epsilon_row_negation", lambda: ("", epsilon_action(raw)))
    _stage(rep, "epsilon_fixed_point_free", lambda: ("", None))   # decided by the row negation
    # rank <= n/2 as rows pair under negation, >= n/2 as S[reps, reps]^2 = D u E is invertible
    n = raw.size
    sldeg = _stage(rep, "reduction", reduction,
                   ("rank_half", f"rank {n // 2} of size {n}", "not certified: the reduction failed"))
    return sldeg.world, sldeg


def _stage(rep: VerificationReport, name: str, decide: Callable[[], tuple],
           ahead: Optional[tuple[str, str, str]] = None):
    """Run ``decide()``, which returns (detail, value), as the timed check
    ``name`` and return the value; a DegeneracyError it raises fails the
    check (:func:`_run_check`) and is raised again.  ``ahead`` = (entry,
    detail, reason) is an entry the check decides, listed before it: a pass,
    or skipped when the check fails, unless the check is reported as it."""
    got = []

    def check():
        try:
            detail, value = decide()
        except DegeneracyError as exc:
            got.append(exc)
            raise
        got.append(value)
        return True, detail, None

    checked = _run_check(name, check)
    if ahead is not None and ahead[0] != checked.name:
        if checked.ok:
            rep.run(ahead[0], lambda: (True, ahead[1], None))
        else:
            rep.skip(ahead[0], ahead[2])
    rep.add(checked)
    if not checked.ok:
        raise got[0]
    return got[0]


def _built(raw: RawDatum):
    """The world of ``raw``, or the DegeneracyError that stops it."""
    try:
        return World(raw)
    except DegeneracyError as exc:
        return exc


def _raise(exc: Exception):
    raise exc


def _verify_world(rep: VerificationReport, world: World,
                  sldeg: Optional[SlightlyDegenerateData],
                  fusion_oracle: Optional[FusionTensor]) -> PipelineResult:
    """Run the world suite on ``world`` and classify."""
    for c in [check_raw_unitarity(world), check_gauss_product(world)] + check_twist_laws(world) \
            + check_sl2_relations(world) + check_vafa(world) + [check_total_positivity(world)]:
        rep.add(c)
    tensor = None

    def classification():
        nonlocal tensor
        found, irep = verlinde_raw(world)
        if not irep.integral:
            return False, "non-integral coefficient", irep.non_integral_witness()
        tensor = found
        if world.nondegenerate:
            ok = irep.nonnegative
            return ok, "N-modular" if ok else f"negative coefficient {irep.first_negative} " \
                "in a nondegenerate datum", None if ok else {"first_negative": irep.first_negative}
        return True, "Z-modular" + irep.negative_suffix(), None

    rep.run("verlinde_classification", classification)
    if tensor is None:
        rep.skip("balancing", "no integral fusion tensor")
    else:
        rep.add(check_balancing(world, tensor))
        if fusion_oracle is not None:
            def oracle():
                want = oracle_tensor(fusion_oracle, sldeg)
                same = want.shape == tensor.shape and bool(np.array_equal(want, tensor))
                return same, "Verlinde tensor vs independent fusion oracle", None

            rep.run("oracle_equivalence", oracle)
    cls = (N_MODULAR if world.nondegenerate else Z_MODULAR) if rep.passed else FAILED
    return PipelineResult(rep, cls, world=world, sldeg=sldeg, tensor=tensor)


def oracle_tensor(fusion: FusionTensor, sldeg: Optional[SlightlyDegenerateData]) -> np.ndarray:
    """The oracle read on the labels of the world the datum is verified in: its
    table, or its quotient by sVect^- on the representatives of ``sldeg``
    (:func:`quotient_constants`, which raises DegeneracyError on a bad oracle)."""
    if sldeg is None:
        return fusion.table
    return quotient_constants(fusion, sldeg.epsilon, reps=sldeg.reps)[0]


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

    On a valid datum xi^2 = :attr:`World.anomaly_squared` is a root of unity
    (the check ``vafa_anomaly``; Bakalov & Kirillov, Lectures on Tensor
    Categories and Modular Functors, 3.1: p_+ p_- = D and p_+ / sqrt(D) is a
    root of unity), so xi is explicit.  Then c = tau_plus u / xi, times
    sqrt(u) off the nondegenerate regime, and c^2 is checked to be D u
    exactly.  The sign and conductor are those of :func:`sqrt_in_field`.
    None when xi^2 or u is not a root of unity.
    """
    scale = world.d_u
    xi = root_of_unity_sqrt(world.anomaly_squared)
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

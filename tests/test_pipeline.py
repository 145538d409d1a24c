import collections
import glob
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (POINTED_GRID, bad_taft3_oracles, galois_conjugate, relabel,
                      zero_global_dimension)
import modkit.checks as checks_mod
import modkit.datum as datum_mod
import modkit.pipeline as pipeline_mod
from modkit import io
from modkit.cyclotomic import CycNum, sqrt_in_field, zeta
from modkit.datum import (KIND_BOLD, DegeneracyError, ModularDatum, RawDatum, World,
                          reduce_slightly_degenerate)
from modkit.fusion import quotient_constants
from modkit.matrix import CycMatrix
from modkit.families import (pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_fusion_tensor, taft_J_indices, taft_normalizer)
from modkit.pipeline import (emit_zmodular, gauss_normalizer, oracle_tensor, resolve_world,
                             verify_normalized, verify_raw)

one = CycNum.from_rational(1)


def test_structural_failure_short_circuits():
    bad_s = CycMatrix.from_rows([[1, 1], [0, 1]])
    raw = RawDatum(("a", "b"), 0, bad_s, (one, one), "raw-full", (0, 1))
    res = verify_raw(raw)
    assert res.report["s_raw_symmetric"].status == "fail"
    assert res.classification == "fail"


def test_verify_normalized_classifications():
    d = 3
    sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
    em = emit_zmodular(sld)
    assert em.normalizer == taft_normalizer(d)
    res = verify_normalized(em.datum)
    assert res.passed and res.classification == "Z-modular"
    trivial = ModularDatum(("1",), 0, CycMatrix.identity(1), (one,))
    res = verify_normalized(trivial)
    assert res.passed and res.classification == "N-modular"


def test_emit_certificate_when_no_normalizer_exists():
    # a 1x1 toy whose scale 8 has no square root below conductor 4
    raw = RawDatum(("1",), 0, CycMatrix.from_rows([[2]]), (one,), KIND_BOLD,
                   (0,), (1,))
    em = emit_zmodular(World(raw))
    assert em.datum is None
    assert em.certificate is not None
    assert "up to scalar" in em.note


def test_emit_on_counterexample_produces_failing_datum():
    # a normalizer exists here, but the emitted datum must fail its axioms
    _, bold = sl2_q16_counterexample()
    em = emit_zmodular(World(bold))
    assert em.datum is not None
    from modkit.checks import check_axioms
    assert not check_axioms(em.datum).passed


def test_bold_input_with_mode_auto_runs_sldeg_suite():
    sld = reduce_slightly_degenerate(taft_double(4), reps=taft_J_indices(4))
    res = verify_raw(sld.world.raw)
    assert res.passed and res.classification == "Z-modular"
    assert "rank_half" not in res.report   # full-matrix checks are not run on bold input


def test_slightly_degenerate_verify_reuses_one_world_and_its_square(monkeypatch):
    # S^2 once for E, unitarity once, (ST)^3 and (ST^-1)^3 two each (T scales
    # columns, so only the cubing multiplies), S^4 once, the two twist-weighted
    # row sums one each; rank_half is read off the reduction
    import modkit.datum as datum_mod
    counts = {"products": 0, "worlds": 0}
    matmul, init = CycMatrix.__matmul__, datum_mod.World.__init__

    def counting_matmul(self, other):
        counts["products"] += 1
        return matmul(self, other)

    def counting_init(self, *args):
        counts["worlds"] += 1
        init(self, *args)

    monkeypatch.setattr(CycMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(datum_mod.World, "__init__", counting_init)
    res = verify_raw(taft_double(3), reps=taft_J_indices(3))
    assert res.classification == "Z-modular"
    assert counts == {"products": 9, "worlds": 1}
    assert emit_zmodular(res.sldeg).datum is not None
    assert counts == {"products": 9, "worlds": 1}


def test_diagonal_factors_cost_no_matrix_product(monkeypatch):
    # T is a vector: S T, S T^-1, S^2 T and T S^2 scale columns or rows
    # entrywise.  verify_raw multiplies S^2, S S^dag, S^4, the two
    # twist-weighted row sums and twice in each of (ST)^3 and (ST^-1)^3;
    # verify_normalized S S^dag, S^2, S^4 and twice in (ST)^3
    import modkit.matrix as matrix_mod
    calls = []
    slice_matmul = matrix_mod.slice_matmul

    def counting(*args):
        calls.append(None)
        return slice_matmul(*args)

    monkeypatch.setattr(matrix_mod, "slice_matmul", counting)
    res = verify_raw(taft_double(5))
    assert res.classification == "Z-modular" and len(calls) == 9
    datum = emit_zmodular(res.sldeg).datum
    calls.clear()
    assert verify_normalized(datum).classification == "Z-modular" and len(calls) == 5


def test_verify_normalized_builds_the_unit_row_and_one_scalar(monkeypatch):
    # the unit row is tested on the slices and read once by verlinde_fusion;
    # the scalar of (ST)^3 is one entry, not the whole matrix
    res = verify_raw(taft_double(5), reps=taft_J_indices(5))
    datum = emit_zmodular(res.sldeg).datum
    built = []
    entries_of = CycMatrix._entries_of

    def counting(self, flat):
        built.append(len(flat))
        return entries_of(self, flat)

    monkeypatch.setattr(CycMatrix, "_entries_of", counting)
    assert verify_normalized(datum).classification == "Z-modular"
    assert sum(built) <= datum.size + 1


def test_verify_raw_inverts_each_twist_once(monkeypatch):
    # the 72 dimensions of the full table, the 36 of the bold table, the 36
    # twists once, held by the World, and three more scalars; each of the
    # four sites that read the inverted twists used to invert them again
    calls = []
    inv = CycNum.inv

    def counting(self):
        calls.append(None)
        return inv(self)

    raw, reps = taft_double(9), taft_J_indices(9)
    monkeypatch.setattr(CycNum, "inv", counting)
    assert verify_raw(raw, reps=reps).classification == "Z-modular"
    assert len(calls) <= 147


def test_slightly_degenerate_verify_builds_one_table_center_and_eps_action(monkeypatch):
    # one character table per datum (the full one and the bold one), and the
    # symmetric center and the fermion action computed once, in verify_raw and
    # in emit_zmodular after it
    from functools import cached_property
    from modkit.datum import CharacterTable
    counts = {"tables": [], "center": 0, "eps_action": 0}
    init = CharacterTable.__init__

    def counting_init(self, raw):
        counts["tables"].append(raw.size)
        init(self, raw)

    def counted(name):
        compute = CharacterTable.__dict__[name].func

        def wrapper(self):
            counts[name] += 1
            return compute(self)
        prop = cached_property(wrapper)
        prop.__set_name__(CharacterTable, name)
        return prop

    monkeypatch.setattr(CharacterTable, "__init__", counting_init)
    for name in ("center", "eps_action"):
        monkeypatch.setattr(CharacterTable, name, counted(name))
    want = {"tables": [6, 3], "center": 1, "eps_action": 1}
    res = verify_raw(taft_double(3), reps=taft_J_indices(3))
    assert res.classification == "Z-modular"
    assert counts == want
    assert emit_zmodular(res.sldeg).datum is not None
    assert counts == want


@pytest.mark.parametrize("which", ["zero", "fixed-point"])
def test_a_bad_oracle_fails_oracle_equivalence(which):
    bad, message = bad_taft3_oracles()[which]
    res = verify_raw(taft_double(3), reps=taft_J_indices(3), fusion_oracle=bad)
    assert [(c.name, c.detail) for c in res.report.failures()] == \
        [("oracle_equivalence", message)]
    assert res.classification == "fail"
    with pytest.raises(DegeneracyError, match=re.escape(message)):
        oracle_tensor(bad, res.sldeg)


@pytest.mark.parametrize("bad", [-3, 99])
def test_out_of_range_reps_are_rejected(bad):
    reps = [0, 1, bad]
    res = verify_raw(taft_double(3), reps=reps)
    assert res.classification == "fail"
    assert res.report["reduction"].status == "fail"
    assert "0..5" in res.report["reduction"].detail
    assert res.report["rank_half"].status == "skipped"
    oracle = taft_fusion_tensor(3)
    with pytest.raises(DegeneracyError):
        quotient_constants(oracle, oracle.labels.index("(2,1)"), reps=reps)


@pytest.mark.parametrize("raw, reps", [(pointed_cyclic(7, 1, 1), None),
                                       (taft_double(4), taft_J_indices(4))],
                         ids=["pointed7", "taft4"])
def test_relabelling_moves_the_tensor_with_the_labels(raw, reps):
    perm = random.Random(raw.size).sample(range(raw.size), raw.size)
    moved = relabel(raw, perm)
    res = verify_raw(raw, reps=reps)
    res2 = verify_raw(moved, reps=None if reps is None else [perm[r] for r in reps])
    assert res2.classification == res.classification
    assert [(c.name, c.status) for c in res2.report.checks] == \
        [(c.name, c.status) for c in res.report.checks]
    if reps is None:
        # nondegenerate: tensor'[pi x, pi y, pi z] == tensor[x, y, z]
        assert np.array_equal(res2.tensor[np.ix_(perm, perm, perm)], res.tensor)
    else:
        # the quotient is indexed by the representatives, taken in the same order
        assert np.array_equal(res2.tensor, res.tensor)


# ---------------------------------------------------------------------------
# the normalizer: Gauss sum against the square-root search
# ---------------------------------------------------------------------------

def assert_routes_agree(world):
    """The Gauss normalizer is the square-root search's root, in conductor,
    coordinates and denominator."""
    c = gauss_normalizer(world)
    y = sqrt_in_field(world.global_dim * world.dim_unit_bar)
    assert c is not None and y is not None
    assert (c.conductor, c.num, c.den) == (y.conductor, y.num, y.den)


@pytest.mark.parametrize("d", range(2, 10))
def test_gauss_normalizer_is_the_searched_root_on_taft(d):
    # both choices for the orbit of unit_bar: (d-1, 0) keeps the normalizer at
    # conductor d, its partner moves it to 4d for odd d (2d for d = 6)
    sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
    assert_routes_agree(sld.world)
    if sld.world.unit_bar == sld.world.raw.unit:
        return   # d = 2: unit_bar is the unit
    reps = list(sld.reps)
    reps[sld.world.unit_bar] = sld.eps_action[reps[sld.world.unit_bar]]
    partner = reduce_slightly_degenerate(taft_double(d), reps=reps)
    assert partner.world.dim_unit_bar == -sld.world.dim_unit_bar
    assert_routes_agree(partner.world)


@pytest.mark.parametrize("raw", [galois_conjugate(taft_double(5), j) for j in (2, 3, 4)]
                         + [galois_conjugate(pointed_cyclic(7, 1, 1), j) for j in range(2, 7)],
                         ids=[f"taft5-sigma{j}" for j in (2, 3, 4)]
                         + [f"pointed7-sigma{j}" for j in range(2, 7)])
def test_gauss_normalizer_is_the_searched_root_on_galois_conjugates(raw):
    assert_routes_agree(resolve_world(raw)[0])


def test_gauss_normalizer_is_the_searched_root_on_the_pointed_grid(pointed_verified):
    for key in POINTED_GRID:
        assert_routes_agree(pointed_verified[key].world)


def test_emit_takes_the_gauss_route_and_keeps_the_search_as_fallback(monkeypatch):
    import modkit.cyclotomic as cyclotomic
    calls = []
    search = cyclotomic._sqrt_at_conductor

    def counting_search(x):
        calls.append(x.conductor)
        return search(x)

    monkeypatch.setattr(cyclotomic, "_sqrt_at_conductor", counting_search)
    for world in (reduce_slightly_degenerate(taft_double(5), reps=taft_J_indices(5)).world,
                  World(pointed_cyclic(9, 2, 1))):
        em = emit_zmodular(world)
        assert em.datum is not None and em.note == "normalizer from the Gauss sum"
    assert calls == []
    # q16 bold fails vafa_anomaly: no Gauss normalizer, the search gives c
    world = World(sl2_q16_counterexample()[1])
    assert gauss_normalizer(world) is None
    em = emit_zmodular(world)
    assert em.note == "normalizer from the square-root search" and calls
    z = zeta(16)
    c = z + z ** 3 - z ** 5 - z ** 7
    assert (em.normalizer.conductor, em.normalizer.num, em.normalizer.den) == (c.conductor, c.num, 1)
    assert em.datum.s_matrix == world.s.scale(c.inv())


def test_verification_imports_no_mpmath():
    # every verdict is exact; mpmath backs only the tests' interval reference
    import modkit
    src = os.path.dirname(os.path.dirname(modkit.__file__))
    for path in glob.glob(os.path.join(src, "modkit", "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "mpmath" not in fh.read(), path
    code = ("import sys\n"
            "from modkit.families import taft_double\n"
            "from modkit.pipeline import verify_raw\n"
            "res = verify_raw(taft_double(5))\n"
            "assert res.classification == 'Z-modular', res.classification\n"
            "assert res.report['sqnorm_totally_positive'].status == 'pass'\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'mpmath']\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_raw_reads_rows_of_s_without_building_its_entries(monkeypatch):
    # dims_nonzero and dims_of read the unit row on the slices; only dim(eps),
    # of a slightly degenerate datum, is an entry of S built as a CycNum
    building, made = [], []
    make, entries_of = CycNum._make, CycMatrix._entries_of

    def building_entries(self, flat):
        building.append(self)
        try:
            return entries_of(self, flat)
        finally:
            building.pop()

    def counting(n, coords, d):
        if building and building[-1] is raw.s_matrix:
            made.append(coords)
        return make(n, coords, d)

    monkeypatch.setattr(CycMatrix, "_entries_of", building_entries)
    monkeypatch.setattr(CycNum, "_make", staticmethod(counting))
    for raw, count in ((taft_double(5), 1), (pointed_cyclic(7, 2, 1), 0)):
        made.clear()
        assert verify_raw(raw).passed
        assert len(made) == count


def test_verify_raw_multiplies_few_scalars(monkeypatch):
    # per-label data are rows on slices: the scalar products left are those
    # of the Gauss sums, the anomaly, D u and the reduction
    calls = []
    mul = CycNum.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    monkeypatch.setattr(CycNum, "__rmul__", counting)
    for raw, reps, most in ((taft_double(5), taft_J_indices(5), 60),
                            (pointed_cyclic(9, 2, 1), None, 30)):
        calls.clear()
        assert verify_raw(raw, reps=reps).passed
        assert len(calls) <= most


@pytest.mark.parametrize("raw,reps", [(taft_double(5), taft_J_indices(5)),
                                      (taft_double(5), None),
                                      (pointed_cyclic(9, 2, 1), None)],
                         ids=["taft-reps", "taft", "pointed"])
def test_verify_raw_inverts_d_u_once_per_world(monkeypatch, raw, reps):
    # E = S^2 / (D u) and the Verlinde operands share one inverse of D u
    inverted, worlds = [], []
    inv, init = CycNum.inv, World.__init__

    def recording_inv(self):
        inverted.append(self)
        return inv(self)

    def recording_init(self, *args):
        init(self, *args)
        worlds.append(self)

    monkeypatch.setattr(CycNum, "inv", recording_inv)
    monkeypatch.setattr(World, "__init__", recording_init)
    res = verify_raw(raw, reps=reps)
    assert res.passed and worlds
    for w in worlds:
        assert sum(x == w.d_u for x in inverted) == 1


def _run_check_cases():
    return {"taft3-oracle": (taft_double(3), dict(reps=taft_J_indices(3),
                                                  fusion_oracle=taft_fusion_tensor(3))),
            "pointed5,1,0": (pointed_cyclic(5, 1, 0), {}),
            "q16-full": (sl2_q16_counterexample()[0], {}),
            "taft3-bad-reps": (taft_double(3), dict(reps=[0, 1, 99])),
            "zero-global-dimension": (io.datum_from_json(zero_global_dimension()), {}),
            "q16-bold": (sl2_q16_counterexample()[1], {}),
            "pointed9,3,0-derived": (without_duality(pointed_cyclic(9, 3, 0)), {})}


RUN_CHECK_OUTCOMES = {"taft3-oracle": ("Z-modular", [], []),
                      "pointed5,1,0": ("N-modular", [], []),
                      "q16-full": ("fail", ["epsilon_shape"], []),
                      "taft3-bad-reps": ("fail", ["reduction"], ["rank_half"]),
                      "zero-global-dimension": ("fail", ["global_dimension_nonzero"], []),
                      "q16-bold": ("fail", ["gauss_product", "twist_tau_plus_rows",
                                            "twist_tau_minus_rows", "sl2_st_cubed",
                                            "sl2_st_inv_cubed", "vafa_anomaly", "balancing"], []),
                      "pointed9,3,0-derived": ("degenerate", ["symmetric_center"], ["duality"])}


@pytest.mark.parametrize("case", sorted(RUN_CHECK_OUTCOMES))
def test_every_report_entry_is_one_timed_check(monkeypatch, case):
    # each entry that is not skipped is the result of one _run_check call,
    # and no call is left out of the report
    made = []
    run_check = checks_mod._run_check

    def recording(name, fn):
        made.append(run_check(name, fn))
        return made[-1]

    monkeypatch.setattr(checks_mod, "_run_check", recording)
    monkeypatch.setattr(pipeline_mod, "_run_check", recording)
    raw, kwargs = _run_check_cases()[case]
    res = verify_raw(raw, **kwargs)
    entries = [c for c in res.report.checks if c.status != "skipped"]
    cls, failed, skipped = RUN_CHECK_OUTCOMES[case]
    assert res.classification == cls
    assert [c.name for c in res.report.failures()] == failed
    assert [c.name for c in res.report.checks if c.status == "skipped"] == skipped
    assert len(made) == len(entries) and {id(c) for c in made} == {id(c) for c in entries}
    assert all(c.ms > 0 for c in entries)


@pytest.mark.parametrize("target,entry,case", [
    ("with_duality", "duality", "taft3-oracle"),
    ("require_center", "symmetric_center", "taft3-oracle"),
    ("epsilon_action", "epsilon_row_negation", "taft3-oracle"),
    ("reduce_to_reps", "reduction", "taft3-oracle"),
    ("World", "symmetric_center", "pointed5,1,0"),
    ("verlinde_raw", "verlinde_classification", "taft3-oracle"),
    ("quotient_constants", "oracle_equivalence", "taft3-oracle"),
    ("World", "symmetric_center", "zero-global-dimension"),
    ("World", "duality", "q16-bold"),
    ("with_duality", "symmetric_center", "pointed9,3,0-derived"),
])
def test_an_entry_is_timed_with_the_work_that_decides_it(monkeypatch, target, entry, case):
    # the check that decides the regime builds the world of a trivial center
    # or a bold datum, and a world that cannot be built fails a check of its
    # own after it; a degenerate center decides when no duality can be derived
    work = getattr(pipeline_mod, target)

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return work(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, target, slow)
    raw, kwargs = _run_check_cases()[case]
    assert verify_raw(raw, **kwargs).report[entry].ms >= 50


@pytest.mark.parametrize("raw,emit", [(taft_double(5), True), (pointed_cyclic(9, 2, 1), False)],
                         ids=["taft5", "pointed9,2,1"])
def test_s_squared_is_certified_a_signed_permutation_once_per_world(monkeypatch, raw, emit):
    # the reduction, sl2_s_squared_signed_perm and the Verlinde operands all
    # read one decision of the World: S^2 is read as a signed permutation
    # once for each World built
    calls, worlds = [], []
    read, init = datum_mod.signed_permutation, World.__init__

    def counting(m):
        calls.append(None)
        return read(m)

    def counting_init(self, *args):
        worlds.append(None)
        init(self, *args)

    monkeypatch.setattr(datum_mod, "signed_permutation", counting)
    monkeypatch.setattr(World, "__init__", counting_init)
    res = verify_raw(raw)
    assert res.passed and res.report["sl2_s_squared_signed_perm"].status == "pass"
    if emit:
        assert emit_zmodular(res.sldeg).datum is not None
    assert len(calls) == len(worlds) == 1


def without_duality(raw):
    return RawDatum(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind)


@pytest.mark.parametrize("raw", [pointed_cyclic(5, 1, 0), taft_double(3)], ids=["pointed", "taft"])
def test_duality_detail_says_whether_it_was_supplied_or_derived(raw):
    assert verify_raw(raw).report["duality"].detail == "supplied"
    assert verify_raw(without_duality(raw)).report["duality"].detail == "derived"


DEGENERATE_POINTED = [(9, 3, 0), (9, 3, 1), (9, 6, 2), (15, 3, 0), (15, 5, 2), (15, 10, 1),
                      (21, 7, 1)]


@pytest.mark.parametrize("params", DEGENERATE_POINTED)
def test_a_degenerate_datum_is_degenerate_with_or_without_its_duality(params):
    # repeated characters leave the duality underived; the center still decides
    raw = pointed_cyclic(*params)
    given, dropped = verify_raw(raw), verify_raw(without_duality(raw))
    assert given.classification == dropped.classification == "degenerate"
    assert dropped.report["duality"].status == "skipped"
    assert dropped.report["symmetric_center"].detail == given.report["symmetric_center"].detail
    assert [c.name for c in dropped.report.failures()] == ["symmetric_center"]


@pytest.mark.parametrize("raw", [taft_double(d) for d in (3, 4, 5)] +
                         [pointed_cyclic(*p) for p in POINTED_GRID],
                         ids=[f"taft{d}" for d in (3, 4, 5)] +
                         ["pointed{},{},{}".format(*p) for p in POINTED_GRID])
def test_dropping_the_duality_keeps_the_classification_and_the_later_checks(raw):
    given, dropped = verify_raw(raw), verify_raw(without_duality(raw))
    assert given.classification == dropped.classification
    strip = [(c.name, c.status, c.detail) for c in given.report.checks if c.name != "duality"]
    assert strip == [(c.name, c.status, c.detail) for c in dropped.report.checks
                     if c.name != "duality"]


# the stages whose hypotheses reduce_slightly_degenerate decides too
STRUCTURAL = ("duality", "symmetric_center", "epsilon_shape", "epsilon_row_negation",
              "reduction", "global_dimension_nonzero")


def perturbed(raw):
    """Copies of ``raw`` with one twist times zeta_4, -1 or zeta_5, or one
    entry of S (with its mirror entry) times -1, zeta_3 or 2."""
    n, entries = raw.size, raw.s_matrix.entries
    for x in range(n):
        for f in (zeta(4), -one, zeta(5)):
            twists = list(raw.twists)
            twists[x] = twists[x] * f
            yield RawDatum(raw.labels, raw.unit, raw.s_matrix, tuple(twists), raw.kind,
                           raw.duality, raw.duality_signs)
    for i in range(n):
        for j in range(i, n):
            for f in (-one, zeta(3), one + one):
                s = list(entries)
                s[i * n + j] = s[i * n + j] * f
                s[j * n + i] = s[i * n + j]
                yield RawDatum(raw.labels, raw.unit, CycMatrix(n, n, s), raw.twists, raw.kind,
                               raw.duality, raw.duality_signs)


RELATIONAL_DATA = ([(f"taft{d}", lambda d=d: taft_double(d)) for d in (3, 4)]
                   + [("pointed{},{},{}".format(*p), lambda p=p: pointed_cyclic(*p))
                      for p in POINTED_GRID + [(9, 3, 0)]]
                   + [("q16-full", lambda: sl2_q16_counterexample()[0]),
                      ("q16-bold", lambda: sl2_q16_counterexample()[1]),
                      ("zero-global-dimension",
                       lambda: io.datum_from_json(zero_global_dimension()))])


def test_the_reduction_and_verify_raw_decide_each_hypothesis_alike():
    # a structural stage that fails is the reduction's refusal, word for word,
    # and a reduction that passes is the one the reduction makes
    seen = collections.Counter()
    for name, make in RELATIONAL_DATA:
        raw = make()
        for datum in [raw, without_duality(raw), *perturbed(raw)]:
            res = verify_raw(datum)
            if [c.status for c in res.report.checks[:3]] != ["pass"] * 3:
                continue
            try:
                got = reduce_slightly_degenerate(datum)
            except DegeneracyError as exc:
                got = str(exc)
            failures = res.report.failures()
            center = res.report["symmetric_center"] if "symmetric_center" in res.report else None
            if datum.kind == KIND_BOLD:
                assert got == "reduction starts from a full datum", name
            elif center is not None and center.detail == "trivial center: nondegenerate":
                assert isinstance(got, str) and "nondegenerate" in got, name
            elif "reduction" in res.report and res.report["reduction"].ok:
                assert not isinstance(got, str), (name, got)
                assert got.reps == res.sldeg.reps and got.world.raw == res.sldeg.world.raw, name
                seen["reduced"] += 1
            else:
                assert failures and failures[0].name in STRUCTURAL, (name, failures)
                assert got == failures[0].detail, name
                seen[failures[0].name] += 1
    # each stage before the reduction refuses some datum, and some reduce
    assert set(seen) >= {"duality", "symmetric_center", "epsilon_shape", "epsilon_row_negation",
                         "reduced"}, seen

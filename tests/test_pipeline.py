import random

import numpy as np
import pytest

from modkit.cyclotomic import CycNum
from modkit.datum import (KIND_BOLD, DegeneracyError, ModularDatum, RawDatum, bold_world,
                          reduce_slightly_degenerate)
from modkit.fusion import quotient_constants
from modkit.matrix import CycMatrix
from modkit.families import (pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_fusion_tensor, taft_J_indices, taft_normalizer)
from modkit.pipeline import emit_zmodular, verify_normalized, verify_raw

one = CycNum.from_rational(1)


def test_mode_override_mismatches():
    res = verify_raw(taft_double(3), mode="nondeg")
    assert not res.passed
    assert res.report["mode"].status == "fail"
    res = verify_raw(pointed_cyclic(5, 1, 0), mode="sldeg")
    assert not res.passed
    assert res.report["mode"].status == "fail"
    with pytest.raises(ValueError):
        verify_raw(pointed_cyclic(5, 1, 0), mode="whatever")


def test_structural_failure_short_circuits():
    bad_s = CycMatrix.from_rows([[1, 1], [0, 1]])
    raw = RawDatum(("a", "b"), 0, bad_s, (one, one), "raw-full", (0, 1))
    res = verify_raw(raw)
    assert res.report["s_raw_symmetric"].status == "fail"
    assert res.classification == "fail"


def test_verify_normalized_classifications():
    d = 3
    sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
    em = emit_zmodular(sld, normalizer=taft_normalizer(d))
    res = verify_normalized(em.datum)
    assert res.passed and res.classification == "Z-modular"
    trivial = ModularDatum(("1",), 0, CycMatrix.identity(1), (one,))
    res = verify_normalized(trivial)
    assert res.passed and res.classification == "N-modular"


def test_emit_rejects_wrong_normalizer():
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    with pytest.raises(ValueError):
        emit_zmodular(sld, normalizer=CycNum.from_rational(7))


def test_emit_certificate_when_no_normalizer_exists():
    # a 1x1 toy whose scale 8 has no square root below conductor 4
    raw = RawDatum(("1",), 0, CycMatrix.from_rows([[2]]), (one,), KIND_BOLD,
                   (0,), (1,))
    em = emit_zmodular(bold_world(raw))
    assert em.datum is None
    assert em.certificate is not None
    assert "up to scalar" in em.note


def test_emit_on_counterexample_produces_failing_datum():
    # a normalizer exists here, but the emitted datum must fail its axioms
    _, bold = sl2_q16_counterexample()
    em = emit_zmodular(bold_world(bold))
    assert em.datum is not None
    from modkit.checks import check_axioms
    assert not check_axioms(em.datum).passed


def test_bold_input_with_mode_auto_runs_sldeg_suite():
    sld = reduce_slightly_degenerate(taft_double(4), reps=taft_J_indices(4))
    res = verify_raw(sld.bold)
    assert res.passed and res.classification == "Z-modular"
    assert "rank_half" not in res.report   # full-matrix checks are not run on bold input


def test_slightly_degenerate_verify_reuses_one_world_and_its_square(monkeypatch):
    # S^2 once for E, unitarity once, (ST)^3 and (ST^-1)^3 three each, S^4 once;
    # rank_half is read off the reduction, so no exact rank is computed
    import modkit.datum as datum_mod
    counts = {"products": 0, "worlds": 0, "ranks": 0}
    matmul, init, rank = CycMatrix.__matmul__, datum_mod.World.__init__, CycMatrix.rank

    def counting_matmul(self, other):
        counts["products"] += 1
        return matmul(self, other)

    def counting_init(self, *args):
        counts["worlds"] += 1
        init(self, *args)

    def counting_rank(self):
        counts["ranks"] += 1
        return rank(self)

    monkeypatch.setattr(CycMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(CycMatrix, "rank", counting_rank)
    monkeypatch.setattr(datum_mod.World, "__init__", counting_init)
    res = verify_raw(taft_double(3), reps=taft_J_indices(3))
    assert res.classification == "Z-modular"
    assert counts == {"products": 9, "worlds": 1, "ranks": 0}
    assert emit_zmodular(res.sldeg).datum is not None
    assert counts == {"products": 9, "worlds": 1, "ranks": 0}


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
        quotient_constants(oracle, oracle.labels.index("(2,1)"), -1, reps=reps)


def relabel(raw: RawDatum, perm: list[int]) -> RawDatum:
    """The same datum with label x moved to position perm[x]."""
    n = raw.size
    src = [0] * n
    for x, p in enumerate(perm):
        src[p] = x
    s = CycMatrix(n, n, [raw.s_matrix[src[i], src[j]] for i in range(n) for j in range(n)])
    return RawDatum(tuple(raw.labels[x] for x in src), perm[raw.unit], s,
                    tuple(raw.twists[x] for x in src), raw.kind,
                    tuple(perm[raw.duality[x]] for x in src))


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

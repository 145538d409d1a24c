import numpy as np

from modkit.cyclotomic import CycNum
from modkit.datum import (ModularDatum, nondegenerate_world, reduce_slightly_degenerate,
                          with_duality)
from modkit.matrix import CycMatrix
from modkit.families import (TaftLabel, pointed_cyclic, taft_double, taft_fusion_tensor,
                             taft_J, taft_J_indices, taft_normalizer)
from modkit.fusion import quotient_constants
from modkit.pipeline import emit_zmodular
from modkit.verlinde import verlinde_fusion, verlinde_raw
from conftest import TAFT_RANGE

one = CycNum.from_rational(1)


def test_trivial_datum_fusion():
    datum = ModularDatum(("1",), 0, CycMatrix.identity(1), (one,))
    tensor, rep = verlinde_fusion(datum)
    assert rep.integral and rep.nonnegative
    assert tensor.table[0, 0, 0] == 1


def test_pointed_normalized_datum_gives_group_law():
    w = nondegenerate_world(with_duality(pointed_cyclic(3, 1, 1)))
    em = emit_zmodular(w)
    assert em.datum is not None
    tensor, rep = verlinde_fusion(em.datum)
    assert rep.integral and rep.nonnegative
    # N_{d1,d1}^{d2} = 1 and every other N_{d1,d1}^* = 0
    assert tensor.table[1, 1, 2] == 1
    assert tensor.table[1, 1].sum() == 1
    assert tensor.validate() == []


def test_pointed_raw_route_gives_group_law():
    for (n, a, k0) in ((3, 1, 0), (5, 1, 1), (7, 2, 1)):
        w = nondegenerate_world(with_duality(pointed_cyclic(n, a, k0)))
        tensor, rep = verlinde_raw(w)
        assert rep.integral and rep.nonnegative
        for k in range(n):
            for l in range(n):
                want = np.zeros(n, dtype=np.int64)
                want[(k + l) % n] = 1
                assert np.array_equal(tensor[k, l], want)


def test_signed_verlinde_taft3_example():
    d = 3
    sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
    tensor, rep = verlinde_raw(sld.world())
    assert rep.integral
    J = taft_J(d)
    i20 = J.index(TaftLabel(2, 0))
    i11 = J.index(TaftLabel(1, 1))
    row = tensor[i20, i20]
    assert row[i11] == 1 and row.sum() == 1 and np.count_nonzero(row) == 1


def test_signed_verlinde_equals_quotient_constants():
    for d in (2, 3, 4, 5):
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        tensor, rep = verlinde_raw(sld.world())
        assert rep.integral
        oracle = taft_fusion_tensor(d)
        want, _ = quotient_constants(oracle, sld.epsilon, -1, reps=sld.reps)
        assert np.array_equal(tensor, want)


def test_taft5_has_negative_entries():
    sld = reduce_slightly_degenerate(taft_double(5), reps=taft_J_indices(5))
    tensor, rep = verlinde_raw(sld.world())
    assert rep.integral and not rep.nonnegative
    assert tensor.min() < 0


def test_unit_rows_are_delta():
    sld = reduce_slightly_degenerate(taft_double(4), reps=taft_J_indices(4))
    tensor, _ = verlinde_raw(sld.world())
    u = sld.bold.unit
    assert np.array_equal(tensor[u], np.eye(len(sld.reps), dtype=np.int64))


def test_emitted_datum_axiom_fusion_matches_signed_verlinde(taft_verified, pointed_verified):
    # route agreement on every world of the fixtures; no normalizer is supplied, so
    # sqrt_in_field and the Galois-norm inverse are on the route
    results = [(f"taft d={d}", taft_verified[d].result) for d in TAFT_RANGE]
    results += [(f"pointed {key}", res) for key, res in pointed_verified.items()]
    for tag, res in results:
        em = emit_zmodular(res.world)
        assert em.datum is not None, tag
        tensor, _ = verlinde_fusion(em.datum)
        assert np.array_equal(tensor.table, res.tensor), tag


def test_fusion_tensor_invariants_on_verlinde_outputs():
    # normalized-route outputs satisfy the fusion-ring axioms exhaustively
    for d in (2, 3, 4, 5):
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        em = emit_zmodular(sld, normalizer=taft_normalizer(d))
        tensor, rep = verlinde_fusion(em.datum)
        assert rep.integral
        # associativity and unit law hold even with signed entries
        assert tensor.unit_law_holds()
        assert tensor.is_associative()

import random

import pytest

import per_entry
from conftest import relabel
from modkit.checks import (AXIOM_CHECKS, check_axioms, check_balancing, check_gauss_product,
                           check_raw_unitarity, check_sl2_relations, check_twist_laws,
                           check_vafa)
from modkit.cyclotomic import CycNum, sqrt_in_field, zeta
from modkit.datum import ModularDatum, RawDatum, World, reduce_slightly_degenerate
from modkit.matrix import CycMatrix
from modkit.families import (pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_J_indices)

one = CycNum.from_rational(1)


def trivial_datum():
    return ModularDatum(("1",), 0, CycMatrix.identity(1), (one,))


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

def test_axioms_on_trivial_datum():
    rep = check_axioms(trivial_datum())
    assert rep.passed
    assert rep["st_cubed_scalar"].detail == "lambda = 1"
    assert "N-modular" in rep["verlinde_integrality"].detail


def test_axiom_checks_appear_exactly_once():
    rep = check_axioms(trivial_datum())
    names = [c.name for c in rep.checks]
    assert names == list(AXIOM_CHECKS)


def test_axioms_fail_with_witness_on_non_symmetric_s():
    s = CycMatrix.from_rows([[1, 1], [0, 1]])
    datum = ModularDatum(("a", "b"), 0, s, (one, one))
    rep = check_axioms(datum)
    assert rep["s_symmetric"].status == "fail"
    assert rep["s_symmetric"].witness is not None


def test_axioms_on_naively_normalized_counterexample():
    _, bold = sl2_q16_counterexample()
    w = World(bold)
    scale = w.global_dim * w.dim_unit_bar
    c = sqrt_in_field(scale)
    assert c is not None and c * c == scale
    datum = ModularDatum(bold.labels, bold.unit, bold.s_matrix.scale(c.inv()),
                         tuple(bold.twists))
    rep = check_axioms(datum)
    # here S^2 = Id exactly, so the scalar check is the (ST)^3 ~ S^2 relation
    assert rep["s_fourth_identity"].status == "pass"
    assert rep["st_cubed_scalar"].status == "fail"
    assert not rep.passed


# ---------------------------------------------------------------------------
# raw unitarity and Gauss sums
# ---------------------------------------------------------------------------

def test_raw_unitarity_examples():
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    assert check_raw_unitarity(sld.world).status == "pass"
    assert check_raw_unitarity(World(pointed_cyclic(5, 1, 1))).status == "pass"
    # S = [[1, 1], [1, 2]]: S conj(S)^T = [[2, 3], [3, 5]], while D = 1 + 1 = 2
    s = CycMatrix.from_rows([[1, 1], [1, 2]])
    bad = World(RawDatum(("1", "a"), 0, s, (one, one), "raw-full", (0, 1)))
    result = check_raw_unitarity(bad)
    assert result.name == "raw_unitarity" and result.status == "fail"
    assert result.witness["at"] == (0, 1)


def test_gauss_sums_pointed():
    w = World(pointed_cyclic(3, 1, 1))
    assert w.tau_plus == 2 + zeta(3, 2)
    assert w.tau_minus == 2 + zeta(3)
    g = check_gauss_product(w)
    assert g.name == "gauss_product" and g.status == "pass" and g.witness is None
    assert g.detail == "tau+ tau- = 3, D = 3"


def test_gauss_supersums_taft():
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    g = check_gauss_product(sld.world)
    assert g.status == "pass" and g.detail == "tau+ tau- = 3, D = 3"
    # S = [[1, 1], [1, 2]] with trivial twists: tau+ = tau- = 2, but D = 2
    s = CycMatrix.from_rows([[1, 1], [1, 2]])
    g = check_gauss_product(World(RawDatum(("1", "a"), 0, s, (one, one), "raw-full", (0, 1))))
    assert g.status == "fail" and g.witness == {"product": 4, "expected": 2}


# ---------------------------------------------------------------------------
# twist laws, SL2 relations, roots of unity
# ---------------------------------------------------------------------------

def checks_by_name(checks):
    return {c.name: c for c in checks}


def test_twist_laws_taft_and_pointed():
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    by = checks_by_name(check_twist_laws(sld.world))
    assert all(c.status == "pass" for c in by.values())
    assert "twist(unit_bar) = 1" in by["twist_unit_bar"].detail
    by = checks_by_name(check_twist_laws(World(pointed_cyclic(3, 1, 1))))
    assert all(c.status == "pass" for c in by.values())


TWIST_LAWS = ("twist_dual_dim", "twist_bar", "twist_tau_plus_rows", "twist_tau_minus_rows")


def with_twist(raw, x, z):
    twists = list(raw.twists)
    twists[x] = twists[x] * z
    return RawDatum(raw.labels, raw.unit, raw.s_matrix, tuple(twists), raw.kind, raw.duality,
                    raw.duality_signs)


def law_witnesses(raw):
    """The label index of each twist law's witness, None when it passes."""
    return {c.name: None if c.status == "pass" else c.witness["at"]
            for c in check_twist_laws(World(raw)) if c.name in TWIST_LAWS}


@pytest.mark.parametrize("make", [
    lambda: reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3)).world.raw,
    lambda: pointed_cyclic(5, 1, 0)], ids=["taft3", "pointed5,1,0"])
def test_twist_law_witnesses_are_the_first_failing_labels(make):
    # one twist times a root of unity, at each label in turn: each law's
    # witness is the first label at which the scalar reference fails, and a
    # relabelling moves it to the first failing label in the new order
    raw = make()
    perm = list(range(raw.size))
    random.Random(1).shuffle(perm)   # moves every label, the unit too
    failed = set()
    for z in (zeta(raw.s_matrix.conductor), zeta(4)):
        for x in range(raw.size):
            moved = with_twist(raw, x, z)
            fails = per_entry.twist_laws(moved)
            assert law_witnesses(moved) == {k: v[0] if v else None for k, v in fails.items()}
            assert law_witnesses(relabel(moved, perm)) == \
                {k: min((perm[y] for y in v), default=None) for k, v in fails.items()}
            failed.update(k for k, v in fails.items() if v)
    assert failed == set(TWIST_LAWS)


def test_sl2_relations_pass_for_families():
    for k0 in (0, 1):
        w = World(pointed_cyclic(5, 1, k0))
        assert all(c.status == "pass" for c in check_sl2_relations(w))
    for d in (2, 3, 4, 5):
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        assert all(c.status == "pass" for c in check_sl2_relations(sld.world))


def test_sl2_relations_fail_for_counterexample_with_witness():
    _, bold = sl2_q16_counterexample()
    by = checks_by_name(check_sl2_relations(World(bold)))
    assert by["sl2_st_cubed"].status == "fail"
    wit = by["sl2_st_cubed"].witness
    assert wit is not None and wit["lhs"] != wit["rhs"]


def test_vafa_examples():
    w = World(pointed_cyclic(5, 1, 1))
    assert all(c.status == "pass" for c in check_vafa(w))
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    assert all(c.status == "pass" for c in check_vafa(sld.world))


def test_vafa_rejects_non_root_twist():
    raw = pointed_cyclic(5, 1, 0)
    twists = list(raw.twists)
    twists[2] = CycNum.from_rational(2)
    bad = RawDatum(raw.labels, raw.unit, raw.s_matrix, tuple(twists), raw.kind, raw.duality)
    by = checks_by_name(check_vafa(World(bad)))
    assert by["vafa_twists"].status == "fail"
    assert by["vafa_twists"].witness["at"] == 2


def test_balancing_with_oracle_tensor():
    from modkit.families import pointed_fusion_tensor
    w = World(pointed_cyclic(3, 1, 1))
    res = check_balancing(w, pointed_fusion_tensor(3).table)
    assert res.status == "pass"


def test_balancing_detects_wrong_tensor():
    from modkit.families import pointed_fusion_tensor
    w = World(pointed_cyclic(3, 1, 1))
    t = pointed_fusion_tensor(3).table.copy()
    t[1, 1, 0], t[1, 1, 2] = 1, 0
    res = check_balancing(w, t)
    assert res.status == "fail"
    assert res.witness is not None

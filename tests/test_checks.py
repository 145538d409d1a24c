import random

import pytest

import per_entry
from conftest import relabel
from modkit.checks import (AXIOM_CHECKS, check_axioms, check_balancing, check_gauss_product,
                           check_raw_unitarity, check_sl2_relations, check_twist_laws,
                           check_vafa)
from modkit.cyclotomic import CycNum, sqrt_in_field, zeta
from modkit.datum import DegeneracyError, ModularDatum, RawDatum, World
from modkit.matrix import CycMatrix
from modkit.families import (pointed_cyclic, pointed_fusion_tensor, sl2_q16_counterexample,
                             taft_double, taft_J_indices)
from modkit.pipeline import emit_zmodular, reduce_slightly_degenerate, verify_raw

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
    w = World(pointed_cyclic(3, 1, 1))
    res = check_balancing(w, pointed_fusion_tensor(3).table)
    assert res.status == "pass"


def test_balancing_detects_wrong_tensor():
    # a wrong tensor, and the bold q16 datum with its own: the witness holds
    # the values of the per-entry recomputation at the first failing pair
    t = pointed_fusion_tensor(3).table.copy()
    t[1, 1, 0], t[1, 1, 2] = 1, 0
    for raw, tensor in ((pointed_cyclic(3, 1, 1), t), q16_bold_world()):
        res = check_balancing(World(raw), tensor)
        assert res.status == "fail"
        assert res.witness == per_entry_witness("balancing", per_entry.world_sides(raw, tensor))
        assert res.witness["lhs"] != res.witness["rhs"]


# ---------------------------------------------------------------------------
# identity witnesses: the first difference of the two sides, per entry
# ---------------------------------------------------------------------------

ROW_FORM = ("twist_tau_plus_rows", "twist_tau_minus_rows")
LABEL_FORM = ("twist_dual_dim", "twist_bar")


def per_entry_witness(name, sides):
    """The witness of the identity ``name`` read off its two sides compared
    one scalar at a time: the first differing entry, None when they agree."""
    lhs, rhs = sides[name]
    at = per_entry.first_difference(lhs, rhs)
    if at is None:
        return None
    i, j = at
    return {"at": j if name in ROW_FORM else at, "lhs": lhs[i][j], "rhs": rhs[i][j]}


def plus_at(m, pairs, delta):
    """``m`` with ``delta`` added at each (i, j) of ``pairs``."""
    n = m.rows
    return m + CycMatrix(n, n, [delta if (x, y) in pairs else 0
                                for x in range(n) for y in range(n)])


def with_s_pair(raw, i, j, delta):
    """``raw`` with ``delta`` added to S[i, j] and S[j, i]."""
    return RawDatum(raw.labels, raw.unit, plus_at(raw.s_matrix, {(i, j), (j, i)}, delta),
                    raw.twists, raw.kind, raw.duality, raw.duality_signs)


def taft3_world():
    res = verify_raw(taft_double(3), reps=taft_J_indices(3))
    return res.world.raw, res.tensor


def q16_bold_world():
    _, bold = sl2_q16_counterexample()
    return bold, verify_raw(bold).tensor


TWIST_MOVED = {"sl2_st_cubed", "sl2_st_inv_cubed", "balancing"} | set(ROW_FORM)


@pytest.mark.parametrize("make, fail", [
    (lambda: (pointed_cyclic(5, 1, 0), pointed_fusion_tensor(5).table),
     TWIST_MOVED | {"raw_unitarity", "sl2_s_fourth"}),
    (taft3_world, TWIST_MOVED), (q16_bold_world, TWIST_MOVED)],
    ids=["pointed5,1,0", "taft3", "q16-bold"])
def test_world_identity_witnesses_are_the_per_entry_first_differences(make, fail):
    # one twist moved, or one symmetric pair of S entries off the unit row
    # (on taft3 no such move keeps a bar involution, so no world is built):
    # the witness of every matrix, row and labelled-row identity is its first
    # difference read one scalar at a time
    raw, tensor = make()
    n = raw.size
    moved = [with_twist(raw, x, zeta(4)) for x in range(n)]
    moved += [with_s_pair(raw, i, j, CycNum.from_rational(1))
              for i in range(n) for j in range(i, n) if raw.unit not in (i, j)]
    failed = set()
    for m in moved:
        try:
            w = World(m)
        except DegeneracyError:
            continue
        got = {c.name: c for c in [check_raw_unitarity(w), check_balancing(w, tensor)]
               + check_twist_laws(w) + check_sl2_relations(w)}
        sides = per_entry.world_sides(m, tensor)
        for name in sides:
            want = per_entry_witness(name, sides)
            assert got[name].witness == want, name
            assert got[name].ok == (want is None), name
        for name, labels in per_entry.twist_laws(m).items():
            if name in LABEL_FORM:
                assert got[name].witness == (
                    {"at": labels[0], "label": m.labels[labels[0]]} if labels else None)
        failed.update(name for name, c in got.items() if not c.ok)
    assert failed >= fail


@pytest.mark.parametrize("make", [
    lambda: verify_raw(pointed_cyclic(5, 1, 0)).world,
    lambda: reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))],
    ids=["pointed5,1,0", "taft3"])
def test_axiom_witnesses_are_the_per_entry_first_differences(make):
    # one S entry (not its mirror) or one T entry moved in an emitted datum
    datum = emit_zmodular(make()).datum
    n, one = datum.size, CycNum.from_rational(1)
    moved = [ModularDatum(datum.labels, datum.unit, plus_at(datum.s_matrix, {(i, j)}, one),
                          datum.t_diag) for i in range(n) for j in range(n) if i != datum.unit]
    for x in range(n):
        t = list(datum.t_diag)
        t[x] = t[x] * zeta(4)
        moved.append(ModularDatum(datum.labels, datum.unit, datum.s_matrix, tuple(t)))
    failed = set()
    for m in moved:
        rep = check_axioms(m)
        sides = per_entry.axiom_sides(m)
        for name in sides:
            want = per_entry_witness(name, sides)
            assert rep[name].witness == want, name
            assert rep[name].ok == (want is None), name
        failed.update(c.name for c in rep.failures())
    assert failed >= set(per_entry.axiom_sides(datum))


# ---------------------------------------------------------------------------
# the three basic checks of verify_raw
# ---------------------------------------------------------------------------

def basic_variants(raw):
    """Copies of ``raw`` that fail exactly one basic check, each at two
    places: S asymmetric at two entries, two dims zero, two twists zero."""
    u, one = raw.unit, CycNum.from_rational(1)
    twists = list(raw.twists)
    twists[1] = twists[3] = CycNum.from_rational(0)
    dims = raw.s_matrix
    for x in (2, 4):
        dims = plus_at(dims, {(u, x), (x, u)}, -raw.s_matrix[u, x])
    return {"s_raw_symmetric": RawDatum(raw.labels, u, plus_at(raw.s_matrix, {(1, 3), (4, 2)}, one),
                                        raw.twists, raw.kind, raw.duality),
            "dims_nonzero": RawDatum(raw.labels, u, dims, raw.twists, raw.kind, raw.duality),
            "twists_nonzero": RawDatum(raw.labels, u, raw.s_matrix, tuple(twists), raw.kind,
                                       raw.duality)}


def basic_witness(raw, name):
    res = verify_raw(raw)
    assert res.classification == "fail" and res.report.checks[-1].name == name
    return res.report[name].witness


def test_basic_check_witnesses_are_the_first_failing_entries():
    # each witness is the first failure the per-entry reference finds, and a
    # relabelling moves it to the first failing entry in the new order
    raw = pointed_cyclic(5, 1, 0)
    perm = [3, 0, 4, 1, 2]
    for name, bad in basic_variants(raw).items():
        fails = per_entry.basic_failures(bad)[name]
        assert len(fails) >= 2 and all(not v for k, v in per_entry.basic_failures(bad).items()
                                       if k != name)
        moved = relabel(bad, perm)
        if name == "s_raw_symmetric":
            (i, j), s = fails[0], bad.s_matrix
            assert basic_witness(bad, name) == {"at": (i, j), "lhs": s[i, j], "rhs": s[j, i]}
            assert basic_witness(moved, name)["at"] == min((perm[i], perm[j]) for i, j in fails)
        else:
            x = fails[0]
            assert basic_witness(bad, name) == {"at": x, "label": bad.labels[x]}
            y = min(perm[x] for x in fails)
            assert basic_witness(moved, name) == {"at": y, "label": moved.labels[y]}

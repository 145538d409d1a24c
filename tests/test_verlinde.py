import math
from fractions import Fraction

import numpy as np
import pytest

import per_entry
from modkit import verlinde
from modkit.checks import check_balancing
from modkit.cyclotomic import CycNum, zeta
from modkit.datum import ModularDatum, World, reduce_slightly_degenerate, with_duality
from modkit.matrix import CycMatrix
from modkit.families import (TaftLabel, pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_fusion_tensor, taft_J, taft_J_indices, taft_normalizer)
from modkit.fusion import FusionTensor, quotient_constants, tensor_duality
from modkit.pipeline import emit_zmodular, resolve_world, verify_raw
from modkit.verlinde import (ROUTE_ALL_ROOTS, ROUTE_ONE_ROOT, _structure_constants,
                             fusion_operands, galois_fixed, galois_generators,
                             galois_permutations, raw_operands, verlinde_fusion, verlinde_raw)
from conftest import POINTED_GRID, TAFT_RANGE

one = CycNum.from_rational(1)


def test_trivial_datum_fusion():
    datum = ModularDatum(("1",), 0, CycMatrix.identity(1), (one,))
    tensor, rep = verlinde_fusion(datum)
    assert rep.integral and rep.nonnegative
    assert tensor.table[0, 0, 0] == 1


@pytest.mark.parametrize("unit_row", [[1, 0, zeta(5)], [zeta(3), 2, 0]])
def test_a_zero_unit_row_entry_names_its_label(unit_row):
    k = len(unit_row)
    s = CycMatrix(k, k, unit_row + [1] * (k * k - k))
    datum = ModularDatum(tuple("abc"), 0, s, (one,) * k)
    bad = "abc"[unit_row.index(0)]
    with pytest.raises(ZeroDivisionError, match=f"^unit row vanishes at {bad}$"):
        verlinde_fusion(datum)


def test_pointed_normalized_datum_gives_group_law():
    w = World(with_duality(pointed_cyclic(3, 1, 1)))
    em = emit_zmodular(w)
    assert em.datum is not None
    tensor, rep = verlinde_fusion(em.datum)
    assert rep.integral and rep.nonnegative
    # N_{d1,d1}^{d2} = 1 and every other N_{d1,d1}^* = 0
    assert tensor.table[1, 1, 2] == 1
    assert tensor.table[1, 1].sum() == 1
    assert per_entry.fusion_law_failures(tensor) == []


def test_pointed_raw_route_gives_group_law():
    for (n, a, k0) in ((3, 1, 0), (5, 1, 1), (7, 2, 1)):
        w = World(with_duality(pointed_cyclic(n, a, k0)))
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
    tensor, rep = verlinde_raw(sld.world)
    assert rep.integral
    J = taft_J(d)
    i20 = J.index(TaftLabel(2, 0))
    i11 = J.index(TaftLabel(1, 1))
    row = tensor[i20, i20]
    assert row[i11] == 1 and row.sum() == 1 and np.count_nonzero(row) == 1


def test_signed_verlinde_equals_quotient_constants():
    for d in (2, 3, 4, 5):
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        tensor, rep = verlinde_raw(sld.world)
        assert rep.integral
        oracle = taft_fusion_tensor(d)
        want, _ = quotient_constants(oracle, sld.epsilon, reps=sld.reps)
        assert np.array_equal(tensor, want)


def test_taft5_has_negative_entries():
    sld = reduce_slightly_degenerate(taft_double(5), reps=taft_J_indices(5))
    tensor, rep = verlinde_raw(sld.world)
    assert rep.integral and not rep.nonnegative
    assert tensor.min() < 0


def test_unit_rows_are_delta():
    sld = reduce_slightly_degenerate(taft_double(4), reps=taft_J_indices(4))
    tensor, _ = verlinde_raw(sld.world)
    u = sld.world.raw.unit
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
        em = emit_zmodular(sld)
        assert em.normalizer == taft_normalizer(d)
        tensor, rep = verlinde_fusion(em.datum)
        assert rep.integral
        # associativity and unit law hold even with signed entries
        assert per_entry.unit_law_holds(tensor)
        assert per_entry.is_associative(tensor)


def test_structure_constants_past_int64_are_exact():
    # N = a^3 = 2^120 and -2^120: the tensor holds Python integers where int64 cannot
    for v in (2 ** 40, -2 ** 40):
        a = CycMatrix(1, 1, [v])
        tensor, rep = _structure_constants(a, a)
        assert rep.integral and rep.nonnegative == (v > 0)
        assert tensor.dtype == object and tensor[0, 0, 0] == v ** 3
    tensor, _ = _structure_constants(CycMatrix(1, 1, [3]), CycMatrix(1, 1, [5]))
    assert tensor.dtype == np.int64 and tensor[0, 0, 0] == 45


def test_object_tensors_pass_balancing_quotient_and_duality():
    # the consumers of a structure-constant tensor accept the object dtype it
    # takes past 2^63, with the same results as on int64
    w = World(with_duality(pointed_cyclic(5, 1, 1)))
    tensor, _ = verlinde_raw(w)
    wide = tensor.astype(object)
    assert check_balancing(w, wide).status == "pass"
    assert tensor_duality(wide, w.unit) == tensor_duality(tensor, w.unit) == w.duality
    d = 3
    oracle = taft_fusion_tensor(d)
    wide_oracle = FusionTensor(oracle.labels, oracle.table.astype(object), oracle.unit,
                               oracle.duality)
    eps = oracle.labels.index("(2,1)")
    want, reps = quotient_constants(oracle, eps, reps=taft_J_indices(d))
    got, reps_wide = quotient_constants(wide_oracle, eps, reps=taft_J_indices(d))
    assert reps == reps_wide and got.dtype == object and np.array_equal(got, want)
    res = verify_raw(taft_double(d), reps=taft_J_indices(d), fusion_oracle=wide_oracle)
    assert res.report["oracle_equivalence"].status == "pass"


# ---------------------------------------------------------------------------
# the one-root route and the Galois check that makes it exact
# ---------------------------------------------------------------------------

def _fields(rep):
    """Every field of an integrality report but the route."""
    return {k: v for k, v in vars(rep).items() if k != "route"}


def _all_roots(monkeypatch):
    """Force the route of today: every root of Phi_n, then interpolation."""
    monkeypatch.setattr(verlinde, "galois_fixed", lambda a, c: False)


@pytest.fixture(scope="module")
def operands():
    """(tag, a, c) of the raw and normalized routes on Taft d = 3..9, the
    pointed grid and the q16 bold datum."""
    sources = [(f"taft d={d}", taft_double(d), taft_J_indices(d)) for d in range(3, 10)]
    sources += [(f"pointed {key}", pointed_cyclic(*key), None) for key in POINTED_GRID]
    sources.append(("q16 bold", sl2_q16_counterexample()[1], None))
    out = []
    for tag, raw, reps in sources:
        world, sldeg = resolve_world(raw, reps)
        out.append((f"{tag} raw", *raw_operands(world)))
        emitted = emit_zmodular(sldeg if sldeg is not None else world)
        out.append((f"{tag} normalized", *fusion_operands(emitted.datum)))
    return out


def test_one_root_route_runs_on_every_valid_fixture(operands):
    for tag, a, c in operands:
        assert galois_fixed(a, c), tag
        _, rep = _structure_constants(a, c)
        assert rep.route == ROUTE_ONE_ROOT, tag
    # the pipeline reaches it too, on both routes
    world, sldeg = resolve_world(taft_double(5), taft_J_indices(5))
    assert verlinde_raw(world)[1].route == ROUTE_ONE_ROOT
    em = emit_zmodular(sldeg)
    assert em.normalizer == taft_normalizer(5)
    assert verlinde_fusion(em.datum)[1].route == ROUTE_ONE_ROOT


def test_both_routes_agree_on_every_fixture(operands, monkeypatch):
    one = [(tag, *_structure_constants(a, c)) for tag, a, c in operands]
    _all_roots(monkeypatch)
    for (tag, a, c), (_, tensor, rep) in zip(operands, one):
        full, full_rep = _structure_constants(a, c)
        assert full_rep.route == ROUTE_ALL_ROOTS
        assert tensor.dtype == full.dtype and np.array_equal(tensor, full), tag
        assert _fields(rep) == _fields(full_rep), tag


def test_object_slices_keep_the_one_root_route(operands):
    # past 2^63 the slices are Python integers: the keys of a matrix and of its
    # Galois image must still compare, or the route would silently turn off
    _, a, c = next(op for op in operands if op[0] == "taft d=5 normalized")
    tensor, _ = _structure_constants(a, c)
    big = 2 ** 70
    for big_a, big_c, factor in ((a.scale(big), c, big * big), (a, c.scale(big), big),
                                 (a.scale(big), c.scale(-big), -big ** 3)):
        assert object in (big_a.num.dtype, big_c.num.dtype)
        got, rep = _structure_constants(big_a, big_c)
        assert rep.route == ROUTE_ONE_ROOT
        assert got.dtype == object and np.array_equal(got, tensor.astype(object) * factor)


def test_a_perturbed_entry_fails_the_check_and_keeps_todays_witness():
    # one entry of the normalized S changed: the check fails, the sum runs at
    # every root, and the witnesses match the entry-by-entry triple sum
    from test_kernel import ref_structure_constants

    world = World(with_duality(pointed_cyclic(5, 1, 1)))
    s = emit_zmodular(world).datum.s_matrix
    failed = 0
    for (i, j), delta in (((1, 2), zeta(5)), ((0, 0), CycNum.from_rational(1)),
                          ((3, 3), zeta(5) + zeta(5, 2)), ((4, 1), zeta(5, 3) / 2)):
        entries = list(s.entries)
        entries[i * s.cols + j] = entries[i * s.cols + j] + delta
        datum = ModularDatum(tuple(f"d{k}" for k in range(5)), 0, CycMatrix(5, 5, entries),
                             (one,) * 5)
        a, c = fusion_operands(datum)
        tensor, rep = _structure_constants(a, c)
        failed += rep.route == ROUTE_ALL_ROOTS
        ref_tensor, witnesses, negatives, first = ref_structure_constants(a, c)
        assert (tensor is None) == (ref_tensor is None)
        assert rep.non_integral == witnesses and rep.negative_count == negatives
        assert rep.first_negative == first
    assert failed == 4


def test_a_rational_scale_keeps_the_check_and_both_routes_give_one_witness(operands, monkeypatch):
    halves = [(tag, a, c.scale(Fraction(1, 2))) for tag, a, c in operands[:6]]
    one_root = []
    for tag, a, half in halves:
        assert galois_fixed(a, half), tag
        tensor, rep = _structure_constants(a, half)
        assert rep.route == ROUTE_ONE_ROOT and tensor is None and rep.non_integral, tag
        assert all(v.is_rational() for *_, v in rep.non_integral)
        one_root.append(rep)
    _all_roots(monkeypatch)
    for (tag, a, half), rep in zip(halves, one_root):
        full = _structure_constants(a, half)[1]
        assert full.route == ROUTE_ALL_ROOTS
        assert [str(v) for *_, v in rep.non_integral] == [str(v) for *_, v in full.non_integral]
        assert _fields(rep) == _fields(full), tag


def test_operands_off_the_galois_action_fail_the_check(operands, monkeypatch):
    # a non-rational scale of c, one moved row of c negated, or a scale fixed
    # by the first generator only leaves the sum outside Q; the check must see
    # it, and the sum runs at every root
    _, a, c = next(op for op in operands if op[0] == "taft d=5 normalized")
    n = math.lcm(a.conductor, c.conductor)
    e = galois_generators(n)[0]
    moved = next(w for w, v in enumerate(galois_permutations(a, c, [e])[0]) if v != w)
    flip = CycMatrix(c.rows, 1, [-1 if w == moved else 1 for w in range(c.rows)])
    e1, e2 = galois_generators(4 * n)   # (Z/20)^x = C2 x C4 needs two
    period = sum((zeta(4 * n, pow(e1, i, 4 * n)) for i in range(4)), CycNum.from_rational(0))
    assert period.galois(e1) == period != period.galois(e2)
    bad = [c.scale(zeta(n)), c * flip, c.scale(period)]
    assert not any(galois_fixed(a, x) for x in bad)
    got = [_structure_constants(a, x) for x in bad]
    assert all(rep.route == ROUTE_ALL_ROOTS for _, rep in got)
    assert not got[0][1].integral
    _all_roots(monkeypatch)
    for x, (tensor, rep) in zip(bad, got):
        full, full_rep = _structure_constants(a, x)
        assert (tensor is None) == (full is None) and _fields(rep) == _fields(full_rep)


def test_galois_permutations_compose(operands):
    for tag in ("pointed (7, 2, 1) normalized", "taft d=4 normalized", "pointed (9, 1, 0) raw"):
        _, a, c = next(op for op in operands if op[0] == tag)
        n = math.lcm(a.conductor, c.conductor)
        a, c = a.lift(n), c.lift(n)
        units = [e for e in range(1, n) if math.gcd(e, n) == 1]
        perms = dict(zip(units, galois_permutations(a, c, units)))
        assert perms[1] == tuple(range(a.rows))
        for e in units:
            assert sorted(perms[e]) == list(range(a.rows)), (tag, e)
            for f in units:
                pe, pf = perms[e], perms[f]
                assert perms[e * f % n] == tuple(pe[pf[w]] for w in range(a.rows)), (tag, e, f)


def test_galois_generators_generate_the_unit_group():
    for n in range(1, 201):
        units = {e for e in range(n) if math.gcd(e, n) == 1} if n > 1 else {0}
        gens = galois_generators(n)
        assert set(gens) <= units
        group, frontier = {1 % n}, [1 % n]
        while frontier:
            x = frontier.pop()
            for e in gens:
                y = x * e % n
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        assert group == units, n
        if n in (4, 9, 10, 19, 50, 121, 169, 199):   # cyclic unit groups
            assert len(gens) == 1, n

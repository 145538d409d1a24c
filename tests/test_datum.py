import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_entry
from conftest import POINTED_GRID, galois_conjugate, relabel
from modkit.cyclotomic import CycNum, zeta
from modkit.datum import (KIND_BOLD, DegeneracyError, RawDatum, World, bar_involution,
                          derive_duality, detect_symmetric_center, dims_of, epsilon_action,
                          reduce_slightly_degenerate, signed_positions, tensor_by_invertible,
                          with_duality)
from modkit.families import (TaftLabel, pointed_cyclic, sl2_q16_counterexample,
                             taft_double, taft_epsilon_action, taft_J, taft_J_indices,
                             taft_label_index, taft_labels, taft_sdim)
from modkit.matrix import CycMatrix
from modkit.pipeline import resolve_world

one = CycNum.from_rational(1)


def taft_idx(d, l, p):
    return taft_label_index(d, TaftLabel(l, p))


# ---------------------------------------------------------------------------
# symmetric center
# ---------------------------------------------------------------------------

def test_center_pointed_primitive_is_trivial():
    assert detect_symmetric_center(pointed_cyclic(5, 1, 1)) == (0,)


def test_center_taft_is_unit_and_fermion():
    d = 3
    assert detect_symmetric_center(taft_double(d)) == (0, taft_idx(d, 2, 1))


def test_center_degenerate_pointed():
    raw = pointed_cyclic(9, 3, 0)   # braiding root of order 3 inside Z/9Z
    assert detect_symmetric_center(raw) == (0, 3, 6)


def test_center_counterexample_has_dim_plus_one():
    full, _ = sl2_q16_counterexample()
    center = detect_symmetric_center(full)
    assert len(center) == 2
    other = center[1]
    assert full.dim_r(other) == 1
    assert full.twists[other] == -1


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_dims_pointed():
    raw = pointed_cyclic(3, 1, 1)
    d = dims_of(raw)
    assert d.dim_r[0, 1] == zeta(3)
    assert d.dim_l[0, 1] == zeta(3, 2)
    assert d.sqnorm[0, 1] == 1
    assert d.global_dim == 3


def test_dims_taft_fermion_is_minus_one():
    raw = taft_double(3)
    d = dims_of(raw)
    assert d.dim_r[0, taft_idx(3, 2, 1)] == -1


def test_taft_sdim_simplifies():
    assert taft_sdim(3) == 3
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    assert sld.world.global_dim == 3
    assert sld.world.global_dim == taft_sdim(3)


def test_dims_require_duality():
    raw = pointed_cyclic(5, 1, 1)
    stripped = type(raw)(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind)
    with pytest.raises(DegeneracyError):
        dims_of(stripped)


def taft3_twisted():
    """Taft d = 3 with the twist of label 1 moved by zeta_3."""
    raw = taft_double(3)
    twists = list(raw.twists)
    twists[1] = twists[1] * zeta(3)
    return RawDatum(raw.labels, raw.unit, raw.s_matrix, tuple(twists), raw.kind, raw.duality)


def taft_conjugates(d):
    n = taft_double(d).s_matrix.conductor
    return [(f"taft{d}-sigma{j}", lambda d=d, j=j: galois_conjugate(taft_double(d), j))
            for j in range(2, n) if math.gcd(j, n) == 1]


ROW_DATA = ([(f"taft{d}", lambda d=d: taft_double(d)) for d in range(2, 10)]
            + taft_conjugates(5) + taft_conjugates(7)
            + [(f"pointed{key}", lambda key=key: pointed_cyclic(*key)) for key in POINTED_GRID]
            + [("q16-full", lambda: sl2_q16_counterexample()[0]),
               ("q16-bold", lambda: sl2_q16_counterexample()[1]),
               ("taft3-twisted", taft3_twisted)])


def keys(*lines):
    return [per_entry.key(line) for line in lines]


@pytest.mark.parametrize("tag, make", ROW_DATA, ids=[tag for tag, _ in ROW_DATA])
def test_rows_equal_the_per_entry_reference(tag, make):
    # entries and scalars agree with the scalar loops, conductors included
    raw = with_duality(make())
    d = dims_of(raw)
    dim_r, dim_l, sqnorm, global_dim = per_entry.dims(raw)
    assert keys(d.dim_r.entries, d.dim_l.entries, d.sqnorm.entries, [d.global_dim]) == \
        keys(dim_r, dim_l, sqnorm, [global_dim])
    if tag == "q16-full":   # dim(eps) = +1 and twist(eps) = -1: no world
        with pytest.raises(DegeneracyError):
            resolve_world(raw)
        return
    w = resolve_world(raw)[0]
    dim_r, dim_l, sqnorm, global_dim = per_entry.dims(w.raw)
    assert keys(w.dim_r.entries, w.dim_l.entries, w.sqnorm.entries,
                [w.global_dim, w.tau_plus, w.tau_minus]) == \
        keys(dim_r, dim_l, sqnorm, [global_dim, *per_entry.gauss(w.raw)])


# ---------------------------------------------------------------------------
# duality derivation
# ---------------------------------------------------------------------------

def test_derive_duality_matches_family_data():
    for raw in (pointed_cyclic(5, 1, 1), pointed_cyclic(7, 2, 0), taft_double(4)):
        stripped = type(raw)(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind)
        duality, signs = derive_duality(stripped)
        assert duality == raw.duality
        assert all(s == 1 for s in signs)


def test_derive_duality_on_bold_with_orbit_signs():
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    bold = sld.world.raw
    stripped = type(bold)(bold.labels, bold.unit, bold.s_matrix, bold.twists, bold.kind)
    duality, signs = derive_duality(stripped)
    assert duality == bold.duality
    assert signs == bold.duality_signs
    assert -1 in signs   # some dual leaves the representative set


# ---------------------------------------------------------------------------
# fermion action and bar involution
# ---------------------------------------------------------------------------

def test_epsilon_action_from_rows():
    for d in (3, 4):
        raw = taft_double(d)
        act = epsilon_action(raw)
        labs = taft_labels(d)
        for i, x in enumerate(labs):
            assert labs[act[i]] == taft_epsilon_action(d, x)


def test_epsilon_action_on_nondegenerate_input_fails():
    with pytest.raises(DegeneracyError):
        epsilon_action(pointed_cyclic(5, 1, 1))


def test_bar_pointed_unit_bar():
    raw = pointed_cyclic(3, 1, 1)
    bar, unit_bar = bar_involution(raw)
    assert raw.labels[unit_bar] == "d2"           # delta_{-k0} with k0 = 1


def test_bar_spherical_pointed_equals_duality():
    raw = pointed_cyclic(5, 1, 0)
    bar, unit_bar = bar_involution(raw)
    assert bar == raw.duality
    assert unit_bar == raw.unit


def test_bar_taft_bold_unit_bar():
    for d in (3, 4):
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        assert sld.world.raw.labels[sld.world.unit_bar] == str(TaftLabel(d - 1, 0))
        assert sld.world.dim_unit_bar == -zeta(d)


def test_bar_collision_aborts():
    # a full slightly degenerate matrix has colliding character rows
    with pytest.raises(DegeneracyError):
        bar_involution(taft_double(3))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_taft_with_closed_form_reps():
    d = 3
    sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
    assert [str(x) for x in taft_J(d)] == list(sld.world.raw.labels)
    assert sld.parent.labels[sld.epsilon] == "(2,1)"
    assert sld.world.e_signed_permutation is not None
    assert sld.world.bar == bar_involution(sld.world.raw)[0]


def per_entry_e(s2, d_u):
    """E = S^2 / (D u) read one quotient at a time, as
    :func:`per_entry.signed_permutation` reads it: a quotient 0, 1 or -1
    stays, any other value becomes 2."""
    k = s2.rows
    e = np.full((k, k), 2, dtype=np.int64)
    for i in range(k):
        for j in range(k):
            q = s2[i, j] / d_u
            e[i, j] = next((v for v in (0, 1, -1) if q == v), 2)
    return per_entry.signed_permutation(e)


def test_e_is_the_per_entry_reading_on_every_fixture_world(taft_verified, pointed_verified):
    worlds = [t.result.world for t in taft_verified.values()]
    worlds += [r.world for r in pointed_verified.values()]
    worlds.append(World(sl2_q16_counterexample()[1]))
    signs = set()
    for w in worlds:
        want = per_entry_e(w.s_squared, w.d_u)
        assert w.e_signed_permutation == want, w.labels
        signs.update(want[1])
    assert signs == {1, -1}


def crafted_s_squared(w):
    """S^2 of the world ``w`` with one defect each, and with none but written
    otherwise: ``(name, s2, d_u, is_signed_permutation)``."""
    s2, d_u, k, n = w.s_squared, w.d_u, w.size, w.s_squared.conductor
    j = w.e_signed_permutation.perm[0]   # the nonzero entry of row 0
    z = next(c for c in range(k) if c != j)   # a zero entry of row 0
    entries = [list(s2.row(i)) for i in range(k)]

    def changed(*edits):
        rows = [list(r) for r in entries]
        for i, c, v in edits:
            rows[i][c] = v
        return CycMatrix.from_rows(rows)

    zero = CycNum.from_rational(0)
    return [
        ("twice", changed((0, z, d_u + d_u)), d_u, False),
        ("one coordinate", changed((0, j, entries[0][j] + zeta(n))), d_u, False),
        ("moved", changed((0, j, zero), (0, z, entries[0][j])), d_u, False),
        ("zero row", changed(*((0, c, zero) for c in range(k))), d_u, False),
        ("negated row", changed(*((0, c, -entries[0][c]) for c in range(k))), d_u, True),
        ("lifted", s2.lift(3 * n), d_u, True),
        ("lifted D u", s2, d_u.lift(5 * d_u.conductor), True),
        ("denominator", s2.scale(Fraction(1, 6)), d_u / 6, True),
    ]


@pytest.mark.parametrize("make", [lambda: reduce_slightly_degenerate(taft_double(4)).world,
                                  lambda: World(pointed_cyclic(7, 2, 1))],
                         ids=["taft4", "pointed7,2,1"])
def test_e_is_the_per_entry_reading_on_crafted_squares(make):
    # s_squared is a cached_property: setting it in the instance dict is what
    # the World reads
    base = make()
    for name, s2, d_u, valid in crafted_s_squared(base):
        w = World(base.raw)
        w.__dict__["s_squared"] = s2
        w.d_u = d_u
        want = per_entry_e(s2, d_u)
        assert (want is not None) == valid, name
        assert w.e_signed_permutation == want, name


def test_reduce_canonical_reps_contain_unit():
    sld = reduce_slightly_degenerate(taft_double(4))
    assert sld.reps[sld.world.raw.unit] == sld.parent.unit
    assert len(sld.reps) == 6
    assert sld.parent.labels[sld.epsilon] == "(3,1)"


def test_reduce_taft4_epsilon_action():
    sld = reduce_slightly_degenerate(taft_double(4))
    labs = taft_labels(4)
    for i, x in enumerate(labs):
        assert labs[sld.eps_action[i]] == TaftLabel(4 - x.l, (x.l + x.p) % 4)


def test_reduce_rejects_nondegenerate_input():
    with pytest.raises(DegeneracyError, match="nondegenerate"):
        reduce_slightly_degenerate(pointed_cyclic(5, 1, 0))


def test_reduce_rejects_dim_plus_one_fermion():
    full, _ = sl2_q16_counterexample()
    with pytest.raises(DegeneracyError, match="dim \\+1"):
        reduce_slightly_degenerate(full)


def test_reduce_rejects_bad_reps():
    d = 3
    raw = taft_double(d)
    with pytest.raises(DegeneracyError):
        reduce_slightly_degenerate(raw, reps=[0, 1])
    with pytest.raises(DegeneracyError):
        # two labels of the same orbit
        reduce_slightly_degenerate(raw, reps=[0, 1, taft_idx(d, 2, 2)])


def test_reduce_row_negation_and_rank():
    d = 4
    raw = taft_double(d)
    act = epsilon_action(raw)
    s = raw.s_matrix
    for i in range(raw.size):
        j = act[i]
        assert all(s[j, y] == -s[i, y] for y in range(raw.size))
    assert per_entry.rank(s) == raw.size // 2


def test_tensor_by_invertible_unit_bar():
    d = 3
    raw = with_duality(taft_double(d))
    ub = taft_idx(d, 2, 0)
    t = tensor_by_invertible(raw, ub)
    # tensoring the unit gives unit_bar back
    assert t[raw.unit] == ub
    # and the map is a bijection
    assert sorted(t) == list(range(raw.size))


# ---------------------------------------------------------------------------
# the character table against the per-entry reference, and its symmetries
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the DegeneracyError it raises."""
    try:
        return fn(*args)
    except DegeneracyError as exc:
        return f"DegeneracyError: {exc}"


def strip_duality(raw):
    return type(raw)(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind)


TABLE_DATA = ([(f"taft{d}", lambda d=d: taft_double(d)) for d in range(2, 10)]
              + [(f"pointed{key}", lambda key=key: pointed_cyclic(*key)) for key in POINTED_GRID]
              + [("q16-full", lambda: sl2_q16_counterexample()[0]),
                 ("q16-bold", lambda: sl2_q16_counterexample()[1])])


@pytest.mark.parametrize("make", [m for _, m in TABLE_DATA], ids=[i for i, _ in TABLE_DATA])
def test_maps_read_off_the_table_equal_the_per_entry_reference(make):
    raw = make()
    assert outcome(detect_symmetric_center, raw) == per_entry.center(raw)
    stripped = strip_duality(raw)
    assert outcome(derive_duality, stripped) == outcome(per_entry.duality, stripped)
    full = with_duality(raw)
    bar = outcome(bar_involution, full)
    assert bar == outcome(per_entry.bar, full)
    assert outcome(epsilon_action, raw) == outcome(per_entry.epsilon_action, raw)
    if raw.kind == "raw-full" and len(detect_symmetric_center(raw)) == 2 \
            and isinstance(outcome(epsilon_action, raw), tuple):
        sld = reduce_slightly_degenerate(raw)
        unit_bar = sld.reps[sld.world.unit_bar]
    elif isinstance(bar, tuple):
        unit_bar = bar[1]
    else:
        return   # q16 full: neither a bar nor a reduction
    assert outcome(tensor_by_invertible, full, unit_bar) == \
        per_entry.tensor_by_invertible(full, unit_bar)


@pytest.mark.parametrize("rows", [[[1, 0], [0, 0]], [[1, 0], [0, 1]],
                                  [[1, 0, 2], [0, 0, 0], [2, 0, 4]]])
def test_a_label_of_dimension_zero_is_central_when_its_row_vanishes(rows):
    s = CycMatrix.from_rows(rows)
    raw = RawDatum(tuple("abc"[:s.rows]), 0, s, (one,) * s.rows, duality=tuple(range(s.rows)))
    assert detect_symmetric_center(raw) == per_entry.center(raw)
    with pytest.raises(DegeneracyError, match="dim_r\\(b\\) = 0"):
        bar_involution(raw)


def test_every_map_is_defined_somewhere_on_the_reference_data():
    # the comparison above compares values, not only matching errors
    kinds = {"center": 0, "duality": 0, "bar": 0, "eps": 0}
    for _, make in TABLE_DATA:
        raw = make()
        kinds["duality"] += isinstance(outcome(derive_duality, strip_duality(raw)), tuple)
        kinds["bar"] += isinstance(outcome(bar_involution, raw), tuple)
        kinds["eps"] += isinstance(outcome(epsilon_action, raw), tuple)
        kinds["center"] += len(detect_symmetric_center(raw)) == 2
    assert all(count > 1 for count in kinds.values())


def moved(f, perm):
    """The map pi f pi^-1 as a tuple: x -> perm[f[perm^-1 x]]."""
    out = [0] * len(perm)
    for x, fx in enumerate(f):
        out[perm[x]] = perm[fx]
    return tuple(out)


def moved_signs(signs, perm):
    """The signs of the moved labels: x -> signs[perm^-1 x]."""
    out = [0] * len(perm)
    for x, s in enumerate(signs):
        out[perm[x]] = s
    return tuple(out)


@pytest.mark.parametrize("make", [lambda: taft_double(4), lambda: pointed_cyclic(7, 1, 1),
                                  lambda: reduce_slightly_degenerate(taft_double(4)).world.raw],
                         ids=["taft4", "pointed7", "taft4-bold"])
def test_relabelling_moves_every_map_of_the_table(make):
    raw = make()
    perm = random.Random(raw.size).sample(range(raw.size), raw.size)
    other = relabel(raw, perm)
    assert detect_symmetric_center(other) == \
        tuple(sorted(perm[x] for x in detect_symmetric_center(raw)))
    duality, signs = derive_duality(strip_duality(raw))
    duality2, signs2 = derive_duality(strip_duality(other))
    assert duality2 == moved(duality, perm) and signs2 == moved_signs(signs, perm)
    if raw.kind == "raw-full" and len(detect_symmetric_center(raw)) == 2:
        assert epsilon_action(other) == moved(epsilon_action(raw), perm)
        g = reduce_slightly_degenerate(raw)
        g = g.reps[g.world.unit_bar]
        assert tensor_by_invertible(other, perm[g]) == \
            moved(tensor_by_invertible(raw, g), perm)
    else:
        bar, unit_bar = bar_involution(raw)
        assert bar_involution(other) == (moved(bar, perm), perm[unit_bar])
        if raw.kind == "raw-full":
            assert tensor_by_invertible(other, perm[unit_bar]) == \
                moved(tensor_by_invertible(raw, unit_bar), perm)


@pytest.mark.parametrize("make", [lambda: taft_double(4), lambda: taft_double(5),
                                  lambda: pointed_cyclic(9, 2, 1)],
                         ids=["taft4", "taft5", "pointed9"])
def test_galois_conjugation_keeps_the_center_and_the_fermion_action(make):
    raw = make()
    n = math.lcm(raw.s_matrix.conductor, *(t.conductor for t in raw.twists))
    center = detect_symmetric_center(raw)
    act = outcome(epsilon_action, raw)
    for j in range(2, n):
        if math.gcd(j, n) != 1:
            continue
        conj = galois_conjugate(raw, j)
        assert detect_symmetric_center(conj) == center, j
        assert outcome(epsilon_action, conj) == act, j


def test_maps_on_slices_past_int64():
    # S times 2^70 holds Python integers: the fermion action (negated rows of S)
    # and the maps read off the characters, which the scale cancels from, stay
    raw = with_duality(taft_double(3))
    big = type(raw)(raw.labels, raw.unit, raw.s_matrix.scale(2 ** 70), raw.twists, raw.kind)
    assert big.s_matrix.num.dtype == object
    assert detect_symmetric_center(big) == per_entry.center(big)
    assert epsilon_action(big) == epsilon_action(raw)
    assert derive_duality(big) == derive_duality(raw)
    ub = taft_idx(3, 2, 0)
    assert tensor_by_invertible(with_duality(big), ub) == tensor_by_invertible(raw, ub)


# ---------------------------------------------------------------------------
# signed positions of the full labels among the representatives
# ---------------------------------------------------------------------------

TAFT = {d: taft_double(d) for d in range(2, 10)}


def check_signed_positions(raw, reps=None):
    """signed_positions read one label at a time, and on the duals of the
    representatives: the bold duality and signs the reduction writes, which
    are those the characters of the bold S define."""
    sldeg = reduce_slightly_degenerate(raw, reps)
    act, reps, bold = sldeg.eps_action, sldeg.reps, sldeg.world.raw
    signed = signed_positions(act, reps)
    assert sldeg.signed_reps() == signed
    for x, (i, sign) in enumerate(signed):
        assert (reps[i] if sign == 1 else act[reps[i]]) == x
        assert x in reps if sign == 1 else act[x] in reps
    assert [signed[raw.duality[r]] for r in reps] == list(zip(bold.duality, bold.duality_signs))
    no_duality = RawDatum(bold.labels, bold.unit, bold.s_matrix, bold.twists, KIND_BOLD)
    assert derive_duality(no_duality) == (bold.duality, bold.duality_signs)


@pytest.mark.parametrize("d", sorted(TAFT))
def test_signed_positions_give_the_bold_duality_on_default_reps(d):
    check_signed_positions(TAFT[d])


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from(sorted(TAFT)), data=st.data())
def test_signed_positions_give_the_bold_duality_on_drawn_reps(d, data):
    raw = TAFT[d]
    act = epsilon_action(raw)
    orbits = [x for x in range(raw.size) if x < act[x]]
    flips = data.draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    reps = [raw.unit if raw.unit in (x, act[x]) else act[x] if flip else x
            for x, flip in zip(orbits, flips)]
    check_signed_positions(raw, data.draw(st.permutations(reps)))

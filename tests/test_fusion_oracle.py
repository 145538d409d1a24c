from collections import Counter

import numpy as np
import pytest

import per_entry
from modkit.families import (TaftLabel, pointed_fusion_tensor, taft_double, taft_epsilon_action,
                             taft_fusion, taft_fusion_tensor, taft_J, taft_J_indices, taft_labels)
from modkit.datum import orbit_reps
from modkit.fusion import (FusionTensor, epsilon_action_from_fusion, quotient_constants,
                           tensor_duality)
from modkit.pipeline import oracle_tensor, resolve_world


def test_taft_fusion_base_cases():
    assert taft_fusion(3, TaftLabel(2, 0), TaftLabel(2, 0)) == Counter({TaftLabel(1, 1): 1})
    # translation: (1,p) (x) (l',p') = (l', p+p')
    for d in (3, 4, 5, 7):
        for p in range(d):
            for lp in range(1, d):
                for pp in range(d):
                    got = taft_fusion(d, TaftLabel(1, p), TaftLabel(lp, pp))
                    assert got == Counter({TaftLabel(lp, (p + pp) % d): 1})
    # middle branch
    assert taft_fusion(5, TaftLabel(2, 0), TaftLabel(3, 1)) == \
        Counter({TaftLabel(4, 1): 1, TaftLabel(2, 2): 1})


def test_taft_fusion_commutes():
    d = 6
    labs = taft_labels(d)
    for x in labs[::3]:
        for y in labs[::4]:
            assert taft_fusion(d, x, y) == taft_fusion(d, y, x)


def test_taft_fusion_rejects_bad_labels():
    with pytest.raises(ValueError):
        taft_fusion(3, TaftLabel(9, 9), TaftLabel(1, 0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_taft_tensor_invariants(d):
    t = taft_fusion_tensor(d)
    assert per_entry.fusion_law_failures(t) == []


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pointed_tensor_invariants(n):
    t = pointed_fusion_tensor(n)
    assert per_entry.fusion_law_failures(t) == []


def test_epsilon_action_matches_fusion():
    for d in (3, 4, 5):
        t = taft_fusion_tensor(d)
        labs = taft_labels(d)
        eps = labs.index(TaftLabel(d - 1, 1))
        act = epsilon_action_from_fusion(t, eps)
        for i, x in enumerate(labs):
            assert labs[act[i]] == taft_epsilon_action(d, x)


def test_epsilon_action_involution_no_fixed_points():
    for d in range(2, 13):
        for x in taft_labels(d):
            ex = taft_epsilon_action(d, x)
            assert ex != x
            assert taft_epsilon_action(d, ex) == x


def test_taft_J_size_and_partition():
    for d in range(2, 13):
        J = taft_J(d)
        assert len(J) == d * (d - 1) // 2
        translated = {taft_epsilon_action(d, x) for x in J}
        assert translated.isdisjoint(J)
        assert set(taft_labels(d)) == set(J) | translated


def test_quotient_unit_row_is_delta():
    for d in (3, 4, 5):
        t = taft_fusion_tensor(d)
        labs = taft_labels(d)
        eps = labs.index(TaftLabel(d - 1, 1))
        reps = [labs.index(x) for x in taft_J(d)]
        q, rep_out = quotient_constants(t, eps, reps=reps)
        assert rep_out == tuple(reps)
        k = len(reps)
        u = reps.index(t.unit)
        assert np.array_equal(q[u], np.eye(k, dtype=np.int64))


def test_quotient_sign_minus_has_negative_entry_for_d3():
    d = 3
    t = taft_fusion_tensor(d)
    labs = taft_labels(d)
    eps = labs.index(TaftLabel(d - 1, 1))
    reps = [labs.index(x) for x in taft_J(d)]
    q, _ = quotient_constants(t, eps, reps=reps)
    i11 = reps.index(labs.index(TaftLabel(1, 1)))
    i20 = reps.index(labs.index(TaftLabel(2, 0)))
    assert q[i11, i11, i20] == -1


def test_canonical_reps_forces_unit():
    act = (1, 0, 3, 2)
    assert orbit_reps(act, unit=0) == [0, 2]
    assert orbit_reps(act, unit=1) == [1, 2]


def test_quotient_reps_validation():
    t = taft_fusion_tensor(3)
    labs = taft_labels(3)
    eps = labs.index(TaftLabel(2, 1))
    with pytest.raises(ValueError):
        quotient_constants(t, eps, reps=[0, 1])   # wrong size, missing orbits


def test_quotient_needs_a_fixed_point_free_involution():
    # on Z/4, tensoring by 1 has order 4 and by the unit fixes every label;
    # only 2 is an involution without fixed points
    t = pointed_fusion_tensor(4)
    for eps in (1, 0):
        with pytest.raises(ValueError, match=f"tensoring by {t.labels[eps]} is not"):
            quotient_constants(t, eps)
    q, reps = quotient_constants(t, 2)
    assert reps == (0, 1) and q.shape == (2, 2, 2)
    # d1 (x) d1 = d2 = eps (x) d0, so it counts -1 on the quotient
    assert q.tolist() == [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def fixture_tensors():
    """The family tensors, signed quotient tensors, and one as Python integers."""
    out = [taft_fusion_tensor(d) for d in (2, 3, 4, 5)] + [pointed_fusion_tensor(n) for n in (3, 9)]
    for d in (3, 5):
        t = taft_fusion_tensor(d)
        eps = t.labels.index(str(TaftLabel(d - 1, 1)))
        q, reps = quotient_constants(t, eps, reps=taft_J_indices(d))
        u = reps.index(t.unit)
        out.append(FusionTensor(tuple(t.labels[r] for r in reps), q, u,
                                per_entry.tensor_duality(q, u)))
    t = out[2]
    return out + [FusionTensor(t.labels, t.table.astype(object), t.unit, t.duality)]


def perturbed(table, want, other):
    """Copies of ``table`` whose nonzero entry at ``want`` gets a second
    nonzero beside it at ``other``, is negated, is doubled, or moves to ``other``."""
    out = []
    for changes in ({other: 1}, {want: -table[want]}, {want: 2 * table[want]},
                    {want: 0, other: table[want]}):
        t = table.copy()
        for at, v in changes.items():
            t[at] = v
        out.append(t)
    return out


@pytest.mark.parametrize("fusion", fixture_tensors(),
                         ids=lambda t: f"{len(t.labels)}-{t.table.dtype}")
def test_duality_and_fermion_action_equal_the_per_entry_reading(fusion):
    table, unit, n = fusion.table, fusion.unit, len(fusion.labels)
    for x in range(n):
        assert tensor_duality(table, x) == per_entry.tensor_duality(table, x)
        assert outcome(epsilon_action_from_fusion, fusion, x) == \
            outcome(per_entry.epsilon_action_from_fusion, fusion, x)
    dual = per_entry.tensor_duality(table, unit)
    # the last invertible label: the unit only when no other is
    eps = max(x for x in range(n)
              if isinstance(outcome(per_entry.epsilon_action_from_fusion, fusion, x), tuple))
    act = per_entry.epsilon_action_from_fusion(fusion, eps)
    for i in range(n):
        j = (i + 1) % n
        for t in perturbed(table, (i, dual[i], unit), (i, dual[j], unit)):
            assert tensor_duality(t, unit) == per_entry.tensor_duality(t, unit)
        for t in perturbed(table, (eps, i, act[i]), (eps, i, act[j])):
            bent = FusionTensor(fusion.labels, t, unit, fusion.duality)
            assert outcome(epsilon_action_from_fusion, bent, eps) == \
                outcome(per_entry.epsilon_action_from_fusion, bent, eps)


@pytest.mark.parametrize("d", range(2, 7))
def test_the_oracle_on_the_world_is_the_fold_of_each_row(d):
    # fusion --compare reads sign(x) sign(y) oracle_tensor[xi, yi]; folding the
    # oracle's full row of x (x) y through the quotient gives the same entries
    raw, oracle = taft_double(d), taft_fusion_tensor(d)
    _, sldeg = resolve_world(raw, taft_J_indices(d))
    want, signed = oracle_tensor(oracle, sldeg), sldeg.signed_reps()
    for x, (xi, sx) in enumerate(signed):
        for y, (yi, sy) in enumerate(signed):
            assert (sx * sy * want[xi, yi]).tolist() == \
                per_entry.fold(oracle.table[x, y], signed), (x, y)


def test_the_oracle_of_a_nondegenerate_world_is_its_table():
    oracle = pointed_fusion_tensor(5)
    assert oracle_tensor(oracle, None) is oracle.table

import math

import numpy as np
import pytest

from conftest import POINTED_GRID
from per_entry import rank
from modkit._kernel import euler_phi
from modkit.cyclotomic import CycNum, zeta
from modkit.datum import RawDatum
from modkit.families import (FamilySpecError, TaftLabel, from_spec, parse_taft_label,
                             pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_J, taft_J_indices, taft_label_index, taft_labels,
                             taft_normalized_S, taft_normalizer, taft_sdim)
from modkit.matrix import CycMatrix
from modkit.pipeline import verify_raw

one = CycNum.from_rational(1)


def taft_idx(d, l, p):
    return taft_label_index(d, TaftLabel(l, p))


# ---------------------------------------------------------------------------
# pointed family
# ---------------------------------------------------------------------------

def test_pointed_spherical_instance():
    raw = pointed_cyclic(3, 1, 0)
    assert all(raw.dim_r(k) == 1 for k in range(3))
    assert raw.s_matrix[1, 1] == zeta(3, 2)
    assert raw.s_matrix == raw.s_matrix.transpose()


def test_pointed_with_pivot():
    raw = pointed_cyclic(3, 1, 1)
    assert raw.dim_r(1) == zeta(3)
    assert raw.twists[1] == zeta(3, 2)   # xi * zeta = zeta^2
    assert raw.duality == (0, 2, 1)


def test_pointed_rejects_even_n():
    with pytest.raises(FamilySpecError):
        pointed_cyclic(4, 1, 0)
    with pytest.raises(FamilySpecError):
        pointed_cyclic(1, 1, 0)


# ---------------------------------------------------------------------------
# Taft family
# ---------------------------------------------------------------------------

def test_taft_unit_entry_and_labels():
    raw = taft_double(3)
    assert raw.labels[0] == "(1,0)"
    assert raw.s_matrix[0, 0] == 1
    assert raw.s_matrix == raw.s_matrix.transpose()
    assert raw.labels == tuple(str(x) for x in taft_labels(3))


def test_taft_fermion_column_is_minus_dims():
    for d in (3, 4, 5):
        raw = taft_double(d)
        eps = taft_idx(d, d - 1, 1)
        for i in range(raw.size):
            assert raw.s_matrix[i, eps] == -raw.dim_r(i)


def test_taft_d2_is_the_trivial_case():
    raw = taft_double(2)
    assert raw.size == 2
    assert len(taft_J(2)) == 1
    res = verify_raw(raw, reps=taft_J_indices(2))
    assert res.passed
    assert res.world.size == 1
    assert res.world.s[0, 0] == 1


def test_taft_normalizer_squares_for_all_d():
    for d in range(2, 13):
        c = taft_normalizer(d)
        assert c * c == taft_sdim(d) * (-zeta(d))


def test_taft_normalized_closed_form_vs_scaled_bold():
    d = 3
    raw = taft_double(d)
    reps = taft_J_indices(d)
    bold = CycMatrix(len(reps), len(reps),
                     [raw.s_matrix[i, j] for i in reps for j in reps])
    assert bold.scale(taft_normalizer(d).inv()) == taft_normalized_S(d)


def test_galois_variant_still_verifies():
    d = 4
    raw = taft_double(d)
    twisted = RawDatum(raw.labels, raw.unit, raw.s_matrix.galois(3),
                       tuple(t.galois(3) for t in raw.twists), raw.kind, raw.duality)
    res = verify_raw(twisted, reps=taft_J_indices(d))
    assert res.passed and res.classification == "Z-modular"


# ---------------------------------------------------------------------------
# slice constructors against the entry-by-entry closed forms
# ---------------------------------------------------------------------------

def _taft_entry(d, x, y, pref):
    """One closed-form Taft entry as a product of scalars, or, with ``pref``
    None, the normalized entry zeta^e (zeta^(ll') - 1) / d."""
    z = zeta(d)
    (l, p), (lp, pp) = x, y
    e = (-(l * lp + l * pp + p * lp + 2 * p * pp)) % d
    if pref is None:
        return z ** e * (z ** ((l * lp) % d) - one) / CycNum.from_rational(d)
    return pref * z ** e * (one - z ** ((l * lp) % d))


def taft_reference(d):
    """S and twists of the Taft double, one CycNum product per entry."""
    z = zeta(d)
    pref = z / (one - z)
    labels = taft_labels(d)
    s = CycMatrix(len(labels), len(labels),
                  [_taft_entry(d, x, y, pref) for x in labels for y in labels])
    return s, tuple(z ** ((-p * (l + p)) % d) for (l, p) in labels)


def pointed_reference(n, a, k0):
    z = zeta(n)
    s = CycMatrix(n, n, [z ** ((a * (k0 * (k + l) + 2 * k * l)) % n)
                         for k in range(n) for l in range(n)])
    return s, tuple(z ** ((a * (k0 * k + k * k)) % n) for k in range(n))


def _same_entries(got, want):
    assert (got.rows, got.cols, got.conductor) == (want.rows, want.cols, want.conductor)
    assert got == want
    assert [(e.conductor, e.num, e.den) for e in got.entries] == \
        [(e.conductor, e.num, e.den) for e in want.entries]


@pytest.mark.parametrize("d", range(2, 10))
def test_taft_slice_build_equals_entrywise_closed_form(d):
    raw = taft_double(d)
    s, twists = taft_reference(d)
    _same_entries(raw.s_matrix, s)
    assert [(t.conductor, t.num, t.den) for t in raw.twists] == \
        [(t.conductor, t.num, t.den) for t in twists]
    reps = taft_J(d)
    _same_entries(taft_normalized_S(d),
                  CycMatrix(len(reps), len(reps),
                            [_taft_entry(d, x, y, None) for x in reps for y in reps]))


@pytest.mark.parametrize("n,a,k0", POINTED_GRID)
def test_pointed_slice_build_equals_entrywise_closed_form(n, a, k0):
    raw = pointed_cyclic(n, a, k0)
    s, twists = pointed_reference(n, a, k0)
    _same_entries(raw.s_matrix, s)
    assert [(t.conductor, t.num) for t in raw.twists] == [(t.conductor, t.num) for t in twists]


def test_taft_slice_build_commutes_with_galois():
    d = 5
    built = taft_double(d).s_matrix
    ref, _ = taft_reference(d)
    units = [j for j in range(1, d) if math.gcd(j, d) == 1]
    for j in units:
        assert built.galois(j) == CycMatrix(ref.rows, ref.cols, [e.galois(j) for e in ref.entries])


def test_taft_double_makes_a_fixed_number_of_scalar_products(monkeypatch):
    calls = []
    real = CycNum.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    monkeypatch.setattr(CycNum, "__rmul__", counting)
    d = 7
    raw = taft_double(d)
    # the prefactor zeta/(1 - zeta) alone; the 1764 entries take none
    assert 0 < len(calls) <= 2 * euler_phi(d) < raw.size


def test_parse_taft_label():
    assert parse_taft_label(5, "(2,3)") == TaftLabel(2, 3)
    with pytest.raises(FamilySpecError):
        parse_taft_label(3, "(9,9)")
    with pytest.raises(FamilySpecError):
        parse_taft_label(3, "nonsense")


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def test_counterexample_bracket_value():
    full, bold = sl2_q16_counterexample()
    br = zeta(16, 14) + one + zeta(16, 2)
    assert full.s_matrix[0, 1] == br
    assert bold.s_matrix[1, 1] == -1
    assert full.twists == (one, zeta(16, 4), -zeta(16, 4), -one)


def test_counterexample_full_matrix_shape():
    full, bold = sl2_q16_counterexample()
    assert full.size == 4 and bold.size == 2
    assert full.s_matrix == full.s_matrix.transpose()
    assert rank(full.s_matrix) == 2


# ---------------------------------------------------------------------------
# family spec strings
# ---------------------------------------------------------------------------

def test_from_spec_roundtrips():
    inst = from_spec("taft:d=5")
    assert inst.raw.size == 20
    inst = from_spec("pointed:n=7,a=1,k0=2")
    assert inst.raw.size == 7
    inst = from_spec("counterexample:sl2q16")
    assert inst.raw.kind == "raw-bold"
    inst = from_spec("counterexample:sl2q16,part=full")
    assert inst.raw.size == 4


def test_from_spec_errors():
    for bad in ("taft:d=0", "taft:d=x", "taft", "pointed:n=4", "nope:1",
                "counterexample:other", "counterexample:sl2q16,part=weird",
                "pointed:n=7,a=1,k=2", "taft:d=3,x=1", "taft:d=3,oops",
                "counterexample:sl2q16,foo", "taft:d=3,d=5", "pointed:n=7,n=9",
                "counterexample:sl2q16,sl2q16", "counterexample:sl2q16,part=bold,part=full"):
        with pytest.raises(FamilySpecError):
            from_spec(bad)


@pytest.mark.parametrize("d", range(2, 8))
def test_taft_oracle_tensor_is_taft_fusion_on_every_pair(d):
    from modkit.families import taft_fusion, taft_fusion_tensor

    labels = taft_labels(d)
    table = taft_fusion_tensor(d).table
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            want = np.zeros(len(labels), dtype=np.int64)
            for lab, m in taft_fusion(d, x, y).items():
                want[taft_label_index(d, lab)] = m
            assert np.array_equal(table[i, j], want), (x, y)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pointed_oracle_tensor_is_the_group_law(n):
    from modkit.families import pointed_fusion_tensor

    want = np.zeros((n, n, n), dtype=np.int64)
    for k in range(n):
        for l in range(n):
            want[k, l, (k + l) % n] = 1
    assert np.array_equal(pointed_fusion_tensor(n).table, want)


def test_family_oracle_is_built_on_first_read_only(monkeypatch, tmp_path):
    import modkit.families as families
    from modkit import cli

    calls = []
    real = families.taft_fusion_tensor
    monkeypatch.setattr(families, "taft_fusion_tensor", lambda d: calls.append(d) or real(d))
    inst = from_spec("taft:d=5")
    assert calls == []
    assert cli.main(["generate", "taft:d=5", str(tmp_path / "t5.json")]) == 0
    assert calls == []
    first = inst.fusion_oracle
    assert calls == [5] and inst.fusion_oracle is first
    assert cli.main(["fusion", "taft:d=4", "(2,1)", "(3,2)", "--compare"]) == 0
    assert calls == [5, 4]
    assert from_spec("counterexample:sl2q16").fusion_oracle is None


def test_family_oracle_is_the_tensor_verify_raw_is_checked_against(taft_instances):
    from modkit.families import pointed_fusion_tensor, taft_fusion_tensor

    for d, inst in taft_instances.items():
        want = taft_fusion_tensor(d)
        got = inst.fusion_oracle
        assert (got.labels, got.unit, got.duality) == (want.labels, want.unit, want.duality)
        assert np.array_equal(got.table, want.table), d
    got = from_spec("pointed:n=7,a=2,k0=1").fusion_oracle
    assert np.array_equal(got.table, pointed_fusion_tensor(7).table)
    inst = taft_instances[4]
    res = verify_raw(inst.raw, reps=inst.reps, fusion_oracle=inst.fusion_oracle)
    assert res.report["oracle_equivalence"].status == "pass"

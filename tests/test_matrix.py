import random
from fractions import Fraction

import numpy as np
import pytest

from per_entry import rank
from modkit.cyclotomic import CycNum, zeta
from modkit.matrix import CycMatrix, ShapeError
from modkit.families import taft_double, taft_J, taft_normalizer, taft_label_index


def rand_matrix(rng, rows, cols, n):
    from modkit._kernel import euler_phi
    phi = euler_phi(n)
    return CycMatrix(rows, cols, [
        CycNum.from_coeffs(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(phi)])
        for _ in range(rows * cols)])


def test_identity_and_scale():
    rng = random.Random(0)
    a = rand_matrix(rng, 3, 3, 5)
    assert CycMatrix.identity(3) @ a == a
    assert a.scale(0) == CycMatrix.zeros(3, 3)


def test_shape_errors():
    a = CycMatrix.identity(2)
    b = CycMatrix.zeros(3, 2)
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        CycMatrix(2, 2, [1, 2, 3])


def row_test_slices():
    """(num, den) at conductor 12 with zero entries, on the int64 path, the
    object path (coefficients past 2^63) and a denominator past 2^63."""
    rng = np.random.default_rng(5)
    num = rng.integers(-4, 5, size=(4, 3, 5)) * 6
    num[:, 1, 2] = 0
    num[:, 0, 0] = [6, 0, 0, 0]
    return [(num, 4), (num.astype(object) * 2 ** 70, 4 * 3 ** 5), (num, 3 ** 41)]


@pytest.mark.parametrize("case", range(3))
def test_row_builds_only_its_own_entries(case, monkeypatch):
    num, den = row_test_slices()[case]
    full = CycMatrix.from_slices(12, num, den)
    assert (full.num.dtype == object) == (case == 1) and (full.den >= 2 ** 63) == (case == 2)
    made = []
    make = CycNum._make

    def counting(n, coords, d):
        made.append(coords)
        return make(n, coords, d)

    for i in range(full.rows):
        m = CycMatrix.from_slices(12, num, den)
        monkeypatch.setattr(CycNum, "_make", staticmethod(counting))
        got = m.row(i)
        monkeypatch.setattr(CycNum, "_make", staticmethod(make))
        assert len(made) == m.cols and m._entries is None
        made.clear()
        want = full.entries[i * full.cols:(i + 1) * full.cols]
        assert [(e.conductor, e.num, e.den) for e in got] == \
            [(e.conductor, e.num, e.den) for e in want]
    assert full.row(1) == full.entries[full.cols:2 * full.cols]


def test_matmul_associativity_randomized():
    rng = random.Random(1)
    for _ in range(5):
        a = rand_matrix(rng, 3, 4, 8)
        b = rand_matrix(rng, 4, 2, 8)
        c = rand_matrix(rng, 2, 3, 8)
        assert (a @ b) @ c == a @ (b @ c)


def per_entry_product(a, b):
    """``a * b`` entry by entry, a factor with one row or column repeated along it."""
    rows, cols = max(a.rows, b.rows), max(a.cols, b.cols)

    def at(m, i, j):
        return m[min(i, m.rows - 1), min(j, m.cols - 1)]

    return CycMatrix(rows, cols, [at(a, i, j) * at(b, i, j)
                                  for i in range(rows) for j in range(cols)])


@pytest.mark.parametrize("shape", [(3, 1), (1, 4), (1, 1), (3, 4)])
def test_entrywise_product_equals_the_per_entry_reference(shape):
    rng = random.Random(6)
    for n, m in ((5, 12), (8, 3), (1, 20), (9, 9)):
        a = rand_matrix(rng, 3, 4, n)
        b = rand_matrix(rng, *shape, m)
        assert a * b == per_entry_product(a, b)
        assert b * a == per_entry_product(b, a)


def test_entrywise_product_refuses_shapes_that_do_not_broadcast():
    a = CycMatrix.zeros(2, 3)
    for b in (CycMatrix.zeros(3, 1), CycMatrix.zeros(1, 2), CycMatrix.zeros(3, 3)):
        with pytest.raises(ShapeError):
            a * b
        with pytest.raises(ShapeError):
            b * a


def test_conj_transpose():
    assert CycMatrix.identity(4).conj_transpose() == CycMatrix.identity(4)
    m = CycMatrix(1, 1, [zeta(5)])
    assert m.conj_transpose() == CycMatrix(1, 1, [zeta(5, 4)])
    rng = random.Random(2)
    a = rand_matrix(rng, 3, 2, 7)
    assert a.conj_transpose().conj_transpose() == a


def test_rank_basics():
    assert rank(CycMatrix.identity(3)) == 3
    assert rank(CycMatrix.zeros(2, 2)) == 0
    rng = random.Random(3)
    a = rand_matrix(rng, 4, 3, 5)
    assert rank(a) == rank(a.conj_transpose())


def test_rank_of_full_taft_matrix():
    assert rank(taft_double(3).s_matrix) == 3


def test_signed_permutation_witnesses():
    ident = CycMatrix.identity(3)
    sp = ident.is_signed_permutation()
    assert sp.perm == (0, 1, 2) and sp.signs == (1, 1, 1)
    swap = CycMatrix.from_rows([[0, -1], [1, 0]])
    sp = swap.is_signed_permutation()
    assert sp.perm == (1, 0) and sp.signs == (-1, 1)
    assert CycMatrix.from_rows([[1, 1], [0, 1]]).is_signed_permutation() is None
    assert CycMatrix.from_rows([[2, 0], [0, 1]]).is_signed_permutation() is None


def test_signed_permutation_implies_unitary():
    rng = random.Random(4)
    n = 5
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [0] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = rng.choice((1, -1))
    m = CycMatrix(n, n, entries)
    assert m.is_signed_permutation() is not None
    assert m @ m.conj_transpose() == CycMatrix.identity(n)


def test_taft_bold_square_is_scaled_signed_permutation():
    # the representative-indexed 3x3 matrix at d=3 squares to sdim*u*E
    d = 3
    full = taft_double(d)
    reps = [taft_label_index(d, x) for x in taft_J(d)]
    s = CycMatrix(3, 3, [full.s_matrix[i, j] for i in reps for j in reps])
    c = taft_normalizer(d)
    e = (s @ s).scale((c * c).inv())
    sp = e.is_signed_permutation()
    assert sp is not None
    assert sorted(sp.perm) == [0, 1, 2]


def test_scalar_multiple_of_identity():
    m = CycMatrix.identity(3).scale(zeta(5))
    assert m.is_scalar_multiple_of_identity() == zeta(5)
    assert CycMatrix.from_rows([[1, 1], [0, 1]]).is_scalar_multiple_of_identity() is None
    assert CycMatrix.zeros(2, 2).is_scalar_multiple_of_identity() == 0


def test_galois_entrywise():
    rng = random.Random(5)
    a = rand_matrix(rng, 2, 2, 5)
    b = a.galois(2)
    assert all(b[i, j] == a[i, j].galois(2) for i in range(2) for j in range(2))

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import per_entry
from conftest import POINTED_GRID
from per_entry import rank
from modkit import matrix
from modkit._kernel import euler_phi, max_row
from modkit.cyclotomic import CycNum, zeta
from modkit.matrix import CycMatrix, ShapeError, slice_inv
from modkit.families import (pointed_cyclic, sl2_q16_counterexample, taft_double, taft_J,
                             taft_J_indices, taft_normalizer, taft_label_index)
from modkit.pipeline import emit_zmodular, resolve_world


def rand_matrix(rng, rows, cols, n):
    from modkit._kernel import euler_phi
    phi = euler_phi(n)
    return CycMatrix(rows, cols, [
        per_entry.from_coeffs(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
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
    m = CycMatrix.from_slices(12, num, den)
    assert (m.num.dtype == object) == (case == 1) and (m.den >= 2 ** 63) == (case == 2)
    want = m.entries
    made = []
    make = CycNum._make

    def counting(n, coords, d):
        made.append(coords)
        return make(n, coords, d)

    def canon(entries):
        return [(e.conductor, e.num, e.den) for e in entries]

    def built(read):
        """What ``read()`` returns, and how many entries it built."""
        monkeypatch.setattr(CycNum, "_make", staticmethod(counting))
        got = read()
        monkeypatch.setattr(CycNum, "_make", staticmethod(make))
        count = len(made)
        made.clear()
        return canon(got), count

    for i in range(m.rows):
        assert built(lambda: m.row(i)) == (canon(want[i * m.cols:(i + 1) * m.cols]), m.cols)
    for j in range(m.cols):
        assert built(lambda: m.col(j)) == (canon(want[j::m.cols]), m.rows)
        assert built(lambda: [m[1, j]]) == (canon([want[m.cols + j]]), 1)
    assert built(lambda: m.entries) == (canon(want), m.rows * m.cols)


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
    sp = matrix.signed_permutation(np.eye(3, dtype=np.int64))
    assert sp.perm == (0, 1, 2) and sp.signs == (1, 1, 1)
    sp = matrix.signed_permutation(np.array([[0, -1], [1, 0]]))
    assert sp.perm == (1, 0) and sp.signs == (-1, 1)
    assert matrix.signed_permutation(np.array([[1, 1], [0, 1]])) is None
    assert matrix.signed_permutation(np.array([[2, 0], [0, 1]])) is None


def random_lines(rng, dtype, big):
    """Slices ``(phi, lines, width)`` for ``src`` and ``dst`` drawn from one
    pool of lines, so that most lines of ``dst`` have a match and ``src``
    repeats some; values reach past 2^63 when ``big``."""
    phi, width = rng.randint(1, 4), rng.randint(1, 3)
    top = 2 ** 70 if big else 3
    pool = [[[rng.randint(-top, top) for _ in range(width)] for _ in range(phi)]
            for _ in range(rng.randint(1, 5))]
    src = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
    dst = [rng.choice(pool) if rng.random() < 0.8 else
           [[rng.randint(-top, top) for _ in range(width)] for _ in range(phi)]
           for _ in range(rng.randint(1, 6))]
    return (np.array(lines, dtype=dtype).transpose(1, 0, 2) for lines in (src, dst))


@pytest.mark.parametrize("seed", range(40))
def test_match_lines_equals_the_per_entry_reference(seed):
    # both int64; both object past 2^63; each side int64 against the same
    # values as Python integers on the other; and one side with an extra line
    # wider than every value of the other side (2^10, 2^40, 2^70), which must
    # not change how the shared lines are keyed
    rng = random.Random(seed)
    src, dst = random_lines(rng, np.int64, False)
    big_src, big_dst = random_lines(rng, object, True)
    cases = [(src, dst), (big_src, big_dst), (src, dst.astype(object)),
             (src.astype(object), dst), (src, src.astype(object))]
    for wide in (2 ** 10, 2 ** 40, 2 ** 70):
        extra = np.full((src.shape[0], 1, src.shape[2]), wide, dtype=object)
        wider = np.concatenate([src, extra], axis=1)
        wider = wider if wide > 2 ** 62 else wider.astype(np.int64)
        cases += [(wider, dst), (dst, wider)]
    for a, b in cases:
        assert matrix.match_lines(a, b) == per_entry.match_lines(a, b)
    assert matrix.match_lines(src, src.astype(object)) == per_entry.match_lines(src, src)
    assert all(j is not None for j in matrix.match_lines(src, src.astype(object)))


def signed_permutation_cases(rng, n, dtype):
    """A random signed permutation matrix of size n, and copies with one
    entry set to 0 or 2 (2^70 for object), or moved into an occupied column."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = np.zeros((n, n), dtype=dtype)
    for i, j in enumerate(perm):
        m[i, j] = rng.choice((1, -1))
    out = [m]
    i = rng.randrange(n)
    for v in (0, 2 if dtype == np.int64 else 2 ** 70):
        bent = m.copy()
        bent[i, perm[i]] = v
        out.append(bent)
    if n > 1:
        moved = m.copy()
        moved[i, perm[i]], moved[i, perm[(i + 1) % n]] = 0, m[i, perm[i]]
        out.append(moved)
    return out


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_signed_permutation_equals_the_per_entry_reading(dtype):
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 8) * 4:
        for m in signed_permutation_cases(rng, n, dtype):
            assert matrix.signed_permutation(m) == per_entry.signed_permutation(m)


def test_signed_permutation_implies_unitary():
    rng = random.Random(4)
    n = 5
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [0] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = rng.choice((1, -1))
    m = CycMatrix(n, n, entries)
    assert m.den == 1 and matrix.signed_permutation(m.num[0]) is not None
    assert m @ m.conj_transpose() == CycMatrix.identity(n)


def test_taft_bold_square_is_scaled_signed_permutation():
    # the representative-indexed 3x3 matrix at d=3 squares to sdim*u*E
    d = 3
    full = taft_double(d)
    reps = [taft_label_index(d, x) for x in taft_J(d)]
    s = CycMatrix(3, 3, [full.s_matrix[i, j] for i in reps for j in reps])
    c = taft_normalizer(d)
    e = (s @ s).scale((c * c).inv())
    assert e.den == 1 and not e.num[1:].any()
    sp = matrix.signed_permutation(e.num[0])
    assert sp is not None
    assert sorted(sp.perm) == [0, 1, 2]


def test_scalar_multiple_of_identity():
    # c Id written down from the slices of c is the identity scaled by c, to
    # the conductor, denominator and dtype, and has c on each diagonal entry:
    # a rational written at conductor 4, an irrational, coefficients past
    # int64, zero and a plain rational
    for c in (per_entry.from_coeffs(4, [Fraction(3, 2), 0]),
              per_entry.from_coeffs(5, [0, 1, Fraction(-3, 7), 0]),
              per_entry.from_coeffs(3, [2 ** 70 + 1, Fraction(-(2 ** 64), 5)]),
              0, Fraction(-5, 3)):
        for n in (1, 2, 5):
            got, want = CycMatrix.identity(n, c), CycMatrix.identity(n).scale(c)
            assert (got.conductor, got.den, got.num.dtype) == \
                (want.conductor, want.den, want.num.dtype)
            assert np.array_equal(got.num, want.num)
            assert got.entries == tuple(c if i == j else 0 for i in range(n) for j in range(n))


def test_galois_entrywise():
    rng = random.Random(5)
    a = rand_matrix(rng, 2, 2, 5)
    b = a.galois(2)
    assert all(b[i, j] == a[i, j].galois(2) for i in range(2) for j in range(2))


# ---------------------------------------------------------------------------
# the entrywise inverse on slices
# ---------------------------------------------------------------------------

def as_row(values):
    return CycMatrix(1, len(values), values)


def unit_row(s, unit):
    """Row ``unit`` of ``s`` as a 1 x k matrix, straight from the slices."""
    return CycMatrix.from_slices(s.conductor, s.num[:, unit:unit + 1, :], s.den)


INVERSE_DATA = ([(f"taft{d}", lambda d=d: taft_double(d)) for d in range(2, 10)]
                + [(f"pointed{key}", lambda key=key: pointed_cyclic(*key)) for key in POINTED_GRID]
                + [("q16-full", lambda: sl2_q16_counterexample()[0]),
                   ("q16-bold", lambda: sl2_q16_counterexample()[1])])


def ones_like(m):
    return CycMatrix.from_slices(1, np.ones((1, m.rows, m.cols), dtype=np.int64), 1)


def assert_inverts(m):
    """m.inverse() equals the per-entry inverses, and m * m.inverse() = 1."""
    inv = m.inverse()
    assert list(inv.entries) == per_entry.inverses(m.entries)
    assert m * inv == ones_like(m)


@pytest.mark.parametrize("make", [m for _, m in INVERSE_DATA], ids=[i for i, _ in INVERSE_DATA])
def test_entrywise_inverse_equals_the_per_entry_reference(make):
    raw = make()
    assert_inverts(unit_row(raw.s_matrix, raw.unit))
    assert_inverts(as_row(raw.twists))


def test_entrywise_inverse_on_the_normalized_taft_datum():
    _, sldeg = resolve_world(taft_double(9), taft_J_indices(9))
    em = emit_zmodular(sldeg)
    assert em.normalizer == taft_normalizer(9)
    assert_inverts(unit_row(em.datum.s_matrix, em.datum.unit))


def test_entrywise_inverse_of_a_column_and_past_int64():
    row = unit_row(taft_double(5).s_matrix, 0)
    assert_inverts(row.transpose())
    big = row.scale(2 ** 70 + 1)
    assert big.num.dtype == object
    assert_inverts(big)


def relational_rows():
    out = [(f"taft{d}", taft_double(d)) for d in (5, 7)]
    out += [(f"pointed{key}", pointed_cyclic(*key)) for key in POINTED_GRID]
    return [pytest.param(tag, row, id=f"{tag} {what}") for tag, raw in out
            for what, row in (("unit row", unit_row(raw.s_matrix, raw.unit)),
                              ("twists", as_row(raw.twists)))]


RELATIONAL_ROWS = relational_rows()


@pytest.mark.parametrize("tag,row", RELATIONAL_ROWS)
def test_the_inverse_commutes_with_the_galois_action(tag, row):
    n = row.conductor
    inv = row.inverse()
    for j in range(1, max(n, 2)):
        if math.gcd(j, n) == 1:
            assert row.galois(j).inverse() == inv.galois(j), (tag, j)


@pytest.mark.parametrize("tag,row", RELATIONAL_ROWS)
def test_a_permuted_row_has_the_permuted_inverse(tag, row):
    perm = list(range(row.cols))
    random.Random(row.cols).shuffle(perm)
    moved = CycMatrix.from_slices(row.conductor, row.num[:, :, perm], row.den)
    inv = row.inverse()
    assert moved.inverse() == CycMatrix.from_slices(inv.conductor, inv.num[:, :, perm], inv.den)


def test_a_zero_entry_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        as_row([1, zeta(5), 0]).inverse()


def nonzero_rows(n):
    phi = euler_phi(n)
    coeffs = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).filter(any)
    return st.lists(coeffs, min_size=1, max_size=4)


@pytest.mark.parametrize("n", [1, 4, 9, 84, 105])
def test_the_inverse_stays_within_its_l1_bounds(n):
    assert max_row(105) == 2
    phi = euler_phi(n)

    @settings(max_examples=15, deadline=None)
    @given(nonzero_rows(n))
    def check(rows):
        a = np.array(rows, dtype=np.int64).T
        moduli = []
        split = matrix.split_primes

        def recording(m, bound):
            sp = split(m, bound)
            moduli.append(sp.modulus)
            return sp

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "split_primes", recording)
            adj, norm = slice_inv(a, n)
        l1 = max(sum(abs(v) for v in row) for row in rows)
        adj_bound, norm_bound = l1 ** (phi - 1) * max_row(n), l1 ** phi
        assert all(abs(int(v)) <= adj_bound for v in adj.ravel())
        assert all(0 < abs(int(v)) <= norm_bound for v in norm.ravel())
        assert len(moduli) == 1 and moduli[0] > 2 * max(adj_bound, norm_bound)
        # exact: each entry times its adjugate is its norm
        prod = CycMatrix.from_slices(n, a[:, None, :], 1) * CycMatrix.from_slices(n, adj[:, None, :], 1)
        assert prod == CycMatrix(1, len(rows), [int(v) for v in norm])

    check()


# ---------------------------------------------------------------------------
# residues kept by a matrix
# ---------------------------------------------------------------------------

CACHE_DATA = ([(f"taft{d}", lambda d=d: taft_double(d)) for d in (5, 7)]
              + [(f"pointed{key}", lambda key=key: pointed_cyclic(*key)) for key in POINTED_GRID])


def cold(m):
    """The same matrix, keeping no residues."""
    return CycMatrix.from_slices(m.conductor, m.num, m.den)


def units(n):
    return [e for e in range(1, max(n, 2)) if math.gcd(e, n) == 1]


def cache_inputs(raw):
    """S and S without its first column and the rest reversed (not
    symmetric); for each, its transpose and adjoint, its Galois images,
    their transposes and products of them."""
    k, n = raw.size, raw.s_matrix.conductor
    out = []
    for s in (cold(raw.s_matrix), raw.s_matrix.columns(range(k - 1, 0, -1))):
        row = CycMatrix.from_slices(n, s.num[:, :1, :], s.den)
        out += [s, s.transpose(), s.conj_transpose()]
        for e in units(n):
            g = s.galois(e)
            out += [g, g.transpose(), g @ s.transpose(), g * s, g * row]
    return out


@pytest.mark.parametrize("make", [m for _, m in CACHE_DATA], ids=[i for i, _ in CACHE_DATA])
def test_cached_residues_equal_a_fresh_evaluation(make):
    raw = make()
    n = raw.s_matrix.conductor
    many = matrix.split_primes(n, 1 << 300)
    one = matrix.split_primes(n, 0)   # one prime
    root = one._replace(ev=one.ev[:, :1])
    some = matrix.split_primes(n, 1 << 100)
    asks = (one, some, some._replace(ev=some.ev[:, :1]), root)
    assert len(one.primes) == 1 < len(some.primes) < len(many.primes)
    for warm in ((many, root), (root, many)):
        for m in cache_inputs(raw):
            for sp in warm:
                m.residues(sp)
            for sp in asks:
                assert np.array_equal(m.residues(sp), matrix.evaluate(m.num, sp))


def test_residues_kept_at_one_root_are_evaluated_again_at_every_root():
    # the one-root Verlinde route keeps many primes at one root; a later
    # product at fewer primes and every root cannot read them
    s = cold(taft_double(5).s_matrix)
    many = matrix.split_primes(s.conductor, 1 << 300)
    some = matrix.split_primes(s.conductor, 1 << 100)
    s.residues(many._replace(ev=many.ev[:, :1]))
    assert np.array_equal(s.residues(some), matrix.evaluate(s.num, some))


@pytest.mark.parametrize("make", [m for _, m in CACHE_DATA], ids=[i for i, _ in CACHE_DATA])
def test_products_agree_with_warm_and_cold_residues(make):
    from modkit.verlinde import _structure_constants, raw_operands
    raw = make()
    s = cold(raw.s_matrix)
    theta = CycMatrix(1, raw.size, raw.twists).lift(s.conductor)
    # warm at more primes than any product here asks, then at one root
    s.residues(matrix.split_primes(s.conductor, 1 << 300))
    for e in units(s.conductor):
        g = s.galois(e)
        assert g @ s.conj_transpose() == cold(g) @ cold(s.conj_transpose())
        assert g * theta == cold(g) * cold(theta)
    world = resolve_world(raw)[0]
    a, c = raw_operands(world)
    cold_a, cold_c = cold(a), cold(c)
    for m in (a, c):
        m.residues(matrix.split_primes(m.conductor, 1 << 300))
    (warm_t, warm_rep), (cold_t, cold_rep) = (_structure_constants(a, c),
                                              _structure_constants(cold_a, cold_c))
    assert warm_rep == cold_rep
    assert (warm_t is None) == (cold_t is None)
    assert warm_t is None or np.array_equal(warm_t, cold_t)


@pytest.mark.parametrize("n", [3, 16, 84, 2003])
def test_small_int64_slices_evaluate_unreduced_as_the_reduced_route_does(n):
    """Signed int64 slices below PRIME_LIMIT skip the reduction per prime;
    their residues equal those of the same integers as Python ints, which
    are reduced first, at every root and at the first root alone.  Larger
    int64 slices are still reduced: unreduced, float64 would round them."""
    lim = matrix.PRIME_LIMIT
    rng = np.random.default_rng(n)
    phi = euler_phi(n)
    sp = matrix.split_primes(n, 1 << 40)
    for a in (rng.integers(-lim + 1, lim, size=(phi, 3, 2)),
              np.full((phi, 2), lim - 1), np.full((phi, 2), -lim + 1),
              np.where(rng.random((phi, 4)) < 0.5, lim - 1, -lim + 1),
              np.full((phi, 1), lim), np.full((phi, 1), -lim),    # these three are reduced
              rng.integers(-(1 << 62), 1 << 62, size=(phi, 2))):
        for at in (sp, sp._replace(ev=sp.ev[:, :1])):
            want = matrix.evaluate(a.astype(object), at)
            got = matrix.evaluate(a.astype(np.int64), at)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert ((0 <= got) & (got < at.primes.reshape(-1, 1, *[1] * (a.ndim - 1)))).all()


def test_each_matrix_is_evaluated_once(monkeypatch):
    s = cold(taft_double(5).s_matrix)
    want = [cold(s) @ cold(s), cold(s) * cold(s), cold(s.conj_transpose()) @ cold(s)]
    calls = []
    evaluate = matrix.evaluate

    def counting(a, sp):
        calls.append(a.shape)
        return evaluate(a, sp)

    monkeypatch.setattr(matrix, "evaluate", counting)
    # the entrywise product needs no more primes than the first; the adjoint
    # is a matrix of its own, evaluated once
    assert [s @ s, s * s, s.conj_transpose() @ s] == want
    assert calls == [s.num.shape, s.num.shape]

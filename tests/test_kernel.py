"""The one reduction modulo Phi_n against sympy and through the relations
of lifts and Galois conjugates, the slice path of :class:`CycMatrix` against
an entry-by-entry :class:`CycNum` reference, the split-prime tables and CRT
limits of the product kernel, and Galois invariance of the Verlinde tensor."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import per_entry
from modkit import _kernel as kernel
from modkit.cyclotomic import CycNum, zeta
from modkit.datum import RawDatum, World
from modkit.pipeline import reduce_slightly_degenerate
from modkit.families import pointed_cyclic, sl2_q16_counterexample, taft_double, taft_J_indices
from modkit import matrix
from modkit.matrix import CycMatrix, PRIME_LIMIT, residue_matmul, slice_matmul, split_primes
from modkit.pipeline import verify_raw
from modkit.verlinde import _structure_constants, verlinde_raw

ZERO = CycNum.from_rational(0)


def rand_matrix(rng, rows, cols, n, span=9, dens=(1, 2, 3, 4, 7, 10)):
    phi = kernel.euler_phi(n)
    return CycMatrix(rows, cols, [
        per_entry.from_coeffs(n, [Fraction(rng.randint(-span, span), rng.choice(dens))
                                  for _ in range(phi)])
        for _ in range(rows * cols)])


def canonical(entries):
    return [(e.conductor, e.num, e.den) for e in entries]


def ref_product(a, b):
    return [sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
            for i in range(a.rows) for j in range(b.cols)]


# ---------------------------------------------------------------------------
# the one reduction modulo Phi_n
# ---------------------------------------------------------------------------

GRID = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 19, 20, 30, 36, 42, 60, 84, 105, 120]


def sympy_rem(coeffs, n):
    """The phi(n) coordinates of sum_k coeffs[k] x^k modulo Phi_n, by sympy."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x))
    out = [int(c) for c in reversed(rem.all_coeffs())]
    return out + [0] * (kernel.euler_phi(n) - len(out))


def max_row_of_powers(n):
    """max_row read off the list-based rows of :func:`modkit._kernel.powers`."""
    phi = kernel.euler_phi(n)
    return max((abs(v) for k, row in enumerate(kernel.powers(n)) if k >= phi for v in row),
               default=1)


def test_max_row_matches_the_rows_of_powers():
    for n in list(range(1, 401)) + [2003, 5040]:
        assert kernel.max_row(n) == max_row_of_powers(n), n


@pytest.mark.parametrize("n", [105, 385, 1155])
def test_max_row_falls_back_to_python_integers(monkeypatch, n):
    # with an int64 limit of 1 every step runs on Python integers; the rows,
    # and so the result, stay the same
    monkeypatch.setattr(kernel, "INT64_LIMIT", 1)
    assert kernel.max_row.__wrapped__(n) == max_row_of_powers(n) > 1


@pytest.mark.parametrize("n", GRID + [210, 420, 1155, 2310])
def test_cyclotomic_coefficients_match_sympy(n):
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert kernel.cyclotomic_int_coeffs(n) == tuple(int(c) for c in reversed(want))


@pytest.mark.parametrize("n", GRID)
def test_powers_and_max_row_match_sympy(n):
    phi = kernel.euler_phi(n)
    rows = [sympy_rem([0] * e + [1], n) for e in range(n)]
    assert list(kernel.powers(n)) == rows
    assert kernel.max_row(n) == max((abs(v) for row in rows[phi:] for v in row), default=1)
    for e in range(0, 3 * n, 1 + n // 7):   # past x^n = 1 too
        c = [0] * max(e + 1, phi)   # reduce reads at least phi coefficients
        c[e] = 1
        assert kernel.reduce(c, n) == rows[e % n]


@pytest.mark.parametrize("n", GRID)
def test_reduce_of_lists_and_arrays_matches_sympy(n):
    rng = random.Random(n)
    for length in (kernel.euler_phi(n), n, 2 * n + 3):
        coeffs = [rng.randint(-9, 9) for _ in range(length)]
        want = sympy_rem(coeffs, n)
        assert kernel.reduce(list(coeffs), n) == want
        for dtype in (np.int64, object):
            # two columns: the coefficients and their negatives
            arr = np.array([[c, -c] for c in coeffs], dtype=dtype)
            out = kernel.reduce(arr, n)
            assert out.dtype == dtype and out.tolist() == [[w, -w] for w in want]


def random_cyc(rng, n):
    return per_entry.from_coeffs(n, [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5)))
                                     for _ in range(kernel.euler_phi(n))])


@pytest.mark.parametrize("n", GRID)
def test_galois_and_lift_relations(n):
    rng = random.Random(n)
    units = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
    for _ in range(4):
        y = random_cyc(rng, n)
        i, j = rng.choice(units), rng.choice(units)
        # equal conductors: == compares coordinates and denominators
        assert y.galois(i).galois(j) == y.galois(i * j)
        for m in (2 * n, 3 * n):
            if m > 120:
                continue
            # a unit mod m restricts to a unit mod n
            k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
            assert y.lift(m).galois(k) == y.galois(k % n).lift(m)
        half = y.lift(2 * n).descend(n)
        assert half.conductor == n and half == y


# ---------------------------------------------------------------------------
# descent to a divisor of the conductor
# ---------------------------------------------------------------------------

def draw_value(data, n):
    """A value at conductor n that lies in Q(zeta_lcm(a, b)) for two drawn
    divisors a, b of n, so that some descents succeed and some fail."""
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    a, b = (data.draw(st.sampled_from(kernel.divisors(n))) for _ in range(2))
    return random_cyc(rng, a).lift(n) + random_cyc(rng, b).lift(n)


def same(x, y):
    return (x is None and y is None) or (
        x is not None and y is not None and (x.conductor, x.num, x.den) == (y.conductor, y.num, y.den))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 420), data=st.data())
def test_descend_undoes_a_lift(n, data):
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    for d in kernel.divisors(n):
        x = random_cyc(rng, d)
        assert same(x.lift(n).descend(d), x)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 120), data=st.data())
def test_descend_fails_exactly_where_linear_algebra_does(n, data):
    y = draw_value(data, n)
    for d in kernel.divisors(n):
        assert same(y.descend(d), per_entry.project(y, d)), d
    assert same(y.minimal(), per_entry.minimal(y))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 420), data=st.data())
def test_descend_commutes_with_the_galois_action(n, data):
    y = draw_value(data, n)
    j = data.draw(st.sampled_from([j for j in range(1, n) if math.gcd(j, n) == 1]))
    for d in kernel.divisors(n):
        down = y.descend(d)
        assert same(y.galois(j).descend(d), down if down is None else down.galois(j % d))


def test_hashing_at_conductor_420_takes_a_few_reductions(monkeypatch):
    # one failed descent per odd prime of 420, two reductions each; the
    # even prime fails on the odd coordinates alone
    calls = []
    reduce = kernel.reduce
    monkeypatch.setattr(kernel, "reduce", lambda c, n: calls.append(n) or reduce(c, n))
    y = random_cyc(random.Random(420), 420)
    hash(y)
    assert y.minimal() is y and len(calls) <= 8


@pytest.mark.parametrize("n", [3, 4, 12, 15, 36, 84])
def test_matrix_lift_and_galois_match_the_entrywise_reference(n):
    rng = random.Random(n)
    a = rand_matrix(rng, 3, 2, n, span=1 << 40, dens=(1, 3))
    for m in (n, 2 * n, 5 * n):
        assert canonical(a.lift(m).entries) == canonical(per_entry.lift(a, m))
        k = next(k for k in range(m - 1, 0, -1) if math.gcd(k, m) == 1)
        lifted = a.lift(m)
        assert canonical(lifted.galois(k).entries) == canonical(per_entry.galois(lifted, k))


def test_a_product_at_conductor_2003_holds_no_quadratic_table():
    tracemalloc.start()
    try:
        x = zeta(2003, 2002) * zeta(2003, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x == zeta(2003, 4)
    assert peak < 2 << 20


@pytest.mark.parametrize("n", [1, 4, 9, 12, 76, 84])
def test_slice_arithmetic_matches_the_entrywise_reference(n):
    rng = random.Random(n)
    for rows, inner, cols in ((3, 4, 2), (1, 5, 5), (4, 1, 3)):
        a = rand_matrix(rng, rows, inner, n)
        b = rand_matrix(rng, inner, cols, n)
        prod = a @ b
        assert prod.num.dtype == np.int64
        assert canonical(prod.entries) == canonical(ref_product(a, b))
        lifted = a.lift(2 * n)
        if n % 2 == 0:   # zeta_n = zeta_2n^2 reaches only the even powers
            assert not lifted.num[1::2].any()
        assert canonical((lifted @ b).entries) == canonical(ref_product(lifted, b))
        c = rand_matrix(rng, rows, inner, n)
        assert canonical((a + c).entries) == canonical([x + y for x, y in zip(a.entries, c.entries)])
        assert canonical((a - c).entries) == canonical([x - y for x, y in zip(a.entries, c.entries)])
        assert (a == c) == all(x == y for x, y in zip(a.entries, c.entries))
        # equal values over different common denominators and conductors
        assert a == a.scale(3).scale(Fraction(1, 3)) == a.lift(2 * n)
        changed = list(a.entries)
        changed[-1] = changed[-1] + CycNum.from_rational(Fraction(1, 5))
        assert a.first_difference(CycMatrix(rows, inner, changed)) == (rows - 1, inner - 1)
        j = next(j for j in range(n - 1, 0, -1) if math.gcd(j, n) == 1) if n > 2 else 1
        assert canonical(a.galois(j).entries) == canonical(e.galois(j) for e in a.entries)
        assert canonical(a.conj_transpose().entries) == \
            canonical(a[i, k].conj() for k in range(inner) for i in range(rows))


def test_mixed_conductor_product_lifts_to_the_lcm():
    rng = random.Random(7)
    a = rand_matrix(rng, 2, 3, 9)
    b = rand_matrix(rng, 3, 2, 12)
    prod = a @ b
    assert prod.conductor == 36
    assert canonical(prod.entries) == canonical(ref_product(a, b))


def test_huge_coefficients_take_the_object_path_and_stay_exact():
    rng = random.Random(40)
    big = 1 << 40
    for n, a_dens in ((4, (1, 3)), (9, (1, 3)), (84, (1, 3, big + 1))):
        a = rand_matrix(rng, 3, 3, n, span=big, dens=a_dens)
        b = rand_matrix(rng, 3, 2, n, span=big, dens=(1, 5))
        prod = a @ b
        assert prod.num.dtype == object
        assert canonical(prod.entries) == canonical(ref_product(a, b))
        assert canonical((a + a).entries) == canonical(x + x for x in a.entries)
        assert a.scale(2) == a + a and a != a.scale(2)


def test_rational_scale_keeps_the_common_conductor():
    rng = random.Random(3)
    a = rand_matrix(rng, 2, 3, 3)
    q = CycNum.from_rational(Fraction(-2, 7), 12)
    for c, n in ((q, 12), (Fraction(-2, 7), 3), (CycNum.from_rational(0, 4), 12)):
        scaled = a.scale(c)
        assert scaled.conductor == n
        assert canonical(scaled.entries) == canonical((e * c).lift(n) for e in a.entries)


def assert_split_tables(n, sp):
    """Row i of each evaluation matrix holds the powers of the i-th root of
    Phi_n modulo its prime, w^(units[i]) for a w of exact order n, and the
    interpolation matrix is its inverse."""
    phi = kernel.euler_phi(n)
    units = [e for e in range(n) if math.gcd(e, n) == 1]
    poly = np.array(kernel.cyclotomic_int_coeffs(n))
    for p, ev, iv in zip(sp.primes.tolist(), sp.ev, sp.iv):
        assert p < PRIME_LIMIT and (p - 1) % n == 0 and sympy.isprime(p)
        assert ev.shape == iv.shape == (phi, phi)
        assert ((0 <= iv) & (iv < p)).all()
        if phi > 1:
            w = int(ev[0, 1])   # units[0] = 1, so row 0 holds the powers of w
            assert pow(w, n, p) == 1
            assert all(pow(w, n // q, p) != 1 for q in sympy.primefactors(n))
            roots = ev[:, 1]
            assert roots.tolist() == [pow(w, e, p) for e in units]
            assert (ev[:, 0] == 1).all() and (ev[:, 1:] == ev[:, :-1] * roots[:, None] % p).all()
            top = roots * ev[:, -1] % p   # root^phi
            assert not ((ev @ (poly[:-1] % p) + top * (poly[-1] % p)) % p).any()
        # entries below 2^21 and phi <= 2^11 terms: float64 sums them exactly
        assert phi <= 1 << 11
        ident = np.fmod(ev.astype(np.float64) @ iv.astype(np.float64), p)
        assert (ident == np.eye(phi)).all()


@pytest.mark.parametrize("n", [1, 3, 4, 12, 15])
def test_ring_pow_is_repeated_ring_mul_and_commutes_with_the_modulus(n):
    rng = random.Random(n)
    phi = kernel.euler_phi(n)
    for _ in range(4):
        a = [rng.randint(-9, 9) for _ in range(phi)]
        x = per_entry.from_coeffs(n, [Fraction(v, rng.choice((1, 2, 6))) for v in a])
        power, xe = [1] + [0] * (phi - 1), CycNum.from_rational(1, n)
        for e in range(8):
            assert kernel.ring_pow(a, e, n) == power
            assert x ** e == xe
            for p in (7, 101):
                assert kernel.ring_pow(a, e, n, p) == [v % p for v in power]
                assert kernel.ring_mul(a, power, n, p) == \
                    [v % p for v in kernel.ring_mul(a, power, n)]
            power, xe = kernel.ring_mul(power, a, n), xe * x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 76, 84])
def test_split_tables_evaluate_at_the_roots_of_the_cyclotomic_polynomial(n):
    sp = split_primes(n, 1 << 120)
    assert sp.modulus == math.prod(sp.primes.tolist()) > 1 << 121
    assert (np.diff(sp.primes) < 0).all()
    assert_split_tables(n, sp)


@pytest.mark.parametrize("n", [1155, 2003])
def test_split_tables_at_large_conductors(n):
    # phi = 480 and 2002, two primes each: a table built by O(phi) steps that
    # each update a whole phi x phi matrix, as elimination does, would take
    # minutes here
    sp = split_primes(n, 1 << 21)   # p1 < 2^22 < p1 p2: two primes
    assert len(sp.primes) == 2
    assert_split_tables(n, sp)


@pytest.mark.parametrize("ns", [range(1, 200), [1155], [2003]], ids=["n<200", "1155", "2003"])
def test_split_tables_equal_the_reduced_inverse_dft(ns):
    for n in ns:
        sp = split_primes(n, 1 << 21)
        assert len(sp.primes) == 2
        for p, ev, iv in zip(sp.primes.tolist(), sp.ev, sp.iv):
            want_ev, want_iv = per_entry.split_tables(n, p)
            assert np.array_equal(ev, want_ev) and np.array_equal(iv, want_iv), (n, p)
            assert iv.dtype == np.float64


def test_prime_test_agrees_with_a_sieve():
    sieve = np.ones(PRIME_LIMIT, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(PRIME_LIMIT) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    for n in list(range(10 ** 4)) + list(range(PRIME_LIMIT - 10 ** 4, PRIME_LIMIT)):
        assert kernel.is_prime(n) == sieve[n], n


@pytest.mark.parametrize("n", [1, 2, 3, 9, 12, 76, 420, 1155])
def test_split_primes_are_the_fewest_leading_primes_past_twice_the_bound(n):
    step = n if n % 2 == 0 else 2 * n
    leading = (p for p in range(1 + (PRIME_LIMIT - 2) // step * step, 2, -step)
               if sympy.isprime(p))
    primes = [next(leading)]
    for bound in (0, 1, 1 << 62, 1 << 120):
        while math.prod(primes) <= 2 * bound:
            primes.append(next(leading))
        assert split_primes(n, bound).primes.tolist() == primes, (n, bound)


def test_running_out_of_split_primes_raises():
    # 2^20 + 1 = 17 * 61681 is the only candidate p = 1 (mod 2^20) below 2^21
    with pytest.raises(OverflowError, match="split primes"):
        split_primes(1 << 20, 0)


def test_every_split_prime_is_used_before_running_out(monkeypatch):
    # below 2^8 the primes p = 1 (mod 12) are these eleven, so a twelfth is
    # never found
    primes = [241, 229, 193, 181, 157, 109, 97, 73, 61, 37, 13]
    monkeypatch.setattr(matrix, "PRIME_LIMIT", 1 << 8)
    matrix._split_stack.cache_clear()
    try:
        for k in range(1, len(primes) + 1):
            bound = (math.prod(primes[:k]) - 1) // 2
            assert split_primes(12, bound).primes.tolist() == primes[:k]
        with pytest.raises(OverflowError, match=r"only 11 split primes below 2\^8"):
            split_primes(12, math.prod(primes) // 2 + 1)
    finally:
        matrix._split_stack.cache_clear()


def leading_split_primes(n, count):
    """The ``count`` largest primes p = 1 (mod n) below PRIME_LIMIT, by sympy."""
    step = n if n % 2 == 0 else 2 * n
    cands = range(1 + (matrix.PRIME_LIMIT - 2) // step * step, 2, -step)
    return list(itertools.islice(filter(sympy.isprime, cands), count))


@pytest.fixture
def built_tables(monkeypatch):
    """The prime of each :func:`matrix._split_tables` call, in order, on a
    cache of split stacks that starts and ends empty."""
    built, tables = [], matrix._split_tables
    monkeypatch.setattr(matrix, "_split_tables", lambda n, p: built.append(p) or tables(n, p))
    matrix._split_stack.cache_clear()
    yield built
    matrix._split_stack.cache_clear()


def bound_for(primes):
    """The largest bound that the product of ``primes`` reads back."""
    return (math.prod(primes) - 1) // 2


def test_split_tables_are_built_once_for_each_prime_a_product_uses(built_tables):
    # bounds that need 5, then 3, then 6 primes build 5 tables, then none,
    # then the sixth; the primes are counted before any is built
    primes = leading_split_primes(12, 6)
    for k, new in ((5, 5), (3, 0), (6, 1)):
        before = len(built_tables)
        assert split_primes(12, bound_for(primes[:k])).primes.tolist() == primes[:k]
        assert len(built_tables) - before == new
    assert built_tables == primes


def test_no_table_is_built_when_the_split_primes_run_out(built_tables, monkeypatch):
    # below 2^8 conductor 12 has eleven split primes, 241 the largest
    monkeypatch.setattr(matrix, "PRIME_LIMIT", 1 << 8)
    with pytest.raises(OverflowError, match=r"only 11 split primes below 2\^8"):
        split_primes(12, 1 << 80)
    assert built_tables == [] and len(matrix._split_stack(12)[0]) == 0
    assert split_primes(12, 0).primes.tolist() == built_tables == [241]


def test_the_table_budget_refuses_before_building(built_tables, monkeypatch):
    # at conductor 12 (phi = 4) the two int64 tables of a prime take 256 bytes
    monkeypatch.setattr(matrix, "TABLE_BYTES", 3 * 256)
    primes = leading_split_primes(12, 4)
    refusal = "conductor 12 needs 4 split primes, whose tables would take 1,024 bytes, " \
              "past the budget of 768 bytes"
    with pytest.raises(OverflowError, match=refusal):
        split_primes(12, bound_for(primes))
    assert built_tables == []
    assert split_primes(12, bound_for(primes[:3])).primes.tolist() == built_tables == primes[:3]
    with pytest.raises(OverflowError, match=refusal):
        split_primes(12, bound_for(primes))
    assert built_tables == primes[:3]


def test_products_at_the_one_and_two_prime_limits_are_exact():
    p1, p2 = split_primes(1, 1 << 60).primes[:2].tolist()
    for limit, k in (((p1 - 1) // 2, 1), ((p1 * p2 - 1) // 2, 2)):
        # one operand entry v and the other +-1: the bound is exactly |v|
        for v, primes in ((limit - 1, k), (limit, k), (limit + 1, k + 1)):
            assert len(split_primes(1, v).primes) == primes
            for sign in (1, -1):
                a = CycMatrix.from_slices(1, np.array([[[v]]]), 1)
                out = slice_matmul(a, CycMatrix.from_slices(1, np.array([[[sign]]]), 1))
                assert out.dtype == np.int64 and out.tolist() == [[[sign * v]]]


def test_float_products_stay_below_two_to_the_53():
    # a block of _TERMS products of residues below PRIME_LIMIT sums to less
    # than 2^53, so float64 holds every partial sum exactly
    assert matrix.PRIME_LIMIT ** 2 * matrix._TERMS <= 1 << 53
    assert all(p < matrix.PRIME_LIMIT for p in split_primes(1, 1 << 400).primes.tolist())
    assert float((1 << 53) + 1) == float(1 << 53)   # where float64 stops


@pytest.mark.parametrize("m", [1 << 11, (1 << 11) + 1])
@pytest.mark.parametrize("fill", ["top", "random"])
def test_the_float_kernel_agrees_with_an_object_reference(m, fill):
    # batched (k, phi, r, m) @ (k, phi, m, c) at conductor 12, three primes
    sp = split_primes(12, 1 << 60)
    p = sp.primes.reshape(-1, 1, 1, 1)
    shape_x, shape_y = (len(sp.primes), 4, 2, m), (len(sp.primes), 4, m, 3)
    if fill == "top":   # every residue p - 1, the largest partial sums
        x, y = np.broadcast_to(p - 1, shape_x), np.broadcast_to(p - 1, shape_y)
    else:
        rng = np.random.default_rng(m)
        x, y = (rng.integers(0, 1 << 62, size=s) % p for s in (shape_x, shape_y))
    got = residue_matmul(x, y, sp)
    want = np.matmul(x.astype(object), y.astype(object)) % p.astype(object)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()


@pytest.mark.parametrize("n", [1, 12])
def test_long_contractions_do_not_wrap_int64(n):
    # residues of -1 are p - 1 ~ 2^21: 2049 of their products pass 2^53, past
    # which float64 no longer holds every integer
    phi = kernel.euler_phi(n)
    row = np.zeros((phi, 1, 2049), dtype=np.int64)
    row[0] = -1
    a = CycMatrix.from_slices(n, row, 1)
    b = CycMatrix.from_slices(n, row.transpose(0, 2, 1).copy(), 1)
    assert (a @ b)[0, 0] == 2049


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([3, 5, 8, 9, 12, 20, 76, 84]), data=st.data())
def test_products_commute_with_the_galois_action(n, data):
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    j = data.draw(st.sampled_from([j for j in range(2, n) if math.gcd(j, n) == 1]))
    a = rand_matrix(rng, 2, 3, n)
    b = rand_matrix(rng, 3, 2, n)
    assert (a @ b).galois(j) == a.galois(j) @ b.galois(j)
    col = CycMatrix(2, 1, b.col(0)[:2])
    assert (a * col).galois(j) == a.galois(j) * col.galois(j)


def ref_structure_constants(a, c):
    """The tensor (None unless integral), witnesses, negative count and first
    negative of _structure_constants, entry by entry with CycNum."""
    k = a.cols
    tensor = np.zeros((k, k, k), dtype=np.int64)
    witnesses, negatives, first = [], 0, None
    for x in range(k):
        for y in range(x, k):
            for z in range(k):
                v = sum((a[w, x] * a[w, y] * c[w, z] for w in range(k)), ZERO)
                if not (v.is_rational() and v.den == 1):
                    witnesses.append((x, y, z, v))
                    continue
                tensor[x, y, z] = tensor[y, x, z] = q = v.num[0]
                if q < 0:
                    negatives += 1 if x == y else 2
                    first = first or (x, y, z, q)
    return (None if witnesses else tensor), witnesses[:5], negatives, first


@pytest.mark.parametrize("n", [12, 84])
def test_structure_constants_match_the_entrywise_triple_sum(n):
    rng = random.Random(n)
    phi = kernel.euler_phi(n)

    def entry(p_rational, dens):
        if rng.random() < p_rational:
            return CycNum.from_rational(Fraction(rng.randint(-3, 3), rng.choice(dens)))
        return per_entry.from_coeffs(n, [Fraction(rng.randint(-3, 3), rng.choice(dens))
                                         for _ in range(phi)])

    cases = [(1.0, (1,), 1.0, (1,)), (1.0, (1,), 0.9, (1, 2)), (0.8, (1,), 0.8, (1, 3)),
             (0.0, (1, 2), 0.5, (1, 3 ** 40))]   # the last common denominator passes 2^63
    for pa, da, pc, dc in cases:
        k = rng.randint(3, 4)
        a = CycMatrix(k, k, [entry(pa, da) for _ in range(k * k)])
        c = CycMatrix(k, k, [entry(pc, dc) for _ in range(k * k)])
        tensor, rep = _structure_constants(a, c)
        ref_tensor, witnesses, negatives, first = ref_structure_constants(a, c)
        assert rep.integral == (ref_tensor is not None)
        assert (tensor is None) == (ref_tensor is None)
        if tensor is not None:
            assert np.array_equal(tensor, ref_tensor)
        assert rep.non_integral == witnesses
        assert (rep.negative_count, rep.first_negative) == (negatives, first)
        assert rep.nonnegative == (negatives == 0)


@pytest.mark.parametrize("family", ["taft:d=5", "pointed:n=7"])
def test_verlinde_tensor_is_galois_invariant(family):
    if family.startswith("taft"):
        raw = taft_double(5)
        world_of = lambda r: reduce_slightly_degenerate(r, reps=taft_J_indices(5)).world  # noqa: E731
    else:
        raw = pointed_cyclic(7, 1, 0)
        world_of = World
    base, rep = verlinde_raw(world_of(raw))
    assert base is not None and rep.integral
    n = raw.s_matrix.conductor
    for j in (j for j in range(2, n) if math.gcd(j, n) == 1):
        conj = RawDatum(raw.labels, raw.unit, raw.s_matrix.galois(j),
                        tuple(t.galois(j) for t in raw.twists), raw.kind, raw.duality)
        tensor, _ = verlinde_raw(world_of(conj))
        assert np.array_equal(tensor, base), j


def test_galois_conjugates_of_the_q16_witness_still_fail_the_st_cube():
    _, bold = sl2_q16_counterexample()
    n = bold.s_matrix.conductor
    for j in (j for j in range(1, n) if math.gcd(j, n) == 1):
        conj = RawDatum(bold.labels, bold.unit, bold.s_matrix.galois(j),
                        tuple(t.galois(j) for t in bold.twists), bold.kind,
                        bold.duality, bold.duality_signs)
        res = verify_raw(conj)
        assert res.classification == "fail"
        assert res.report["sl2_st_cubed"].status == "fail", j


def test_cyclotomic_polynomial_coefficients():
    assert kernel.cyclotomic_int_coeffs(1) == (-1, 1)
    assert kernel.cyclotomic_int_coeffs(2) == (1, 1)
    assert kernel.cyclotomic_int_coeffs(3) == (1, 1, 1)
    assert kernel.cyclotomic_int_coeffs(4) == (1, 0, 1)
    assert kernel.cyclotomic_int_coeffs(12) == (1, 0, -1, 0, 1)
    assert kernel.euler_phi(12) == 4
    assert kernel.euler_phi(1) == 1


def test_exact_order_and_primality_agree_with_brute_force():
    # for every modulus m <= 300: x has order exactly k modulo m for one k
    # among the divisors of phi(m) when x is a unit, and for none otherwise
    for m in range(1, 301):
        orders = kernel.divisors(kernel.euler_phi(m))
        for x in range(m):
            order, v = None, x % m
            for k in range(1, m + 1):
                if v == 1 % m:
                    order = k
                    break
                v = v * x % m
            assert [k for k in orders if kernel.has_order(x, k, m)] == \
                ([] if order is None else [order]), (x, m)
        assert kernel.is_prime(m) == (m > 1 and all(m % q for q in range(2, m))), m

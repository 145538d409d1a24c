"""The slice path of :class:`CycMatrix` against an entry-by-entry
:class:`CycNum` reference, and Galois invariance of the Verlinde tensor."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from modkit import _kernel as kernel
from modkit.cyclotomic import CycNum
from modkit.datum import RawDatum, nondegenerate_world, reduce_slightly_degenerate
from modkit.families import pointed_cyclic, sl2_q16_counterexample, taft_double, taft_J_indices
from modkit.matrix import CycMatrix
from modkit.pipeline import verify_raw
from modkit.verlinde import verlinde_raw

ZERO = CycNum.from_rational(0)


def rand_matrix(rng, rows, cols, n, span=9, dens=(1, 2, 3, 4, 7, 10)):
    phi = kernel.euler_phi(n)
    return CycMatrix(rows, cols, [
        CycNum.from_coeffs(n, [Fraction(rng.randint(-span, span), rng.choice(dens))
                               for _ in range(phi)])
        for _ in range(rows * cols)])


def canonical(entries):
    return [(e.conductor, e.num, e.den) for e in entries]


def ref_product(a, b):
    return [sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
            for i in range(a.rows) for j in range(b.cols)]


@pytest.mark.parametrize("n", [1, 4, 9, 12, 84])
def test_slice_arithmetic_matches_the_entrywise_reference(n):
    rng = random.Random(n)
    for rows, inner, cols in ((3, 4, 2), (1, 5, 5), (4, 1, 3)):
        a = rand_matrix(rng, rows, inner, n)
        b = rand_matrix(rng, inner, cols, n)
        prod = a @ b
        assert prod.num.dtype == np.int64
        assert canonical(prod.entries) == canonical(ref_product(a, b))
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


@pytest.mark.parametrize("family", ["taft:d=5", "pointed:n=7"])
def test_verlinde_tensor_is_galois_invariant(family):
    if family.startswith("taft"):
        raw = taft_double(5)
        world_of = lambda r: reduce_slightly_degenerate(r, reps=taft_J_indices(5)).world()  # noqa: E731
    else:
        raw = pointed_cyclic(7, 1, 0)
        world_of = nondegenerate_world
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

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intervals
import modkit.cyclotomic as cyclotomic
import per_entry
from modkit.cyclotomic import (CycNum, _canonical_root, _sqrt_at_conductor, is_root_of_unity,
                               is_totally_positive, root_of_unity, root_of_unity_sqrt,
                               sqrt_in_field, zeta)
from modkit.families import pointed_cyclic, sl2_q16_counterexample, taft_double
from modkit.pipeline import resolve_world
from conftest import POINTED_GRID
from sqrt_reference import factor_root, searched_root

one = CycNum.from_rational(1)


def rat(q):
    return CycNum.from_rational(Fraction(q))


# ---------------------------------------------------------------------------
# construction and basic ops
# ---------------------------------------------------------------------------

def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(3, 3) == 1
    assert root_of_unity(3, 2) == per_entry.from_coeffs(3, [-1, -1])  # -1 - z3


def test_coeff_length_enforced():
    with pytest.raises(ValueError):
        CycNum(5, (1, 2), 1)


def test_canonical_form_is_idempotent():
    rng = random.Random(13)
    for n in (3, 7, 12):
        for _ in range(25):
            x = per_entry.from_coeffs(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                                          for _ in range(_phi(n))])
            again = per_entry.from_coeffs(n, x.coeffs)
            assert again.num == x.num and again.den == x.den


def test_add_mul_examples():
    z3 = zeta(3)
    assert z3 + z3 ** 2 == -1
    assert zeta(5, 2) * zeta(5, 3) == 1


def test_inverse_of_one_minus_zeta3():
    x = one - zeta(3)
    y = x.inv()
    assert x * y == 1
    # (1 - z3)(1 - z3^2) = 3, so the inverse is (1 - z3^2)/3
    assert y == (one - zeta(3, 2)) / 3


def test_inverse_of_zero_reports():
    with pytest.raises(ZeroDivisionError):
        rat(0).inv()


def test_pow_negative():
    z = zeta(7, 3)
    assert z ** -2 == zeta(7, -6 % 7)
    assert (one - zeta(5)) ** -1 == (one - zeta(5)).inv()


def test_conj_examples():
    assert zeta(5).conj() == zeta(5, 4)
    assert rat(Fraction(7, 2)).conj() == Fraction(7, 2)
    assert (one - zeta(3)).conj() == one - zeta(3, 2)
    x = per_entry.from_coeffs(7, [1, 2, 3, 4, 5, 6])
    assert x.conj().conj() == x


def test_galois_examples():
    assert zeta(5).galois(2) == zeta(5, 2)
    assert (rat(2) + zeta(3, 2)).galois(2) == rat(2) + zeta(3)
    x = per_entry.from_coeffs(9, [1, 0, 2, 0, -1, 3])
    assert x.galois(1) == x
    with pytest.raises(ValueError):
        x.galois(3)


def _phi(n):
    from modkit._kernel import euler_phi
    return euler_phi(n)


def test_galois_composition():
    import math
    rng = random.Random(7)
    for n in (5, 7, 8, 9, 12):
        units = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
        for _ in range(20):
            x = per_entry.from_coeffs(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                          for _ in range(_phi(n))])
            j, jp = rng.choice(units), rng.choice(units)
            assert x.galois(j).galois(jp) == x.galois((j * jp) % n)


# ---------------------------------------------------------------------------
# conductors: lifting, equality, hashing
# ---------------------------------------------------------------------------

def test_mixed_conductor_equality():
    assert zeta(3) == zeta(3).lift(12)
    assert zeta(6) == -zeta(3, 2)          # z6 = -z3^2
    assert zeta(4) + zeta(3) == zeta(3) + zeta(4)


def test_lift_then_minimal_roundtrip():
    rng = random.Random(11)
    for n in (3, 5, 8):
        for _ in range(10):
            x = per_entry.from_coeffs(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                          for _ in range(_phi(n))])
            lifted = x.lift(4 * n)
            assert lifted == x
            m = lifted.minimal()
            assert m == x
            assert m.conductor <= n


def test_hash_consistent_across_conductors():
    assert hash(zeta(3)) == hash(zeta(3).lift(12))
    assert hash(rat(5)) == hash(CycNum.from_rational(5, conductor=6))
    s = {zeta(3), zeta(3).lift(12), zeta(6, 2).lift(12)}
    assert len(s) == 1  # z6^2 = z3


def test_rational_values_hash_as_their_fractions():
    five = CycNum.from_rational(5)
    assert five == 5 and 5 in {five} and five in {5}
    half = CycNum.from_rational(Fraction(1, 2), 12)
    assert half == Fraction(1, 2) and Fraction(1, 2) in {half}
    assert zeta(6) + zeta(6, 5) in {1}   # z6 + z6^-1 = 1


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def test_is_root_of_unity_witnesses():
    w = is_root_of_unity(zeta(5, 3))
    assert w == (5, 3, 1)
    assert is_root_of_unity(rat(2)) is None
    w = is_root_of_unity(one + zeta(3))     # 1 + z3 = -z3^2
    assert w is not None and w.order == 6
    assert (one + zeta(3)) ** 6 == 1
    assert is_root_of_unity(rat(1)) == (1, 0, 1)
    assert is_root_of_unity(rat(-1)).order == 2


def test_root_of_unity_witness_exactness_randomized():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 16)
        k = rng.randint(0, 2 * n)
        sign = rng.choice((1, -1))
        x = zeta(n, k) if sign == 1 else -zeta(n, k)
        w = is_root_of_unity(x)
        assert w is not None
        assert x ** w.order == 1
        assert x == sign_to_value(w, n)


def sign_to_value(w, n):
    v = zeta(n, w.exponent)
    return v if w.sign == 1 else -v


# ---------------------------------------------------------------------------
# total positivity, against the interval reference (tests/intervals.py)
# ---------------------------------------------------------------------------

def test_totally_positive_examples():
    assert is_totally_positive(rat(3))
    assert is_totally_positive(rat(2) - zeta(3) - zeta(3, 2))   # equals 3
    assert not is_totally_positive(rat(-1))
    assert not is_totally_positive(rat(0).lift(5))
    assert is_totally_positive(rat(2) + zeta(5) + zeta(5, 4))   # 2 + 2 cos(2 pi k / 5)
    assert not is_totally_positive(zeta(5) + zeta(5, 4))       # 2 cos(4 pi / 5) < 0
    assert not is_totally_positive(-rat(2) - zeta(5) - zeta(5, 4))
    with pytest.raises(ValueError):
        is_totally_positive(zeta(5))   # not in the real subfield


def near_zero_square():
    """(z5 + z5^4 - 633/1024)^2: totally positive, but ~2e-8 at one embedding."""
    u = zeta(5) + zeta(5, 4) - rat(Fraction(633, 1024))
    return u * u


def test_totally_positive_precision_failure_is_loud():
    # the interval reference cannot tell the sign at 16 bits, and says so
    x = near_zero_square()
    with pytest.raises(intervals.PrecisionError):
        intervals.is_totally_positive(x, 16)
    assert intervals.is_totally_positive(x, 256)


def test_near_zero_square_is_decided_exactly():
    # no precision to choose: the verdict flips exactly where the smallest
    # conjugate is crossed, as the interval reference confirms at 256 bits
    x = near_zero_square()
    assert is_totally_positive(x)
    assert not is_totally_positive(-x)
    for eps, want in ((Fraction(1, 10 ** 9), True), (Fraction(1, 10 ** 7), False)):
        shifted = x - rat(eps)
        assert is_totally_positive(shifted) is want
        assert intervals.is_totally_positive(shifted) is want


def test_precision_below_16_bits_is_rejected():
    x = zeta(5) + zeta(5, 4) + rat(2)
    for bits in (15, 0, -5):
        with pytest.raises(ValueError):
            intervals.is_totally_positive(x, bits)
        with pytest.raises(ValueError):
            intervals.embed_complex(x, bits)


def test_embed_complex_enclosures():
    assert intervals.embed_complex(one, 64).contains(1 + 0j)
    assert intervals.embed_complex(zeta(4), 64).contains(1j)
    assert intervals.embed_complex(zeta(3) + zeta(3, 2), 64).contains(-1 + 0j)


def family_sqnorms():
    """The squared norms of the worlds of Taft d = 2..11, the pointed grid and
    the q16 bold datum."""
    raws = [taft_double(d) for d in range(2, 12)]
    raws += [pointed_cyclic(*grid) for grid in POINTED_GRID]
    raws.append(sl2_q16_counterexample()[1])
    return [q for raw in raws for q in resolve_world(raw)[0].sqnorm.entries]


def test_family_sqnorms_agree_with_the_interval_reference():
    values = family_sqnorms()
    assert sum(not q.is_rational() for q in values) > 100
    for q in values:
        assert is_totally_positive(q) == intervals.is_totally_positive(q)


def real_values(n):
    """Elements of the real subfield of Q(zeta_n): c + conj(c) + q,
    c conj(c) + q, or (c + conj(c))^2 - q."""
    parts = st.tuples(cyc_values(n), st.fractions(min_value=-4, max_value=4, max_denominator=6),
                      st.integers(0, 2))
    return parts.map(lambda t: (t[0] + t[0].conj() + t[1], t[0] * t[0].conj() + t[1],
                                (t[0] + t[0].conj()) ** 2 - t[1])[t[2]])


REAL_CONDUCTORS = [5, 7, 8, 12, 15, 16, 20, 21, 36, 40, 60, 84]


@pytest.mark.parametrize("n", REAL_CONDUCTORS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_totally_positive_agrees_with_the_interval_reference(n, data):
    a = data.draw(real_values(n))
    assert is_totally_positive(a) == intervals.is_totally_positive(a)


@pytest.mark.parametrize("n", REAL_CONDUCTORS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_totally_positive_is_galois_invariant(n, data):
    a = data.draw(real_values(n))
    want = is_totally_positive(a)
    for j in range(2, n):
        if math.gcd(j, n) == 1:
            assert is_totally_positive(a.galois(j)) == want


@pytest.mark.parametrize("n", [5, 12, 21, 84])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_totally_positive_is_closed_under_products_and_flips_under_negation(n, data):
    x, y = data.draw(real_values(n)), data.draw(real_values(n))
    c = data.draw(cyc_values(n))
    if not c.is_zero():
        assert is_totally_positive(c * c.conj())   # |sigma(c)|^2 > 0 at every embedding
    if is_totally_positive(x):
        assert not is_totally_positive(-x)
        if is_totally_positive(y):
            assert is_totally_positive(x * y) and is_totally_positive(x + y)


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def test_sqrt_rational_square():
    assert sqrt_in_field(rat(4)) == 2
    assert sqrt_in_field(rat(Fraction(9, 25))) == Fraction(3, 5)


def test_sqrt_of_root_of_unity():
    y = sqrt_in_field(zeta(3))
    assert y is not None and y * y == zeta(3)


def test_sqrt_structured_value():
    # 9 z3^2/(1-z3)^2 = -3 z3; a square root is 3 z3/(z3 - 1)
    z = zeta(3)
    target = rat(9) * z * z / ((one - z) * (one - z))
    y = sqrt_in_field(target)
    assert y is not None and y * y == target
    c = rat(3) * z / (z - one)
    assert y == c or y == -c


def test_sqrt_depends_on_ambient_field():
    assert sqrt_in_field(rat(2)) is None                 # not reachable from Q up to conductor 4
    lifted = rat(2).lift(8)
    y = sqrt_in_field(lifted)                            # z8 + z8^-1 lives in Q(zeta_8)
    assert y is not None and y * y == 2


def test_sqrt_never_returns_unverified_values():
    for x in (zeta(5) + 2, rat(3) + zeta(7), rat(Fraction(5, 7))):
        y = sqrt_in_field(x)
        if y is not None:
            assert y * y == x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 15])
def test_root_of_unity_sqrt_squares_back(n):
    for k in range(n):
        for a in (zeta(n, k), -zeta(n, k)):
            r = root_of_unity_sqrt(a)
            assert r * r == a and is_root_of_unity(r) is not None
    assert root_of_unity_sqrt(rat(2)) is None
    assert root_of_unity_sqrt(one + zeta(5)) is None


def same_element(a, b):
    return (a.conductor, a.num, a.den) == (b.conductor, b.num, b.den)


def shaped(n):
    """A value at conductor n, and for half the draws one whose negative is a
    conjugate (c - conj(c), or +-q zeta^k), where the rule falls back on w."""
    return st.tuples(cyc_values(n), st.integers(0, 3), st.integers(0, n - 1)).map(
        lambda t: (t[0], t[0] - t[0].conj(), t[0] + t[0].conj(), zeta(n, t[2]) * 3)[t[1]])


@pytest.mark.parametrize("n", [4, 9, 12])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sign_rule_reproduces_the_searched_root(n, data):
    c = data.draw(shaped(n))
    if c.is_rational():
        return
    assert same_element(_canonical_root(c, n), searched_root(c * c))


@pytest.mark.parametrize("n", [1, 4, 9, 12, 84])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_canonical_root_ignores_the_sign(n, data):
    c = data.draw(shaped(n))
    r = _canonical_root(c, n)
    assert r is not None and same_element(r, _canonical_root(-c, n))
    assert r * r == c * c


# the p-adic search against the factor search of tests/sqrt_reference.py

def square_shaped(n):
    """c^2, c^2 (1 + zeta) or c itself, for a value c at conductor n."""
    return st.tuples(cyc_values(n), st.integers(0, 2)).map(
        lambda t: (t[0] * t[0], t[0] * t[0] * (one + zeta(n)), t[0])[t[1]])


def assert_same_root(x, y):
    """y is the factor search's root of x up to sign, or both are None."""
    ref = factor_root(x)
    assert (y is None) == (ref is None), (x, y, ref)
    if y is not None:
        assert y * y == x and (y == ref or y == -ref)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 8, 12, 16, 24])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_search_agrees_with_the_factor_search(n, data):
    x = data.draw(square_shaped(n))
    if not x.is_zero():
        assert_same_root(x, _sqrt_at_conductor(x))


Q16 = zeta(16) + zeta(16, 3) - zeta(16, 5) - zeta(16, 7)


@pytest.mark.parametrize("m", [16, 32, 64])
def test_search_finds_the_q16_normalizer(m):
    x = (Q16 * Q16).lift(m)
    assert_same_root(x, _sqrt_at_conductor(x))
    assert sqrt_in_field(x) == Q16   # the sign rule's choice, at conductor m


@pytest.mark.parametrize("n", [4, 9, 12])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sqrt_in_field_keeps_the_factor_search_root(n, data):
    """The whole route, conductor and sign rule included, returns what it
    returned with the factor search."""
    x = data.draw(square_shaped(n))
    if x.is_zero():
        return
    ref = searched_root(x)
    want = None if ref is None else _canonical_root(ref, n)
    got = sqrt_in_field(x)
    assert (got is None) == (want is None) and (got is None or same_element(got, want))


def counted_lifts(monkeypatch):
    calls = []
    lift = cyclotomic._newton_root

    def counting(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(cyclotomic, "_newton_root", counting)
    return calls


def at_conductor(v):
    return f"{v}@{v.conductor}" if isinstance(v, CycNum) else str(v)


@pytest.mark.parametrize("x", [rat(2), rat(-1), one + zeta(16), zeta(12) * (one + zeta(12))],
                         ids=at_conductor)
def test_search_refuses_a_non_residue_without_lifting(monkeypatch, x):
    calls = counted_lifts(monkeypatch)
    assert _sqrt_at_conductor(x) is None and factor_root(x) is None
    assert calls == []


@pytest.mark.parametrize("x,patterns", [(rat(7), 1), (rat(3).lift(3), 1), (rat(3).lift(8), 2),
                                        (rat(5).lift(16), 2), (rat(-7).lift(24), 8)],
                         ids=at_conductor)
def test_search_refuses_a_square_mod_p_after_every_sign_pattern(monkeypatch, x, patterns):
    # Q(zeta_n) holds no root, yet A is a square modulo p: each of the
    # 2^(g - 1) patterns is lifted past 2B and fails the exact check
    calls = counted_lifts(monkeypatch)
    assert _sqrt_at_conductor(x) is None and factor_root(x) is None
    assert len(calls) == patterns


def test_canonical_root_takes_the_smallest_conductor():
    # Tr(-zeta_3) = 1 > 0; from conductor 12 down to 3
    assert same_element(_canonical_root(zeta(3).lift(12), 3), -zeta(3))
    r = _canonical_root(zeta(8).lift(24), 6)                            # needs 24 = 4 * 6
    assert r.conductor == 24 and (r == zeta(8) or r == -zeta(8))
    assert _canonical_root(zeta(16), 3) is None                          # 16 does not divide 12
    assert same_element(_canonical_root(rat(-3).lift(12), 12), rat(3))


# ---------------------------------------------------------------------------
# field axioms (hypothesis)
# ---------------------------------------------------------------------------

def cyc_values(n):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=_phi(n), max_size=_phi(n)).map(
                        lambda cs: per_entry.from_coeffs(n, cs))


def check_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a.is_zero():
        return
    a_inv = a.inv()
    assert a * a_inv == 1
    # the inverse commutes with every Galois map and is multiplicative
    n = a.conductor
    for j in range(1, n + 1):
        if math.gcd(j, n) == 1:
            assert a.galois(j).inv() == a_inv.galois(j)
    if not b.is_zero():
        assert (a * b).inv() == a_inv * b.inv()


@settings(max_examples=60, deadline=None)
@given(cyc_values(7), cyc_values(7), cyc_values(7))
def test_field_axioms_conductor7(a, b, c):
    check_field_axioms(a, b, c)


@pytest.mark.parametrize("n", [1, 4, 9, 12, 76, 84])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_field_axioms_and_inverse(n, data):
    a, b, c = (data.draw(cyc_values(n)) for _ in range(3))
    check_field_axioms(a, b, c)


def test_inverse_at_conductor_336():
    # phi(336) = 96: the norm is a product of 95 conjugates
    x = per_entry.from_coeffs(336, [Fraction((-1) ** i * (i % 7), 1 + i % 5) for i in range(96)])
    y = x.inv()
    assert x * y == 1
    assert x.galois(5).inv() == y.galois(5)


def norm_inverse(a):
    """a^-1 = adj / (a adj), adj the product of the conjugates sigma_j(a), j != 1."""
    n = a.conductor
    adj = math.prod((a.galois(j) for j in range(2, n) if math.gcd(j, n) == 1),
                    start=CycNum.from_rational(1, n))
    return adj * (1 / (a * adj).as_rational())


def test_inverse_of_twists_matches_the_norm_formula():
    values = {t for d in range(2, 10) for t in taft_double(d).twists}
    values |= {t for grid in POINTED_GRID for t in pointed_cyclic(*grid).twists}
    values |= {t.galois(5) + 1 for t in taft_double(9).twists}   # not unimodular
    for t in values:
        inv, ref = t.inv(), norm_inverse(t)
        assert (inv.conductor, inv.num, inv.den) == (ref.conductor, ref.num, ref.den)


@pytest.mark.parametrize("n", [3, 5, 12, 21, 40, 76, 84])
def test_inverse_of_random_elements_matches_the_norm_formula(n):
    rng = random.Random(n)
    phi = _phi(n)
    for _ in range(6):
        a = per_entry.from_coeffs(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                      for _ in range(phi)])
        if not a.is_zero():
            assert a.inv() == norm_inverse(a)


def test_inverse_of_a_root_of_unity_takes_one_conjugate(monkeypatch):
    calls = []
    galois = CycNum.galois

    def counting(self, j):
        calls.append(j)
        return galois(self, j)

    monkeypatch.setattr(CycNum, "galois", counting)
    z = root_of_unity(84, 5)
    assert z.inv() == root_of_unity(84, -5)
    assert len(calls) <= 1


@settings(max_examples=60, deadline=None)
@given(cyc_values(12), cyc_values(8))
def test_mixed_conductor_arithmetic_commutes(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b).conductor % 1 == 0

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.cyclotomic import (CycNum, PrecisionError, embed_complex, is_root_of_unity,
                               is_totally_positive, root_of_unity, sqrt_in_field, zeta)

one = CycNum.from_rational(1)


def rat(q):
    return CycNum.from_rational(Fraction(q))


# ---------------------------------------------------------------------------
# construction and basic ops
# ---------------------------------------------------------------------------

def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(3, 3) == 1
    assert root_of_unity(3, 2) == CycNum.from_coeffs(3, [-1, -1])  # -1 - z3


def test_coeff_length_enforced():
    with pytest.raises(ValueError):
        CycNum.from_coeffs(5, [1, 2])


def test_canonical_form_is_idempotent():
    rng = random.Random(13)
    for n in (3, 7, 12):
        for _ in range(25):
            x = CycNum.from_coeffs(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                                       for _ in range(_phi(n))])
            again = CycNum.from_coeffs(n, x.coeffs)
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
    x = CycNum.from_coeffs(7, [1, 2, 3, 4, 5, 6])
    assert x.conj().conj() == x


def test_galois_examples():
    assert zeta(5).galois(2) == zeta(5, 2)
    assert (rat(2) + zeta(3, 2)).galois(2) == rat(2) + zeta(3)
    x = CycNum.from_coeffs(9, [1, 0, 2, 0, -1, 3])
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
            x = CycNum.from_coeffs(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
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
            x = CycNum.from_coeffs(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
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
# intervals
# ---------------------------------------------------------------------------

def test_totally_positive_examples():
    assert is_totally_positive(rat(3), 64)
    assert is_totally_positive(rat(2) - zeta(3) - zeta(3, 2), 64)   # equals 3
    assert not is_totally_positive(rat(-1), 64)
    with pytest.raises(ValueError):
        is_totally_positive(zeta(5), 64)   # not in the real subfield


def test_totally_positive_precision_failure_is_loud():
    # (z5 + z5^4 - 633/1024)^2 is totally positive but ~2e-9 at one embedding
    u = zeta(5) + zeta(5, 4) - rat(Fraction(633, 1024))
    x = u * u
    with pytest.raises(PrecisionError):
        is_totally_positive(x, 16)
    assert is_totally_positive(x, 256)


def test_precision_below_16_bits_is_rejected():
    x = zeta(5) + zeta(5, 4) + rat(2)
    for bits in (15, 0, -5):
        with pytest.raises(ValueError):
            is_totally_positive(x, bits)
        with pytest.raises(ValueError):
            embed_complex(x, bits)


def test_embed_complex_enclosures():
    assert embed_complex(one, 64).contains(1 + 0j)
    assert embed_complex(zeta(4), 64).contains(1j)
    assert embed_complex(zeta(3) + zeta(3, 2), 64).contains(-1 + 0j)


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


# ---------------------------------------------------------------------------
# field axioms (hypothesis)
# ---------------------------------------------------------------------------

def cyc_values(n):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=_phi(n), max_size=_phi(n)).map(
                        lambda cs: CycNum.from_coeffs(n, cs))


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
    x = CycNum.from_coeffs(336, [Fraction((-1) ** i * (i % 7), 1 + i % 5) for i in range(96)])
    y = x.inv()
    assert x * y == 1
    assert x.galois(5).inv() == y.galois(5)


@settings(max_examples=60, deadline=None)
@given(cyc_values(12), cyc_values(8))
def test_mixed_conductor_arithmetic_commutes(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b).conductor % 1 == 0

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitekey.kernel import log2_bits, rational_from_decimal, small_factors


def test_decimal_parsing_exact():
    assert rational_from_decimal("0.02") == Fraction(1, 50)
    assert rational_from_decimal("1") == 1
    assert rational_from_decimal("-3") == -3
    assert rational_from_decimal("+1.5") == Fraction(3, 2)
    assert rational_from_decimal(" 0.98 ") == Fraction(49, 50)


@pytest.mark.parametrize("bad", ["1e-3", "1/2", "", ".5", "0.", "nan", "0x10", "1.2.3"])
def test_decimal_parsing_rejects(bad):
    with pytest.raises(ValueError):
        rational_from_decimal(bad)


def test_log2_powers_of_two_exact():
    assert log2_bits(1) == 0.0
    assert log2_bits(2**20000) == 20000.0
    assert log2_bits(Fraction(1, 2**512)) == -512.0
    assert log2_bits(Fraction(2**77, 3 * 2**77)) == log2_bits(Fraction(1, 3))


def test_log2_huge_binomial():
    # independent size reference through lgamma
    v = math.comb(10000, 5000)
    got = log2_bits(v)
    ref = (math.lgamma(10001) - 2 * math.lgamma(5001)) / math.log(2)
    assert got == pytest.approx(ref, abs=1e-7)
    assert v.bit_length() - 1 <= got <= v.bit_length()


def test_log2_near_one_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    big = 10**40
    for delta in (1, 7, 12345, -1, -999):
        fr = Fraction(big + delta, big)
        want = float(mp.log(mp.mpf(big + delta) / big, 2))
        got = log2_bits(fr)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-24)


@pytest.mark.parametrize("bad", [0, -1, Fraction(0), Fraction(-3, 7)])
def test_log2_domain(bad):
    with pytest.raises(ValueError):
        log2_bits(bad)


@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=0, max_value=400))
@settings(max_examples=200)
def test_log2_shift_additivity(v, k):
    # log2(v * 2^k) = log2(v) + k with no loss: the shift is exact
    assert log2_bits(v << k) == pytest.approx(log2_bits(v) + k, rel=1e-13, abs=1e-9)


@given(
    st.integers(min_value=1, max_value=2**300),
    st.integers(min_value=1, max_value=2**300),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300)
def test_log2_fraction_consistency(a, b, near_one):
    # Fraction route must agree with the two-int route and with math.log2;
    # near_one > 0 puts the ratio in (1/2, 2), where log1p takes over
    if near_one:
        b = max(1, a + near_one - 2)
    got = log2_bits(Fraction(a, b))
    assert got == pytest.approx(log2_bits(a) - log2_bits(b), abs=5e-11)
    assert got == pytest.approx(math.log2(a) - math.log2(b), abs=1e-9)


@given(
    st.integers(min_value=1, max_value=2**300),
    st.integers(min_value=1, max_value=2**300),
    st.integers(min_value=1, max_value=2**64),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300)
def test_log2_ratio_is_log2_bits_of_the_reduced_pair(a, b, g, near_one):
    # the bits of a ratio come from its reduced pair, whatever common factor
    # it was written with: outside (1/2, 2) they are the two ints' bits
    # subtracted, inside it log1p on the exact ratio
    if near_one:
        b = max(1, a + near_one - 2)
    f = Fraction(a, b)
    num, den = f.numerator, f.denominator
    if den < 2 * num and num < 2 * den:
        want = math.log1p((num - den) / den) / math.log(2)
    else:
        want = log2_bits(num) - log2_bits(den)
    assert log2_bits(Fraction(a * g, b * g)).hex() == want.hex()
    assert log2_bits(f).hex() == want.hex()


@given(st.integers(min_value=1, max_value=10**40))
@settings(max_examples=300)
def test_small_factors_reconstructs(m):
    primes, rest = small_factors(m)
    assert rest * math.prod(p**e for p, e in primes.items()) == m
    assert all(e >= 1 for e in primes.values())
    assert all(all(p % k for k in range(2, math.isqrt(p) + 1)) for p in primes if p < 2**20)
    assert all(rest % k for k in range(2, 1 << 10))  # nothing below the bound is left


def test_small_factors_keeps_a_large_cofactor_whole():
    # 1000003 is prime and above the trial bound; its square is not split
    assert small_factors(64 * 1000003**2) == ({2: 6}, 1000003**2)
    assert small_factors(1000003) == ({1000003: 1}, 1)  # below bound**2: proved prime
    assert small_factors(1) == ({}, 1)
    assert small_factors(2**10 * 3**4 * 5) == ({2: 10, 3: 4, 5: 1}, 1)

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitekey import kernel
from finitekey.kernel import big_divmod, log2_bits, rational_from_decimal, small_factors


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


@st.composite
def division_operands(draw, limit):
    """(a, b) with b > 0 for a division limit: divisor and quotient widths
    on both sides of it (odd divisor widths among them, the padded case),
    b a power of two or all ones, a below b, a an exact multiple of b, a
    negative, and quotients up to 12 divisor widths long (the digit loop)."""
    rnd = draw(st.randoms(use_true_random=False))
    nb = draw(st.one_of(st.integers(1, 3 * limit), st.sampled_from([limit + 1, 2 * limit + 1])))
    b = draw(st.sampled_from([rnd.getrandbits(nb) | 1 << (nb - 1), 1 << (nb - 1), (1 << nb) - 1]))
    qb = draw(st.one_of(st.integers(0, 3 * limit), st.integers(1, 12).map(lambda k: k * nb)))
    a = draw(st.sampled_from([
        rnd.getrandbits(nb + qb), rnd.randrange(b), b * rnd.getrandbits(qb),
        (1 << nb + qb) - 1, -rnd.getrandbits(nb + qb),
    ]))
    return a, b


@given(division_operands(kernel._DIV_LIMIT))
@settings(max_examples=150, deadline=None)
def test_big_divmod_matches_divmod(ab):
    a, b = ab
    assert big_divmod(*ab) == divmod(a, b)


@given(division_operands(8))
@settings(max_examples=300, deadline=None)
def test_big_divmod_matches_divmod_at_a_low_limit(ab):
    """With the limit at 8 bits, small operands recurse many levels deep."""
    with mock.patch.object(kernel, "_DIV_LIMIT", 8):
        assert big_divmod(*ab) == divmod(*ab)


def test_big_divmod_recurses_only_past_the_limit():
    """The 2-by-1 recursion runs when both the divisor and the quotient are
    wider than the limit, and the builtin takes every other division."""
    calls, real = [], kernel._div2n1n

    def counted(a, b, n):
        calls.append(n)
        return real(a, b, n)

    b = 3**3000 + 1  # 4755 bits, above the 4000-bit limit
    with mock.patch.object(kernel, "_div2n1n", counted):
        for a in (b << 3000, b * 7**999, 5**2000 << 3000):
            assert big_divmod(a, b) == divmod(a, b)
        assert calls == []  # a quotient at most 3000 bits wide, or b too narrow
        assert big_divmod(b * b * b + 12345, b) == (b * b, 12345)
        assert calls and min(calls) < kernel._DIV_LIMIT < max(calls)


def _holds(v, enc):
    if enc.s < 0:  # a quotient by `/` may scale below 1
        return enc.lo <= v << -enc.s <= enc.hi
    return enc.lo << enc.s <= v <= enc.hi << enc.s


@given(st.lists(st.integers(0, 2**3000), min_size=1, max_size=4),
       st.integers(1, 400), st.integers(1, 2**500), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_enclosures_hold_their_values(vs, prec, K, e):
    """An enclosure (`_Enc`) of an int, and of the product and the sum of
    enclosed ints, of its e-th power and of the exact quotient of its K-th
    multiple by K (`/`, which keeps prec bits), holds the exact value and
    keeps at most prec bits (plus the one unit hi may carry past them)."""
    encs = [kernel._Enc(v, prec) for v in vs]
    assert all(map(_holds, vs, encs))
    for v, enc in ((math.prod(vs), math.prod(encs[1:], start=encs[0])),
                   (sum(vs), sum(encs[1:], start=encs[0])),
                   (vs[0] ** e, encs[0] ** e),
                   (vs[0], kernel._Enc(vs[0] * K, prec) / K)):
        assert _holds(v, enc)
        assert enc.hi.bit_length() <= prec + 1
    quotient = kernel._Enc(vs[0] * K, prec) / K
    assert (quotient.hi - quotient.lo) << prec <= quotient.hi << 3


@given(st.lists(st.integers(1, 2**3000), min_size=1, max_size=4), st.integers(1, 400),
       st.integers(1, 2**200), st.integers(1, 2**500))
@settings(max_examples=300, deadline=None)
def test_enclosure_top_is_what_log2_bits_reads(vs, prec, narrow, K):
    """An enclosure's `top` is `_top` of the value it holds whenever it is
    not None, and it is not None for an exact value.  So too for an exact
    quotient by K (`/`), scaled below 1, of a value at least 2^_WINDOW; one
    narrower than that, which `log2_bits` reads whole, may give None."""
    encs = [kernel._Enc(v, prec) for v in vs]
    v, enc = math.prod(vs), math.prod(encs[1:], start=encs[0])
    top = enc.top()
    assert top is None or top == kernel._top(v)
    assert kernel._Enc(v, v.bit_length()).top() == kernel._top(v)
    assert log2_bits(v) == kernel._log2_tops(kernel._top(v), kernel._top(1))
    for v in (narrow, v):  # below and above 2^_WINDOW
        for enc in (kernel._Enc(v * K, prec) / K, kernel._Enc(v * K, (v * K).bit_length()) / K):
            assert enc.top() in (None, kernel._top(v))
        if v >> kernel._WINDOW:  # the last is exact, and wide enough to read
            assert enc.top() == kernel._top(v)


def test_enclosure_top_undecided():
    # the ends differ in bit length, in the top 96 bits, or in the zeros
    # below a top narrower than 96 bits
    def enc(lo, hi, s):
        return kernel._Enc(lo, 400, hi, s)

    assert enc(2**100 - 1, 2**100, 0).top() is None
    assert enc(2**95, 2**95 + 1, 3).top() is None
    assert enc(5, 5, 1).top() is None
    assert enc(2**200, 2**200 + 1, 7).top() == (105 + 7, 2**95)

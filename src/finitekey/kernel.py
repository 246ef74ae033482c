"""Exact-arithmetic helpers shared by the spectrum and entropy code.

Rationals are `fractions.Fraction` and unbounded counts are plain `int`: both
are exact and of arbitrary precision.  A `Fraction` is put in lowest terms
when it is built, by a gcd whose cost grows as the square of the operands'
width; the scans build theirs only as witnesses, when one is read.

Every quotient whose divisor can be wide, here and in the scans, is taken
by `big_divmod`.  CPython up to 3.11 divides big ints by schoolbook, in
time proportional to the quotient's width times the divisor's, and
`big_divmod` divides recursively where both are wide.

Precision is lost on purpose in one routine, `log2_bits`, which turns an
exact positive quantity into float bits; the one exception is the asymptotic
entropy sum, which keeps `math.log2` on every level a float can hold.
Everything upstream (thresholds, floors, tie-breaks) is integer or rational
comparison, never floating point.

Away from 1, `log2_bits` reads of each int only its bit length and top
_WINDOW bits (`_top`).  So a float needs no exact value when those are
certified.  An enclosure (`_Enc`) bounds an int as lo * 2**s <= v <= hi *
2**s by its top bits, and carries that through products, powers, sums and
quotients by an int, rounding lo down and hi up after each; its `top`
reads what `log2_bits` would read of every int enclosed, or says that two
of them differ.  s2's purity takes its float so, with the purity witness
as its fallback (`smooth._purity_log2`).  To read the reduced purity's bit
lengths it must know what reducing divides out, so the denominators'
primes come as `small_factors` tables of n-th powers of small integers,
and `_strip` takes a prime's power out of an int by doubling powers (a bit
trick for 2).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["rational_from_decimal", "log2_bits", "small_factors", "big_divmod"]

_DECIMAL_RE = re.compile(r"[+-]?\d+(\.\d+)?\Z")

_LN2 = math.log(2)

# Mantissa window for huge-integer logarithms: 53 float bits plus slack, so
# the window truncation error (2^-96 relative) stays far below float rounding.
_WINDOW = 96

# Bits an enclosure (`_Enc`) keeps.  A few truncated products and one
# exact quotient cost a few of them, so the top _WINDOW bits read off the
# two ends disagree only where the value lies within a few parts in 2^190
# of a change in them.
_GUARD = 192

# Trial-division bound of `small_factors`.  The integers it factors are
# protocol denominators such as q*d*(d-1) or that of eps', whose primes are
# almost always tiny; a cofactor with no prime below the bound is kept whole.
_TRIAL = 1 << 10

# Width in bits of a divisor or a quotient up to which `big_divmod` leaves
# a division to the builtin, whose schoolbook cost is the product of the
# two widths; CPython 3.12's recursive division uses 4000 bits too.  On a
# 2-core Xeon under CPython 3.11, a 2n-by-n-bit recursive division costs
# what the builtin does at n = 4000, 0.85 of it at 6000 and 0.45 at 32000,
# and S2 at n = 2e4 and 1e5 times the same to 1% for any limit from 1000
# to 8000.
_DIV_LIMIT = 4000


def rational_from_decimal(text: str) -> Fraction:
    """Parse a plain decimal literal ("0.02", "-3", "+1.5") exactly.

    Deliberately narrower than ``Fraction(str)``: no exponents, no slashes.
    """
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a decimal literal: {text!r}")
    return Fraction(text)


def small_factors(m: int, n: int = 1) -> tuple[dict[int, int], int]:
    """(primes, rest) with m**n = rest * prod(p**e for p, e in primes),
    m >= 1: the prime factorisation of m**n from trial division of m up to
    2**10.  rest is 1 unless what is left of m after the primes below the
    bound is too large to be proved prime by them; then rest is the n-th
    power of that cofactor, prime or not."""
    primes = {}
    p = 2
    while p < _TRIAL and p * p <= m:
        while m % p == 0:
            primes[p] = primes.get(p, 0) + n
            m //= p
        p += 1
    if m > 1 and p * p > m:  # no factor up to sqrt(m): m is prime
        primes[m] = n
        m = 1
    return primes, m**n


def _strip(v: int, p: int, cap) -> tuple[int, int]:
    """(k, v // p**k) with k = min(v_p(v), cap) for a prime p.  The powers
    p**(2**i) are divided out while they divide, i going up, and tried again
    going down, so k costs O(log k) divisions rather than one per factor.
    For p = 2 the lowest set bit gives k at once.  Every power divides 0,
    so v = 0 gives (cap, 0) without dividing."""
    if not v:
        return cap, 0
    if p == 2:
        k = min((v & -v).bit_length() - 1, cap)
        return k, v >> k
    k, powers = 0, [p]
    while k + (step := 1 << (len(powers) - 1)) <= cap:
        q, r = big_divmod(v, powers[-1])
        if r:
            break
        v, k = q, k + step
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if k + (1 << i) <= cap:
            q, r = big_divmod(v, powers[i])
            if not r:
                v, k = q, k + (1 << i)
    return k, v


def big_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0, in time that grows as a multiplication's
    (Karatsuba's, in CPython) rather than as the product of the quotient's
    and the divisor's widths.  A quotient of a >= 0 by b, both wider than
    _DIV_LIMIT bits, is taken by Burnikel & Ziegler's recursive division
    ("Fast Recursive Division", MPI-I-98-1-022, 1998): a is read as digits
    in base 2^n, n the width of b, and each digit of the quotient is one
    2-by-1 division (`_div2n1n`).  The builtin divmod is the recursion's
    base case, and takes every other quotient.  CPython 3.12 and later run
    the same algorithm inside divmod, so this costs them little more."""
    n = b.bit_length()
    if a < 0 or n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    if a >> n < b:  # a < b * 2^n: one quotient digit
        return _div2n1n(a, b, n)
    # the quotient of a's upper digits, then that of their remainder (below
    # b) followed by the lower digits; each call has fewer digits than a
    s = a.bit_length() // n // 2 * n
    q, r = big_divmod(a >> s, b)
    q2, r = big_divmod(r << s | a & ((1 << s) - 1), b)
    return q << s | q2, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n: its
    quotient is one n-bit digit, whose two halves are each a 3-by-2 division
    in digits of half the width (`_div3n2n`).  An odd n is made even by
    doubling a and b, which keeps the quotient and doubles the remainder."""
    if a.bit_length() - n <= _DIV_LIMIT:  # at least the quotient's width
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 * 2^h + a3, b) for b = b1 * 2^h + b2 of 2h bits, a3 < 2^h
    and a12 < b, so the quotient is below 2^h.  It is estimated from
    the top digits alone, as a12 // b1 (`_div2n1n` at half the width) or
    2^h - 1 when that digit would overflow.  Since b's top bit is set, the
    estimate is at most 2 too high, and the loop corrects it."""
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q, r = q - 1, r + b
    return q, r


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b), with -inf for ln 0, for the scans' float guesses."""
    a, b = max(a, b), min(a, b)
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def log2_bits(value: int | Fraction) -> float:
    """log2 of a positive int or Fraction, any magnitude, ~1e-12 relative.

    Never converts the argument to a fixed-width float (which would overflow
    for values like d**(3n)); instead uses bit lengths plus a mantissa
    window on the numerator and denominator apart (an int's are itself and
    1).  Near 1 the two logs cancel, so that region is routed through log1p
    on the exact ratio to keep relative accuracy.
    """
    num, den = value.numerator, value.denominator
    if num <= 0:
        raise ValueError("log2_bits requires a positive value")
    if den < 2 * num and num < 2 * den:
        # 1/2 < value < 2: big-int true division is correctly rounded, and
        # log1p keeps full relative accuracy for results near 0.
        return math.log1p((num - den) / den) / _LN2
    return _log2_tops(_top(num), _top(den))


def _top(v: int) -> tuple[int, int]:
    """(shift, v >> shift) for an int v >= 1, shift = max(bit length -
    _WINDOW, 0): all that `log2_bits` reads of v away from 1."""
    shift = max(v.bit_length() - _WINDOW, 0)
    return shift, v >> shift


def _log2_tops(num: tuple[int, int], den: tuple[int, int]) -> float:
    """log2_bits(num/den) away from 1, from `_top` of each: v = top * 2**shift
    with the top _WINDOW bits kept exactly."""
    return num[0] + math.log2(num[1]) - (den[0] + math.log2(den[1]))


class _Enc:
    """An enclosure lo * 2**s <= v <= hi * 2**s of an int v >= 0, kept to
    prec bits: after every operation lo is rounded down and hi up to hi's
    top prec bits.  `_Enc(v, prec)` encloses v itself.  A product or sum of
    two enclosures, or a power of one, encloses that of the ints enclosed,
    and `/ K` for an int K >= 1 encloses v / K itself, to prec bits (an int
    where K divides v); `top` reads what `log2_bits` would read of every
    one of them."""

    __slots__ = ("lo", "hi", "s", "prec")

    def __init__(self, lo: int, prec: int, hi: int | None = None, s: int = 0):
        hi = lo if hi is None else hi
        t = max(hi.bit_length() - prec, 0)
        self.lo, self.hi, self.s, self.prec = lo >> t, -(-hi >> t), s + t, prec

    def __mul__(self, other: _Enc) -> _Enc:
        return _Enc(self.lo * other.lo, self.prec, self.hi * other.hi, self.s + other.s)

    def __add__(self, other: _Enc) -> _Enc:
        s = max(self.s, other.s)  # each end rounded to the coarser scale
        a, b = s - self.s, s - other.s
        return _Enc((self.lo >> a) + (other.lo >> b), self.prec,
                    -(-self.hi >> a) - (-other.hi >> b), s)

    def __truediv__(self, K: int) -> _Enc:
        w = K.bit_length()  # the ends are widened first, so no bit is lost
        lo, hi = big_divmod(self.lo << w, K)[0], -big_divmod(-self.hi << w, K)[0]
        return _Enc(lo, self.prec, hi, self.s - w)

    def __pow__(self, e: int) -> _Enc:
        out = _Enc(1, self.prec)
        for bit in bin(e)[2:]:  # square and multiply, from the top bit
            out = out * out * self if bit == "1" else out * out
        return out

    def top(self) -> tuple[int, int] | None:
        """`_top` of every int enclosed (lo >= 1), or None when two of them
        differ in bit length or in their top _WINDOW bits, or when the scale
        leaves those bits unread: lo narrower than _WINDOW bits under s > 0,
        or ints that may be, which `log2_bits` reads whole, under s < 0."""
        t, top = _top(self.lo)
        if (t, top) != _top(self.hi) or (
                self.s and self.lo.bit_length() + min(self.s, 0) < _WINDOW):
            return None
        return t + self.s, top

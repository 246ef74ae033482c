"""Exact-arithmetic helpers shared by the spectrum and entropy code.

Rationals are `fractions.Fraction` and unbounded counts are plain `int`: both
are exact, arbitrary precision, and reduce/normalize eagerly.  The only
deliberate loss of precision in the whole package happens here, in
`log2_bits`, which turns an exact positive quantity into a float number of
bits.  Everything upstream of that call (thresholds, floors, tie-breaks) is
integer or rational comparison, never floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["rational_from_decimal", "log2_bits"]

_DECIMAL_RE = re.compile(r"[+-]?\d+(\.\d+)?\Z")

_LN2 = math.log(2)

# Mantissa window for huge-integer logarithms: 53 float bits plus slack, so
# the window truncation error (2^-96 relative) stays far below float rounding.
_WINDOW = 96


def rational_from_decimal(text: str) -> Fraction:
    """Parse a plain decimal literal ("0.02", "-3", "+1.5") exactly.

    Deliberately narrower than ``Fraction(str)``: no exponents, no slashes.
    """
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a decimal literal: {text!r}")
    return Fraction(text)


def _log2_int(v: int) -> float:
    nb = v.bit_length()
    if nb <= _WINDOW:
        return math.log2(v)
    # v = (v >> shift) * 2**shift with the top _WINDOW bits kept exactly.
    shift = nb - _WINDOW
    return shift + math.log2(v >> shift)


def log2_bits(value: int | Fraction) -> float:
    """log2 of a positive int or Fraction, any magnitude, ~1e-12 relative.

    Never converts the argument to a fixed-width float (which would overflow
    for values like d**(3n)); instead uses bit lengths plus a mantissa
    window.  Near 1 the numerator/denominator logs cancel, so that region is
    routed through log1p on the exact ratio to keep relative accuracy.
    """
    if isinstance(value, int):
        if value <= 0:
            raise ValueError("log2_bits requires a positive value")
        return _log2_int(value)
    num, den = value.numerator, value.denominator
    if num <= 0:
        raise ValueError("log2_bits requires a positive value")
    if den < 2 * num and num < 2 * den:
        # 1/2 < value < 2: big-int true division is correctly rounded, and
        # log1p keeps full relative accuracy for results near 0.
        return math.log1p((num - den) / den) / _LN2
    return _log2_int(num) - _log2_int(den)

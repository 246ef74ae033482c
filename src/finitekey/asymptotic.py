"""Asymptotic (n -> infinity) reference rate from single-copy spectra.

In the limit the smoothed Renyi rates collapse onto von Neumann / Shannon
entropies, so the per-signal rate is S(XE) - S(E) - H(X|Y) evaluated on the
n=1 spectra.  Eigenvalues stay exact rationals; floats enter only at the
logarithms, summed with compensated accumulation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .kernel import log2_bits
from .spectra import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)

__all__ = ["AsymptoticRate", "asymptotic_rate"]


@dataclass(frozen=True)
class AsymptoticRate:
    s_xe: float
    s_e: float
    h_xy: float
    rate: float


def _entropy_bits(levels) -> float:
    # a level whose float is subnormal or 0 still counts, through the exact
    # log; its multiplicity may exceed every float, while mult * v <= 1
    return math.fsum(
        -mult * x * math.log2(x) if (x := float(v)) >= sys.float_info.min
        else -float(mult * v) * log2_bits(v)
        for v, mult in levels if v
    )


def asymptotic_rate(d: int, beta0) -> AsymptoticRate:
    """Per-signal key rate in the limit of infinitely many signals."""
    # epsilon is irrelevant for the spectra; any valid placeholder works
    params = ProtocolParams(d=d, n=1, beta0=Fraction(beta0), epsilon=Fraction(1, 2))
    s_xe = _entropy_bits(xe_spectrum(params).levels)
    s_e = _entropy_bits(eve_spectrum(params).levels)
    h_xy = _entropy_bits(conditional_spectrum(params).levels)
    return AsymptoticRate(s_xe=s_xe, s_e=s_e, h_xy=h_xy, rate=s_xe - s_e - h_xy)

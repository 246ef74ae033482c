"""Exact finite-key rates for d-dimensional tomographic QKD under symmetric
collective attacks.

The achievable key length is assembled from three smoothed Renyi entropies
evaluated on compressed eigenvalue spectra; everything up to the final
logarithms runs in exact integer/rational arithmetic.  Start with
ProtocolParams and key_length, or the `finitekey` command-line tool.
"""

from .asymptotic import AsymptoticRate, asymptotic_rate
from .kernel import log2_bits, rational_from_decimal
from .keyrate import (
    KeyRateResult,
    SweepPoint,
    key_length,
    sweep,
    threshold_error_rate,
)
from .smooth import (
    EpsilonTooLargeError,
    RankTrimResult,
    SupportCutResult,
    WaterfillSolution,
    h0_smooth,
    s0_smooth,
    s2_smooth,
)
from .spectra import (
    CompressedSpectrum,
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRate",
    "CompressedSpectrum",
    "EpsilonTooLargeError",
    "KeyRateResult",
    "ProtocolParams",
    "RankTrimResult",
    "SupportCutResult",
    "SweepPoint",
    "WaterfillSolution",
    "asymptotic_rate",
    "conditional_spectrum",
    "eve_spectrum",
    "h0_smooth",
    "key_length",
    "log2_bits",
    "rational_from_decimal",
    "s0_smooth",
    "s2_smooth",
    "sweep",
    "threshold_error_rate",
    "xe_spectrum",
]

"""Finite-key length assembly, parameter sweeps, threshold location.

key_length composes the three smoothed entropies at eps' = (eps/8)^2 into

    ell = S2 - S0 - H0 - 2*log2(1/eps),

plus the derived per-signal and per-resource rates.  Sweeps evaluate a list
of (d, n, beta0, epsilon) points (optionally in parallel; output order
always follows the list) and report per-point failures without aborting.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .asymptotic import asymptotic_rate
from .kernel import log2_bits
from .smooth import h0_smooth, s0_smooth, s2_smooth
from .spectra import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)

__all__ = [
    "KeyRateResult",
    "SweepPoint",
    "key_length",
    "sweep",
    "threshold_error_rate",
]

# What refuses a point rather than stopping a run: a value out of its
# domain, of the wrong type, or too large for a float to hold.
POINT_ERRORS = (ValueError, TypeError, OverflowError)


@dataclass(frozen=True)
class KeyRateResult:
    params: ProtocolParams
    s2_bits: float
    s0_bits: float
    h0_bits: float
    ell_bits: float
    rate: float
    rate_clamped: float
    effective_rate: float
    asymptotic_rate: float


def key_length(params: ProtocolParams) -> KeyRateResult:
    """Achievable key length and rates for one parameter point."""
    d, n = params.d, params.n
    if params.beta0 == 1:
        # perfect correlations force the entropies analytically (rho_XE
        # uniform on rank d^n, rho_E pure, X determined by Y), keeping
        # ell = n*log2(d) - 2*log2(1/eps) exact instead of picking up the
        # O(eps') overhead of smoothing the collapsed spectra
        s2 = n * log2_bits(d)
        s0 = 0.0
        h0 = 0.0
    else:
        eps_p = params.epsilon_prime
        s0 = s0_smooth(eve_spectrum(params), eps_p)[0]
        s2 = s2_smooth(xe_spectrum(params), eps_p)[0]
        h0 = h0_smooth(conditional_spectrum(params), eps_p)[0]
    ell = s2 - s0 - h0 - 2 * log2_bits(1 / params.epsilon)
    rate = ell / n
    asym = asymptotic_rate(d, params.beta0).rate
    return KeyRateResult(
        params=params,
        s2_bits=s2,
        s0_bits=s0,
        h0_bits=h0,
        ell_bits=ell,
        rate=rate,
        rate_clamped=max(rate, 0.0),
        effective_rate=rate / (d * (d + 1)),
        asymptotic_rate=asym,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one point: either result or an error message."""

    d: int
    n: Optional[int]
    beta0: Optional[Fraction]
    epsilon: Optional[Fraction]
    result: Optional[KeyRateResult] = None
    error: Optional[str] = None


def n_for_ntilde(ntilde: int, d: int) -> Optional[int]:
    """Sifted-key length that holds the resource budget n*(d+1)*d at ntilde;
    None where d*(d+1) is 0, a dimension ProtocolParams refuses anyway."""
    return ntilde // (d * (d + 1)) if d not in (-1, 0) else None


def _eval_point(point) -> SweepPoint:
    d, n, beta0, epsilon = point
    try:
        params = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)
        return SweepPoint(d, n, beta0, epsilon, result=key_length(params))
    except POINT_ERRORS as exc:
        return SweepPoint(d, n, beta0, epsilon, error=str(exc))


def sweep(points: Iterable[tuple], workers: int = 1) -> list[SweepPoint]:
    """Evaluate each (d, n, beta0, epsilon) point, in order.

    points may be any iterable and is read once.  Invalid points become
    SweepPoint.error entries; the rest still run.  workers > 1 distributes
    points over processes, at most one per point and per CPU; the result
    order (and content) is independent of scheduling.
    """
    points = list(points)
    workers = min(workers, len(points), os.cpu_count() or 1)
    if workers <= 1:
        return [_eval_point(p) for p in points]
    # imported here: the process pool's modules take about 2 MB and 25 ms
    # to load, which a process that never starts one need not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eval_point, points))


THRESHOLD_TOL = Fraction(1, 10000)  # the lattice of error rates tried
COARSE_STEPS = 100  # lattice points per coarse step: 0.01


def threshold_error_rate(d: int, n: int, epsilon) -> float:
    """Error rate at which the raw key length crosses zero, to within 1e-4.

    Every error rate tried lies on the lattice e = k*THRESHOLD_TOL, which
    keeps the exact spectra's denominators small.  The threshold is the
    midpoint (k + 1/2)*THRESHOLD_TOL of the first lattice step with
    ell(k) > 0 >= ell(k+1), counting k up from 1.  ell is not monotone in
    the error rate.  Over every lattice point at six (d, n, epsilon) with
    d = 2, 3 and n = 250 to 4000, it rose at hundreds of steps, by at most
    0.35 bits where n <= 1000 and once to 1.0 bit one step below the zero,
    yet changed sign exactly once at each.  Near the zero at d = 2,
    n = 2e4 it falls 11 to 13 bits a step, with no rise.

    The search brackets a sign change on the coarse grid of multiples of
    0.01 (COARSE_STEPS lattice steps): the first with ell <= 0 tops the
    bracket.  It then bisects lattice indices, rounding each midpoint half
    to even, down to one step with ell(k) > 0 >= ell(k+1).  That is the
    threshold whenever ell changes sign once below the top of the coarse
    bracket; with more sign changes in the bracket it may be a later one.
    Invalid (d, n, epsilon) raise ValueError before any evaluation."""
    epsilon = ProtocolParams(d=d, n=n, beta0=1, epsilon=epsilon).epsilon

    def ell(k: int) -> float:
        params = ProtocolParams(d=d, n=n, beta0=1 - k * THRESHOLD_TOL, epsilon=epsilon)
        return key_length(params).ell_bits

    for k in range(COARSE_STEPS, math.ceil(Fraction(d - 1, d) / THRESHOLD_TOL), COARSE_STEPS):
        if ell(k) <= 0:
            break
    else:
        raise ValueError("key length never changes sign on the coarse grid")
    if k == COARSE_STEPS:
        raise ValueError(
            f"key length is already nonpositive at error rate {float(k * THRESHOLD_TOL):g}; "
            "threshold lies below the coarse grid"
        )
    lo, hi = k - COARSE_STEPS, k
    while hi - lo > 1:
        mid = round(Fraction(lo + hi, 2))
        if ell(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) * THRESHOLD_TOL / 2)

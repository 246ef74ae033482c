"""Finite-key length assembly, parameter sweeps, threshold location.

key_length composes the three smoothed entropies at eps' = (eps/8)^2 into

    ell = S2 - S0 - H0 - 2*log2(1/eps),

plus the derived per-signal and per-resource rates.  Sweeps evaluate a grid
along one axis (optionally in parallel; output order always follows grid
order) and report per-point failures without aborting the rest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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
    "SweepSpec",
    "SweepPoint",
    "key_length",
    "sweep",
    "threshold_error_rate",
]

_AXES = ("n", "error_rate", "epsilon", "dimension")


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
        s2 = n * math.log2(d)
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


@dataclass
class SweepSpec:
    """One-axis parameter sweep.

    axis names the varying parameter; grid holds its values.  The remaining
    parameters are fixed.  With fixed_ntilde set, each point uses
    n = floor(ntilde / (d*(d+1))) instead of the fixed n (the resource
    budget n*(d+1)*d is held constant across dimensions).
    """

    axis: str
    grid: Sequence = field(default_factory=list)
    d: int = 2
    n: Optional[int] = None
    beta0: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    fixed_ntilde: Optional[int] = None

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {_AXES}")
        self.grid = list(self.grid)  # read once: the grid may be an iterator
        if not self.grid:
            raise ValueError("sweep grid is empty")


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one grid point: either result or an error message."""

    d: int
    n: Optional[int]
    beta0: Optional[Fraction]
    epsilon: Optional[Fraction]
    result: Optional[KeyRateResult] = None
    error: Optional[str] = None


def n_for_ntilde(ntilde: int, d: int) -> int:
    """Sifted-key length that holds the resource budget n*(d+1)*d at ntilde."""
    return ntilde // (d * (d + 1))


def _grid_args(spec: SweepSpec):
    for v in spec.grid:
        d, n, beta0, epsilon = spec.d, spec.n, spec.beta0, spec.epsilon
        if spec.axis == "n":
            n = int(v)
        elif spec.axis == "error_rate":
            beta0 = 1 - Fraction(v)
        elif spec.axis == "epsilon":
            epsilon = Fraction(v)
        else:
            d = int(v)
        if spec.fixed_ntilde is not None:
            n = n_for_ntilde(spec.fixed_ntilde, d)
        yield d, n, beta0, epsilon


def _eval_point(args) -> SweepPoint:
    d, n, beta0, epsilon = args
    try:
        if n is None:
            raise ValueError("n is not set (missing fixed n or fixed_ntilde)")
        if beta0 is None:
            raise ValueError("beta0 is not set")
        if epsilon is None:
            raise ValueError("epsilon is not set")
        params = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)
        return SweepPoint(d, n, beta0, epsilon, result=key_length(params))
    except (ValueError, TypeError, OverflowError) as exc:
        return SweepPoint(d, n, beta0, epsilon, error=str(exc))


def sweep(spec: SweepSpec, workers: int = 1) -> list[SweepPoint]:
    """Evaluate every grid point, in grid order.

    Invalid points become SweepPoint.error entries; the rest of the grid
    still runs.  workers > 1 distributes points over processes, at most one
    per grid point and per CPU; the result order (and content) is
    independent of scheduling.
    """
    args = list(_grid_args(spec))
    workers = min(workers, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return [_eval_point(a) for a in args]
    # imported here: the process pool's modules take about 2 MB and 25 ms
    # to load, which a process that never starts one need not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eval_point, args))


def threshold_error_rate(
    d: int,
    n: int,
    epsilon,
    *,
    coarse_step: Fraction = Fraction(1, 100),
    tol: Fraction = Fraction(1, 10000),
) -> float:
    """Error rate at which the raw key length crosses zero, to within tol.

    Every error rate tried lies on the lattice e = k*tol, which keeps the
    exact spectra's denominators small.  Brackets the first sign change of
    ell on a coarse grid (ell oscillates near threshold, so bisecting
    blindly can catch a false root), then bisects lattice indices, rounding
    each midpoint half to even.  coarse_step must be a positive multiple of
    tol.
    """
    epsilon, coarse_step, tol = Fraction(epsilon), Fraction(coarse_step), Fraction(tol)
    if tol <= 0 or coarse_step <= 0 or (coarse_step / tol).denominator != 1:
        raise ValueError(
            f"coarse_step must be a positive multiple of tol, got {coarse_step} and {tol}"
        )
    step = int(coarse_step / tol)

    def ell(k: int) -> float:
        params = ProtocolParams(d=d, n=n, beta0=1 - k * tol, epsilon=epsilon)
        return key_length(params).ell_bits

    for k in range(step, math.ceil(Fraction(d - 1, d) / tol), step):
        if ell(k) <= 0:
            break
    else:
        raise ValueError("key length never changes sign on the coarse grid")
    if k == step:
        raise ValueError(
            f"key length is already nonpositive at error rate {float(k * tol):g}; "
            "threshold lies below the coarse grid"
        )
    lo, hi = k - step, k
    while hi - lo > 1:
        mid = round(Fraction(lo + hi, 2))
        if ell(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) * tol / 2)

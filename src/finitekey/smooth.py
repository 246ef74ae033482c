"""Smoothed Renyi entropies over compressed spectra.

Three quantities feed the finite-key length: S0 (log of the smallest rank
reachable by removing eigenvalue mass at most eps), S2 (-log of the smallest
purity within the total-variation ball of radius 2*eps), and the conditional
H0 (log of the smallest number of outcome strings carrying probability at
least 1-eps).  The minimizers commute with the input state, so each reduces
to a one-dimensional scan over the compressed levels; every threshold,
floor, and tie-break below is an exact integer comparison (ties s_r = eps
include r, matching the non-strict max/min definitions).

The scans use prefix-sum identities instead of accumulating per-level
differences, e.g. for the raise side of the water fill

    s_r = lam_r * (count of levels below r) - (mass of levels below r),

so the only big*big products are the handful of comparisons whose outcome
bit-length bounds cannot already decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import log2_bits
from .spectra import CompressedSpectrum, ProbSpectrum

__all__ = [
    "RankTrimResult",
    "WaterfillSolution",
    "SupportCutResult",
    "EpsilonTooLargeError",
    "s0_smooth",
    "s2_smooth",
    "h0_smooth",
]


class EpsilonTooLargeError(ValueError):
    """The smoothing budget would drive the raised floor past the lowered
    ceiling (x >= y); the two-sided water-fill solution does not exist."""


@dataclass(frozen=True)
class RankTrimResult:
    """Trace of the rank minimization: b fully removed levels, k removed
    eigenvalues in total, s_b the mass of the fully removed levels."""

    b: int
    k: int
    remaining_rank: int
    s_b: Fraction


@dataclass(frozen=True)
class WaterfillSolution:
    """Trace of the purity minimization: the lowest b_minus+1 levels raised
    to x, the highest b_plus+1 lowered to y, middle untouched."""

    b_minus: int
    b_plus: int
    x: Fraction
    y: Fraction
    purity: Fraction


@dataclass(frozen=True)
class SupportCutResult:
    """Trace of the support minimization: b distinct probabilities taken
    from the top, k strings kept, s_b their total mass before the trim."""

    b: int
    k: int
    s_b: Fraction


def _as_budget(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"smoothing budget must lie in [0, 1), got {eps}")
    return eps


def _prod_le(a: int, b: int, c: int, d: int) -> bool:
    """a*b <= c*d for a, b >= 0 and d > 0, usually decided from bit lengths."""
    if a == 0 or b == 0:
        return c >= 0
    if c <= 0:
        return False
    ab = a.bit_length() + b.bit_length()  # 2**(ab-2) <= a*b < 2**ab
    cd = c.bit_length() + d.bit_length()  # 2**(cd-2) <= c*d < 2**cd
    if ab <= cd - 2:
        return True
    if ab - 2 >= cd:
        return False
    return a * b <= c * d


def s0_smooth(spec: CompressedSpectrum, eps) -> tuple[float, RankTrimResult]:
    """Smoothed rank entropy: log2 of the smallest rank among spectra within
    removal budget eps.

    Wholly removes the lowest levels while their cumulative mass stays
    <= eps, then removes floor((eps - s_b)/lam_b) further eigenvalues from
    the first kept level.  Zero levels are dropped up front: removing them
    is free and they never count toward rank.  When the mass sits in the
    upper levels the boundary is found walking down from the top, through
    the complements: mass below = den - mass kept, and likewise for counts.
    """
    eps = _as_budget(eps)
    den = spec.den
    rank = spec.total_dim - spec.zero_mult
    en, ed = eps.numerator, eps.denominator
    target = en * den
    # Both walks stop at the first kept level (multiplicity mult, mass w):
    # the top level is always kept, since with eps < 1 no budget covers the
    # whole mass.
    if spec.heavy_top:
        U = 0     # mass of the levels walked
        kept = 0  # their count
        b = spec.size - 1 - (1 if spec.zero_mult else 0)
        for mult, w in spec.walk(spec.size - 1, reverse=True):
            U += w
            kept += mult
            if (den - U) * ed <= target:
                break
            b -= 1
        S = den - U
    else:
        S = 0
        kept = rank
        b = 0
        for mult, w in spec.walk(1 if spec.zero_mult else 0):
            if (S + w) * ed > target:
                break
            S += w
            kept -= mult
            b += 1
    extra = (target - S * ed) // (ed * (w // mult))
    remaining = kept - extra
    assert remaining >= 1
    return log2_bits(remaining), RankTrimResult(
        b=b, k=rank - remaining, remaining_rank=remaining, s_b=Fraction(S, den)
    )


def s2_smooth(spec: CompressedSpectrum, eps) -> tuple[float, WaterfillSolution]:
    """Smoothed collision entropy: -log2 of the smallest purity within the
    ball of total-variation radius 2*eps (budget eps on each side).

    Two scans locate b_minus = max{r : s_r^- <= eps} (cost of raising the
    r lowest levels) and b_plus analogously from the top; the leftover
    budget fixes the flat values x and y.  Exact rationals throughout.
    """
    eps = _as_budget(eps)
    den, m = spec.den, spec.size
    if m == 1:
        # single level: the spectrum is uniform on its support and nothing
        # can move; the ball contains no lower-purity spectrum
        mult, w = next(spec.walk(0))
        lam = Fraction(w // mult, den)
        purity = mult * lam * lam
        return -log2_bits(purity), WaterfillSolution(0, 0, lam, lam, purity)
    en, ed = eps.numerator, eps.denominator
    tq = en * den // ed  # s*den <= tq iff s <= eps, for s*den an integer

    # bottom scan: C and W are the count and mass (times den) of the levels
    # below r, and raising them to lam_r = w/mult costs
    # s_r = (lam_r*C - W)/den, so s_r <= eps iff w*C <= (tq + W)*mult
    levels = spec.walk(0)
    C, W = next(levels)
    b_minus = 0
    for mult, w in levels:
        if not _prod_le(w, C, tq + W, mult):
            break
        b_minus += 1
        C += mult
        W += w

    # top scan, mirrored: lowering the Ct top levels (mass T) to lam = w/mult
    # costs (T - lam*Ct)/den
    levels = spec.walk(m - 1, reverse=True)
    Ct, T = next(levels)
    b_plus = 0
    for mult, w in levels:
        if _prod_le(w, Ct, T - tq - 1, mult):  # lam*Ct < T - tq
            break
        b_plus += 1
        Ct += mult
        T += w

    # the leftover budget sets the flat values: x = (W/den + eps)/C and
    # y = (T/den - eps)/Ct, here over the common factor ed*den
    X, Y = en * den + ed * W, ed * T - en * den
    x, y = Fraction(X, ed * den * C), Fraction(Y, ed * den * Ct)
    if x >= y:
        raise EpsilonTooLargeError(
            f"epsilon too large for spectrum: raised floor {x} meets "
            f"lowered ceiling {y}"
        )
    mid = spec.squared_mass_sum(b_minus + 1, m - 2 - b_plus)
    # C*x^2 + mid/den^2 + Ct*y^2, normalised once
    purity = Fraction(
        X * X * Ct + Y * Y * C + mid * ed * ed * C * Ct, (ed * den) ** 2 * C * Ct
    )
    return -log2_bits(purity), WaterfillSolution(
        b_minus=b_minus, b_plus=b_plus, x=x, y=y, purity=purity
    )


def h0_smooth(spec: ProbSpectrum, eps) -> tuple[float, SupportCutResult]:
    """Smoothed conditional support: log2 of the smallest number of strings
    whose total conditional probability reaches 1 - eps.

    Accumulates distinct probabilities from the top until their mass reaches
    1 - eps, then gives back floor((s_b - (1-eps))/p_b) strings of the last
    (smallest) included probability.
    """
    eps = _as_budget(eps)
    den = spec.den
    en, ed = eps.numerator, eps.denominator
    target = (ed - en) * den  # S/den >= 1-eps  iff  S*ed >= target
    S = 0
    cnt = 0
    b = 0
    for count, w in spec.walk(spec.size - 1, reverse=True):
        S += w
        b += 1
        cnt += count
        if S * ed >= target:
            break
    k = cnt - (S * ed - target) // (ed * (w // count))
    if k < 1:
        k = 1
    return log2_bits(k), SupportCutResult(b=b, k=k, s_b=Fraction(S, den))

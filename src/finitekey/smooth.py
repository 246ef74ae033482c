"""Smoothed Renyi entropies over compressed spectra.

Three quantities feed the finite-key length: S0 (log of the smallest rank
reachable by removing eigenvalue mass at most eps), S2 (-log of the smallest
purity within the total-variation ball of radius 2*eps), and the conditional
H0 (log of the smallest number of outcome strings carrying probability at
least 1-eps).  The minimizers commute with the input state, so each reduces
to a one-dimensional scan over the compressed levels; every threshold,
floor, and tie-break below is an exact integer comparison (ties s_r = eps
include r, matching the non-strict max/min definitions).

S0 and H0 are one smoothed max-entropy: log2 of the fewest eigenvalues (or
strings) whose mass reaches 1-eps, which is what removing mass at most eps
from the bottom keeps.  Both read one support cut walked from the top.

The scans use prefix-sum identities instead of accumulating per-level
differences, e.g. for the raise side of the water fill

    s_r = lam_r * (count of levels below r) - (mass of levels below r),

so the only big*big products are the handful of comparisons whose outcome
bit-length bounds cannot already decide.

A spectrum of degeneracy g (`spectra`; d^n for rho_XE) is scanned per copy.
Masses, and so every boundary, do not see g; the support cut's counts are
g times the per-copy ones, and x, y and the purity the per-copy ones over g.

The support cut and the top of the water fill start next to their
boundaries and walk level by level.  The bottom of the water fill lies
about 0.65n levels up, so it is not walked: the same scan run in floats on
logarithms (`log_walk`; every term is a sum of positives, so nothing
cancels) predicts b_minus, the window sum `moment` at k = 0, 1 gives the
count and mass below it, and exact single-level steps move it until level
b_minus fits the budget and the level above it does not.  The sums run over
the shorter side: past half the levels they are the closed-form totals
(total_dim/g and den) less the window above b_minus.  Since s_r grows
with r, those two comparisons certify the boundary the full walk would find.

No full-width gcd runs on the way to the floats (`kernel.lowest_terms`).
The witness rationals (s_b, x, y) are reduced only when a field is first
read, and s2's test x >= y is the integer test X*Ct >= Y*C.  The purity is
reduced at once, as its float windows its numerator and denominator apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice

from .kernel import log2_bits, lowest_terms, small_factors
from .spectra import CompressedSpectrum

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
    """The smoothing budget would drive the raised floor x past the lowered
    ceiling y (x >= y); the two-sided water-fill solution does not exist.
    x and y are exact; the message prints them as floats, at any size."""

    def __init__(self, x: Fraction, y: Fraction):
        super().__init__(x, y)
        self.x, self.y = x, y

    def __str__(self) -> str:
        return (f"epsilon too large for spectrum: raised floor {float(self.x)!r} "
                f"meets lowered ceiling {float(self.y)!r}")


class _LowestTerms:
    """Type of a witness field holding an exact rational, which the scans
    may hand over as a `partial` of `lowest_terms`: it is called on first
    read and its result kept, so a witness nobody reads costs no gcd.  Reads
    always return a Fraction, and the dataclass's repr, == and fields see
    only those."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the field has no default
        value = obj.__dict__[self.name]
        if type(value) is partial:
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class RankTrimResult:
    """Trace of the rank minimization: b fully removed levels, k removed
    eigenvalues in total, s_b the mass of the fully removed levels."""

    b: int
    k: int
    remaining_rank: int
    s_b: Fraction = _LowestTerms()


@dataclass(frozen=True)
class WaterfillSolution:
    """Trace of the purity minimization: the lowest b_minus+1 levels raised
    to x, the highest b_plus+1 lowered to y, middle untouched."""

    b_minus: int
    b_plus: int
    x: Fraction = _LowestTerms()
    y: Fraction = _LowestTerms()
    purity: Fraction = _LowestTerms()


@dataclass(frozen=True)
class SupportCutResult:
    """Trace of the support minimization: b distinct probabilities taken
    from the top, k strings kept, s_b their total mass before the trim."""

    b: int
    k: int
    s_b: Fraction = _LowestTerms()


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


def _support_cut(spec: CompressedSpectrum, eps: Fraction) -> tuple[int, int, int]:
    """(b, kept, U): the top b levels reach mass U/den >= 1 - eps, and kept
    is their count (g per stored one) less floor((U/den - (1-eps))/lam_b)
    given back from the last (smallest) one, lam_b = num_b/(den*g).  The
    walk stops at a nonzero level, since those carry mass 1."""
    den, g = spec.den, spec.g
    en, ed = eps.numerator, eps.denominator
    target = (ed - en) * den  # U/den >= 1-eps  iff  U*ed >= target
    U = 0
    cnt = 0
    b = 0
    for mult, w in spec.walk(spec.size - 1, reverse=True):
        U += w
        cnt += mult
        b += 1
        if U * ed >= target:
            break
    kept = g * cnt - g * (U * ed - target) // (ed * (w // mult))
    assert kept >= 1
    return b, kept, U


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b), with -inf for ln 0."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _predict_b_minus(spec: CompressedSpectrum, tq: int) -> int:
    """s2_smooth's bottom scan run on `log_walk` floats: a guess at b_minus,
    which s2_smooth certifies exactly.  The running count and mass are sums
    of positive terms, so nothing cancels; only near-ties can be missed."""
    levels = spec.log_walk()
    log_c, log_w = next(levels)
    log_tq = math.log(tq) if tq else -math.inf
    b = 0
    for log_mult, log_mass in levels:
        if log_mass + log_c > _log_add(log_tq, log_w) + log_mult:
            break
        b += 1
        log_c, log_w = _log_add(log_c, log_mult), _log_add(log_w, log_mass)
    return b


def s0_smooth(spec: CompressedSpectrum, eps) -> tuple[float, RankTrimResult]:
    """Smoothed rank entropy: log2 of the smallest rank among spectra within
    removal budget eps.

    Wholly removes the lowest levels while their cumulative mass stays
    <= eps, then removes floor((eps - s_b)/lam_b) further eigenvalues from
    the first kept level.  Zero levels are removed for free and never count
    toward rank.  What stays is h0_smooth's support cut, walked from the
    top: the removed levels are the nonzero ones it does not reach.
    """
    eps = _as_budget(eps)
    included, remaining, U = _support_cut(spec, eps)
    nonzero = spec.size - (1 if spec.zero_mult else 0)
    return log2_bits(remaining), RankTrimResult(
        b=nonzero - included,
        k=spec.total_dim - spec.g * spec.zero_mult - remaining,
        remaining_rank=remaining,
        s_b=partial(lowest_terms, spec.den - U, spec.den_factors),
    )


def s2_smooth(spec: CompressedSpectrum, eps) -> tuple[float, WaterfillSolution]:
    """Smoothed collision entropy: -log2 of the smallest purity within the
    ball of total-variation radius 2*eps (budget eps on each side).

    b_minus = max{r : s_r^- <= eps} (cost of raising the r lowest levels)
    is predicted in floats and certified exactly; b_plus is scanned
    analogously from the top.  The leftover budget fixes the flat values x
    and y.  Exact rationals throughout.
    """
    eps = _as_budget(eps)
    den, g, m = spec.den, spec.g, spec.size
    if m == 1:
        # single level: the spectrum is uniform on its support and nothing
        # can move; the ball contains no lower-purity spectrum
        mult, w = next(spec.walk(0))
        lam = Fraction(w // mult, den * g)
        purity = g * mult * lam * lam
        return -log2_bits(purity), WaterfillSolution(0, 0, lam, lam, purity)
    en, ed = eps.numerator, eps.denominator
    tq = en * den // ed  # s*den <= tq iff s <= eps, for s*den an integer

    # bottom boundary: raising the levels below r (count C_r, mass W_r times
    # den) to lam_r = w/mult costs s_r = (lam_r*C_r - W_r)/den, so level r
    # fits iff w*C_r <= (tq + W_r)*mult; b_minus is the last level that fits.
    # C and W below cover levels 0..b_minus, summed over the shorter side:
    # past half the levels they are the totals less the window above.
    b_minus = _predict_b_minus(spec, tq)
    if 2 * (b_minus + 1) > m:
        C = spec.total_dim // g - spec.moment(b_minus + 1, m, 0)
        W = den - spec.moment(b_minus + 1, m, 1)
    else:
        C, W = spec.moment(0, b_minus + 1, 0), spec.moment(0, b_minus + 1, 1)
    for mult, w in spec.walk(b_minus, reverse=True):  # guessed too high
        if _prod_le(w, C - mult, tq + W - w, mult):
            break
        C, W, b_minus = C - mult, W - w, b_minus - 1
    for mult, w in islice(spec.walk(b_minus), 1, None):  # guessed too low
        if not _prod_le(w, C, tq + W, mult):
            break
        C, W, b_minus = C + mult, W + w, b_minus + 1

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

    # the leftover budget sets the flat values: x = (W/den + eps)/(C*g) and
    # y = (T/den - eps)/(Ct*g), here over the common factor ed*den*g
    X, Y = en * den + ed * W, ed * T - en * den
    ed_factors = small_factors(ed)
    xy = (spec.den_factors, spec.g_factors, ed_factors)
    x, y = partial(lowest_terms, X, *xy, C), partial(lowest_terms, Y, *xy, Ct)
    if X * Ct >= Y * C:  # x >= y
        raise EpsilonTooLargeError(x(), y())
    mid = spec.moment(b_minus + 1, m - 1 - b_plus, 2)  # the untouched middle
    # g*C*x^2 + mid/(g*den^2) + g*Ct*y^2 over (ed*den)^2 * C * Ct * g, in
    # lowest terms because log2_bits windows the numerator and denominator apart
    purity = lowest_terms(
        X * X * Ct + Y * Y * C + mid * ed * ed * C * Ct,
        *xy, spec.den_factors, ed_factors, C * Ct,
    )
    return -log2_bits(purity), WaterfillSolution(
        b_minus=b_minus, b_plus=b_plus, x=x, y=y, purity=purity
    )


def h0_smooth(spec: CompressedSpectrum, eps) -> tuple[float, SupportCutResult]:
    """Smoothed conditional support: log2 of the smallest number of strings
    whose total conditional probability reaches 1 - eps.

    Accumulates distinct probabilities from the top until their mass reaches
    1 - eps, then gives back floor((s_b - (1-eps))/p_b) strings of the last
    (smallest) included probability: the support cut that s0_smooth
    mirrors, H0 and S0 being one smoothed max-entropy.
    """
    eps = _as_budget(eps)
    b, k, U = _support_cut(spec, eps)
    s_b = partial(lowest_terms, U, spec.den_factors)
    return log2_bits(k), SupportCutResult(b=b, k=k, s_b=s_b)

"""Compressed eigenvalue spectra for the depolarized-pair protocol family.

A symmetric collective attack leaves every signal pair in the same depolarized
maximally entangled state, parameterized by the symbol-agreement probability
beta0 (error rate 1 - beta0, spread evenly over the d - 1 wrong symbols with
probability beta1 each).  Over n sifted signals the adversary's marginal
rho_E, the joint classical-quantum state rho_XE, and the conditional outcome
distribution P(X|Y) all have Pascal-triangle structure: n + 1 (plus possibly
a zero level) distinct eigenvalues with binomial multiplicities.  This module
builds those spectra in compressed (value, multiplicity) form.

A spectrum keeps integer level numerators over one common denominator so the
entropy scans downstream run on plain integers.  The three protocol spectra
are closed-form level families (`_Family`): above an optional zero level,
level l = 0..n has numerator alpha^l * beta^(n-l) and multiplicity
scale * C(n, l) * div^(n-l).  Nothing of size O(n) is stored.  A scan asks
for a walk from the level it starts at (`walk`): the first level is seeded
with `pow` and `math.comb`, and each further step applies exact small-factor
recurrences to (multiplicity, mass), so a scan costs only the levels it
touches.  Normalisation and the dimension count are proved in O(1)
by the binomial theorem.  Spectra built from explicit levels (`from_levels`,
the positional constructors) store their lists and are checked level by
level.  For both, the list attributes (`value_nums`, `mults`, ...) and
`levels` stay readable; a family builds them on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

__all__ = [
    "ProtocolParams",
    "CompressedSpectrum",
    "ProbSpectrum",
    "eve_spectrum",
    "xe_spectrum",
    "conditional_spectrum",
]


@dataclass(frozen=True)
class ProtocolParams:
    """Validated protocol inputs.

    d: signal dimension (qudit), n: sifted-key length, beta0: probability
    that Alice's and Bob's sifted symbols agree, epsilon: security parameter
    of the final key.  Derived: beta1 = (1-beta0)/(d-1) per wrong symbol,
    epsilon_prime = (epsilon/8)^2, the smoothing budget handed to each
    entropy.
    """

    d: int
    n: int
    beta0: Fraction
    epsilon: Fraction

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 2:
            raise ValueError(f"dimension d must be an integer >= 2, got {self.d!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"signal count n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "beta0", Fraction(self.beta0))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if not (Fraction(1, self.d) < self.beta0 <= 1):
            raise ValueError(
                f"beta0 must satisfy 1/d < beta0 <= 1, got {self.beta0} (d={self.d})"
            )
        if not (0 < self.epsilon < 1):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def beta1(self) -> Fraction:
        return (1 - self.beta0) / (self.d - 1)

    @property
    def error_rate(self) -> Fraction:
        return 1 - self.beta0

    @property
    def epsilon_prime(self) -> Fraction:
        return (self.epsilon / 8) ** 2


# A walk yields (multiplicity, mass) per level index; the mass is
# multiplicity * numerator, so a level's numerator is mass // multiplicity.
Level = tuple[int, int]


class _Listed:
    """Explicit ascending levels held as two lists."""

    def __init__(self, nums: list[int], mults: list[int]):
        self.nums, self.mults = nums, mults
        self.size = len(nums)
        self.zero_mult = mults[0] if nums[0] == 0 else 0
        self.heavy_top = False  # short lists: walk from the bottom

    def walk(self, i: int, reverse: bool = False) -> Iterator[Level]:
        nums, mults = self.nums, self.mults
        for j in range(i, -1, -1) if reverse else range(i, self.size):
            yield mults[j], mults[j] * nums[j]

    def squared_mass_sum(self, lo: int, hi: int) -> int:
        nums, mults = self.nums, self.mults
        return sum(mults[j] * nums[j] * nums[j] for j in range(lo, hi + 1))


@dataclass(frozen=True)
class _Family:
    """Closed-form levels: an optional zero level of multiplicity zero_mult
    (index 0 when present), then for l = 0..n numerator alpha^l beta^(n-l)
    and multiplicity scale * C(n, l) * div^(n-l).

    With alpha > beta >= 1 the numerators strictly ascend, and stepping l by
    one multiplies the multiplicity by (n-l)/((l+1)*div) and the mass by
    (n-l)*alpha/((l+1)*div*beta); every such division is exact.
    """

    n: int
    alpha: int
    beta: int
    div: int
    scale: int
    zero_mult: int = 0

    def check(self, den: int, total: int, what: str) -> None:
        """The binomial theorem gives the level sums in O(1):
        masses sum to scale*(alpha + div*beta)^n, multiplicities to
        scale*(1 + div)^n (plus the zero level)."""
        n, a, b, div, scale = self.n, self.alpha, self.beta, self.div, self.scale
        if n < 0 or not a > b >= 1 or div < 1 or scale < 1 or self.zero_mult < 0:
            raise ValueError(f"{what}: malformed level family")
        if scale * (1 + div) ** n + self.zero_mult != total:
            raise ValueError(f"{what}: multiplicities do not sum to {total}")
        if scale * (a + div * b) ** n != den:
            raise ValueError(f"{what}: spectrum does not sum to 1 exactly")

    @property
    def zeros(self) -> int:
        return 1 if self.zero_mult else 0

    @property
    def size(self) -> int:
        return self.zeros + self.n + 1

    @property
    def heavy_top(self) -> bool:
        """Whether the mass mean lies above the middle level: the masses are
        binomial in l with success ratio alpha : div*beta."""
        return self.alpha > self.div * self.beta

    def _seed(self, l: int) -> tuple[int, int]:
        """(numerator, multiplicity) of family level l."""
        n = self.n
        num = self.alpha**l * self.beta ** (n - l)
        return num, self.scale * math.comb(n, l) * self.div ** (n - l)

    def walk(self, i: int, reverse: bool = False) -> Iterator[Level]:
        z = self.zeros
        if not reverse and i < z:
            yield self.zero_mult, 0
            i = z
        if i >= z:
            n, a, b, div = self.n, self.alpha, self.beta, self.div
            l = i - z
            num, mult = self._seed(l)
            w = mult * num
            yield mult, w
            if reverse:
                for l in range(l, 0, -1):
                    mult = mult * (l * div) // (n - l + 1)
                    w = w * (l * div * b) // ((n - l + 1) * a)
                    yield mult, w
            else:
                for l in range(l, n):
                    mult = mult * (n - l) // ((l + 1) * div)
                    w = w * ((n - l) * a) // ((l + 1) * div * b)
                    yield mult, w
        if reverse and z:
            yield self.zero_mult, 0

    def squared_mass_sum(self, lo: int, hi: int) -> int:
        """Sum of mult*num^2 over level indices lo..hi.

        With r_l = (n-l)*alpha^2 / ((l+1)*div*beta^2) the ratio of
        consecutive squared masses, the sum is s_lo*(1 + r_lo*(1 + ...)).
        Folding that from the inside out as one fraction P/Q multiplies by
        small factors only; the one division at the end is exact.
        """
        z = self.zeros
        lo = max(lo, z)  # the zero level contributes nothing
        if hi < lo:
            return 0
        n, div = self.n, self.div
        a2, b2 = self.alpha**2, self.beta**2
        P = Q = 1
        for l in range(hi - z - 1, lo - z - 1, -1):
            dQ = (l + 1) * div * b2 * Q
            P, Q = dQ + (n - l) * a2 * P, dQ
        num, mult = self._seed(lo - z)
        return mult * num * num * P // Q

    @cached_property
    def nums(self) -> list[int]:
        nums = [0] * self.zeros + [self.beta**self.n]
        for _ in range(self.n):
            nums.append(nums[-1] * self.alpha // self.beta)
        return nums

    @cached_property
    def mults(self) -> list[int]:
        return [mult for mult, _ in self.walk(0)]


def _check_levels(nums, mults, den, total, what):
    if not nums or len(nums) != len(mults):
        raise ValueError(f"{what}: malformed level lists")
    if den < 1:
        raise ValueError(f"{what}: denominator must be positive")
    prev = -1
    for v in nums:
        if v <= prev:
            raise ValueError(f"{what}: level values must be strictly ascending")
        prev = v
    if nums[0] < 0:
        raise ValueError(f"{what}: negative level value")
    if any(c < 1 for c in mults):
        raise ValueError(f"{what}: multiplicities must be >= 1")
    if sum(mults) != total:
        raise ValueError(f"{what}: multiplicities do not sum to {total}")
    if sum(m * v for v, m in zip(nums, mults)) != den:
        raise ValueError(f"{what}: spectrum does not sum to 1 exactly")


class CompressedSpectrum:
    """Density-operator spectrum as strictly ascending (value, multiplicity)
    levels; values are `value_nums[i] / den`.

    Scans read levels through `walk(i, reverse)`, which yields
    (multiplicity, mass) from level index i upward (or downward); a level's
    numerator is mass // multiplicity.
    `size` is the number of levels, `zero_mult` the multiplicity of a zero
    level at index 0 (0 when there is none), and `heavy_top` tells whether
    most of the mass sits in the upper levels, so that a scan for a bottom
    boundary is shorter from the top.
    """

    def __init__(self, value_nums, mults, den: int, total_dim: int):
        nums, mults = list(value_nums), list(mults)
        _check_levels(nums, mults, den, total_dim, type(self).__name__)
        self._init(_Listed(nums, mults), den, total_dim)

    @classmethod
    def _of_family(cls, family: _Family, den: int, total_dim: int):
        family.check(den, total_dim, cls.__name__)
        self = cls.__new__(cls)
        self._init(family, den, total_dim)
        return self

    def _init(self, source, den: int, total_dim: int) -> None:
        self._source, self.den, self.total_dim = source, den, total_dim
        self.size, self.zero_mult = source.size, source.zero_mult
        self.heavy_top = source.heavy_top
        self.walk = source.walk

    @classmethod
    def from_levels(cls, levels, total_dim: int) -> "CompressedSpectrum":
        """Build from explicit (Fraction, multiplicity) pairs (ascending)."""
        vals = [Fraction(v) for v, _ in levels]
        den = math.lcm(*(v.denominator for v in vals)) if vals else 1
        nums = [v.numerator * (den // v.denominator) for v in vals]
        return cls(nums, [int(m) for _, m in levels], den, total_dim)

    @property
    def value_nums(self) -> list[int]:
        return self._source.nums

    @property
    def mults(self) -> list[int]:
        return self._source.mults

    @cached_property
    def levels(self) -> list[tuple[Fraction, int]]:
        return [
            (Fraction(v, self.den), m)
            for v, m in zip(self.value_nums, self.mults)
        ]

    def iter_masses(self, reverse: bool = False) -> Iterator[int]:
        """Yield mult*num per level (masses scaled by the common denominator)."""
        start = self.size - 1 if reverse else 0
        return (w for _, w in self.walk(start, reverse))

    def squared_mass_sum(self, lo: int, hi: int) -> int:
        """Sum of mult*value^2 over level indices lo..hi, scaled by den^2."""
        lo, hi = max(lo, 0), min(hi, self.size - 1)
        return self._source.squared_mass_sum(lo, hi) if lo <= hi else 0


class ProbSpectrum(CompressedSpectrum):
    """Grouped probability distribution: ascending (probability, count)
    levels with probabilities stored as `prob_nums[i] / den`; `support` is
    the number of strings carrying the distribution."""

    prob_nums = CompressedSpectrum.value_nums
    counts = CompressedSpectrum.mults
    support = property(lambda self: self.total_dim)

    def _init(self, source, den: int, support: int) -> None:
        if source.zero_mult:
            raise ValueError("ProbSpectrum: zero-probability level stored")
        super()._init(source, den, support)


def eve_spectrum(params: ProtocolParams) -> CompressedSpectrum:
    """Spectrum of the adversary's marginal rho_E over n signals.

    Levels l = 0..n: value A^l * B^(n-l) with A = (beta0(d+1)-1)/d and
    B = (1-beta0)/(d(d-1)), multiplicity C(n,l)*(d^2-1)^(n-l); total
    dimension d^(2n).  All eigenvalues are nonzero, so the levels carry the
    full rank.  At beta0 = 1 the state is pure: single level
    (1, x1) on an effectively one-dimensional support.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    if p == q:
        return CompressedSpectrum([1], [1], 1, 1)
    family = _Family(n, (p * (d + 1) - q) * (d - 1), q - p, d * d - 1, 1)
    return CompressedSpectrum._of_family(family, (q * d * (d - 1)) ** n, d ** (2 * n))


def xe_spectrum(params: ProtocolParams) -> CompressedSpectrum:
    """Spectrum of the joint classical-quantum state rho_XE over n signals.

    One zero level of multiplicity d^(3n) - d^(2n), then (indexing the
    nonzero family by l = 0..n, stored shifted up by one) values
    (beta0/d)^l * (beta1/d)^(n-l) with multiplicity d^n*C(n,l)*(d-1)^(n-l).
    At beta0 = 1 only the uniform level d^-n (x d^n) survives and the zero
    multiplicity grows to d^(3n) - d^n.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    if p == q:
        return CompressedSpectrum(
            [0, 1], [d ** (3 * n) - d**n, d**n], d**n, d ** (3 * n)
        )
    family = _Family(n, p * (d - 1), q - p, d - 1, d**n, d ** (3 * n) - d ** (2 * n))
    return CompressedSpectrum._of_family(family, (q * d * (d - 1)) ** n, d ** (3 * n))


def conditional_spectrum(params: ProtocolParams) -> ProbSpectrum:
    """Grouped conditional distribution P(X | Y=y) over n signals.

    The distribution is the same for every y: a string agreeing with y in l
    positions has probability beta0^l * beta1^(n-l), and there are
    C(n,l)*(d-1)^(n-l) such strings; support d^n.  At beta0 = 1 the
    conditional distribution is deterministic.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    if p == q:
        return ProbSpectrum([1], [1], 1, 1)
    family = _Family(n, p * (d - 1), q - p, d - 1, 1)
    return ProbSpectrum._of_family(family, (q * (d - 1)) ** n, d**n)

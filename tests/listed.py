"""Explicit level lists: the reference spectrum the tests rebuild against.

`ListedSpectrum(value_nums, mults, den)` stores every level of a spectrum
in two lists, checked level by level, and reads them with the interface
the scans use (`level`, `step_level`, `moment`, `keep`, `_moment_floor`,
`log_moment`, `levels`, `size`, `zero_mult`, `den`, `total_dim`, `g` and
the factor tables).  Each sum is a plain Python sum over the lists, taken
on the shorter side by the package's own `moment`, so a
`CompressedSpectrum` rebuilt through `ListedSpectrum.from_levels(spec.levels)`
checks the closed forms, and the scans' results on it check theirs.  It
lives with the tests (imported as ``from listed import ...``); the package
builds only closed-form spectra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from finitekey.spectra import CompressedSpectrum

__all__ = ["ListedSpectrum"]


def _check_levels(nums, mults, den):
    if not nums or len(nums) != len(mults):
        raise ValueError("ListedSpectrum: malformed level lists")
    if any(type(x) is not int for x in (den, *nums, *mults)):
        raise ValueError("ListedSpectrum: numerators, multiplicities and "
                         "denominator must be integers")
    if den < 1:
        raise ValueError("ListedSpectrum: denominator must be positive")
    if nums[0] < 0:
        raise ValueError("ListedSpectrum: negative level value")
    prev = -1
    for v in nums:
        if v <= prev:
            raise ValueError("ListedSpectrum: level values must be strictly ascending")
        prev = v
    if any(c < 1 for c in mults):
        raise ValueError("ListedSpectrum: multiplicities must be >= 1")
    if sum(m * v for v, m in zip(nums, mults)) != den:
        raise ValueError("ListedSpectrum: spectrum does not sum to 1 exactly")


class ListedSpectrum:
    """Strictly ascending levels `value_nums[i] / den` of multiplicity
    `mults[i]`, degeneracy 1; `total_dim` is sum(mults), and explicit
    levels know no primes.  `level(i)` raises IndexError outside [0, size)
    and `moment(lo, hi, k)` clamps its window to the levels, as on the
    package's spectra."""

    g = 1
    g_factors = ({}, 1)

    def __init__(self, value_nums, mults, den: int):
        nums, mults = list(value_nums), list(mults)
        _check_levels(nums, mults, den)
        self.value_nums, self.mults = nums, mults
        self.den, self.den_factors = den, ({}, den)
        self.count = self.total_dim = sum(mults)
        self.size = len(nums)
        self.zero_mult = mults[0] if nums[0] == 0 else 0

    @staticmethod
    def from_levels(levels) -> "ListedSpectrum":
        """Build from explicit (Fraction, multiplicity) pairs (ascending)."""
        vals = [Fraction(v) for v, _ in levels]
        den = math.lcm(*(v.denominator for v in vals)) if vals else 1
        nums = [v.numerator * (den // v.denominator) for v in vals]
        return ListedSpectrum(nums, [m for _, m in levels], den)

    @cached_property
    def levels(self) -> list[tuple[Fraction, int]]:
        return [(Fraction(v, self.den), m) for v, m in zip(self.value_nums, self.mults)]

    def level(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.size:
            raise IndexError(f"level {i} outside 0..{self.size - 1}")
        return self.mults[i], self.mults[i] * self.value_nums[i]

    def step_level(self, i: int, level: tuple[int, int], step: int) -> tuple[int, int]:
        """level(i + step): explicit levels are read, not stepped."""
        return self.level(i + step)

    # the package's rule over the plain sums below; explicit levels keep
    # no points, so it is the shorter-side rule
    moment = CompressedSpectrum.moment
    _points = ()

    def keep(self, i: int, below, level) -> None:
        """Explicit levels are read, not kept."""

    def _window(self, lo: int, hi: int, k: int) -> int:
        """Sum of mult * num^k over level indices lo..hi-1 of the levels:
        k = 0, 1, 2 give count, mass and squared mass."""
        return sum(m * v**k for m, v in zip(self.mults[lo:hi], self.value_nums[lo:hi]))

    def _moment_floor(self, lo: int, hi: int, k: int, p: int) -> int:
        """A lower bound on v_p(moment(lo, hi, k)): explicit levels know
        no primes, so 0."""
        return 0

    @cached_property
    def _squares(self) -> int:
        return sum(m * v * v for m, v in zip(self.mults, self.value_nums))

    def log_moment(self, lo: int, hi: int, k: int) -> float:
        """ln moment(lo, hi, k) for k = 0, 1, and -inf for a zero sum."""
        return math.log(s) if (s := self.moment(lo, hi, k)) else -math.inf

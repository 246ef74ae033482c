"""Compressed eigenvalue spectra for the depolarized-pair protocol family.

A symmetric collective attack leaves every signal pair in the same depolarized
maximally entangled state, parameterized by the symbol-agreement probability
beta0 (error rate 1 - beta0, spread evenly over the d - 1 wrong symbols with
probability beta1 each).  Over n sifted signals the adversary's marginal
rho_E, the joint classical-quantum state rho_XE, and the conditional outcome
distribution P(X|Y) all have Pascal-triangle structure: n + 1 (plus possibly
a zero level) distinct eigenvalues with binomial multiplicities.  This module
builds all three in compressed (value, multiplicity) form as one type,
`CompressedSpectrum`.

A spectrum keeps integer level numerators over one common denominator so the
entropy scans downstream run on plain integers, and is given only what
defines it: `CompressedSpectrum(n, alpha, beta, div, zero_mult=0,
g_factors=({}, 1))`, whose levels are closed forms in single-copy numbers.
Above an optional zero level, level l = 0..n has numerator alpha^l *
beta^(n-l) and multiplicity C(n, l) * div^(n-l).  By the binomial theorem
these sum to den = (alpha + div*beta)^n and to (1 + div)^n, so
normalisation and the dimension count hold by construction.  `den_factors`
states den's primes (trial division of alpha + div*beta up to
`kernel.small_factors`' bound).  A degeneracy g, given as the
`small_factors` table `g_factors`, makes each stored level g eigenvalues at
1/g of its value: g is 1 unless given, and d^n for rho_XE, whose nonzero
levels are P(X|Y)'s repeated d^n times.  At beta0 = 1 every spectrum is the
family at n = 0: one level of value 1, for rho_XE over a zero level.  What a
scan reads is per copy; `levels` and `total_dim` count all copies.  Nothing
of size O(n) is stored.  `level(i)` is the (multiplicity, mass) of level
i in closed form, one `math.comb` and two powers, and the pairs `levels`
are `level(i)` for every i.  A window of levels is not read level by
level: `moment(lo, hi, k)` is the k-th moment sum of mult * num^k over the
window, so k = 0, 1, 2 give its count, mass and squared mass, summed on
its shorter side: the window itself, or the k-th total (the binomial
theorem's) less the windows from the family's ends.  Every read of a
window takes it one way (`_family`): clamped to the levels, as terms
C(n, l) * v^l * u^(n-l) with v = alpha^k and u = div*beta^k above the
zero level.  They form a hypergeometric series in l, which `_series`
evaluates by binary splitting over the ratio (n-l)*v/(l+1), with u as a
weight; one exact division (`kernel.big_divmod`) closes it before the
window's common factor v^lo * u^(n-hi+1) is multiplied back in.  A window
nearer the family's top is summed as its mirror image, term n-l with v
and u swapped, so its `math.comb` is C(n, min(lo, n+1-hi)).  A scan reads
levels one way, as points: `point(i)` is the count and mass below level i
and its level, so it costs only the levels it reads.  Points are kept per
term family (n, v, u) at k = 0 and 1, not per spectrum: a family's store
maps an index l to the sum of its terms below l and term l, so every beta0
at one (d, n) shares the k = 0 store, and rho_XE and P(X|Y), which differ
only in the zero level and g that `point` adds, share both.  The stores
sit in one registry of at most `_FAMILIES` families, the least recently
used dropped first, each store keeping at most `_POINTS` points, the
least recently read dropped first.  A spectrum takes its two stores on
its first read and keeps them while it lives.  Each k of i's point is a
kept one, else read by the gap from the kept point nearest i if that is
no farther than the family's nearer end (`_gap`): the same series started
at the kept level's term, with no `math.comb` and no n-th power, whose
far end is i's level; a gap of one level is one recurrence step.  Else
its sum is read from that end (`moment`) and its term in closed form,
the k = 1 term as the k = 0 term times alpha^l * beta^(n-l), so one
`math.comb` serves both.  Three more reads serve floats that need not
sum a window exactly: `log_moment(lo, hi, k)`, its natural log for k = 0,
1 from the terms nearest their mode, which predicts where a scan stops;
`_moment_mod`, the sum modulo a power of each of a few primes past the
power every term holds (`_moment_floor`), in one pass of the terms'
recurrence; and `_moment_enc`, an enclosure (`kernel._Enc`) to a given
number of bits, summed from its largest term outward until a geometric
bound on what is left falls below them.

An exact point costs time that grows faster than the bit length of its
spectra's n-th powers, so each builder refuses, before forming any, a point
whose largest n-th power would exceed `MAX_POWER_BITS` bits.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .kernel import _Enc, _log_add, _strip, big_divmod, small_factors

__all__ = [
    "ProtocolParams",
    "CompressedSpectrum",
    "eve_spectrum",
    "xe_spectrum",
    "conditional_spectrum",
]


# The largest n-th power (a denominator or a dimension) a builder forms, in
# bits.  At d=2, beta0=49/50 the denominator has 6.64 bits per signal, so
# the bound admits n up to 1.26e6 there; that exact point took 64 s and
# 43 MB under CPython 3.11 on a 2-core Xeon.  The cost grows faster than n
# (0.93 s at n=1e5, 43 s at 1e6), so n=1e8 would run for days; it is
# refused at once.
MAX_POWER_BITS = 2**23

# Point stores the registry keeps (`_store`), one per term family (n, v, u),
# the least recently used dropped past _FAMILIES, and points per store, the
# least recently read dropped past _POINTS.  A stored point is two ints, the
# sum below a level and its term: at n=2e4 one takes at most 34 KB (d=2,
# beta0=49/50) to 138 KB (d=1000, 99/100), so the registry holds at most
# about 18 MB there.  No admitted point's ints pass MAX_POWER_BITS bits (1
# MiB), so it never passes 8 * 16 * 2 MiB = 256 MiB; a spectrum keeps its
# own two stores alive past their eviction.
_FAMILIES = 8
_POINTS = 16
_registry: dict = {}  # (n, v, u): {index l: (sum of the terms below l, term l)}
_lock = threading.Lock()  # guards the registry and every store


def _store(n: int, v: int, u: int) -> dict:
    """The point store of the term family (n, v, u), empty when new."""
    with _lock:
        store = _registry.pop((n, v, u), None)
        _registry[n, v, u] = store = {} if store is None else store
        if len(_registry) > _FAMILIES:
            del _registry[next(iter(_registry))]
    return store


def _refuse_oversized(n: int, *bases: int) -> None:
    """Refuse a spectrum whose largest n-th power of bases (each >= 2)
    would exceed MAX_POWER_BITS bits, before forming it.  n alone refuses
    an n above the bound, whose float could overflow."""
    if n > MAX_POWER_BITS or n * math.log2(max(bases)) > MAX_POWER_BITS:
        raise ValueError(
            f"point too large: a spectrum's n-th power would exceed {MAX_POWER_BITS} bits"
        )


def smoothing_budget(epsilon) -> Fraction:
    """epsilon' = (epsilon/8)^2, the budget handed to each smoothed entropy."""
    return (Fraction(epsilon) / 8) ** 2


@dataclass(frozen=True)
class ProtocolParams:
    """Validated protocol inputs.

    d: signal dimension (qudit), n: sifted-key length, beta0: probability
    that Alice's and Bob's sifted symbols agree, epsilon: security parameter
    of the final key.  Derived: epsilon_prime = `smoothing_budget(epsilon)`.
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
    def epsilon_prime(self) -> Fraction:
        return smoothing_budget(self.epsilon)


def _series(lo: int, hi: int, n: int, v: int, u: int, whole_p=False) -> tuple[int, int, int]:
    """(P, Q, T) with Q = hi!/lo! and T/Q = sum over l = lo..hi-1 of
    u^(hi-1-l) times the product over r = lo..l-1 of (n-r)*v/(r+1): a
    window sum over a level family, whose terms C(n, l) * v^l * u^(n-l)
    share the factor C(n, lo) * v^lo * u^(n-hi+1).

    Binary splitting (Haible & Papanikolaou 1998): a range [i, j) is summed
    as (P, Q, T) with P, Q the products of p(r) = (n-r)*v and q(r) = r+1
    over it and T/Q its sum, and two halves combine as
    (P1*P2, Q1*Q2, T1*Q2*u^(j-mid) + P1*T2).  The weight u stays out of the
    ratio, so Q depends on the range alone.  The operands stay balanced, so
    the cost is a few big multiplications instead of one per term.  Short
    ranges are folded term by term on small integers.  The halves of one
    depth have at most two lengths, so each weight u^(j-mid) is raised once.
    P is formed only where it is read: a left half's P1 always is, a right
    half's only when its parent's is, and the whole range's if whole_p.
    """
    weights = {}

    def split(i: int, j: int, want_p: bool) -> tuple[int, int, int]:
        if j - i <= 16:
            P, Q, T = 1, 1, 0
            for r in range(i, j):
                P, Q, T = P * (n - r) * v, Q * (r + 1), (T * u + P) * (r + 1)
            return P, Q, T
        mid = (i + j) // 2
        P1, Q1, T1 = split(i, mid, True)
        P2, Q2, T2 = split(mid, j, want_p)
        if j - mid not in weights:
            weights[j - mid] = u ** (j - mid)
        return P1 * P2 if want_p else 0, Q1 * Q2, T1 * Q2 * weights[j - mid] + P1 * T2

    if hi <= lo:
        return 1, 1, 0
    return split(lo, hi, whole_p)


def _descend(n: int, l: int, count: int, v: int, u: int, prec: int) -> _Enc:
    """An enclosure of t_l + t_(l-1) + ... over count terms, t_j = C(n, j)
    * v^j * u^(n-j), for terms that fall from t_l on: t_(j-1) = t_j * r_j,
    r_j = j*u / ((n-j+1)*v) <= 1, and r_j falls with j.  So once t_j is
    read, the terms left sum to at most t_j * r_j/(1-r_j), and the sum stops
    when that bound, put on the upper end, is below 2^-prec of the sum."""
    if count <= 0:
        return _Enc(0, prec)
    t = _Enc(math.comb(n, l), prec) * _Enc(v, prec) ** l * _Enc(u, prec) ** (n - l)
    s = t
    for j in range(l, l - count + 1, -1):
        a, b = j * u, (n - j + 1) * v  # r_j = a/b
        if b > a:
            left = -(-t.hi * a // (b - a))
            if left.bit_length() + t.s + prec < s.lo.bit_length() + s.s:
                return s + _Enc(0, prec, left, t.s)
        t = t * _Enc(a, prec) / b
        s = s + t
    return s


class CompressedSpectrum:
    """Density-operator spectrum as strictly ascending levels in closed
    form: an optional zero level of multiplicity zero_mult (index 0 when
    present), then for l = 0..n numerator alpha^l beta^(n-l) and
    multiplicity C(n, l) * div^(n-l).  Each level stands for g eigenvalues
    at value numerator / (den * g), for the degeneracy g = rest *
    prod(p**e for p, e in primes) given as g_factors = (primes, rest).

    With alpha > beta >= 1 the numerators strictly ascend.  The level sums
    are the binomial theorem's, so the spectrum is normalised by
    construction: den is the masses' sum (alpha + div*beta)^n, and
    total_dim is g times `count`, the multiplicities' sum (1 + div)^n plus
    the zero level.  Any n, alpha, beta, div, zero_mult or g that is not an
    int (a bool included) is refused.

    `level(i)` is the (multiplicity, mass) of level i, which raises
    IndexError for an i outside [0, size), and scans read levels through
    `point(i)`, the count and mass below level i and then its level; the
    mass is multiplicity * numerator, so a level's numerator is mass //
    multiplicity.  `moment(lo, hi, k)` sums
    mult * num^k over a window of levels, clamped to them.  `size` is the
    number of levels and `zero_mult` the multiplicity of a zero level at
    index 0 (0 when there is none).  A grouped probability distribution is
    the same object: multiplicities count strings and `total_dim` is the
    number of strings.  `den_factors` and `g_factors` are (primes, rest)
    with den (or g) = rest * prod(p**e for p, e in primes).
    """

    def __init__(self, n, alpha, beta, div, zero_mult=0, g_factors=({}, 1)):
        primes, rest = g_factors
        g = rest * math.prod(p**e for p, e in primes.items())
        if (any(type(x) is not int for x in (n, alpha, beta, div, zero_mult, g))
                or n < 0 or not alpha > beta >= 1 or div < 1 or zero_mult < 0 or g < 1):
            raise ValueError("CompressedSpectrum: malformed level family")
        self.n, self.alpha, self.beta, self.div = n, alpha, beta, div
        self.zero_mult, self.z = zero_mult, 1 if zero_mult else 0  # z: index of l = 0
        self.size = self.z + n + 1
        base = alpha + div * beta
        self.den, self.den_factors = base**n, small_factors(base, n)
        self.g, self.g_factors = g, g_factors
        self.count = (1 + div) ** n + zero_mult
        self.total_dim = g * self.count

    @cached_property
    def levels(self) -> list[tuple[Fraction, int]]:
        return [(Fraction(big_divmod(w, m)[0], self.den * self.g), m * self.g)
                for m, w in map(self.level, range(self.size))]

    def level(self, i: int) -> tuple[int, int]:
        """(multiplicity, mass) of level i in closed form: one `math.comb`
        and two powers."""
        if not 0 <= i < self.size:
            raise IndexError(f"level {i} outside 0..{self.size - 1}")
        if i < self.z:
            return self.zero_mult, 0
        n, l = self.n, i - self.z
        mult = math.comb(n, l) * self.div ** (n - l)
        return mult, mult * self.alpha**l * self.beta ** (n - l)

    def point(self, i: int) -> tuple[int, int, int, int]:
        """Level i's point: (count below it, mass below it, *level(i)).
        The zero level's is (0, 0, zero_mult, 0).  Each k = 0, 1 is read
        from its family's store (`_stores`) at family index l: a kept
        point, else the gap (`_gap`) from the kept point a nearest l if that
        is no farther than the family's nearer end (min(i, size - i)
        levels), else the sum from that end (`moment`) and the term in
        closed form, which raises IndexError for an i outside [0, size).
        Every point read is kept in both stores as the most recently read,
        with a just before it."""
        if 0 <= i < self.z:
            return 0, 0, self.zero_mult, 0
        l, reach, reads = i - self.z, min(i, self.size - i), []
        for k, store in enumerate(self._stores):
            with _lock:
                a = min(store, key=lambda j: abs(j - l), default=None)
                kept = store.pop(a) if a is not None and abs(a - l) <= reach else None
                if kept:
                    store[a] = kept
            reads.append(kept if a == l or not kept else self._gap(k, a, kept, l))
        if None in reads:  # an end read: one `math.comb` for both terms
            mult, mass = (self.level(i) if reads[0] is None else
                          (reads[0][1], reads[0][1] * self.alpha**l * self.beta ** (self.n - l)))
            reads = [read or (self.moment(0, i, k) - (self.zero_mult if k == 0 else 0), term)
                     for k, (read, term) in enumerate(zip(reads, (mult, mass)))]
        with _lock:
            for store, read in zip(self._stores, reads):
                store[l] = read
                if len(store) > _POINTS:
                    del store[next(iter(store))]
        (C, t0), (W, t1) = reads
        return self.zero_mult + C, W, t0, t1

    def moment(self, lo: int, hi: int, k: int) -> int:
        """Sum of mult * num^k over level indices lo..hi-1 (clamped to the
        levels), scaled by den^k: k = 0, 1, 2 give count, mass and squared
        mass.  A zero level counts toward k = 0 only.  It sums the shorter
        side: a window of at most half the levels directly (`_window`),
        and a wider one as the family's k-th total less the windows below
        lo and from hi, which reach an end of the family.  The totals are
        `count` for k = 0, den for k = 1 and (alpha^2 + div*beta^2)^n for
        k = 2, formed on first use, so a spectrum whose squared masses are
        all summed directly never forms it."""
        lo, hi = max(lo, 0), max(min(hi, self.size), lo, 0)
        if 2 * (hi - lo) <= self.size:
            return self._window(lo, hi, k)
        total = self._squares if k == 2 else (self.count, self.den)[k]
        return total - sum(self._window(a, b, k) for a, b in ((0, lo), (hi, self.size)) if a < b)

    @cached_property
    def _stores(self) -> tuple[dict, dict]:
        """The point stores of its k = 0 and k = 1 term families, C(n, l)
        * v^l * u^(n-l) with v = alpha^k and u = div*beta^k (`_store`)."""
        return tuple(_store(self.n, self.alpha**k, self.div * self.beta**k) for k in (0, 1))

    def _gap(self, k: int, a: int, kept: tuple, x: int) -> tuple[int, int]:
        """Family index x's (sum below, term) at k from index a's kept
        pair: a's sum plus the gap's.  Its term past a's is one recurrence
        step from a's term, and the rest a `_series` from there, whose P
        gives x's term.  Below a, it runs over the mirror image, term n-l
        with v and u swapped, from a down to x: its sum less t_a plus t_x."""
        n, (below, t) = self.n, kept
        v, u = self.alpha**k, self.div * self.beta**k
        lo, hi, v, u = (a, x, v, u) if a < x else (n - a, n - x, u, v)
        s, tx = t, t * ((n - lo) * v) // ((lo + 1) * u)  # t_lo, and t_(lo+1) by a step
        if hi > lo + 1:  # over t_(lo+1): t_(lo+1)..t_(hi-1), and t_hi
            P, Q, T = _series(lo + 1, hi, n, v, u, True)
            Q *= u ** (hi - 1 - lo)
            s, tx = s + big_divmod(tx * T * u, Q)[0], big_divmod(tx * P, Q)[0]
        return below + (s if a < x else t - s - tx), tx

    @cached_property
    def _squares(self) -> int:
        """moment(0, size, 2): the family's squared masses sum to
        (alpha^2 + div*beta^2)^n by the binomial theorem."""
        return (self.alpha**2 + self.div * self.beta**2) ** self.n

    def _family(self, lo: int, hi: int, k: int) -> tuple[int, int, int, int, int]:
        """(zero, lo, hi, v, u) for every window read: lo..hi-1 clamped to
        the levels, zero the zero level's count where k = 0 and the window
        holds it (else 0), lo..hi-1 then in family indices l (none where hi
        <= lo), and the terms' v = alpha^k and u = div*beta^k."""
        hi = min(hi, self.size)
        zero = self.zero_mult if k == 0 and lo <= 0 < hi else 0
        return zero, max(lo, self.z) - self.z, hi - self.z, self.alpha**k, self.div * self.beta**k

    def _window(self, lo: int, hi: int, k: int) -> int:
        """`moment` summed term by term: C(n, lo) * v^lo * u^(n-hi+1) times
        a `_series` over the terms (`_family`).  C(n, lo) * T // Q is exact,
        as each term over v^lo * u^(n-hi+1) is an integer, and is taken
        before those powers are put back, so the quotient stays narrow.  A
        window nearer the top of the family (n+1-hi < lo) is summed as its
        mirror image, term n-l with v and u swapped, so the `math.comb` is
        C(n, min(lo, n+1-hi)) and the series starts at the nearer end."""
        (zero, lo, hi, v, u), n = self._family(lo, hi, k), self.n
        if hi <= lo:
            return zero
        if n + 1 - hi < lo:  # nearer the top: the mirror image, from l = n down
            lo, hi, v, u = n + 1 - hi, n + 1 - lo, u, v
        _, Q, T = _series(lo, hi, n, v, u)
        return zero + big_divmod(math.comb(n, lo) * T, Q)[0] * v**lo * u ** (n - hi + 1)

    def _moment_floor(self, lo: int, hi: int, k: int, p: int) -> int:
        """A lower bound on v_p(moment(lo, hi, k)) for a prime p.  Each
        family term C(n, l) * v^l * u^(n-l) holds p^(l*v_p(v) +
        (n-l)*v_p(u)), which is linear in l, so least at an end of the
        window.  0 for a count holding the zero level, inf for a zero sum."""
        zero, lo, hi, v, u = self._family(lo, hi, k)
        if zero or hi <= lo:
            return 0 if zero else math.inf
        a, b = (_strip(x, p, math.inf)[0] for x in (v, u))
        return min(l * a + (self.n - l) * b for l in (lo, hi - 1))

    def _moment_mod(self, lo: int, hi: int, k: int, primes, J: int) -> tuple[int, dict]:
        """(R, shifts): moment(lo, hi, k) is prod(p^shifts[p]) times an int
        congruent to R modulo M = prod(p^J) over the primes, shifts the
        window's `_moment_floor`s (0 if it is empty).  A term is split into
        each prime's power p^e, e counted past the floor, and a unit.
        The recurrence t_(l+1) = t_l * (n-l)*v / ((l+1)*u) moves each e by
        the primes of its factors, which a sieve over the multiples of p
        takes out of n-l and l+1 beforehand, and the unit by what is left.
        The units' sum is kept as one fraction over their running
        denominator, which is inverted modulo M once.  Each step also adds
        v_p(v) - v_p(u) to e: where that is positive the step's factor
        keeps it, and where negative it is counted.  So the window is summed
        from the end where no prime's is negative, if it has one, and else
        from the family end nearer to it (as `_window`)."""
        shifts = {p: self._moment_floor(lo, hi, k, p) for p in primes}
        zero, lo, hi, v, u = self._family(lo, hi, k)  # shifts are 0 where zero counts
        M, n = math.prod(p**J for p in primes), self.n
        if hi <= lo:
            return zero % M, dict.fromkeys(primes, 0)
        steps = [_strip(v, p, math.inf)[0] - _strip(u, p, math.inf)[0] for p in primes]
        up, down = max(steps, default=0) > 0, min(steps, default=0) < 0
        if down and not up or up == down and n + 1 - hi < lo:
            lo, hi, v, u = n + 1 - hi, n + 1 - lo, u, v  # the mirror image, from l = n down
        # step l to l+1 multiplies by xs[l-lo]*v and divides by ys[l-lo]*u;
        # key packs each prime's e in a 64-bit field, and moves its steps
        xs, ys, c = list(range(n - lo, n - hi + 1, -1)), list(range(lo + 1, hi)), math.comb(n, lo)
        key, moves, kept = 0, [0] * len(xs), 1
        for i, p in enumerate(primes):
            (a, v), (b, u), (ec, c) = (_strip(x, p, math.inf) for x in (v, u, c))
            field = 1 << 64 * i
            key += (ec + lo * a + (n - lo) * b - shifts[p]) * field
            for ints, first, sign in ((xs, (n - lo) % p, field), (ys, -(lo + 1) % p, -field)):
                for j in range(first, len(ints), p):
                    x = ints[j]
                    while x % p == 0:
                        x //= p
                        moves[j] += sign
                    ints[j] = x
            if a > b:
                kept *= p ** (a - b)
            elif a < b:
                moves = [move - (b - a) * field for move in moves]
        powers = {}

        def power(key: int) -> int:  # prod(p^e) modulo M for the e in key
            powers[key] = math.prod(pow(p, key >> 64 * i & (1 << 64) - 1, M)
                                    for i, p in enumerate(primes)) % M
            return powers[key]

        A = c * pow(v, lo, M) * pow(u, n - lo, M) % M  # t_lo's unit
        B, S = 1, power(key) * A % M  # the sum so far is S / B
        for x, y, move in zip(xs, ys, moves):
            key += move
            P = powers.get(key)
            if P is None:
                P = power(key)
            A, y = A * x * v * kept % M, y * u
            B, S = B * y % M, (S * y + P * A) % M
        return (S * pow(B, -1, M) + zero) % M, shifts

    def _moment_enc(self, lo: int, hi: int, k: int, prec: int) -> _Enc:
        """An enclosure (`kernel._Enc`) of moment(lo, hi, k) to about prec
        bits, from the terms nearest the window's largest, t_c at c the
        mode (n+1)*v // (v+u) clamped to the window.  The terms fall away
        from it with falling ratios (they are log-concave in l), so each
        side is summed from c outward until what is left is below 2^-prec
        of the sum, bounded by the last term read times r/(1-r), r the
        ratio to the next (`_descend`)."""
        (zero, lo, hi, v, u), n = self._family(lo, hi, k), self.n
        if hi <= lo:
            return _Enc(zero, prec)
        c = min(max((n + 1) * v // (v + u), lo), hi - 1)
        # the side above c is the mirror image: term n-l with v and u swapped
        above = _descend(n, n - c - 1, hi - 1 - c, u, v, prec)
        return _Enc(zero, prec) + _descend(n, c, c + 1 - lo, v, u, prec) + above

    def log_moment(self, lo: int, hi: int, k: int) -> float:
        """ln moment(lo, hi, k) for k = 0, 1, and -inf for a zero sum.
        The terms t_l fall away from the mode M, the last l with t_l /
        t_(l-1) = (n-l+1)*v / (l*u) >= 1.  A window from M up sums from its
        first term (`math.lgamma`) until a term falls below 2^-60 of the sum,
        so every ratio is <= 1; one up to M is its mirror image, t_l being
        term n-l with v, u swapped; one across M is (v+u)^n less two tails."""
        (zero, lo, hi, v, u), n = self._family(lo, hi, k), self.n

        def upward(l: int, end: int, v: int, u: int) -> float:  # ln(t_l + ... + t_(end-1))
            s = t = 1.0
            for j in range(l, end - 1):
                t *= (n - j) * v / ((j + 1) * u)
                if t < s * 2**-60:
                    break
                s += t
            return -math.inf if l >= end else (
                math.lgamma(n + 1) - math.lgamma(l + 1) - math.lgamma(n - l + 1)
                + l * math.log(v) + (n - l) * math.log(u) + math.log(s))

        mode = (n + 1) * v // (v + u)
        if lo >= mode:
            ln_s = upward(lo, hi, v, u)
        elif hi <= mode + 1:
            ln_s = upward(n + 1 - hi, n + 1 - lo, u, v)
        else:
            ln_all = n * math.log(v + u)
            tails = upward(n + 1 - lo, n + 1, u, v), upward(hi, n + 1, v, u)
            ln_s = ln_all + math.log1p(-sum(math.exp(t - ln_all) for t in tails))
        return _log_add(math.log(zero), ln_s) if zero else ln_s

    # only perfbench/tracing.py reads these two; ROADMAP item 4 deletes them
    @cached_property
    def value_nums(self) -> list[int]:
        nums = [0] * self.z + [self.beta**self.n]
        for _ in range(self.n):
            nums.append(nums[-1] * self.alpha // self.beta)
        return nums

    @cached_property
    def mults(self) -> list[int]:
        mults = [self.zero_mult] * self.z + [self.div**self.n]
        for l in range(self.n):
            mults.append(mults[-1] * (self.n - l) // ((l + 1) * self.div))
        return mults


def eve_spectrum(params: ProtocolParams) -> CompressedSpectrum:
    """Spectrum of the adversary's marginal rho_E over n signals.

    Levels l = 0..n: value A^l * B^(n-l) with A = (beta0(d+1)-1)/d and
    B = (1-beta0)/(d(d-1)), multiplicity C(n,l)*(d^2-1)^(n-l); total
    dimension d^(2n).  All eigenvalues are nonzero, so the levels carry the
    full rank.  At beta0 = 1 the state is pure: one level of value 1 on
    an effectively one-dimensional support, the family at n = 0, where any
    alpha > beta >= 1 and div give that same level.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    _refuse_oversized(n, q * d * (d - 1), d * d)  # den and total_dim
    if p == q:
        return CompressedSpectrum(0, 2, 1, 1)
    return CompressedSpectrum(n, (p * (d + 1) - q) * (d - 1), q - p, d * d - 1)


def xe_spectrum(params: ProtocolParams) -> CompressedSpectrum:
    """Spectrum of the joint classical-quantum state rho_XE over n signals.

    One zero level of multiplicity d^(3n) - d^(2n), then (indexing the
    nonzero family by l = 0..n, stored shifted up by one) values
    (beta0/d)^l * (beta1/d)^(n-l) with multiplicity d^n*C(n,l)*(d-1)^(n-l).
    These are P(X|Y)'s levels, each d^n times at 1/d^n of its value, so they
    are stored as `conditional_spectrum`'s with degeneracy g = d^n, over a
    zero level of d^(2n) - d^n per copy.  At beta0 = 1 only the uniform
    level d^-n (x d^n) survives: cond's one level of value 1 with the same
    degeneracy, over a zero level of d^(2n) - 1 per copy.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    _refuse_oversized(n, q * (d - 1), d**3)  # den and total_dim
    g = small_factors(d, n)
    if p == q:
        return CompressedSpectrum(0, 2, 1, 1, d ** (2 * n) - 1, g)
    return CompressedSpectrum(n, p * (d - 1), q - p, d - 1, d ** (2 * n) - d**n, g)


def conditional_spectrum(params: ProtocolParams) -> CompressedSpectrum:
    """Grouped conditional distribution P(X | Y=y) over n signals.

    The distribution is the same for every y: a string agreeing with y in l
    positions has probability beta0^l * beta1^(n-l), and there are
    C(n,l)*(d-1)^(n-l) such strings; support d^n.  At beta0 = 1 the
    conditional distribution is deterministic: one level of value 1.
    """
    d, n = params.d, params.n
    p, q = params.beta0.numerator, params.beta0.denominator
    _refuse_oversized(n, q * (d - 1), d)  # den and total_dim
    if p == q:
        return CompressedSpectrum(0, 2, 1, 1)
    return CompressedSpectrum(n, p * (d - 1), q - p, d - 1)

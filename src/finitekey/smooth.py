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
from the bottom keeps.  Both read one support cut taken from the top.

The scans use prefix-sum identities instead of accumulating per-level
differences, e.g. for the raise side of the water fill

    s_r = lam_r * (count of levels below r) - (mass of levels below r),

so the only big*big products are the handful of comparisons whose outcome
bit-length bounds cannot already decide.

A spectrum of degeneracy g (`spectra`; d^n for rho_XE) is scanned per copy.
Masses, and so every boundary, do not see g; the support cut's counts are
g times the per-copy ones, and x, y and the purity the per-copy ones over g.

Each boundary is one search (`_last_fit`) with its own predicate, tested
against one integer budget tq = floor(eps*den) (`_budget`), as a mass or
cost times den is an integer, within eps iff at most tq.  The support cut
gives back strings of its last level (mult, w) at lam_b = w/(mult*den*g).
Each is first guessed in floats (`_guess`) as the same test in logs, sums
through `_log_add`, by bisecting on how many levels the scan takes over
the logs of window sums (`log_moment`).  The search sums the guessed
levels in one window, reads the last of them (`level`), corrects the guess
by recurrence steps to the neighbouring levels (`step_level`) and keeps
the boundary's point (`keep`).  A later search of the spectrum, at another
budget, sums from the nearest kept point and reads its level there, in no
closed form.  Since s_r grows with r, the comparisons at the boundary
certify what a full scan would find, and no level is scanned to.

No full-width gcd runs on the way to the floats.  The witness rationals
(s_b, x, y and the purity) are built as Fractions only when a field is
first read (`_Lazy`), and s2's test x >= y is the integer test Y*C <= X*Ct,
mostly decided by bit lengths (`_prod_le`).  s2's float is log2_bits of the
reduced purity, certified without forming it (`_purity_log2`): the terms'
valuations and one gcd give what the reduction divides out, and integer
enclosures (`kernel._Enc`) give the reduced pair's bit lengths and top
bits, at _GUARD bits however much the reduction divides out.  The
purity's numerator is written once (`_numerator`), and the witness and
the enclosures both read it; `_valuation` takes each prime's share from
the valuations and units of its three products, every term (the middle's
residue included) read through one p-adic view (`_adic`).  The untouched
middle, the squared masses between the two boundaries, is a lazy value
(`_Middle`), which the float reads through one residue pass, only where
`_valuation` needs it, and an enclosure, unless the `_CHEAP` rule has it
summed first.  Where the enclosures do not settle the float, it reads
the purity witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, partial

from .kernel import (
    _GUARD, _Enc, _log2_tops, _log_add, _strip, big_divmod, log2_bits, small_factors,
)
from .spectra import CompressedSpectrum

# p-adic digits of s2's middle that its residue pass reads (`_Middle.view`)
# past the window's floor: its valuation beyond the floor and the digits of
# its unit after that.  `_valuation`'s first round reads _DIGITS // 2 digits
# of each term (`_adic`), all it needs unless N's least products tie
_DIGITS = 64

# s2's middle is read by residues and an enclosure when den is at least
# _CHEAP times wider than _GUARD plus a lower bound on the width of K, what
# reducing the purity divides out; below that, the exact sum costs less: at
# d=2, beta0=49/50 (K about 60 bits) both cost the same near n=3500, where
# den is 84 times wider, and at d=3, n=3000 (K over 4,000 bits) the residue
# pass takes 2.3 ms to the exact sum's 1.3 ms (CPython 3.11, 2-core Xeon)
_CHEAP = 80

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


class _Lazy:
    """Type of a witness field holding an exact rational, which the scans
    may hand over as a `partial` of `_ratio` (or `_purity`): it is called on
    first read and its result kept, so a witness nobody reads costs no
    product and no gcd.  Reads always return a Fraction, and the
    dataclass's == and fields see only those."""

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


class _Witness:
    """Base of the scans' witnesses, whose repr prints only the fields that
    are not lazy (`_Lazy`), never an exact rational, and in hex an int too
    long for str(), whose decimal digits are limited and hex digits not."""

    def __repr__(self) -> str:
        shown = (f"{f.name}={self._show(getattr(self, f.name))}" for f in fields(self)
                 if not isinstance(vars(type(self)).get(f.name), _Lazy))
        return f"{type(self).__name__}({', '.join(shown)})"

    @staticmethod
    def _show(v: int) -> str:
        try:
            return repr(v)
        except ValueError:  # past str()'s digit limit
            return hex(v)


@dataclass(frozen=True, repr=False)
class RankTrimResult(_Witness):
    """Trace of the rank minimization: b fully removed levels, k removed
    eigenvalues in total, s_b the mass of the fully removed levels."""

    b: int
    k: int
    remaining_rank: int
    s_b: Fraction = _Lazy()


@dataclass(frozen=True, repr=False)
class WaterfillSolution(_Witness):
    """Trace of the purity minimization: the lowest b_minus+1 levels raised
    to x, the highest b_plus+1 lowered to y, middle untouched."""

    b_minus: int
    b_plus: int
    x: Fraction = _Lazy()
    y: Fraction = _Lazy()
    purity: Fraction = _Lazy()


@dataclass(frozen=True, repr=False)
class SupportCutResult(_Witness):
    """Trace of the support minimization: b distinct probabilities taken
    from the top, k strings kept, s_b their total mass before the trim."""

    b: int
    k: int
    s_b: Fraction = _Lazy()


def _ratio(num: int, *factors: int) -> Fraction:
    """num / prod(factors) as a Fraction, for a lazy witness field."""
    return Fraction(num, math.prod(factors))


def _budget(spec: CompressedSpectrum, eps) -> tuple[int, int, int, float]:
    """(en, ed, tq, ln tq) for a budget eps = en/ed in [0, 1): a mass or
    cost s times den is an integer, so s <= eps iff s*den <= tq."""
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"smoothing budget must lie in [0, 1), got {eps}")
    tq = eps.numerator * spec.den // eps.denominator
    return eps.numerator, eps.denominator, tq, math.log(tq) if tq else -math.inf


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


def _last_fit(spec: CompressedSpectrum, reverse: bool, fits, taken: int = 0):
    """(i, C, W, level i): the last level i a scan takes, going up from level
    0 (down from m-1 if `reverse`), and the count C and mass W it took, i's
    included.  Level i is taken iff fits(mult, w, C, W) holds on the count
    and mass taken before it; fits holds at the first level and, once false,
    stays false.  A guess of `taken` levels (at least the first) sums them in
    one window at k = 0, 1.  One read (`level`) of the last guessed level
    follows, off a point the window kept or else in closed form, then steps
    (`step_level`) drop levels that do not fit and take next ones that do,
    one per level the guess missed.  Level i's point is kept (`keep`)."""
    m, step = spec.size, -1 if reverse else 1
    taken = max(taken, 1)
    i = m - taken if reverse else taken - 1  # the last level guessed
    lo, hi = (i, m) if reverse else (0, i + 1)
    C, W, level = spec.moment(lo, hi, 0), spec.moment(lo, hi, 1), spec.level(i)
    while not fits(*level, C - level[0], W - level[1]):  # guessed too far
        C, W, i, level = C - level[0], W - level[1], i - step, spec.step_level(i, level, -step)
    while 0 <= i + step < m and fits(*(nxt := spec.step_level(i, level, step)), C, W):
        C, W, i, level = C + nxt[0], W + nxt[1], i + step, nxt  # guessed too short
    below = (spec.count - C, spec.den - W) if reverse else (C - level[0], W - level[1])
    spec.keep(i, below, level)
    return i, C, W, level


def _support_cut(spec: CompressedSpectrum, budget) -> tuple[int, int, int]:
    """(b, kept, U): the top b levels reach mass U/den >= 1 - eps, and kept
    is their count (g per stored one) less floor((U/den - (1-eps))/lam_b)
    given back from the last (smallest) one (mult, w), lam_b =
    w/(mult*den*g), for `_budget`'s (en, ed, tq, ln tq) of eps = en/ed.
    The cut stops at a nonzero level, since those carry mass 1.

    It is guessed from the bottom, as the levels whose summed mass stays
    within eps, since 1 - (mass above) in floats cancels for a small eps."""
    (en, ed, tq, ln_tq), den = budget, spec.den
    removed = _guess(spec, False, lambda lm, lw, lC, lW: _log_add(lW, lw) <= ln_tq)
    i, cnt, U, (mult, w) = _last_fit(  # W/den < 1-eps iff W < den - tq
        spec, True, lambda mult, w, C, W: W < den - tq, spec.size - removed
    )
    kept = spec.g * cnt - big_divmod(spec.g * mult * (U * ed - (ed - en) * den), ed * w)[0]
    assert kept >= 1
    return spec.size - i, kept, U


def _guess(spec: CompressedSpectrum, reverse: bool, fits) -> int:
    """The float image of `_last_fit`: how many levels its scan takes, where
    a level is taken iff fits(lm, lw, lC, lW) holds on the logs of its count
    and mass and of those taken before it.  It bisects on that number, each
    probe reading four `log_moment` windows, so no level is read.  A guess
    can miss near a tie, and `_last_fit` corrects it exactly."""
    m, lo, hi = spec.size, 0, spec.size  # it takes from lo to hi levels
    while lo < hi:
        t = (lo + hi + 1) // 2  # does it take a t-th level?
        i = m - t if reverse else t - 1
        before = (i + 1, m) if reverse else (0, i)
        logs = [spec.log_moment(*w, k) for w in ((i, i + 1), before) for k in (0, 1)]
        lo, hi = (t, hi) if fits(*logs) else (lo, t - 1)
    return lo


def s0_smooth(spec: CompressedSpectrum, eps) -> tuple[float, RankTrimResult]:
    """Smoothed rank entropy: log2 of the smallest rank among spectra within
    removal budget eps.

    Wholly removes the lowest levels while their cumulative mass stays
    <= eps, then removes floor((eps - s_b)/lam_b) further eigenvalues from
    the first kept level.  Zero levels are removed for free and never count
    toward rank.  What stays is h0_smooth's support cut, taken from the
    top: the removed levels are the nonzero ones it does not reach.
    """
    included, remaining, U = _support_cut(spec, _budget(spec, eps))
    nonzero = spec.size - (1 if spec.zero_mult else 0)
    return log2_bits(remaining), RankTrimResult(
        b=nonzero - included,
        k=spec.total_dim - spec.g * spec.zero_mult - remaining,
        remaining_rank=remaining,
        s_b=partial(_ratio, spec.den - U, spec.den),
    )


def s2_smooth(spec: CompressedSpectrum, eps) -> tuple[float, WaterfillSolution]:
    """Smoothed collision entropy: -log2 of the smallest purity within the
    ball of total-variation radius 2*eps (budget eps on each side).

    b_minus = max{r : s_r^- <= eps} (cost of raising the r lowest levels)
    is predicted in floats and certified exactly; b_plus likewise from the
    top.  The leftover budget fixes the flat values x and y.  Exact
    rationals throughout; the purity witness is built only when read, and
    the float, -log2_bits of it, is certified without it (`_purity_log2`)
    or else read from it.
    """
    en, ed, tq, ln_tq = _budget(spec, eps)
    den, m = spec.den, spec.size
    if m == 1:
        # single level: the spectrum is uniform on its support and nothing
        # can move; the ball contains no lower-purity spectrum.  The level
        # holds all the mass, so its count (g copies included) is total_dim,
        # whose log2 is +0.0 where a pure state's -log2(1) would read -0.0
        lam = Fraction(1, spec.total_dim)
        return log2_bits(spec.total_dim), WaterfillSolution(0, 0, lam, lam, lam)

    # bottom boundary: raising the levels below r (count C_r, mass W_r times
    # den) to lam_r = w/mult costs s_r = (lam_r*C_r - W_r)/den, so level r
    # fits iff w*C_r <= (tq + W_r)*mult; b_minus is the last level that fits
    b_minus, C, W, _ = _last_fit(
        spec, False, lambda mult, w, C, W: _prod_le(w, C, tq + W, mult),
        _guess(spec, False, lambda lm, lw, lC, lW: lw - lm + lC <= _log_add(ln_tq, lW)),
    )
    # top scan, mirrored: lowering the Ct top levels (mass T) to lam = w/mult
    # costs (T - lam*Ct)/den, and a level stops it iff lam*Ct < T - tq
    top, Ct, T, _ = _last_fit(
        spec, True, lambda mult, w, C, W: not _prod_le(w, C, W - tq - 1, mult),
        _guess(spec, True, lambda lm, lw, lC, lW: lW <= _log_add(ln_tq, lw - lm + lC)),
    )

    # the leftover budget sets the flat values: x = (W/den + eps)/(C*g) and
    # y = (T/den - eps)/(Ct*g), here over the common factor ed*den*g
    X, Y, g = en * den + ed * W, ed * T - en * den, spec.g
    x, y = partial(_ratio, X, ed, den, g, C), partial(_ratio, Y, ed, den, g, Ct)
    # x >= y; Y > 0, as the top scan stops only past the budget (T > tq) or at den
    if _prod_le(Y, C, X, Ct):
        raise EpsilonTooLargeError(x(), y())
    mid = _Middle(spec, b_minus + 1, top)  # the untouched middle
    terms, dens = (X, Y, C, Ct, mid, ed * ed), (ed, ed, den, den, g)
    purity = partial(_purity, terms, dens)
    ed_factors = small_factors(ed)
    tables = (ed_factors, ed_factors, spec.den_factors, spec.den_factors, spec.g_factors)
    bits = _purity_log2(terms, dens, tables)
    if bits is None:  # not certified: the witness's own exact path
        purity = purity()
        bits = log2_bits(purity)
    return -bits, WaterfillSolution(
        b_minus=b_minus, b_plus=m - 1 - top, x=x, y=y, purity=purity
    )


class _Middle:
    """s2's untouched middle, moment(lo, hi, 2) of spec, as a lazy value:
    `exact` sums it on first read, for the purity witness and the
    fallbacks.  Until then `view` reads it through one residue pass, taken
    on first use, and `enc` through an enclosure summed from its largest
    terms; once it is summed, both read that sum."""

    def __init__(self, spec: CompressedSpectrum, lo: int, hi: int):
        self.spec, self.window, self.residues = spec, (lo, hi, 2), None

    @cached_property
    def exact(self) -> int:
        return self.spec.moment(*self.window)

    def floor(self, p: int) -> int:
        """A lower bound on v_p(mid), from the window's ends."""
        return self.spec._moment_floor(*self.window, p)

    def view(self, p: int, primes) -> tuple:
        """(v_p(mid), unit) for `_valuation` (`_adic`), off the residue pass
        (`spec._moment_mod`) modulo prod(p^_DIGITS) over the primes, times
        the other primes' shifts modulo p^_DIGITS, or off `exact`: once it
        is summed, where that is 0 (it says too little of v_p), and for
        unit digits past the residue's."""
        def exact() -> tuple:
            return _adic(self.exact, p)
        if "exact" not in vars(self):
            if self.residues is None:
                self.residues = self.spec._moment_mod(*self.window, primes, _DIGITS)
            (R, shifts), q = self.residues, p**_DIGITS
            if r := R * math.prod(pow(s, v, q) for s, v in shifts.items() if s != p) % q:
                vr, unit = _adic(r, p)  # mid / p^shift, to _DIGITS - vr digits
                return shifts[p] + vr, lambda J: (unit if J <= _DIGITS - vr else exact()[1])(J)
        return exact()

    def enc(self, prec: int) -> _Enc:
        """An enclosure of mid to prec bits (`spec._moment_enc`)."""
        return (_Enc(self.exact, prec) if "exact" in vars(self)
                else self.spec._moment_enc(*self.window, prec))


def _numerator(X, Y, C, Ct, mid, ed2):
    """s2's purity numerator N = X^2*Ct + Y^2*C + mid*ed^2*C*Ct, of ints
    or of their enclosures alike."""
    return X * X * Ct + Y * Y * C + mid * ed2 * C * Ct


def _products(X, Y, C, Ct, mid, ed2):
    """The factors of `_numerator`'s three products, of any one reading of
    the terms: their valuations, which the products sum, or their units."""
    return (X, X, Ct), (Y, Y, C), (mid, ed2, C, Ct)


def _purity(terms, dens) -> Fraction:
    """s2's purity g*C*x^2 + mid/(g*den^2) + g*Ct*y^2: N over (ed*den)^2 *
    g * C*Ct, for terms (X, Y, C, Ct, mid, ed^2), mid a `_Middle`, and
    dens (ed, ed, den, den, g)."""
    X, Y, C, Ct, mid, ed2 = terms
    return _ratio(_numerator(X, Y, C, Ct, mid.exact, ed2), *dens, C, Ct)


def _adic(t: int, p: int) -> tuple:
    """(v, unit) for an int t >= 0 and a prime p: v = v_p(t) and unit(J) =
    t / p^v modulo p^J.  v and the unit are read off r = t modulo
    p^(_DIGITS // 2) as far as it goes, then modulo p^(v+J); where v
    reaches that, r is 0 and t is divided in full (`_strip`), once."""
    if not (r := t % p ** (_DIGITS // 2)):
        v, u = _strip(t, p, math.inf)
        return v, lambda J: u % p**J
    v = _strip(r, p, _DIGITS // 2)[0]
    return v, lambda J: (r if v + J <= _DIGITS // 2 else t) % p ** (v + J) // p**v


def _valuation(p: int, cap: int, terms, mid) -> int:
    """min(v_p(N), cap) for s2's purity numerator N, from its terms X, Y,
    C, Ct and ed^2, each given as (v, unit): v = v_p(term), inf for a term
    0, and unit(J) the term over p^v modulo p^J; and from mid = (floor,
    read), floor <= v_p(mid) and read() its (v, unit).  m is the least
    valuation of N's three products, and N/p^m is read modulo p^J off the
    units, J doubling from _DIGITS // 2 until the residue is nonzero or m + J
    reaches cap.  So a residue stays as wide as the part of v_p(N) past m,
    not v_p(N) itself, which is about 3n at large d.  A product j past m
    reads its units to J - j digits, and one J or more past m drops out
    unread; mid's is taken at its floor until then, so mid is read only
    where its product could count."""
    (vx, ux), (vy, uy), (vc, uc), (vt, ut), (ve, ue) = terms
    (vm, um), J = (mid[0], None), _DIGITS // 2
    while True:
        vals = _products(vx, vy, vc, vt, vm, ve)  # each product is p^v times its units
        products = [(sum(v), u) for v, u in zip(vals, _products(ux, uy, uc, ut, um, ue))]
        m = min(v for v, _ in products)
        if m >= cap:
            return cap
        J = min(J, cap - m)
        if um is None and products[2][0] - m < J:
            vm, um = mid[1]()
            continue
        r = sum(p ** (v - m) * math.prod(u(J - v + m) for u in units)
                for v, units in products if v - m < J) % p**J
        if r or J == cap - m:
            return m + _strip(r, p, J)[0]
        J *= 2


def _purity_log2(terms, dens, tables) -> float | None:
    """log2_bits(_purity(terms, dens)), certified without forming N or
    reducing it, or None when it is not certified.  The tables are
    `small_factors` of dens, and reducing divides N and the denominator
    prod(dens)*C*Ct by K = prod(p^k_p) * h: k_p = min(v_p(N), e_p +
    v_p(C*Ct)) for each known prime p of exponent e_p in the tables
    (`_valuation`), and h the gcd of N with rest, C*Ct over those primes'
    powers in it.  X, Y, C, Ct and ed^2 are read p-adically (`_adic`), and
    mid only where `_valuation` asks.  Since the mid term vanishes modulo
    C*Ct, N = Ct*(X^2 mod C) + C*(Y^2 mod Ct) modulo rest.
    N and the denominator are enclosed (`_Enc`) to _GUARD bits and divided
    by K exactly (`/`, which keeps those bits), and the two quotients' ends
    read the reduced pair's bit lengths and top bits.

    The middle is read through its residues (`_Middle.view`) and an
    enclosure (`_Middle.enc`), or summed first where the `_CHEAP` rule
    holds on a lower bound on K's width, from the terms' valuations and
    the middle's floors (`_Middle.floor`).  None when a table's rest is
    not 1, when the ends differ in those bits, or when log2_bits would
    take its branch near 1."""
    if any(rest != 1 for _, rest in tables):
        return None
    primes = {}
    for table, _ in tables:
        for p, e in table.items():
            primes[p] = primes.get(p, 0) + e
    X, Y, C, Ct, mid, ed2 = terms
    views = {p: [_adic(t, p) for t in (X, Y, C, Ct, ed2)] for p in primes}
    caps = {p: e + views[p][2][0] + views[p][3][0] for p, e in primes.items()}
    floors, low = {p: mid.floor(p) for p in primes}, _GUARD  # plus K's width from below
    for p, cap in caps.items():
        vx, vy, vc, vt, ve = (v for v, _ in views[p])
        low += math.log2(p) * min(cap, *map(sum, _products(vx, vy, vc, vt, floors[p], ve)))
    if low * _CHEAP > mid.spec.den.bit_length():
        mid.exact  # summed, where it costs less than the residues and the enclosure
    K = 1
    for p, cap in caps.items():
        K *= p ** _valuation(p, cap, views[p], (floors[p], partial(mid.view, p, primes)))
    rest = big_divmod(C * Ct, math.prod(p ** (caps[p] - e) for p, e in primes.items()))[0]
    xm, ym = big_divmod(X, C)[1], big_divmod(Y, Ct)[1]
    r = Ct * big_divmod(xm * xm, C)[1] + C * big_divmod(ym * ym, Ct)[1]
    K *= math.gcd(big_divmod(r, rest)[1], rest)
    encs = [_Enc(v, _GUARD) for v in (X, Y, C, Ct)]
    num = (_numerator(*encs, mid.enc(_GUARD), _Enc(ed2, _GUARD)) / K).top()
    den = (math.prod((_Enc(v, _GUARD) for v in (*dens, C, Ct)), start=_Enc(1, _GUARD)) / K).top()
    if num is None or den is None:
        return None
    if den[0] + den[1].bit_length() < num[0] + num[1].bit_length() + 2:
        return None  # the purity may lie above 1/4: log2_bits' branch near 1
    return _log2_tops(num, den)


def h0_smooth(spec: CompressedSpectrum, eps) -> tuple[float, SupportCutResult]:
    """Smoothed conditional support: log2 of the smallest number of strings
    whose total conditional probability reaches 1 - eps.

    Accumulates distinct probabilities from the top until their mass reaches
    1 - eps, then gives back floor((s_b - (1-eps))/p_b) strings of the last
    (smallest) included probability: the support cut that s0_smooth
    mirrors, H0 and S0 being one smoothed max-entropy.
    """
    b, k, U = _support_cut(spec, _budget(spec, eps))
    s_b = partial(_ratio, U, spec.den)
    return log2_bits(k), SupportCutResult(b=b, k=k, s_b=s_b)

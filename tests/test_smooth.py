import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction as F
from functools import partial
from statistics import NormalDist
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import forget_points
from listed import ListedSpectrum
from oracle import brute_h0, brute_s0, expand, waterfill_scan
from test_spectra import _windows, valid_params
from finitekey import smooth
from finitekey.kernel import _strip, log2_bits
from finitekey.keyrate import THRESHOLD_TOL, key_length
from finitekey.smooth import (
    EpsilonTooLargeError,
    RankTrimResult,
    SupportCutResult,
    WaterfillSolution,
    _prod_le,
    h0_smooth,
    s0_smooth,
    s2_smooth,
)
from finitekey.spectra import (
    CompressedSpectrum,
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)


def params(d=2, n=1, beta0=F(9, 10), epsilon=F(1, 2)):
    return ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)


# --- comparison shortcut -----------------------------------------------------

def _near_powers(bits):
    # values around powers of two, where bit-length bounds are tightest
    return st.integers(0, bits).flatmap(
        lambda k: st.integers(max(0, 2**k - 3), 2**k + 3)
    )


@given(_near_powers(200), _near_powers(200), st.integers(-5, 2**200), _near_powers(200))
@settings(max_examples=300, deadline=None)
def test_prod_le_matches_exact_products(a, b, c, d):
    d = max(d, 1)
    assert _prod_le(a, b, c, d) == (a * b <= c * d)


# --- s0 ---------------------------------------------------------------------

def test_s0_example():
    bits, tr = s0_smooth(eve_spectrum(params()), F(3, 25))
    assert bits == 1.0
    assert (tr.b, tr.k, tr.remaining_rank, tr.s_b) == (0, 2, 2, F(0))


def test_s0_zero_eps_is_rank():
    p = params(n=3)
    bits, tr = s0_smooth(eve_spectrum(p), 0)
    assert bits == 6.0  # 2n log2 d
    assert tr.k == 0
    # zero levels of the xe spectrum never count toward rank
    bits_xe, tr_xe = s0_smooth(xe_spectrum(p), 0)
    assert tr_xe.remaining_rank == 2 ** (2 * 3)
    assert bits_xe == 6.0


def test_s0_beta0_one():
    assert s0_smooth(eve_spectrum(params(beta0=F(1))), F(1, 10))[0] == 0.0


def test_s0_deep_removal_partial_level():
    # remove the whole bottom level and part of the next
    spec = ListedSpectrum.from_levels([(F(1, 16), 4), (F(1, 8), 2), (F(1, 2), 1)])
    bits, tr = s0_smooth(spec, F(3, 8))
    # 4/16 = 1/4 <= 3/8, then (3/8 - 1/4) / (1/8) = 1 entry of the next level
    assert tr.b == 1 and tr.k == 5 and tr.remaining_rank == 2
    assert tr.s_b == F(1, 4)
    assert bits == 1.0


@pytest.mark.parametrize("eps", [F(-1, 10), F(1), F(3, 2)])
def test_s0_eps_domain(eps):
    with pytest.raises(ValueError):
        s0_smooth(eve_spectrum(params()), eps)


# --- s2 ---------------------------------------------------------------------

def test_s2_example():
    bits, sol = s2_smooth(xe_spectrum(params()), F(1, 10))
    assert (sol.b_minus, sol.b_plus) == (0, 0)
    assert sol.x == F(1, 40) and sol.y == F(2, 5)
    assert sol.purity == F(131, 400)
    assert bits == pytest.approx(-math.log2(0.3275), abs=1e-12)


def test_s2_zero_eps_closed_form():
    for d, n, b0 in [(2, 1, F(9, 10)), (2, 3, F(17, 20)), (3, 2, F(19, 20))]:
        p = params(d=d, n=n, beta0=b0)
        _, sol = s2_smooth(xe_spectrum(p), 0)
        b1 = (1 - b0) / (d - 1)
        assert sol.purity == (b0**2 + (d - 1) * b1**2) ** n / F(d) ** n


def test_s2_beta0_one_uniform():
    # perfect correlations: a zero level plus a flat level at d^-n
    bits, sol = s2_smooth(xe_spectrum(params(n=3, beta0=F(1))), 0)
    assert bits == 3.0
    assert (sol.x, sol.y, sol.purity) == (F(0), F(1, 8), F(1, 8))


def test_s2_nontrivial_b_minus():
    # two nonzero levels fully raised before the budget runs out
    spec = xe_spectrum(params(n=2))
    bits, sol = s2_smooth(spec, F(1, 2))
    assert (sol.b_minus, sol.b_plus) == (1, 0)
    assert sol.x == F(51, 5200) and sol.y == F(31, 400)
    assert sol.purity == waterfill_scan(spec.levels, F(1, 2))


def test_s2_crossing_error():
    spec = ListedSpectrum.from_levels([(F(1, 4), 2), (F(1, 2), 1)])
    with pytest.raises(EpsilonTooLargeError, match="epsilon too large for spectrum"):
        s2_smooth(spec, F(9, 10))


def test_s2_crossing_error_at_any_size():
    """x and y too long to print in decimal still raise the typed error,
    with the exact values kept on it."""
    D = 4 * 3**10000
    spec = ListedSpectrum.from_levels([(F(1, 4) - F(1, D), 1), (F(3, 4) + F(1, D), 1)])
    with pytest.raises(EpsilonTooLargeError, match="epsilon too large for spectrum") as exc:
        s2_smooth(spec, F(1, 3))
    assert (exc.value.x, exc.value.y) == (F(7, 12) - F(1, D), F(5, 12) + F(1, D))
    assert pickle.loads(pickle.dumps(exc.value)).args == exc.value.args


def test_s2_single_level_never_errors():
    spec = ListedSpectrum.from_levels([(F(1, 4), 4)])
    for eps in (0, F(1, 100), F(99, 100)):
        bits, sol = s2_smooth(spec, eps)
        assert sol.purity == F(1, 4) and bits == 2.0
    # a pure state, listed or a family at beta0 = 1: S2 is +0.0, not -0.0
    for spec in (ListedSpectrum.from_levels([(F(1), 1)]),
                 eve_spectrum(params(d=3, n=4, beta0=F(1), epsilon=F(1, 10)))):
        bits, sol = s2_smooth(spec, F(1, 100))
        assert sol.purity == 1 and bits == 0.0 and math.copysign(1.0, bits) == 1.0


@pytest.mark.parametrize("eps", [F(-1, 10), F(1), F(3, 2)])
def test_s2_eps_domain(eps):
    with pytest.raises(ValueError):
        s2_smooth(xe_spectrum(params()), eps)


# --- h0 ---------------------------------------------------------------------

def test_h0_example():
    bits, tr = h0_smooth(conditional_spectrum(params(n=2)), F(1, 20))
    assert (tr.b, tr.k, tr.s_b) == (2, 3, F(99, 100))
    assert bits == pytest.approx(math.log2(3), abs=1e-13)


def test_h0_zero_eps_full_support():
    assert h0_smooth(conditional_spectrum(params(n=3)), 0)[0] == 3.0


def test_h0_beta0_one():
    assert h0_smooth(conditional_spectrum(params(beta0=F(1))), F(1, 2))[0] == 0.0


@pytest.mark.parametrize("eps", [F(-1, 10), F(1)])
def test_h0_eps_domain(eps):
    with pytest.raises(ValueError):
        h0_smooth(conditional_spectrum(params()), eps)


# --- monotonicity and ordering ----------------------------------------------

EPS_GRID = [F(0), F(1, 1000), F(1, 100), F(1, 20), F(1, 10), F(1, 4)]


def test_monotone_in_eps():
    ev = eve_spectrum(params(n=3))
    xe = xe_spectrum(params(n=3))
    cond = conditional_spectrum(params(n=3))
    s0s = [s0_smooth(ev, e)[0] for e in EPS_GRID]
    s2s = [s2_smooth(xe, e)[0] for e in EPS_GRID]
    h0s = [h0_smooth(cond, e)[0] for e in EPS_GRID]
    assert all(a >= b for a, b in zip(s0s, s0s[1:]))
    assert all(a <= b for a, b in zip(s2s, s2s[1:]))
    assert all(a >= b for a, b in zip(h0s, h0s[1:]))
    assert all(s <= s0s[0] for s in s0s)
    assert all(s >= s2s[0] for s in s2s)


# --- exact budget accounting -------------------------------------------------

def _reconstruct(spec, sol):
    levels = spec.levels
    m = len(levels)
    out = []
    for i, (v, mult) in enumerate(levels):
        if i <= sol.b_minus:
            out.append((sol.x, v, mult))
        elif i >= m - 1 - sol.b_plus:
            out.append((sol.y, v, mult))
        else:
            out.append((v, v, mult))
    return out


@pytest.mark.parametrize("eps", [F(0), F(1, 100), F(1, 10), F(1, 4)])
def test_s2_budgets_bind_exactly(eps):
    spec = xe_spectrum(params(n=2))
    _, sol = s2_smooth(spec, eps)
    mu = _reconstruct(spec, sol)
    assert sum(m * u for u, _, m in mu) == 1
    raised = sum(m * (u - v) for u, v, m in mu if u > v)
    lowered = sum(m * (v - u) for u, v, m in mu if u < v)
    assert raised == eps and lowered == eps
    assert sum(m * abs(u - v) for u, v, m in mu) == 2 * eps
    # sortedness of the deformed spectrum
    flat = [u for u, _, m in mu for _ in range(m)]
    assert flat == sorted(flat)
    assert sol.purity == sum(m * u * u for u, _, m in mu)


# --- random-spectrum dual-route checks ---------------------------------------

@st.composite
def small_spectrum(draw):
    k = draw(st.integers(1, 5))
    nums = sorted(draw(st.lists(st.integers(1, 60), min_size=k, max_size=k, unique=True)))
    mults = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    total_mass = sum(a * m for a, m in zip(nums, mults))
    levels = [(F(a, total_mass), m) for a, m in zip(nums, mults)]
    zeros = draw(st.integers(0, 3))
    if zeros:
        levels = [(F(0), zeros)] + levels
    return ListedSpectrum.from_levels(levels)


@given(small_spectrum(), st.integers(0, 99))
@settings(max_examples=150, deadline=None)
def test_s2_matches_exhaustive_scan(spec, eps_num):
    eps = F(eps_num, 100)
    try:
        _, sol = s2_smooth(spec, eps)
    except EpsilonTooLargeError:
        return
    assert sol.purity == waterfill_scan(spec.levels, eps)


@given(small_spectrum(), st.integers(0, 99))
@settings(max_examples=150, deadline=None)
def test_s0_matches_brute_force(spec, eps_num):
    eps = F(eps_num, 100)
    _, tr = s0_smooth(spec, eps)
    assert tr.remaining_rank == brute_s0(expand(spec), eps)


# --- closed-form families against explicit rebuilds --------------------------

@st.composite
def family_params(draw, max_n=12):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(3, 40))
    p = draw(st.integers(q // d + 1, q - 1))
    return ProtocolParams(d=d, n=n, beta0=F(p, q), epsilon=F(1, 2))


def _scan(fn, spec, eps):
    try:
        return fn(spec, eps)
    except EpsilonTooLargeError as exc:
        return exc.x, exc.y


def _mass_on_top(p):
    # eve's level masses are binomial in l; their mean lies above the middle
    # level iff beta0 > (d+2)/(2(d+1))
    return p.beta0 > F(p.d + 2, 2 * (p.d + 1))


@pytest.mark.parametrize("mass_on_top", [True, False])
@given(
    family_params(),
    st.one_of(
        st.integers(0, 99).map(lambda k: F(k, 100)),
        st.sampled_from([F(1, 10**6), F(1, 640000)]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_family_scans_match_explicit_rebuilds(mass_on_top, p, eps):
    """Every scan over a closed-form family gives the witness it gives over
    the same levels stored as explicit lists, with the family's mass on
    either side of its middle level."""
    assume(_mass_on_top(p) == mass_on_top)
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        plain = ListedSpectrum.from_levels(spec.levels)
        for fn in (s0_smooth, s2_smooth, h0_smooth):
            assert _scan(fn, spec, eps) == _scan(fn, plain, eps)


# --- the predicted and certified bottom boundary of s2 ----------------------

def _reference_bottom_walk(spec, eps):
    """(b_minus, x) from s2's bottom scan walked level by level from the
    bottom: an independent route to the boundary s2_smooth certifies."""
    den = spec.den
    en, ed = eps.numerator, eps.denominator
    tq = en * den // ed
    levels = map(spec.level, range(spec.size))
    C, W = next(levels)
    b_minus = 0
    for mult, w in levels:
        if not _prod_le(w, C, tq + W, mult):
            break
        b_minus += 1
        C += mult
        W += w
    return b_minus, F(en * den + ed * W, ed * den * C)


def _bottom_budgets(levels):
    """Budgets that tie the bottom scan: every raise cost s_r < 1 and every
    cumulative bottom mass below 1, plus 0 and 10^-30."""
    out, C, W = [F(0), F(1, 10**30)], 0, F(0)
    for v, m in levels:
        out += [s for s in (v * C - W, W) if s < 1]
        C, W = C + m, W + v * m
    return out


@given(family_params(max_n=30), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_s2_matches_reference_bottom_walk(p, rebuild, data):
    for family in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        # the reference walks explicit levels (degeneracy 1)
        plain = ListedSpectrum.from_levels(family.levels)
        spec = plain if rebuild else family
        eps = data.draw(st.sampled_from(_bottom_budgets(plain.levels)))
        b_minus, x = _reference_bottom_walk(plain, eps)
        try:
            _, sol = s2_smooth(spec, eps)
        except EpsilonTooLargeError as exc:
            assert exc.x == x
        else:
            assert (sol.b_minus, sol.x) == (b_minus, x)


def _instrumented(fn, spec, eps, forced=None, read=()):
    """The record of fn(spec, eps): its `result`, or its
    EpsilonTooLargeError as (x, y), and what its scans read.  `points`
    lists every point read (`point`) as (i, kind, the windows it summed),
    kind "end" where it sums a window from an end of the family (`moment`)
    for a count or a mass, "gap" where it sums none but a gap from a kept
    point (`_gap`), "hit" where both are kept and "zero" for the zero
    level.  `searches` has an entry per `_last_fit` call (reverse, taken,
    fits, its `points`, their count `reads`, the `ends` (end reads),
    windows, gaps and hits among them, the levels `kept` in either of the
    spectrum's point stores as it starts and the `last` level it takes),
    and `guesses` one per `_guess` call
    (reverse, `log_moment` reads and exact reads: a point, a level, a
    summed window or a gap).  `windows` lists every window summed term by
    term (`_window`) as (lo, hi, k, the k of each `math.comb` it takes);
    `residues` lists so every residue pass (`_moment_mod`), and
    `enclosures` every `_moment_enc` call, its prec after k.  `gaps` lists
    every gap as (the kept level, the level, the `math.comb`s taken).
    `forced` maps a guess's index to the count that guess returns in place
    of its own; a forced guess is recorded too.  `read` names witness
    fields read after fn returns, still recorded: `returned` counts the
    windows summed before they are read."""
    search, guess, comb, forced = smooth._last_fit, smooth._guess, math.comb, forced or {}
    names = [name for name in ("point", "level", "_window", "_gap", "_moment_mod",
                               "_moment_enc", "log_moment") if hasattr(spec, name)]
    reads, counts = {name: getattr(spec, name) for name in names}, dict.fromkeys(names, 0)
    rec, combs = SimpleNamespace(searches=[], guesses=[], points=[], windows=[], residues=[],
                                 enclosures=[], gaps=[]), []
    logs = {"_window": (rec.windows, 3), "_moment_mod": (rec.residues, 3),
            "_moment_enc": (rec.enclosures, 4)}  # each log and the arguments it keeps
    z, stores = getattr(spec, "z", 0), getattr(spec, "_stores", ())

    def counted(name, *args):
        counts[name] += 1
        start, windows, before = len(combs), len(rec.windows), dict(counts)
        value = reads[name](*args)
        if name in logs:
            log, kept_args = logs[name]
            log.append((*args[:kept_args], combs[start:]))
        if name == "_gap":  # family indices, as levels
            rec.gaps.append((args[1] + z, args[3] + z, combs[start:]))
        if name == "point":
            kind = ("zero" if args[0] < z else "end" if len(rec.windows) > windows else
                    "gap" if counts.get("_gap", 0) > before.get("_gap", 0) else "hit")
            rec.points.append(SimpleNamespace(i=args[0], kind=kind,
                                              windows=rec.windows[windows:]))
        return value

    def recorded_comb(n, k):
        combs.append(k)
        return comb(n, k)

    def searched(spec, reverse, fits, taken=0):
        start, gaps, points = len(rec.points), len(rec.gaps), sorted(
            {l + z for store in stores for l in store})
        found = search(spec, reverse, fits, taken)
        read = rec.points[start:]
        rec.searches.append(SimpleNamespace(
            reverse=reverse, taken=taken, fits=fits, points=read, reads=len(read),
            ends=sum(r.kind == "end" for r in read), windows=[w for r in read for w in r.windows],
            gaps=rec.gaps[gaps:], hits=sum(r.kind == "hit" for r in read), kept=points,
            last=found[0]))
        return found

    def guessed(spec, reverse, fits):
        before, index = dict(counts), len(rec.guesses)
        found = forced[index] if index in forced else guess(spec, reverse, fits)
        read = {name: counts[name] - before[name] for name in names}
        rec.guesses.append(SimpleNamespace(
            reverse=reverse, logs=read.pop("log_moment"), exact=sum(read.values())))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smooth, "_last_fit", searched)
        patch.setattr(smooth, "_guess", guessed)
        patch.setattr(math, "comb", recorded_comb)
        for name in names:
            patch.setattr(spec, name, partial(counted, name))
        rec.result = _scan(fn, spec, eps)
        rec.returned = len(rec.windows)
        for field in read:
            getattr(rec.result[1], field)
    return rec


@pytest.mark.parametrize("guess", ["bottom", "top", "below", "above"])
def test_s2_corrects_forced_misses(guess):
    """A wrong float guess, too low or too high, is corrected exactly from
    the guessed level's point.  b_minus lies above half the levels at
    49/50 and below it at 8911/10000, so on a fresh spectrum the point of
    a guess next to it ("below", "above") sums the levels from the top in
    one and from the bottom in the other.  On a family that keeps points
    from another budget's scan, that point is one of those or summed from
    the nearest, with no `math.comb`, and s2 returns the same."""
    cases = []
    for beta0 in (F(49, 50), F(8911, 10000)):
        family = partial(xe_spectrum, params(n=120, beta0=beta0))
        for fresh in (family, partial(ListedSpectrum.from_levels, family().levels)):
            spec = fresh()
            b = s2_smooth(spec, F(1, 640000))[1].b_minus
            assert (2 * (b + 1) > spec.size) == (beta0 == F(49, 50))
            below = spec.levels[:b]
            tie = spec.levels[b][0] * sum(m for _, m in below) - sum(v * m for v, m in below)
            for eps in (F(1, 640000), tie):  # tie: raising the levels below b costs eps
                cases.append((fresh, eps, s2_smooth(fresh(), eps)))
    firsts, gaps = [], []
    for fresh, eps, want in cases:
        b, m = want[1].b_minus, fresh().size
        assert 3 <= b <= m - 4
        forced = {"bottom": 0, "top": m - 1, "below": b - 3, "above": b + 3}[guess]
        from_top = 2 * forced > m
        if guess in ("below", "above"):
            assert from_top == (2 * (b + 1) > m)
        forget_points()  # s2 guesses its bottom boundary first
        rec = _instrumented(s2_smooth, fresh(), eps, forced={0: forced + 1})
        assert rec.result == want
        assert [g.reverse for g in rec.guesses] == [False, True]  # then the top scan
        side = (forced, m) if from_top else (0, forced)
        first = rec.searches[0].points[0]  # the guessed level's point; xe's zero level sums none
        assert first.i == forced and first.kind in ("end", "zero")
        summed = [(*side, k) for k in (0, 1)] if first.kind == "end" else []
        assert [w[:3] for w in first.windows] == summed
        spec = fresh()
        s2_smooth(spec, F(1, 10**9))  # keeps its boundaries' points, b_minus below b
        rec = _instrumented(s2_smooth, spec, eps, forced={0: forced + 1})
        assert rec.result == want
        firsts.append((not isinstance(spec, ListedSpectrum), rec.searches[0].points[0].kind))
        gaps += rec.gaps
    if guess in ("below", "above"):  # each family case reads its guess from a kept point
        assert all((kind in ("gap", "hit")) == family for family, kind in firsts)
        assert all(not combs for *_, combs in gaps)


def test_s2_bottom_boundary_walks_a_handful_of_levels():
    """Cost guard: the bottom boundary of the n=1e4 anchor point (about
    6,500 levels up) is found without reading the levels up to it.  Both
    searches, the top scan's included, read at most 5 levels' points
    (`point`)."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    rec = _instrumented(s2_smooth, xe_spectrum(p), p.epsilon_prime)
    assert rec.result[1].b_minus == 6487
    assert sum(s.reads for s in rec.searches) <= 5


def test_s2_bottom_sums_take_the_shorter_side():
    """Cost guard: at the n=1e4 anchor the count and mass below b_minus
    (about 65% of the levels), and those above the top scan's boundary, are
    each summed over at most half the levels."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    spec = xe_spectrum(p)
    m, rec = spec.size, _instrumented(s2_smooth, spec, p.epsilon_prime)
    spans = [min(hi, m) - max(lo, 0) for lo, hi, k, _ in rec.windows if k < 2]
    assert len(spans) == 4
    assert all(span <= (m + 1) // 2 for span in spans)


def test_s2_middle_takes_the_shorter_side_at_large_d():
    """Cost guard: at d=64, n=2000, beta0=99/100 the untouched middle holds
    more than half the levels, and every k = 2 window s2 sums spans at
    most half of them: the middle is the squares' total less the rest."""
    p = ProtocolParams(d=64, n=2000, beta0=F(99, 100), epsilon=F(1, 100))
    spec = xe_spectrum(p)
    m, rec = spec.size, _instrumented(s2_smooth, spec, p.epsilon_prime)
    b_minus, b_plus = rec.result[1].b_minus, rec.result[1].b_plus
    assert 2 * (m - 2 - b_minus - b_plus) > m
    spans = [min(hi, m) - max(lo, 0) for lo, hi, k, _ in rec.windows if k == 2]
    assert spans and all(span <= (m + 1) // 2 for span in spans)


def test_walked_boundaries_correct_forced_misses():
    """The support cut (s0) and s2's top scan, searched from a wrong guess
    of 1, true - 3, true + 3 or all m levels, return what their unguessed
    scan from the top returns, on families (xe with its zero level) and
    their explicit rebuilds.  Each boundary lies past half the levels in
    some cases (beta0 = 3/5) and below it in others (8911/10000), so the
    guesses next to it sum the complement in some and the guessed levels in
    others.  Each search starts from a fresh spectrum and, on the families,
    again from one that keeps the points of a scan at the other budget."""
    sides = {s0_smooth: set(), s2_smooth: set()}
    budgets = (F(1, 100), F(1, 2))
    for beta0 in (F(3, 5), F(8911, 10000)):
        for build in (eve_spectrum, xe_spectrum):
            family = partial(build, params(n=120, beta0=beta0))
            for fresh in (family, partial(ListedSpectrum.from_levels, family().levels)):
                for eps, fn in itertools.product(budgets, sides):
                    searches = _instrumented(fn, fresh(), eps).searches
                    assert all(s.taken for s in searches)  # every boundary is guessed
                    [top] = [s for s in searches if s.reverse]  # searched from the top
                    want, m = smooth._last_fit(fresh(), True, top.fits), fresh().size
                    true = m - want[0]  # levels taken from the top
                    assert 4 <= true <= m - 3
                    sides[fn].add(2 * true > m)
                    for taken, other in itertools.product((1, true - 3, true + 3, m), budgets):
                        spec = fresh()
                        if other != eps:  # a scan at the other budget keeps its points
                            _scan(fn, spec, other)
                        assert smooth._last_fit(spec, True, top.fits, taken) == want
    assert sides == {s0_smooth: {True, False}, s2_smooth: {True, False}}


def _read_past_guesses(fn, spec, eps):
    """(reverse, levels read past the guess) for each boundary search of
    fn(spec, eps), and whether each sums its guess in one count window and
    one mass window.  A search reads the points of the last guessed level
    and the next one, which certify the guess, and one more per level it
    missed."""
    return [(s.reverse, s.reads - 2, [k for _, _, k, _ in s.windows] == [0, 1])
            for s in _instrumented(fn, spec, eps).searches]


def test_guessed_boundaries_walk_a_handful_of_levels():
    """Cost guard: at the n=1e4 anchor the support cut (s0 on eve, h0 on
    cond) and both s2 boundaries each read at most 3 levels past their
    float guess, after one window sum each for its count and mass."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    for fn, build, sides in ((s0_smooth, eve_spectrum, [True]),
                             (h0_smooth, conditional_spectrum, [True]),
                             (s2_smooth, xe_spectrum, [False, True])):
        forget_points()  # xe shares cond's stores
        log = _read_past_guesses(fn, build(p), p.epsilon_prime)
        assert [reverse for reverse, _, _ in log] == sides
        assert all(past <= 3 and summed for _, past, summed in log)


def test_searches_read_one_level_and_sum_from_the_nearer_end():
    """Cost guard: at the n=1e4 anchor each of the four boundary searches
    (the support cut on eve and on cond, both s2 boundaries on xe) makes
    one end read, its count and mass windows from an end and one
    closed-form `level`, and reads every other point from a kept one.
    Each window takes its one `math.comb` at the family end nearer to it:
    C(n, 0) for the eight windows anchored at an end, and C(n, min(lo,
    n+1-hi)) in family indices for the residue pass over s2's middle, which
    lies near the top.  The middle's enclosure, at _GUARD bits, starts at
    its top term, the largest, and no exact sum of it is taken."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    n, logs = p.n, []
    for fn, build in ((s0_smooth, eve_spectrum), (h0_smooth, conditional_spectrum),
                      (s2_smooth, xe_spectrum)):
        forget_points()  # xe shares cond's stores
        spec = build(p)
        rec = _instrumented(fn, spec, p.epsilon_prime)
        logs += rec.searches
        inside = [w for s in rec.searches for w in s.windows]
        assert all(combs == [0] for *_, combs in inside)
        if fn is s2_smooth:
            assert [w for w in rec.windows if w not in inside] == []
            [(lo, hi, k, combs)] = rec.residues
            lo, hi = lo - spec.z, min(hi, spec.size) - spec.z  # family indices
            assert k == 2 and combs == [min(lo, n + 1 - hi)]
            assert 0 < n + 1 - hi < lo
            assert [w[2:] for w in rec.enclosures] == [(2, smooth._GUARD, [hi - 1])]
    assert len(logs) == 4
    assert all(s.ends == 1 for s in logs)
    assert sum(len(s.windows) for s in logs) == 8


def test_later_budgets_start_from_kept_points():
    """Cost guard: at eps-scan's n=1e4 point, once s0 (eve), s2 (xe) and
    h0 (cond) have scanned at budget 1/100, each scan at 10^-6, on the same
    spectra and again on new ones of the same families, sums every
    boundary's count and mass from the nearest kept point, over at most the
    levels between that point and the boundary it finds: no read is an end
    read, and no read takes a `math.comb`."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    for rebuilt, (fn, build, sides) in itertools.product(
            (False, True), ((s0_smooth, eve_spectrum, [True]),
                            (s2_smooth, xe_spectrum, [False, True]),
                            (h0_smooth, conditional_spectrum, [True]))):
        if fn is s0_smooth:  # each round starts from no kept point
            forget_points()
        spec = build(p)
        fn(spec, F(1, 100))
        rec = _instrumented(fn, build(p) if rebuilt else spec, F(1, 10**6))
        assert [s.reverse for s in rec.searches] == sides
        assert [w for w in rec.windows if w[2] < 2] == []
        for s in rec.searches:
            nearest = min(abs(s.last - j) for j in s.kept)
            assert s.ends == 0 and s.windows == [] and (s.gaps or s.hits)
            assert all(abs(x - a) <= nearest and not combs for a, x, combs in s.gaps)


def test_h0_reads_its_cut_from_a_point_s2_kept():
    """Cost guard: at the n=1e4 anchor, h0 on cond after s2 on xe, whose
    families are cond's, reads its support cut from a point that s2 kept:
    its search makes no end read, and its first read is a gap from a level
    kept as it starts."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    s2_smooth(xe_spectrum(p), p.epsilon_prime)
    [cut] = _instrumented(h0_smooth, conditional_spectrum(p), p.epsilon_prime).searches
    assert cut.ends == 0 and cut.windows == []
    assert cut.points[0].kind == "gap" and cut.gaps[0][0] in cut.kept


def _point_reads(p):
    """key_length(p)'s result and what its spectra's points read: the k of
    every window a point sums from an end of its family (`moment`), and of
    every `math.comb` a point takes, where a closed-form `level` takes one
    for a count (k = 0) and a window one for its k."""
    cls, comb = CompressedSpectrum, math.comb
    point, level, window = cls.point, cls.level, cls._window
    depth, ks, windows, combs = [0], [], [], []

    def counted(spec, i):
        depth[0] += 1
        try:
            return point(spec, i)
        finally:
            depth[0] -= 1

    def read(method, k, spec, *args):
        if depth[0] and method is window:
            windows.append(k)
        ks.append(k)
        try:
            return method(spec, *args)
        finally:
            ks.pop()

    def recorded_comb(n, k):
        if depth[0]:
            combs.append(ks[-1])
        return comb(n, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "point", counted)
        patch.setattr(cls, "level", lambda spec, i: read(level, 0, spec, i))
        patch.setattr(cls, "_window", lambda spec, lo, hi, k: read(window, k, spec, lo, hi, k))
        patch.setattr(math, "comb", recorded_comb)
        return key_length(p), windows, combs


@pytest.mark.parametrize("second", ["next lattice point", "second epsilon"])
def test_key_length_reads_the_counts_an_earlier_call_kept(second):
    """Cost guard: after key_length at (2, 3993, 24/25, eps = 1/100), a call
    at the next error rate of `threshold_error_rate`'s lattice shares every
    count family: its points sum no count window from an end and take no
    `math.comb` for a count, and only the masses, of a new family, are
    summed from an end.  A call at a second eps, 10^-6, shares every family
    and sums no window from an end at all.  Each returns what it returns
    on a fresh registry."""
    first = ProtocolParams(d=2, n=3993, beta0=F(24, 25), epsilon=F(1, 100))
    beta0, eps = ((first.beta0 - THRESHOLD_TOL, first.epsilon) if second == "next lattice point"
                  else (first.beta0, F(1, 10**6)))
    p = ProtocolParams(d=2, n=3993, beta0=beta0, epsilon=eps)
    want = key_length(p)
    forget_points()
    key_length(first)
    result, windows, combs = _point_reads(p)
    assert result == want
    if second == "next lattice point":
        assert windows and set(windows) == set(combs) == {1}
    else:
        assert windows == combs == []


def test_s2_forced_far_miss_steps_to_the_boundary():
    """A guess of one level for s2's bottom boundary at the n=1e4 anchor,
    about 6,500 levels short, is corrected by one-level gaps after one end
    read, and s2 returns the witness it returns unforced."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    want = s2_smooth(xe_spectrum(p), p.epsilon_prime)
    # s2 guesses its bottom boundary first
    rec = _instrumented(s2_smooth, xe_spectrum(p), p.epsilon_prime, forced={0: 1})
    assert rec.result == want
    assert [g.reverse for g in rec.guesses] == [False, True] and len(rec.searches) == 2
    bottom = rec.searches[0]
    assert bottom.ends == 1  # at l = 0, past xe's zero level
    assert bottom.reads == want[1].b_minus + 2  # levels 0..b_minus and the first unfit


def test_guesses_bisect_over_log_moments():
    """Cost guard: at the n=1e4 anchor each float guess (the support cut on
    eve and on cond, both s2 boundaries on xe) bisects on the levels its
    scan takes, reading four `log_moment` windows per probe, so it makes at
    most 4 * (ceil(log2(m + 1)) + 1) calls and reads or steps to no level."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    for fn, build, guesses in ((s0_smooth, eve_spectrum, 1),
                               (h0_smooth, conditional_spectrum, 1),
                               (s2_smooth, xe_spectrum, 2)):
        spec = build(p)
        rec = _instrumented(fn, spec, p.epsilon_prime)
        bound = 4 * (math.ceil(math.log2(spec.size + 1)) + 1)
        assert len(rec.guesses) == guesses
        assert all(0 < g.logs <= bound and g.exact == 0 for g in rec.guesses)


@pytest.mark.parametrize("d, n", [(2, 20_000), (3, 10_000)])
@pytest.mark.parametrize("eps", [F(0), F(1, 10**12), F(1, 10**40), 1 - F(1, 10**6)],
                         ids=["0", "1e-12", "1e-40", "1-1e-6"])
def test_top_guesses_do_not_cancel(d, n, eps):
    """Cost guard: the support cut (s0, h0) and s2's top scan are guessed
    from the top without testing 1 - (mass above) in floats, which cancels:
    a guess made that way lands thousands of levels past the boundary for
    a small eps, and eps = 0 guesses against ln 0 = -inf.  Each reads at
    most 3 levels past its guess."""
    p = ProtocolParams(d=d, n=n, beta0=F(49, 50), epsilon=F(1, 100))
    for fn, build in ((s0_smooth, eve_spectrum), (h0_smooth, conditional_spectrum),
                      (s2_smooth, xe_spectrum)):
        tops = [past for reverse, past, _ in _read_past_guesses(fn, build(p), eps)
                if reverse]
        assert len(tops) == 1 and tops[0] <= 3


@st.composite
def spectrum_and_budget(draw):
    """A random explicit or family spectrum, and a budget that is often
    exactly the mass of its lowest levels (a tie at a level boundary)."""
    spec = draw(st.one_of(
        small_spectrum(),
        st.tuples(family_params(max_n=6), st.sampled_from(
            [eve_spectrum, xe_spectrum, conditional_spectrum]
        )).map(lambda pb: pb[1](pb[0])),
    ))
    lows = itertools.accumulate(v * m for v, m in spec.levels)
    cuts = [F(0)] + [c for c in lows if c < 1]
    eps = draw(st.one_of(
        st.sampled_from(cuts), st.integers(0, 99).map(lambda k: F(k, 100))
    ))
    return spec, eps


@given(spectrum_and_budget())
@settings(max_examples=200, deadline=None)
def test_s0_and_h0_are_one_support_cut(spec_eps):
    """The smallest rank after removing mass <= eps is the smallest count of
    eigenvalues with mass >= 1 - eps: the s0 and h0 witnesses mirror each
    other on every spectrum, zero levels included."""
    spec, eps = spec_eps
    bits0, rank = s0_smooth(spec, eps)
    bitsh, cut = h0_smooth(spec, eps)
    assert cut.k == rank.remaining_rank
    assert cut.b + rank.b == spec.size - (1 if spec.zero_mult else 0)
    assert cut.s_b + rank.s_b == 1
    assert bitsh.hex() == bits0.hex()
    if spec.total_dim <= 4096:
        assert cut.k == brute_h0(expand(spec), eps)


# --- second-order envelope --------------------------------------------------

def _second_order(one_copy, n, eps, sign):
    """n*H + sign * sqrt(n*V) * Phi^-1(1 - eps) in bits: the second-order
    expansion of a smoothed entropy of n i.i.d. copies (Hayashi, IEEE TIT 54,
    2008), with H the entropy and V the surprisal variance of the one-copy
    levels."""
    probs = [(float(v), m) for v, m in one_copy.levels if v]
    h = math.fsum(-m * v * math.log2(v) for v, m in probs)
    var = math.fsum(m * v * math.log2(v) ** 2 for v, m in probs) - h * h
    return n * h + sign * math.sqrt(n * var) * NormalDist().inv_cdf(1 - float(eps))


@pytest.mark.parametrize(
    "d, beta0, n, want",
    [
        (2, F(49, 50), 1000, (40.6, -1.2, -2.8)),
        (2, F(49, 50), 10_000, (41.7, -0.6, -5.4)),
        (3, F(49, 50), 1000, (44.5, 1.9, 0.4)),
        (3, F(49, 50), 5000, (45.4, 5.1, -1.7)),
        (2, F(9, 10), 1000, (30.3, -11.9, -12.5)),
        (2, F(9, 10), 10_000, (32.1, -13.1, -14.2)),
    ],
)
def test_second_order_envelope(d, beta0, n, want):
    """Above the oracles' reach the exact entropies stay within 3 bits of
    their measured residual from the second-order estimate: S2 below
    n*H(XE) by the sqrt(n*V) term, S0 and H0 above n*H(E) and n*H(X|Y).
    The residuals are the O(log n) terms; they drift by a few bits per
    decade of n."""
    p = params(d=d, n=n, beta0=beta0, epsilon=F(1, 100))
    one = params(d=d, beta0=beta0)
    eps = p.epsilon_prime
    got = (
        s2_smooth(xe_spectrum(p), eps)[0] - _second_order(xe_spectrum(one), n, eps, -1),
        s0_smooth(eve_spectrum(p), eps)[0] - _second_order(eve_spectrum(one), n, eps, 1),
        h0_smooth(conditional_spectrum(p), eps)[0]
        - _second_order(conditional_spectrum(one), n, eps, 1),
    )
    assert got == pytest.approx(want, abs=3)


# --- randomized commuting-perturbation sanity --------------------------------

def test_random_perturbations_never_beat_minimum():
    """200 random states in the ball: purity and rank can't undercut the
    computed minima."""
    rng = random.Random(42)
    spec = xe_spectrum(params())
    eps = F(1, 10)
    _, sol = s2_smooth(spec, eps)
    dense = expand(spec)
    n = len(dense)
    for _ in range(200):
        raw = [F(rng.randrange(1, 1000), 1000) for _ in range(n)]
        tot = sum(raw)
        mix = [r / tot for r in raw]
        tv = sum(abs(m - v) for m, v in zip(mix, dense))
        if tv > 2 * eps:
            scale = 2 * eps / tv
            mix = [v + scale * (m - v) for m, v in zip(mix, dense)]
        assert sum(mix) == 1
        assert sum(abs(m - v) for m, v in zip(mix, dense)) <= 2 * eps
        assert sum(m * m for m in mix) >= sol.purity

    ev = eve_spectrum(params(n=2))
    eps0 = F(1, 20)
    _, tr = s0_smooth(ev, eps0)
    dense_ev = expand(ev)
    for _ in range(200):
        removable = list(range(len(dense_ev)))
        rng.shuffle(removable)
        mass = F(0)
        kept = len(dense_ev)
        for idx in removable:
            if mass + dense_ev[idx] <= eps0 and kept > 1:
                mass += dense_ev[idx]
                kept -= 1
        assert kept >= tr.remaining_rank


# --- lazy witnesses and the prime-stripped purity ----------------------------

def _fields(w):
    """A witness's class and each field's type and value: what its repr
    shows, without printing ints, which str() refuses past 4300 digits."""
    return type(w), [(type(v), v) for v in (getattr(w, f.name) for f in dataclasses.fields(w))]


def _reference_scans(spec, eps):
    """(s0, s2, h0) as (float.hex, `_fields`) or the error message, from
    level-by-level walks with every rational an eagerly reduced Fraction:
    the scans as they were before their witnesses became integer pairs."""
    levels = [spec.level(i) for i in range(spec.size)]  # (mult, mass) ascending
    den, m = spec.den, len(levels)
    en, ed = eps.numerator, eps.denominator

    # the support cut from the top, for both s0 and h0
    target, U, cnt, b = (ed - en) * den, 0, 0, 0
    for mult, w in reversed(levels):
        U, cnt, b = U + w, cnt + mult, b + 1
        if U * ed >= target:
            break
    kept = cnt - (U * ed - target) // (ed * (w // mult))
    nonzero = m - (1 if spec.zero_mult else 0)
    s0 = log2_bits(kept), RankTrimResult(
        nonzero - b, spec.total_dim - spec.zero_mult - kept, kept, F(den - U, den)
    )
    h0 = log2_bits(kept), SupportCutResult(b, kept, F(U, den))

    if m == 1:
        lam = F(levels[0][1] // levels[0][0], den)
        purity = levels[0][0] * lam * lam
        s2 = -log2_bits(purity), WaterfillSolution(0, 0, lam, lam, purity)
    else:
        tq = en * den // ed
        C = W = 0
        b_minus = -1
        for mult, w in levels:
            if w * C > (tq + W) * mult:
                break
            C, W, b_minus = C + mult, W + w, b_minus + 1
        (Ct, T), b_plus = levels[-1], 0
        for mult, w in reversed(levels[:-1]):
            if w * Ct <= (T - tq - 1) * mult:
                break
            Ct, T, b_plus = Ct + mult, T + w, b_plus + 1
        x = F(en * den + ed * W, ed * den * C)
        y = F(ed * T - en * den, ed * den * Ct)
        if x >= y:
            s2 = x, y
        else:
            mid = sum(mult * (w // mult) ** 2 for mult, w in levels[b_minus + 1 : m - 1 - b_plus])
            purity = C * x * x + F(mid, den * den) + Ct * y * y
            s2 = -log2_bits(purity), WaterfillSolution(b_minus, b_plus, x, y, purity)
    return tuple(
        (out[0].hex(), _fields(out[1])) if isinstance(out[0], float) else out
        for out in (s0, s2, h0)
    )


def _canon_scans(spec, eps):
    out = []
    for fn in (s0_smooth, s2_smooth, h0_smooth):
        try:
            bits, w = fn(spec, eps)
        except EpsilonTooLargeError as exc:
            out.append((exc.x, exc.y))
        else:
            out.append((bits.hex(), _fields(w)))
    return tuple(out)


@st.composite
def _identity_case(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 60))
    q = draw(st.sampled_from([7, 10, 30, 50, 99, 10**4, 2 * 3 * 5 * 7 * 11]))
    p = draw(st.integers(q // d + 1, q - 1))
    return ProtocolParams(d=d, n=n, beta0=F(p, q), epsilon=F(1, 2))


def _identity_budgets(spec, q, d):
    """0, exact cumulative masses from both ends, the raise costs s_r, a
    budget whose denominator holds a prime above the trial bound (alone and
    inside eps' = (eps/8)^2), and budgets sharing primes with q and d."""
    out = {F(0), F(1, 1000003), (F(1, 1000003) / 8) ** 2, F(1, q * d), F(7, q**3 * d)}
    C, W = 0, F(0)
    for v, m in spec.levels:
        out |= {s for s in (v * C - W, W, 1 - W) if 0 <= s < 1}
        C, W = C + m, W + v * m
    return sorted(out)


@given(_identity_case(), st.data())
@example(params(n=1000, beta0=F(49, 50), epsilon=F(1, 100)), None)
@settings(max_examples=60, deadline=None)
def test_scans_match_eager_fraction_reference(p, data):
    """float.hex, every witness field and every error message equal those of
    the eager-Fraction reference (run on the explicit rebuild, whose
    degeneracy is 1), on families and their explicit rebuilds.  The example
    (no data) reads every witness at n=1000 at 0 and the key length's
    budget."""
    q = p.beta0.denominator
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        if data is None:
            eps_list = [F(0), p.epsilon_prime]
        else:
            budgets = _identity_budgets(spec, q, p.d)
            eps_list = data.draw(st.lists(st.sampled_from(budgets), min_size=1, max_size=4))
        rebuilt = ListedSpectrum.from_levels(spec.levels)
        for eps in eps_list:
            want = _reference_scans(rebuilt, eps)
            assert _canon_scans(spec, eps) == want
            assert _canon_scans(rebuilt, eps) == want


@pytest.mark.parametrize("fn", [s0_smooth, s2_smooth, h0_smooth])
def test_lazy_witnesses_read_as_reduced_fractions(fn):
    spec = xe_spectrum(params(d=3, n=20, beta0=F(49, 50)))
    _, w = fn(spec, F(1, 640000))
    for f in dataclasses.fields(w):
        value = getattr(w, f.name)
        if f.type == "Fraction":
            assert type(value) is F
            assert math.gcd(value.numerator, value.denominator) == 1
            assert getattr(w, f.name) is value  # reduced once, then kept
    assert w == fn(spec, F(1, 640000))[1]
    assert hash(w) == hash(fn(spec, F(1, 640000))[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.b = 0


def test_witness_fields_have_no_default():
    with pytest.raises(TypeError):
        WaterfillSolution(0, 0, F(1, 2), F(1, 2))
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(WaterfillSolution))


@given(st.integers(-(10**30), 10**30), st.sampled_from([2, 3, 5, 7]),
       st.integers(0, 80), st.integers(0, 90))
@settings(max_examples=300, deadline=None)
def test_strip_matches_repeated_division(v, p, extra, cap):
    v *= p**extra
    k, rest = 0, v
    while k < cap and rest % p == 0:
        rest //= p
        k += 1
    assert _strip(v, p, cap) == (k, rest)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("cap", [0, 7, math.inf])
def test_strip_zero_returns_the_cap(p, cap):
    """Every power of p divides 0: the cap bounds k, and an infinite cap
    must still return rather than divide forever."""
    assert _strip(0, p, cap) == (cap, 0)


def test_key_length_gcd_operands_stay_narrow(monkeypatch):
    """Cost guard: at d=2, n=1e4 no gcd on the key-length path, Fraction's
    included, sees an operand wider than half of eve's denominator (66k
    bits).  The eager Fractions took gcds of about 174k bits."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    den_bits = eve_spectrum(p).den.bit_length()
    widths, gcd = [], math.gcd

    def recording(*args):
        widths.append(max(a.bit_length() for a in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording)
    key_length(p)
    assert widths and max(widths) <= den_bits // 2


# --- the certified purity float ---------------------------------------------

def _s2_counting(monkeypatch, spec, eps):
    """(bits, sol, calls): s2_smooth(spec, eps) with every witness
    construction (`_ratio`) and the purity's exact path counted; calls keeps
    counting after it returns, in any scan."""
    calls = {"_ratio": 0, "_purity": 0}
    for name in calls:
        real = getattr(smooth, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(smooth, name, counted)
    bits, sol = s2_smooth(spec, eps)
    return bits, sol, calls


@st.composite
def _certified_case(draw):
    d = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3000))
    q = draw(st.sampled_from([10, 20, 50, 100, 1000]))
    p = draw(st.integers(q // d + 1, q - 1))
    eps = draw(st.sampled_from([F(1, 100), F(1, 10**10), F(1, 10**40), F(1, 2)]))
    return ProtocolParams(d=d, n=n, beta0=F(p, q), epsilon=eps)


@given(_certified_case())
@settings(max_examples=60, deadline=None)
def test_s2_float_is_log2_bits_of_the_purity_read_after(p):
    """s2's float, taken from residues and leading bits, is to the bit
    -log2_bits of the reduced purity that the witness reads afterwards."""
    try:
        bits, sol = s2_smooth(xe_spectrum(p), p.epsilon_prime)
    except EpsilonTooLargeError:
        return
    assert bits == -log2_bits(sol.purity)


def test_s2_certified_float_makes_no_reduction(monkeypatch):
    """Cost guard: at the n=1e4 anchor s2_smooth does not form the purity's
    numerator, and none of the three scans builds a witness; reading
    `.purity` builds it once, and each other field its own."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    bits, sol, calls = _s2_counting(monkeypatch, xe_spectrum(p), p.epsilon_prime)
    rank = s0_smooth(eve_spectrum(p), p.epsilon_prime)[1]
    cut = h0_smooth(conditional_spectrum(p), p.epsilon_prime)[1]
    assert calls == {"_ratio": 0, "_purity": 0}
    assert bits.hex() == "0x1.5a8ca9f94cb70p+13"
    purity = sol.purity
    assert sol.purity is purity
    assert calls == {"_ratio": 1, "_purity": 1}
    assert bits == -log2_bits(purity)
    assert math.gcd(purity.numerator, purity.denominator) == 1
    for witness in (rank.s_b, cut.s_b, sol.x, sol.y):
        assert type(witness) is F
    assert calls == {"_ratio": 5, "_purity": 1}


def test_witness_repr_prints_only_its_ints(monkeypatch):
    """A witness's repr leaves its lazy Fractions out: at n=1000 the
    purity's ints are past str()'s 4300-digit limit, and the repr of each
    of the three witnesses neither prints nor builds one.  At n=8000 the
    rank witness's k, 16,000 bits wide, is past that limit too, and prints
    in hex; its other ints print in decimal."""
    p = ProtocolParams(d=2, n=1000, beta0=F(49, 50), epsilon=F(1, 100))
    _, sol, calls = _s2_counting(monkeypatch, xe_spectrum(p), p.epsilon_prime)
    rank = s0_smooth(eve_spectrum(p), p.epsilon_prime)[1]
    cut = h0_smooth(conditional_spectrum(p), p.epsilon_prime)[1]
    assert repr(sol) == f"WaterfillSolution(b_minus={sol.b_minus}, b_plus={sol.b_plus})"
    assert repr(rank) == (f"RankTrimResult(b={rank.b}, k={rank.k}, "
                          f"remaining_rank={rank.remaining_rank})")
    assert repr(cut) == f"SupportCutResult(b={cut.b}, k={cut.k})"
    assert calls == {"_ratio": 0, "_purity": 0}
    assert sol.purity.denominator.bit_length() > 4300 * math.log2(10)
    p = ProtocolParams(d=2, n=8000, beta0=F(49, 50), epsilon=F(1, 100))
    rank = s0_smooth(eve_spectrum(p), p.epsilon_prime)[1]
    assert rank.k.bit_length() == 16_000
    assert repr(rank) == (f"RankTrimResult(b={rank.b}, k={hex(rank.k)}, "
                          f"remaining_rank={rank.remaining_rank})")


def _assert_exact_path_ran(monkeypatch, spec, eps):
    """s2_smooth(spec, eps), checked to have read its float off the purity
    witness, reduced once inside the call."""
    bits, sol, calls = _s2_counting(monkeypatch, spec, eps)
    assert calls == {"_ratio": 1, "_purity": 1}
    assert type(sol.__dict__["purity"]) is F
    assert bits == -log2_bits(sol.purity)
    return bits, sol


def test_s2_falls_back_on_a_prime_above_the_trial_bound(monkeypatch):
    """1065023 = 1031 * 1033 has no prime below `small_factors`' bound and is
    too large to be proved prime by them, so den's table keeps it whole as
    its rest: the float comes from the exact path.  (A prime such as 1031
    is proved prime by the trial division and needs no fallback.)"""
    q = 1031 * 1033
    spec = xe_spectrum(params(n=40, beta0=F(q - 1, q)))
    assert spec.den_factors[1] != 1
    _assert_exact_path_ran(monkeypatch, spec, F(1, 640000))


def test_s2_falls_back_near_purity_one(monkeypatch):
    """At n=1 the purity lies above 1/4, where log2_bits may take its branch
    near 1 on the exact ratio: the float comes from the exact path."""
    spec = xe_spectrum(params(n=1, beta0=F(49, 50)))
    assert F(1, 4) < _assert_exact_path_ran(monkeypatch, spec, F(1, 640000))[1].purity <= 1


def test_s2_falls_back_where_the_purity_may_lie_above_a_quarter(monkeypatch):
    """At d=2, n=100, beta0 = 1 - 10^-6 eve's purity is about 0.9997: the
    enclosures settle the reduced pair's top bits, but the purity may lie
    above 1/4, where log2_bits takes its branch near 1 on the exact ratio,
    so `_purity_log2` returns None and the float comes from the exact path."""
    p = ProtocolParams(d=2, n=100, beta0=1 - F(1, 10**6), epsilon=F(1, 100))
    returned, real = [], smooth._purity_log2
    monkeypatch.setattr(smooth, "_purity_log2",
                        lambda *args: returned.append(real(*args)) or returned[-1])
    sol = _assert_exact_path_ran(monkeypatch, eve_spectrum(p), F(1, 10**6))[1]
    assert returned == [None]
    assert F(1, 4) < sol.purity < 1


@pytest.mark.parametrize("guard", [0, 96])
def test_s2_falls_back_when_the_top_bits_are_undecided(monkeypatch, guard):
    """With too few guard bits the ends of N/K's enclosure differ: with
    none they hold too few bits to read 96 of, and with 96 (at this point)
    they differ in the last of them.  The exact path gives the same float."""
    p = ProtocolParams(d=2, n=2000, beta0=F(49, 50), epsilon=F(1, 100))
    want = s2_smooth(xe_spectrum(p), p.epsilon_prime)[0]
    monkeypatch.setattr(smooth, "_GUARD", guard)
    assert _assert_exact_path_ran(monkeypatch, xe_spectrum(p), p.epsilon_prime)[0] == want


def test_s2_reads_the_middle_exactly_only_with_the_purity():
    """Cost guard: at the n=1e4 anchor s2 reads its untouched middle
    through one residue pass and one enclosure, and sums no k = 2 window
    until `.purity` is read; reading it sums the middle once."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    spec = xe_spectrum(p)
    rec = _instrumented(s2_smooth, spec, p.epsilon_prime, read=("purity",))
    bits, sol = rec.result
    [(lo, hi, k, _)] = rec.residues
    assert k == 2 and lo == sol.b_minus + 1 and hi == spec.size - 1 - sol.b_plus
    assert [w[:3] for w in rec.enclosures] == [(lo, hi, 2)]
    assert [w[2] for w in rec.windows[:rec.returned]] == [0, 1, 0, 1]
    assert [w[:3] for w in rec.windows[rec.returned:]] == [(lo, hi, 2)]
    assert bits == -log2_bits(sol.purity)


def test_s2_without_guard_bits_sums_the_middle(monkeypatch):
    """With no guard bits the enclosures at the n=1e4 anchor do not
    settle the float, so s2 reads the purity witness, which sums the middle
    exactly, after its residue pass; the float is the same."""
    p = ProtocolParams(d=2, n=10_000, beta0=F(49, 50), epsilon=F(1, 100))
    want = s2_smooth(xe_spectrum(p), p.epsilon_prime)[0]
    monkeypatch.setattr(smooth, "_GUARD", 0)
    forget_points()
    rec = _instrumented(s2_smooth, xe_spectrum(p), p.epsilon_prime)
    assert rec.result[0] == want
    assert type(rec.result[1].__dict__["purity"]) is F
    assert [w[2] for w in rec.residues] == [2]
    assert [w[2] for w in rec.windows] == [0, 1, 0, 1, 2]


def test_s2_sums_the_middle_where_residues_cost_as_much():
    """Cost guard: at a sweep point (d=3, n=3000, beta0=19/20) xe's div = 2
    puts 4,258 factors of 2 in the purity's reduction, a third of den's
    width in bits, where summing the middle costs less than its residue
    pass and enclosure: s2 sums it (as the total less the rest, since it
    holds over half the levels) with no residue pass and no enclosure, and
    certifies the float from it, building no purity."""
    p = ProtocolParams(d=3, n=3000, beta0=F(19, 20), epsilon=F(1, 100))
    spec = xe_spectrum(p)
    rec = _instrumented(s2_smooth, spec, p.epsilon_prime)
    bits, sol = rec.result
    assert rec.residues == [] and rec.enclosures == []
    assert [w[2] for w in rec.windows] == [0, 1, 0, 1, 2, 2]
    assert type(sol.__dict__["purity"]) is partial
    assert bits == -log2_bits(sol.purity)


def test_s2_reads_a_wide_middle_from_its_residues(monkeypatch):
    """Cost guard: at the same sweep point with the middle read through
    residues and its enclosure (`_CHEAP` = 0), the middle, over half the
    levels and a multiple of 2^4,227, is read by one residue pass past that
    floor: no k = 2 window is summed, and the float is the one s2 takes
    from the exact middle."""
    p = ProtocolParams(d=3, n=3000, beta0=F(19, 20), epsilon=F(1, 100))
    want = s2_smooth(xe_spectrum(p), p.epsilon_prime)[0]
    monkeypatch.setattr(smooth, "_CHEAP", 0)
    forget_points()
    spec = xe_spectrum(p)
    rec = _instrumented(s2_smooth, spec, p.epsilon_prime)
    bits, sol = rec.result
    [(lo, hi, k, _)] = rec.residues
    assert k == 2 and 2 * (hi - lo) > spec.size
    assert [w[2] for w in rec.windows] == [0, 1, 0, 1]
    assert bits == want


def test_s2_encloses_at_guard_bits_however_wide_the_reduction(monkeypatch):
    """Cost guard: at d=64, n=2000, beta0=99/100 reducing the purity of
    the conditional spectrum divides out about 24,000 bits.  With the
    middle read through residues and its enclosure (`_CHEAP` = 0), that
    enclosure is summed at _GUARD bits, not at that width plus them, the
    middle is not summed, and the float is still certified, to the bit
    -log2_bits of the purity read after."""
    p = ProtocolParams(d=64, n=2000, beta0=F(99, 100), epsilon=F(1, 100))
    monkeypatch.setattr(smooth, "_CHEAP", 0)
    rec = _instrumented(s2_smooth, conditional_spectrum(p), p.epsilon_prime)
    bits, sol = rec.result
    assert [w[2:4] for w in rec.enclosures] == [(2, smooth._GUARD)]
    assert [w[2] for w in rec.windows] == [0, 1, 0, 1]
    assert type(sol.__dict__["purity"]) is partial
    assert bits == -log2_bits(sol.purity)


@given(_certified_case())
@settings(max_examples=40, deadline=None)
def test_s2_float_from_the_middles_residues_is_log2_bits_of_the_purity(p):
    """With the middle read through residues and an enclosure at every
    point (`_CHEAP` = 0), s2's float is still to the bit -log2_bits of the
    reduced purity that the witness reads afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smooth, "_CHEAP", 0)
        try:
            bits, sol = s2_smooth(xe_spectrum(p), p.epsilon_prime)
        except EpsilonTooLargeError:
            return
    assert bits == -log2_bits(sol.purity)


def test_s2_valuation_reaches_its_cap(monkeypatch):
    """eve's den at d=3, beta0=5/8 is 48^n, and at n=50 the purity's
    numerator holds all of its 3^100 and more: the valuation doubles J
    past 32 and 64 up to its cap.  The float is still certified."""
    spec = eve_spectrum(params(d=3, n=50, beta0=F(5, 8)))
    want = -log2_bits(s2_smooth(spec, F(1, 640000))[1].purity)
    valuation, capped = smooth._valuation, []

    def recorded(p, cap, terms, mid):
        k = valuation(p, cap, terms, mid)
        if k == cap:
            capped.append((p, cap))
        return k

    monkeypatch.setattr(smooth, "_valuation", recorded)
    bits, _, calls = _s2_counting(monkeypatch, spec, F(1, 640000))
    assert calls == {"_ratio": 0, "_purity": 0}
    assert bits == want
    assert any(p == 3 and cap > 64 for p, cap in capped)


def _check_views(spec, windows, primes):
    """`_Middle.view` against `_adic` of the summed middle, for each window
    and prime: the same valuation and unit digits, to _DIGITS + 8 digits,
    past what the residue pass holds; again once `exact` is read.  True
    where some window's `_moment_floor` is above 0."""
    floored = False
    for lo, hi in windows:
        mid, want = smooth._Middle(spec, lo, hi), spec.moment(lo, hi, 2)
        for _ in ("residues", "exact"):
            for p in primes:
                (v, unit), (wv, wunit) = mid.view(p, primes), smooth._adic(want, p)
                assert v == wv
                assert [unit(J) for J in range(1, smooth._DIGITS + 9)] == [
                    wunit(J) for J in range(1, smooth._DIGITS + 9)]
                floored |= 0 < mid.floor(p) < math.inf
            mid.exact
    return floored


@given(st.one_of(valid_params(max_n=60), valid_params(max_n=60, d=5)), st.data())
@settings(max_examples=30, deadline=None)
def test_middle_view_reads_the_middle_p_adically(p, data):
    """s2's middle through its residue pass reads as the summed middle
    does, on eve, xe (with its zero level) and cond."""
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        _check_views(spec, _windows(spec, data), [2, 3, 5, 7])


@pytest.mark.parametrize("d, beta0", [(3, F(19, 20)), (2, F(7, 12)), (2, F(4, 5))])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_middle_view_past_the_floor(d, beta0, data):
    """Where a prime divides the terms' v or u (2 | div at d = 3, 5 | beta
    at 7/12, 2 | alpha at 4/5), the residue pass reads the middle past its
    floor, and the view still reads as the summed middle does."""
    p = params(d=d, n=60, beta0=beta0)
    floored = False
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        floored |= _check_views(spec, _windows(spec, data), [2, 3, 5])
    assert floored


def _valuation(p, cap, X, Y, C, Ct, mid, ed2, floor=0):
    """`_valuation` of the terms, each read p-adically (`_adic`), and mid's
    read only when asked for, from a floor <= v_p(mid)."""
    return smooth._valuation(p, cap, [smooth._adic(t, p) for t in (X, Y, C, Ct, ed2)],
                             (floor, partial(smooth._adic, mid, p)))


@given(st.sampled_from([2, 3, 37]), st.integers(1000, 3000), st.integers(1, 300),
       st.one_of(st.just(0), st.integers(-300, 300)), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_valuation_reads_the_terms_own(p, shared, k, offset, no_mid, data):
    """`_valuation` matches the formed N where X, Y, C and Ct each hold
    p^shared, so its first round reads 0 and it reads N/p^m off the
    terms' units.  X^2*Ct and Y^2*C tie at valuation 3*shared with units
    whose sum holds p^k, so the tied units are summed and J doubles.
    mid's product lies offset away from the tie: below it, at it, or
    above it by less than k, where it sets v_p(N); mid is sometimes 0.
    mid's floor is drawn up to its valuation, so it is read in some cases
    and left unread in others."""
    ux, ut, uy, um, ue, w = (data.draw(st.integers(0, 2**200)) * p + 1 for _ in range(6))
    q = p**k
    uc = -ux * ux * ut * pow(uy * uy, -1, q) % q + q * w  # a unit
    X, Y, C, Ct = (u * p**shared for u in (ux, uy, uc, ut))
    mid, ed2 = 0 if no_mid else um * p ** (shared + offset), ue
    N = X * X * Ct + Y * Y * C + mid * ed2 * C * Ct
    v = _strip(N, p, math.inf)[0]
    assert (ux * ux * ut + uy * uy * uc) % q == 0 and v >= 2 * shared
    floor = data.draw(st.integers(0, 10**6 if no_mid else shared + offset))
    for cap in (0, 32, v - 1, v, v + 1, 10**6):
        assert _valuation(p, cap, X, Y, C, Ct, mid, ed2, floor) == _strip(N, p, cap)[0]


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 200), st.integers(0, 200),
       st.lists(st.integers(0, 2**300), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_valuation_matches_the_formed_numerator(p, shared, extra, terms):
    """`_valuation` is min(v_p(N), cap) for N = X^2*Ct + Y^2*C + mid*ed2*C*Ct
    formed in full, with p^shared put into every term so J must double."""
    X, Y, C, Ct, mid, ed2 = (t * p**shared for t in terms)
    N = X * X * Ct + Y * Y * C + mid * ed2 * C * Ct
    for cap in (0, shared + extra, 10**6):
        assert _valuation(p, cap, X, Y, C, Ct, mid, ed2) == _strip(N, p, cap)[0]

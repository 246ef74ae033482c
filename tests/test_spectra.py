import math
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listed import ListedSpectrum
from finitekey import cli, kernel, spectra
from finitekey.asymptotic import asymptotic_rate
from finitekey.keyrate import key_length
from finitekey.smooth import h0_smooth, s0_smooth, s2_smooth
from finitekey.spectra import (
    CompressedSpectrum,
    ProtocolParams,
    _series,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)


def params(d=2, n=1, beta0=F(9, 10), epsilon=F(1, 2)):
    return ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)


def rows(spec):
    """(multiplicity, mass) of every level, in order, read off level(i)."""
    return [spec.level(i) for i in range(spec.size)]


def lists(spec):
    """(numerators, stored multiplicities) of every level, read off level(i)."""
    read = rows(spec)
    return [w // m for m, w in read], [m for m, _ in read]


@st.composite
def valid_params(draw, max_n=5, d=None):
    d = draw(st.integers(2, 3)) if d is None else d
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(2, 40))
    p = draw(st.integers(q // d + 1, q))
    return ProtocolParams(d=d, n=n, beta0=F(p, q), epsilon=F(1, 2))


# --- ProtocolParams ---------------------------------------------------------

def test_params_derived_fields():
    p = params(d=3, beta0=F(4, 5))
    beta1, error_rate = (1 - p.beta0) / (p.d - 1), 1 - p.beta0
    assert beta1 == F(1, 10)
    assert error_rate == F(1, 5)
    assert p.beta0 + (p.d - 1) * beta1 == 1


def test_params_epsilon_prime():
    assert params(epsilon=F(4, 5)).epsilon_prime == F(1, 100)
    assert params(epsilon=F(1, 100)).epsilon_prime == F(1, 640000)


@pytest.mark.parametrize(
    "kw",
    [
        dict(d=1),
        dict(d=2.5),
        dict(n=0),
        dict(n=-3),
        dict(beta0=F(1, 2)),       # must exceed 1/d
        dict(beta0=F(13, 12)),
        dict(beta0=F(1, 3), d=3),
        dict(epsilon=F(0)),
        dict(epsilon=F(1)),
        dict(epsilon=F(5, 4)),
    ],
)
def test_params_validation(kw):
    base = dict(d=2, n=1, beta0=F(9, 10), epsilon=F(1, 2))
    base.update(kw)
    with pytest.raises(ValueError):
        ProtocolParams(**base)


def test_params_accepts_boundary_beta0_one():
    p = params(beta0=F(1))
    assert (1 - p.beta0) / (p.d - 1) == 0


# --- worked examples --------------------------------------------------------

def test_eve_n1():
    s = eve_spectrum(params(beta0=F(49, 50)))
    assert s.levels == [(F(1, 100), 3), (F(97, 100), 1)]
    assert s.total_dim == 4


def test_eve_n2():
    s = eve_spectrum(params(n=2, beta0=F(49, 50)))
    assert s.levels == [(F(1, 10000), 9), (F(97, 10000), 6), (F(9409, 10000), 1)]
    assert s.total_dim == 16


def test_eve_beta0_one():
    s = eve_spectrum(params(beta0=F(1)))
    assert s.levels == [(F(1), 1)]
    assert s.total_dim == 1


def test_xe_n1():
    s = xe_spectrum(params())
    assert s.levels == [(F(0), 4), (F(1, 20), 2), (F(9, 20), 2)]
    assert s.total_dim == 8


def test_xe_beta0_one():
    s = xe_spectrum(params(beta0=F(1)))
    assert s.levels == [(F(0), 6), (F(1, 2), 2)]
    assert s.total_dim == 8


def test_conditional_n2():
    s = conditional_spectrum(params(n=2))
    assert s.levels == [(F(1, 100), 1), (F(9, 100), 2), (F(81, 100), 1)]
    assert s.total_dim == 4


def test_conditional_beta0_one():
    s = conditional_spectrum(params(beta0=F(1)))
    assert s.levels == [(F(1), 1)]
    assert s.total_dim == 1


def _outcome(fn, spec, eps):
    try:
        return fn(spec, eps)
    except ValueError as exc:
        return type(exc), exc.args


def test_beta0_one_families_are_the_explicit_spectra():
    """At beta0 = 1 the builders return one-level families.  Their levels,
    sizes, dimensions and den * g are those of the explicit lists [1], [1],
    1 (eve, cond) and [0, 1], [d^(3n) - d^n, d^n], d^n (xe), and every scan
    gives the same float and witness on both, for every d up to 64."""
    for d in range(2, 65):
        for n in (1, 2, 7):
            p = params(d=d, n=n, beta0=F(1))
            one = ListedSpectrum([1], [1], 1)
            xe_listed = ListedSpectrum([0, 1], [d ** (3 * n) - d**n, d**n], d**n)
            pairs = ((eve_spectrum(p), one), (xe_spectrum(p), xe_listed),
                     (conditional_spectrum(p), one))
            for spec, listed in pairs:
                assert (spec.levels, spec.size) == (listed.levels, listed.size)
                assert (spec.total_dim, spec.den * spec.g) == (listed.total_dim, listed.den)
                for fn in (s0_smooth, s2_smooth, h0_smooth):
                    for eps in (F(0), F(1, 10**6), F(1, 3), F(99, 100)):
                        assert _outcome(fn, spec, eps) == _outcome(fn, listed, eps)


# --- invariants -------------------------------------------------------------

@given(valid_params())
@settings(max_examples=60, deadline=None)
def test_normalization_and_dims(p):
    ev, xe, cond = eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)
    assert all(isinstance(s, CompressedSpectrum) for s in (ev, xe, cond))
    assert sum(v * m for v, m in ev.levels) == 1
    assert sum(v * m for v, m in xe.levels) == 1
    assert sum(v * m for v, m in cond.levels) == 1
    if p.beta0 != 1:
        assert ev.total_dim == p.d ** (2 * p.n)
        assert cond.total_dim == p.d ** p.n
        # den and g come from single-copy numbers; they must be the n-th
        # powers of the per-signal denominators, and xe's d^n copies
        d, n, q = p.d, p.n, p.beta0.denominator
        assert ev.den == (q * d * (d - 1)) ** n
        assert cond.den == xe.den == (q * (d - 1)) ** n
        assert xe.g == d**n
    assert xe.total_dim == p.d ** (3 * p.n)


@given(valid_params())
@settings(max_examples=60, deadline=None)
def test_strict_ascent(p):
    for spec in (eve_spectrum(p), xe_spectrum(p)):
        vals = [v for v, _ in spec.levels]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)
        assert all(m >= 1 for _, m in spec.levels)


def _tensor(levels_a, levels_b):
    acc = defaultdict(int)
    for va, ma in levels_a:
        for vb, mb in levels_b:
            acc[va * vb] += ma * mb
    return sorted(acc.items())


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta0", [F(9, 10), F(39, 40)])
def test_tensor_consistency(d, n, beta0):
    """n-copy spectra are regrouped tensor powers of the single-copy ones."""
    one = params(d=d, n=1, beta0=beta0)
    many = params(d=d, n=n, beta0=beta0)
    for build in (eve_spectrum, conditional_spectrum):
        acc = build(one).levels
        for _ in range(n - 1):
            acc = _tensor(acc, build(one).levels)
        assert acc == build(many).levels
    # xe keeps a single merged zero level
    acc = xe_spectrum(one).levels
    for _ in range(n - 1):
        acc = _tensor(acc, xe_spectrum(one).levels)
    assert acc == xe_spectrum(many).levels


# --- streaming helpers vs direct products -----------------------------------

@given(valid_params())
@settings(max_examples=40, deadline=None)
def test_mass_streams_match_levels(p):
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        # level (v, m) is stored as m / g eigenvalues carrying mass m * v
        direct = [(m // spec.g, m * v * spec.den) for v, m in spec.levels]
        assert rows(spec) == direct


@given(valid_params(), st.integers(-1, 7), st.integers(-1, 7))
@settings(max_examples=60, deadline=None)
def test_squared_mass_window(p, lo, hi):
    """Both classes clamp a window reaching past either end themselves; the
    inclusive window lo..hi is moment(lo, hi + 1, k)."""
    family = xe_spectrum(p)
    plain = ListedSpectrum.from_levels(family.levels)
    for spec in (family, plain):
        for k in (0, 1, 2):
            direct = sum(
                m * n_**k
                for i, (n_, m) in enumerate(zip(*lists(spec)))
                if lo <= i <= hi
            )
            assert spec.moment(lo, hi + 1, k) == direct


@given(valid_params())
@settings(max_examples=30, deadline=None)
def test_family_streams_match_explicit_levels(p):
    """Rebuilding through from_levels stores explicit level lists; their
    levels and windows must agree with the closed-form family's."""
    spec = eve_spectrum(p)
    plain = ListedSpectrum.from_levels(spec.levels)

    def masses(s):
        return [(m, F(w, s.den)) for m, w in rows(s)]

    assert masses(plain) == masses(spec)
    m = spec.size
    for lo in range(m):
        for hi in range(lo, m):
            for k in (0, 1, 2):
                assert (
                    F(plain.moment(lo, hi + 1, k), plain.den**k)
                    == F(spec.moment(lo, hi + 1, k), spec.den**k)
                )


@pytest.mark.parametrize("rebuild", [False, True])
def test_level_outside_the_levels_raises_index_error(rebuild):
    """level(i) raises IndexError for i outside [0, size) on either class:
    the lists do not wrap a negative i, and the family reads no level past
    n.  Inside, it is the i-th level, xe-like zero level included."""
    spec = CompressedSpectrum(5, 3, 1, 2, zero_mult=4)
    if rebuild:
        spec = ListedSpectrum.from_levels(spec.levels)
    m, want = spec.size, [(4, 0)] + [
        (math.comb(5, l) * 2 ** (5 - l), math.comb(5, l) * 2 ** (5 - l) * 3**l)
        for l in range(6)
    ]
    for i in (-2, -1, m, m + 1):
        with pytest.raises(IndexError):
            spec.level(i)
    assert rows(spec) == want


def walk(spec, i, reverse=False):
    """The levels read off level(j) for j = i, i+1, ... (i, i-1, ... when
    reverse) until level(j) raises IndexError."""
    out = []
    while True:
        try:
            out.append(spec.level(i))
        except IndexError:
            return out
        i += -1 if reverse else 1


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("rebuild", [False, True])
def test_walk_outside_the_levels_yields_nothing(rebuild, reverse):
    """A walk over level(i) started outside [0, size) yields no level on
    either class, in either direction; inside, it starts at its own level
    and stops at the first or last level, as level(i) wraps no index."""
    spec = CompressedSpectrum(5, 3, 1, 2, zero_mult=4)
    if rebuild:
        spec = ListedSpectrum.from_levels(spec.levels)
    m, want = spec.size, [(4, 0)] + [
        (math.comb(5, l) * 2 ** (5 - l), math.comb(5, l) * 2 ** (5 - l) * 3**l)
        for l in range(6)
    ]
    for i in (-2, -1, m, m + 1):
        assert walk(spec, i, reverse) == []
    for i in range(m):
        assert walk(spec, i, reverse) == (want[i::-1] if reverse else want[i:])


@given(
    st.integers(0, 40), st.integers(0, 60), st.integers(0, 80),
    st.integers(2, 9), st.integers(2, 9),
)
@settings(max_examples=100, deadline=None)
def test_series_matches_fraction_sum(lo, length, n, v, u):
    """Binary splitting (ranges longer than one leaf included) equals the
    term-by-term sum over l of u^(hi-1-l) times the product of
    (n-r)*v/(r+1) over r = lo..l-1, Q = hi!/lo!, and P, formed only if
    asked, is the product of (n-r)*v over r = lo..hi-1."""
    hi = lo + length
    P, Q, T = _series(lo, hi, n, v, u, True)
    assert _series(lo, hi, n, v, u)[1:] == (Q, T)
    assert P == math.prod((n - r) * v for r in range(lo, hi))
    want, term = F(0), F(1)
    for l in range(lo, hi):
        want += term * u ** (hi - 1 - l)
        term *= F((n - l) * v, l + 1)
    assert F(T, Q) == want
    assert Q == math.factorial(hi) // math.factorial(lo)


def _both_classes(p):
    for family in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        yield family
        yield ListedSpectrum.from_levels(family.levels)


@given(valid_params(max_n=40), st.data())
@settings(max_examples=60, deadline=None)
def test_sums_match_direct_sums(p, data):
    """moment(lo, hi, k) is the count, mass and squared mass of levels
    lo..hi-1 for k = 0, 1, 2 on both classes: empty, one-level, zero-level
    and out-of-range windows included.  Windows of exactly half the levels
    (summed directly) and one level past half (the total less the rest)
    lie at each end and across the middle; on xe the zero level's count is
    inside such a window from level 0, so the k = 0 total holds it, and
    outside one from level 1, so the rest takes it off."""
    for spec in _both_classes(p):
        size, (nums, mults) = spec.size, lists(spec)
        windows = [(0, size), (0, 0), (size, size), (0, 1), (size - 1, size), (-2, size + 2)]
        for span in (size // 2, size // 2 + 1):
            middle = (size - span) // 2
            windows += [(0, span), (size - span, size), (middle, middle + span)]
        windows += [(1, size), (1, size // 2 + 2)]
        windows += [
            (data.draw(st.integers(-1, size + 1)), data.draw(st.integers(-1, size + 1)))
            for _ in range(4)
        ]
        # a family window [lo, hi) is summed from its top end when
        # n+1-hi < lo in family indices, i.e. hi > t = size + z - lo here
        z = 1 if spec.zero_mult else 0
        lo = data.draw(st.integers(z, (size + z) // 2))
        t = size + z - lo
        windows += [(lo, t), (lo - 1, t), (lo + 1, t), (lo, t - 1), (lo, t + 1)]
        for lo, hi in windows:
            inside = range(max(lo, 0), min(hi, size))
            for k in (0, 1, 2):
                want = sum(mults[i] * nums[i] ** k for i in inside)
                assert spec.moment(lo, hi, k) == want


def test_sums_match_direct_sums_past_the_division_limit(monkeypatch):
    """At n = 2000 the windows' closing divisions are wider than the
    kernel's division limit, so `big_divmod` recurses, and every moment is
    still the direct sum: k = 0, 1, 2, windows at both ends of the family
    and across its middle, where (300, 1700) is past half the levels."""
    calls, real = [], kernel._div2n1n
    monkeypatch.setattr(kernel, "_div2n1n", lambda *a: calls.append(a[2]) or real(*a))
    p = params(n=2000, beta0=F(49, 50), epsilon=F(1, 100))
    for spec in (eve_spectrum(p), xe_spectrum(p)):  # xe's has a zero level
        size, levels = spec.size, [(m, w // m) for m, w in rows(spec)]
        for lo, hi in [(0, 700), (1, 1300), (1300, size), (700, size - 1), (600, 1400),
                       (300, 1700)]:
            for k in (0, 1, 2):
                want = sum(m * num**k for m, num in levels[lo:hi])
                assert spec.moment(lo, hi, k) == want
    assert calls


@given(st.one_of(valid_params(max_n=12), valid_params(max_n=12, d=5),
                 valid_params(max_n=12, d=7)))
@example(params(d=5, n=6, beta0=F(3, 5)))
@example(params(d=7, n=4, beta0=F(5, 7)))
@settings(max_examples=80, deadline=None)
def test_step_reads_the_neighbouring_level(p):
    """step_level(i, level(i), +-1) is level(i +- 1) on eve, xe and cond:
    up from the bottom and down from the top, into and out of xe's zero
    level, and at d = 5, 7, where div > 1 on every spectrum and beta > 1.
    A step past either end raises IndexError, as level does."""
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        read = rows(spec)
        for i in range(spec.size):
            for step in (-1, 1):
                if 0 <= i + step < spec.size:
                    assert spec.step_level(i, read[i], step) == read[i + step]
                else:
                    with pytest.raises(IndexError):
                        spec.step_level(i, read[i], step)


@given(valid_params(max_n=40))
@settings(max_examples=60, deadline=None)
def test_level_is_a_one_level_window(p):
    """level(i) is the count and mass of the window [i, i+1) on families,
    their explicit rebuilds and xe's zero level, where the mass is 0."""
    for spec in _both_classes(p):
        for i in range(spec.size):
            assert spec.level(i) == (spec.moment(i, i + 1, 0), spec.moment(i, i + 1, 1))
        if spec.zero_mult:
            assert spec.level(0) == (spec.zero_mult, 0)


def _log_moments_match(spec, windows):
    for lo, hi in windows:
        for k in (0, 1):
            want = spec.moment(lo, hi, k)
            got = spec.log_moment(lo, hi, k)
            if want:
                assert got == pytest.approx(math.log(want), rel=1e-12, abs=1e-12)
            else:
                assert got == -math.inf


@given(valid_params(max_n=40), st.data())
@settings(max_examples=60, deadline=None)
def test_log_moment_matches_moment(p, data):
    """log_moment is the log of moment at k = 0, 1 on both classes, and -inf
    for an empty window.  Single levels, prefixes and suffixes at every
    level give windows below, across and above the mode; (0, 1) is xe's
    zero level, and windows past the levels are clamped."""
    for spec in _both_classes(p):
        size = spec.size
        windows = [(i, i + 1) for i in range(size)]
        windows += [(0, i) for i in range(size + 1)] + [(i, size) for i in range(size + 1)]
        windows += [(-2, size + 2), (3, 1), (size, size + 2), (-3, 0)]
        windows += [
            (data.draw(st.integers(-1, size + 1)), data.draw(st.integers(-1, size + 1)))
            for _ in range(4)
        ]
        _log_moments_match(spec, windows)


@pytest.mark.parametrize("p", [
    params(n=10, beta0=1 - F(1, 10**400)),
    params(d=10**155, n=1),
], ids=["beta0=1-1e-400", "d=1e155"])
def test_log_moment_where_no_float_holds_the_ratio(p):
    """alpha/beta is about 10^400 at beta0 = 1 - 10^-400 and div about
    10^310 at d = 10^155, so no float holds them or their logs' exponential;
    log_moment takes each step's ratio from the integers and raises no
    exception over every window."""
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        size = spec.size
        _log_moments_match(spec, [(i, j) for i in range(size + 1) for j in range(i, size + 1)])


def _kept_read(data, size):
    """One read a kept point can serve, drawn: ("moment", lo, hi, k) for
    k = 0, 1 over any window, ("level", i), or a scan (s0, s2 or h0) at a
    budget from 0 to 99/100 as small as 10^-30."""
    kind = data.draw(st.sampled_from(["moment", "level", "scan"]))
    if kind == "moment":
        lo, hi = (data.draw(st.integers(-1, size + 1)) for _ in range(2))
        return kind, lo, hi, data.draw(st.integers(0, 1))
    if kind == "level":
        return kind, data.draw(st.integers(0, size - 1))
    eps = F(data.draw(st.integers(0, 99)), 10 ** data.draw(st.integers(2, 30)))
    return kind, data.draw(st.sampled_from([s0_smooth, s2_smooth, h0_smooth])), eps


def _read(spec, read):
    kind, *args = read
    if kind == "moment":
        return spec.moment(*args)
    if kind == "level":
        return spec.level(*args)
    return _outcome(args[0], spec, args[1])


@given(valid_params(max_n=200), st.data())
@settings(max_examples=40, deadline=None)
def test_kept_points_read_as_a_fresh_spectrum(p, data):
    """Whatever points a spectrum keeps, from the scans' boundary searches
    and the reads they serve, each read returns what the same read returns
    on a fresh spectrum: window sums at k = 0, 1, levels and the scans'
    floats and witnesses, in any order.  No spectrum keeps more than
    _POINTS points, and its `levels` are a fresh spectrum's."""
    for build in (eve_spectrum, xe_spectrum, conditional_spectrum):
        spec = build(p)
        for _ in range(data.draw(st.integers(1, 12))):
            read = _kept_read(data, spec.size)
            assert _read(spec, read) == _read(build(p), read)
            assert len(spec._points) <= spectra._POINTS
        assert spec.levels == build(p).levels


def _windows(spec, data):
    """Windows over every shape a window sum takes: empty, clamped and
    one-level ones, xe's zero level alone and inside wider ones, windows of
    half the levels and one past half at each end and across the middle
    (which `moment` sums directly, or as the total less the rest), windows
    nearer the family's top than its bottom (summed as their mirror image),
    and drawn ones."""
    size, z = spec.size, 1 if spec.zero_mult else 0
    windows = [(0, size), (0, 0), (size, size), (3, 1), (0, 1), (size - 1, size),
               (-2, size + 2), (1, size), (1, size // 2 + 2), (0, size // 2)]
    for span in (size // 2, size // 2 + 1):
        middle = (size - span) // 2
        windows += [(0, span), (size - span, size), (middle, middle + span)]
    lo = data.draw(st.integers(z, (size + z) // 2))
    windows += [(lo, size + z - lo + d) for d in (-1, 0, 1)]
    windows += [(data.draw(st.integers(-1, size + 1)), data.draw(st.integers(-1, size + 1)))
                for _ in range(4)]
    return windows


def _check_residues(spec, windows, primes, J):
    """`_moment_mod` against moment reduced modulo p^J and against its
    valuation, for each prime, window and k = 0, 1, 2; `_moment_floor`
    is at most the valuation, and a residue pass's shifts are the floors,
    wide windows included (0 for a zero sum, whose floor is inf)."""
    floored = False
    for lo, hi in windows:
        for k in (0, 1, 2):
            want = spec.moment(lo, hi, k)
            R, shifts = spec._moment_mod(lo, hi, k, primes, J)
            power = math.prod(p**s for p, s in shifts.items())
            for p in primes:
                q, v = p**J, kernel._strip(want, p, math.inf)[0]
                assert want % q == R * power % q
                floor = spec._moment_floor(lo, hi, k, p)
                assert shifts[p] == (floor if want else 0) and floor <= v
                if R % q:
                    assert v == shifts[p] + kernel._strip(R % q, p, math.inf)[0]
                else:
                    assert v >= shifts[p] + J
                floored |= shifts[p] > 0
    return floored


@given(st.one_of(valid_params(max_n=60), valid_params(max_n=60, d=5)),
       st.sampled_from([1, 2, 7, 32, 64]), st.data())
@settings(max_examples=60, deadline=None)
def test_moment_mod_matches_moment(p, J, data):
    """The residue pass reads every window's moment modulo p^J and its
    p-adic valuation, at k = 0, 1, 2, on eve, xe (with its zero level) and
    cond, for primes that divide den, d or neither."""
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        _check_residues(spec, _windows(spec, data), [2, 3, 5, 7], J)


@pytest.mark.parametrize("d, beta0", [(3, F(19, 20)), (2, F(7, 12)), (2, F(4, 5)),
                                      (2, F(12, 17))])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_moment_mod_where_p_divides_v_or_u(d, beta0, data):
    """Where a prime divides v or u every term holds its power, which the
    residue pass takes out as each window's floor: 2 | div at d = 3, 5 |
    q - p = beta at 7/12, 2 | alpha = p at 4/5, and both at 12/17, where
    the powers of 2 grow along the window while those of 5 fall.  The
    residues and valuations still match, and some floor is above 0."""
    p = params(d=d, n=60, beta0=beta0)
    floored = False
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        floored |= _check_residues(spec, _windows(spec, data), [2, 3, 5], 16)
    assert floored


def _encloses(enc, v):
    """lo * 2^s <= v <= hi * 2^s, with s of either sign."""
    if enc.s >= 0:
        return enc.lo << enc.s <= v <= enc.hi << enc.s
    return enc.lo <= v << -enc.s <= enc.hi


@given(st.one_of(valid_params(max_n=60), valid_params(max_n=60, d=5)),
       st.sampled_from([8, 64, 256]), st.data())
@example(params(n=200, beta0=F(3, 4)), 64, None)
@settings(max_examples=60, deadline=None)
def test_moment_enc_encloses_moment(p, prec, data):
    """The prec-bit window sum encloses every window's moment at k = 0, 1,
    2, its ends within 2^(12-prec) of it.  At n = 200, beta0 = 3/4 xe's
    k = 2 terms peak at family level 180, inside the window (150, 195),
    so that window is summed from its mode outward on both sides."""
    for spec in (eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)):
        if data is None:  # the example: the k = 2 mode inside the window
            v, u = spec.alpha**2, spec.div * spec.beta**2
            assert 150 < (spec.n + 1) * v // (v + u) < 194
            windows = [(150 + spec.z, 195 + spec.z)]
        else:
            windows = _windows(spec, data)
        for lo, hi in windows:
            for k in (0, 1, 2):
                want, enc = spec.moment(lo, hi, k), spec._moment_enc(lo, hi, k, prec)
                assert _encloses(enc, want)
                assert (enc.hi - enc.lo) << prec <= enc.hi << 12


@pytest.mark.parametrize("build", [eve_spectrum, xe_spectrum, conditional_spectrum])
def test_window_reads_clamp_as_moment_does(build):
    """Each of the five window reads takes a window running past either end
    of the levels, or lying wholly outside them, as `moment` does: as that
    window clamped to the levels (`_family`).  On eve, xe (whose zero level
    a window from below takes in at k = 0) and cond, at d = 3, where 2
    divides div."""
    spec, primes = build(params(d=3, n=12, beta0=F(3, 4))), [2, 3, 5]
    size, M = spec.size, 2**16 * 3**16 * 5**16
    for lo, hi in [(-3, 2), (-2, size + 2), (size - 3, size + 3), (-4, 0), (-4, -1),
                   (size, size + 2), (size + 1, size + 5)]:
        clamped = max(lo, 0), max(min(hi, size), lo, 0)
        for k in (0, 1, 2):
            want = spec.moment(lo, hi, k)
            assert want == spec.moment(*clamped, k) == spec._window(lo, hi, k)
            R, shifts = spec._moment_mod(lo, hi, k, primes, 16)
            assert (R, shifts) == spec._moment_mod(*clamped, k, primes, 16)
            assert want % M == R * math.prod(p**s for p, s in shifts.items()) % M
            for p in primes:
                floor = spec._moment_floor(lo, hi, k, p)
                assert floor == spec._moment_floor(*clamped, k, p)
                assert shifts[p] == (floor if want else 0)
            enc, other = spec._moment_enc(lo, hi, k, 64), spec._moment_enc(*clamped, k, 64)
            assert (enc.lo, enc.hi, enc.s) == (other.lo, other.hi, other.s)
            assert _encloses(enc, want)
            if k < 2:
                assert spec.log_moment(lo, hi, k) == spec.log_moment(*clamped, k)
                _log_moments_match(spec, [(lo, hi)])


def _eager_levels(p):
    """(nums, mults, den, total) of eve, xe and cond, built as complete lists
    the way the eager constructors did before the spectra became lazy, and
    at beta0 = 1 the explicit one- and two-level lists they built."""
    d, n = p.d, p.n
    a, q = p.beta0.numerator, p.beta0.denominator
    if a == q:
        one = [1], [1], 1, 1
        return one, ([0, 1], [d ** (3 * n) - d**n, d**n], d**n, d ** (3 * n)), one

    def geometric(alpha, beta, mult0, div):
        nums, mults = [beta**n], [mult0]
        for l in range(n):
            nums.append(nums[-1] * alpha // beta)
            mults.append(mults[-1] * (n - l) // ((l + 1) * div))
        return nums, mults

    eve = geometric((a * (d + 1) - q) * (d - 1), q - a, (d * d - 1) ** n, d * d - 1)
    nums, mults = geometric(a * (d - 1), q - a, d**n * (d - 1) ** n, d - 1)
    xe = [0] + nums, [d ** (3 * n) - d ** (2 * n)] + mults
    cond = geometric(a * (d - 1), q - a, (d - 1) ** n, d - 1)
    return (
        (*eve, (q * d * (d - 1)) ** n, d ** (2 * n)),
        (*xe, (q * d * (d - 1)) ** n, d ** (3 * n)),
        (*cond, (q * (d - 1)) ** n, d**n),
    )


@given(valid_params(max_n=8))
@settings(max_examples=60, deadline=None)
def test_lazy_lists_match_eager_construction(p):
    eve, xe, cond = eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)
    # the lists the benchmark's tracer reads are the per-copy levels
    for spec in (eve, xe, cond):
        listed = zip(spec.value_nums, spec.mults)
        assert [(F(v, spec.den * spec.g), m * spec.g) for v, m in listed] == spec.levels
    want_eve, want_xe, want_cond = _eager_levels(p)
    assert (*lists(eve), eve.den, eve.total_dim) == want_eve
    # xe stores one of its g = d^n copies: g times fewer eigenvalues, each
    # g times as heavy
    g, (nums, mults) = xe.g, lists(xe)
    assert (nums, [g * m for m in mults], g * xe.den, xe.total_dim) == want_xe
    assert (*lists(cond), cond.den, cond.total_dim) == want_cond
    # the lists the benchmark's tracer reads, each by its own recurrence
    for spec, (nums, mults, _, _) in ((eve, want_eve), (xe, want_xe), (cond, want_cond)):
        assert (spec.value_nums, spec.mults) == (nums, [m // spec.g for m in mults])


def test_no_package_path_reads_family_lists(monkeypatch):
    """Every package path streams a family's levels: its O(n^2)-bit lists
    are never built, nor its Fraction `levels` past n = 1, which only
    `asymptotic_rate` reads."""
    def refuse(self):
        raise AssertionError("a family's level lists were read")

    levels = CompressedSpectrum.levels.func
    monkeypatch.setattr(CompressedSpectrum, "value_nums", property(refuse))
    monkeypatch.setattr(CompressedSpectrum, "mults", property(refuse))
    monkeypatch.setattr(CompressedSpectrum, "levels",
                        property(lambda self: refuse(self) if self.n > 1 else levels(self)))
    p = params(d=3, n=60, beta0=F(9, 10), epsilon=F(1, 100))
    key_length(p)
    asymptotic_rate(3, F(9, 10))
    s0_smooth(eve_spectrum(p), p.epsilon_prime)
    s2_smooth(xe_spectrum(p), p.epsilon_prime)
    h0_smooth(conditional_spectrum(p), p.epsilon_prime)
    assert cli.main(["threshold", "--n", "300", "--epsilon", "0.01"]) == 0
    assert cli.main(["asymptotic", "--d", "2", "--error-rate", "0.02"]) == 0


# --- constructor validation -------------------------------------------------

@given(valid_params(max_n=8))
@settings(max_examples=40, deadline=None)
def test_xe_is_the_conditional_spectrum_d_n_times(p):
    """rho_XE's nonzero levels are P(X|Y)'s, each d^n times at 1/d^n of its
    value: xe stores cond's levels with degeneracy d^n over one zero level.
    At beta0 = 1 cond is one level, so that zero level is d^(2n) - 1."""
    d, n = p.d, p.n
    xe, cond = xe_spectrum(p), conditional_spectrum(p)
    assert (xe.g, xe.den) == (d**n, cond.den)
    assert rows(xe)[1:] == rows(cond)
    assert xe.level(0) == (d ** (2 * n) - (1 if p.beta0 == 1 else d**n), 0)


def test_builders_refuse_oversized_points(monkeypatch):
    """Each builder, on both of its branches, refuses a point whose largest
    n-th power would exceed MAX_POWER_BITS before it builds anything, and
    admits the README's n = 1e6 point.  The spectrum class is stubbed, so
    no spectrum is built either way."""
    built = []
    monkeypatch.setattr(spectra, "CompressedSpectrum", lambda *args: built.append(args))
    for build in (eve_spectrum, xe_spectrum, conditional_spectrum):
        for beta0 in (F(49, 50), F(1)):
            for n in (10**8, 10**400):  # 10^400: beyond every float
                with pytest.raises(ValueError, match="too large"):
                    build(params(n=n, beta0=beta0))
            built.clear()
            build(params(n=10**6, beta0=beta0))
            assert len(built) == 1


# eve at d=2, n=3, beta0=49/50: alpha=97, beta=1, div=3, g = 1
EVE_FAMILY = dict(n=3, alpha=97, beta=1, div=3)


def test_family_accepts_consistent_den_and_total():
    spec = CompressedSpectrum(**EVE_FAMILY)
    assert (spec.den, spec.total_dim) == (100**3, 4**3)
    assert spec.levels == eve_spectrum(params(n=3, beta0=F(49, 50))).levels


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(dict(EVE_FAMILY, alpha=1), id="family4-64-64-malformed"),
        pytest.param(dict(EVE_FAMILY, beta=0), id="family5-912673-64-malformed"),
        pytest.param(dict(EVE_FAMILY, g_factors=({}, 0)), id="family6-0-0-malformed"),
        pytest.param(dict(EVE_FAMILY, alpha=97.0), id="float-alpha-malformed"),
        pytest.param(dict(EVE_FAMILY, div=True), id="bool-div-malformed"),
        pytest.param(dict(EVE_FAMILY, zero_mult=4.0), id="float-zero-mult-malformed"),
    ],
)
def test_family_rejects_inconsistent_identities(family):
    """An inconsistent family, a degeneracy below 1, and any parameter that
    is not an int (a bool included) are refused, even where a float would
    give the same levels."""
    with pytest.raises(ValueError, match="malformed"):
        CompressedSpectrum(**family)


@pytest.mark.parametrize(
    "nums, mults, den, match",
    [
        pytest.param([], [], 1, "malformed", id="nums0-mults0-1-0-malformed"),
        pytest.param([1], [1, 1], 1, "malformed", id="nums1-mults1-1-2-malformed"),
        pytest.param(
            [1], [1], 0, "denominator must be positive",
            id="nums2-mults2-0-1-denominator must be positive",
        ),
        pytest.param(
            [0, 1], [0, 1], 1, "multiplicities must be >= 1",
            id="nums3-mults3-1-1-multiplicities must be >= 1",
        ),
    ],
)
def test_rejects_malformed_levels(nums, mults, den, match):
    with pytest.raises(ValueError, match=match):
        ListedSpectrum(nums, mults, den)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ListedSpectrum([0.5], [2], 1), id="float-numerator"),
        pytest.param(lambda: ListedSpectrum([1], [1.0], 1), id="float-multiplicity"),
        pytest.param(lambda: ListedSpectrum([1], [1], 1.0), id="float-denominator"),
        pytest.param(lambda: ListedSpectrum([1], [True], 1), id="bool-multiplicity"),
        pytest.param(
            lambda: ListedSpectrum.from_levels([(F(1, 2), 2.9)]),
            id="from-levels-float-multiplicity",
        ),
        pytest.param(
            lambda: ListedSpectrum.from_levels([(F(1, 4), "4")]),
            id="from-levels-str-multiplicity",
        ),
    ],
)
def test_rejects_non_integer_levels(build):
    """Every numerator, multiplicity and the denominator must be an int
    (not a bool), even where a float or a truncated value would sum to 1."""
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_rejects_unsorted_levels():
    with pytest.raises(ValueError):
        ListedSpectrum.from_levels([(F(1, 2), 1), (F(1, 4), 2)])


def test_rejects_negative_level_value():
    with pytest.raises(ValueError, match="negative level value"):
        ListedSpectrum([-1, 3], [1, 1], 2)


def test_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        ListedSpectrum.from_levels([(F(1, 4), 1), (F(1, 2), 1)])


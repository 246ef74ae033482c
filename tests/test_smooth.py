import math
import random
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finitekey.oracle import brute_s0, expand, waterfill_scan
from finitekey.smooth import (
    EpsilonTooLargeError,
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
    spec = CompressedSpectrum.from_levels(
        [(F(1, 16), 4), (F(1, 8), 2), (F(1, 2), 1)], 7
    )
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
        assert sol.purity == (b0**2 + (d - 1) * p.beta1**2) ** n / F(d) ** n


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
    spec = CompressedSpectrum.from_levels([(F(1, 4), 2), (F(1, 2), 1)], 3)
    with pytest.raises(EpsilonTooLargeError, match="epsilon too large for spectrum"):
        s2_smooth(spec, F(9, 10))


def test_s2_single_level_never_errors():
    spec = CompressedSpectrum.from_levels([(F(1, 4), 4)], 4)
    for eps in (0, F(1, 100), F(99, 100)):
        bits, sol = s2_smooth(spec, eps)
        assert sol.purity == F(1, 4) and bits == 2.0


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
    return CompressedSpectrum.from_levels(levels, sum(m for _, m in levels))


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
        return str(exc)


@pytest.mark.parametrize("heavy_top", [True, False])
@given(
    family_params(),
    st.one_of(
        st.integers(0, 99).map(lambda k: F(k, 100)),
        st.sampled_from([F(1, 10**6), F(1, 640000)]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_family_scans_match_explicit_rebuilds(heavy_top, p, eps):
    """Every scan over a closed-form family gives the witness it gives over
    the same levels stored as explicit lists (which s0 always walks from
    the bottom); s0 runs each family in both walk directions."""
    eve = eve_spectrum(p)
    assume(eve.heavy_top == heavy_top)
    for spec in (eve, xe_spectrum(p), conditional_spectrum(p)):
        plain = type(spec).from_levels(spec.levels, spec.total_dim)
        assert not plain.heavy_top
        for fn in (s0_smooth, s2_smooth, h0_smooth):
            assert _scan(fn, spec, eps) == _scan(fn, plain, eps)
        want = s0_smooth(plain, eps)
        for forced in (True, False):
            with patch.object(spec, "heavy_top", forced):
                assert s0_smooth(spec, eps) == want


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

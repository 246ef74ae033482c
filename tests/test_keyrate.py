import concurrent.futures
import math
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from finitekey import keyrate, spectra
from finitekey.kernel import log2_bits
from finitekey.keyrate import (
    THRESHOLD_TOL,
    key_length,
    n_for_ntilde,
    sweep,
    threshold_error_rate,
)
from finitekey.smooth import h0_smooth, s0_smooth, s2_smooth
from finitekey.spectra import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)


def test_perfect_correlations_exact():
    res = key_length(ProtocolParams(d=2, n=100, beta0=F(1), epsilon=F(1, 4)))
    assert res.s2_bits == 100.0
    assert res.s0_bits == 0.0 and res.h0_bits == 0.0
    assert res.ell_bits == 96.0
    assert res.rate == 0.96
    assert res.rate_clamped == 0.96
    assert res.effective_rate == 0.96 / 6
    assert res.asymptotic_rate == 1.0
    # log2_bits(d) is math.log2(d) to the bit for every d below 2^128
    for d in (3, 5, 7):
        res = key_length(ProtocolParams(d=d, n=100, beta0=F(1), epsilon=F(1, 4)))
        assert res.s2_bits.hex() == (100 * math.log2(d)).hex()
        assert res.s0_bits == 0.0 and res.h0_bits == 0.0


@pytest.mark.parametrize("n, ell, s2, s0, h0", [
    (1_000, "0x1.8791714d8531ep+8", "0x1.0a87829c21210p+10",
     "0x1.96c0d0e64b27ep+8", "0x1.fd04416feeb11p+7"),
    (10_000, "0x1.8d509bc8d250ap+12", "0x1.5a8ca9f94cb70p+13",
     "0x1.6ff85ef6ad4b8p+11", "0x1.bbdfb8d892aa0p+10"),
    (20_000, "0x1.a3421a9c24751p+13", "0x1.5d42209da4700p+14",
     "0x1.5cc3f5bb1fa48p+12", "0x1.a1d77a15bac86p+11"),
])
def test_anchor_floats_are_pinned_to_the_bit(n, ell, s2, s0, h0):
    """The README's anchor points (d=2, beta0=49/50, eps=1/100) give these
    floats to the last bit.  The CLI prints 12 digits, so a one-ulp drift
    in any exact step or float guess shows only here."""
    res = key_length(ProtocolParams(d=2, n=n, beta0=F(49, 50), epsilon=F(1, 100)))
    got = (res.ell_bits, res.s2_bits, res.s0_bits, res.h0_bits)
    assert [x.hex() for x in got] == [ell, s2, s0, h0]


def test_composition_single_copy():
    p = ProtocolParams(d=2, n=1, beta0=F(9, 10), epsilon=F(4, 5))
    assert p.epsilon_prime == F(1, 100)
    res = key_length(p)
    ep = p.epsilon_prime
    assert res.s2_bits == s2_smooth(xe_spectrum(p), ep)[0]
    assert res.s0_bits == s0_smooth(eve_spectrum(p), ep)[0]
    assert res.h0_bits == h0_smooth(conditional_spectrum(p), ep)[0]
    expected = res.s2_bits - res.s0_bits - res.h0_bits - 2 * log2_bits(F(5, 4))
    assert res.ell_bits == pytest.approx(expected, abs=1e-12)
    assert res.rate == res.ell_bits  # n == 1


def test_negative_length_is_clamped():
    res = key_length(ProtocolParams(d=2, n=5, beta0=F(9, 10), epsilon=F(1, 100)))
    assert res.ell_bits < 0
    assert res.rate < 0
    assert res.rate_clamped == 0.0
    assert res.effective_rate == res.rate / 6


def test_length_nondecreasing_in_epsilon():
    ells = [
        key_length(ProtocolParams(d=2, n=50, beta0=F(49, 50), epsilon=e)).ell_bits
        for e in (F(1, 100), F(1, 10), F(1, 4), F(1, 2))
    ]
    assert all(a <= b for a, b in zip(ells, ells[1:]))


def test_rate_below_asymptotic():
    res = key_length(ProtocolParams(d=2, n=200, beta0=F(49, 50), epsilon=F(1, 2)))
    assert 0 < res.rate < res.asymptotic_rate


# --- sweeps ------------------------------------------------------------------

def test_sweep_axis_n_preserves_order():
    pts = sweep([(2, n, F(9, 10), F(1, 2)) for n in (3, 1, 2)])
    assert [p.n for p in pts] == [3, 1, 2]
    assert all(p.error is None for p in pts)
    solo = key_length(ProtocolParams(d=2, n=2, beta0=F(9, 10), epsilon=F(1, 2)))
    assert pts[2].result == solo


def test_sweep_error_axis_continues_past_failures():
    pts = sweep([(2, 2, 1 - e, F(1, 2)) for e in (F(1, 100), F(3, 5), F(2, 100))])
    assert pts[0].error is None and pts[2].error is None
    assert pts[1].result is None and "beta0" in pts[1].error
    assert pts[0].beta0 == F(99, 100) and pts[2].beta0 == F(49, 50)


def test_sweep_fixed_ntilde_floors_n():
    pts = sweep([(d, n_for_ntilde(600, d), F(9, 10), F(1, 2)) for d in (2, 3)])
    assert [p.n for p in pts] == [100, 50]  # 600 // (d*(d+1))
    assert all(p.error is None for p in pts)


@pytest.mark.parametrize("d", [1, 0, -1, -2])
def test_sweep_dimension_below_two_is_a_point_error(d):
    """d*(d+1) is 0 at d = 0 and -1, so the budget fixes no n there; the
    point still fails on its dimension, next to a valid one."""
    pts = sweep([(d, n_for_ntilde(600, d), F(9, 10), F(1, 2)), (2, 100, F(9, 10), F(1, 2))])
    assert pts[0].error == f"dimension d must be an integer >= 2, got {d}"
    assert pts[1].error is None


def test_sweep_parallel_matches_serial():
    points = [(2, 3, F(9, 10), e) for e in (F(1, 10), F(1, 2))]
    assert sweep(points, workers=2) == sweep(points)


@pytest.mark.parametrize(
    "cpus, workers, pool_sizes",
    [(2, 10000, [2]), (8, 10000, [3]), (8, 2, [2]), (None, 4, []), (8, 1, [])],
)
def test_sweep_pool_is_bounded(monkeypatch, cpus, workers, pool_sizes):
    """The pool never exceeds the grid length or the CPU count; the size is
    recorded through a stand-in executor, so no oversized pool starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(keyrate.os, "cpu_count", lambda: cpus)
    points = [(2, 3, F(9, 10), e) for e in (F(1, 10), F(1, 4), F(1, 2))]
    assert sweep(points, workers=workers) == sweep(points)
    assert sizes == pool_sizes


def test_key_length_memory_stays_small():
    """The spectra are closed-form families, so no list of n + 1 big
    integers is built (the eager lists peaked at about 62 MB here)."""
    params = ProtocolParams(d=2, n=10000, beta0=F(49, 50), epsilon=F(1, 100))
    tracemalloc.start()
    try:
        key_length(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("an oversized spectrum was built")


def test_key_length_refuses_an_oversized_point(monkeypatch):
    """n = 1e8 would form a 6.6e8-bit denominator and run for days, so
    key_length refuses it before any spectrum is built.  At beta0 = 1 the
    analytic branch calls no builder of an n-copy spectrum and runs; only
    asymptotic_rate builds its single-copy spectra."""
    monkeypatch.setattr(spectra, "CompressedSpectrum", _refuse_to_build)
    params = ProtocolParams(d=2, n=10**8, beta0=F(49, 50), epsilon=F(1, 100))
    with pytest.raises(ValueError, match="too large"):
        key_length(params)
    monkeypatch.undo()
    for build in ("eve_spectrum", "xe_spectrum", "conditional_spectrum"):
        monkeypatch.setattr(keyrate, build, _refuse_to_build)
    perfect = ProtocolParams(d=2, n=10**8, beta0=F(1), epsilon=F(1, 100))
    assert key_length(perfect).s2_bits == 10**8


def test_sweep_reads_an_iterator_grid_once():
    """A one-shot iterable is read once, also where the pool needs its length."""
    points = [(2, n, F(9, 10), F(1, 2)) for n in (10, 20)]
    assert [p.n for p in sweep(iter(points))] == [10, 20]
    assert [p.n for p in sweep((p for p in points), workers=2)] == [10, 20]
    assert sweep([]) == []


# --- threshold ---------------------------------------------------------------

def test_threshold_small_n():
    thr = threshold_error_rate(2, 500, F(1, 100))
    assert 0.039 <= thr <= 0.041


def test_threshold_is_the_first_sign_change_of_the_lattice():
    """At (d=2, n=300, eps=1/100) ell at every lattice point k = 1..320,
    past the top (k = 300) of the coarse bracket, changes sign once, from
    k = 281 to 282; the threshold is that step's midpoint."""
    def ell(k):
        beta0 = 1 - k * THRESHOLD_TOL
        return key_length(ProtocolParams(d=2, n=300, beta0=beta0, epsilon=F(1, 100))).ell_bits

    ells = [ell(k) for k in range(1, 321)]
    steps = [k for k in range(1, 320) if (ells[k - 1] > 0) != (ells[k] > 0)]
    assert ells[0] > 0 and steps == [281]
    assert threshold_error_rate(2, 300, F(1, 100)) == float((2 * steps[0] + 1) * THRESHOLD_TOL / 2)


def test_threshold_grows_with_n():
    t300 = threshold_error_rate(2, 300, F(1, 100))
    t500 = threshold_error_rate(2, 500, F(1, 100))
    assert t300 < t500


def test_threshold_below_grid():
    with pytest.raises(ValueError, match="below the coarse grid"):
        threshold_error_rate(2, 1, F(1, 100))


def test_threshold_no_sign_change(monkeypatch):
    monkeypatch.setattr(keyrate, "key_length", lambda params: SimpleNamespace(ell_bits=1.0))
    with pytest.raises(ValueError, match="never changes sign"):
        threshold_error_rate(2, 500, F(1, 100))


@pytest.mark.parametrize("d, n, epsilon, message", [
    (0, 100, F(1, 10), "dimension d must be an integer >= 2, got 0"),
    (1, 100, F(1, 10), "dimension d must be an integer >= 2, got 1"),
    (-1, 100, F(1, 10), "dimension d must be an integer >= 2, got -1"),
    (2, 0, F(1, 10), "signal count n must be an integer >= 1, got 0"),
    (2, 100, F(3, 2), "epsilon must lie in"),
])
def test_threshold_refuses_invalid_inputs_before_evaluating(monkeypatch, d, n, epsilon, message):
    calls = []
    monkeypatch.setattr(keyrate, "key_length", calls.append)
    with pytest.raises(ValueError, match=message):
        threshold_error_rate(d, n, epsilon)
    assert calls == []

import math
import tracemalloc
from fractions import Fraction as F

import pytest

from finitekey import keyrate
from finitekey.kernel import log2_bits
from finitekey.keyrate import (
    SweepPoint,
    SweepSpec,
    key_length,
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
    spec = SweepSpec(axis="n", grid=[3, 1, 2], beta0=F(9, 10), epsilon=F(1, 2))
    pts = sweep(spec)
    assert [p.n for p in pts] == [3, 1, 2]
    assert all(p.error is None for p in pts)
    solo = key_length(ProtocolParams(d=2, n=2, beta0=F(9, 10), epsilon=F(1, 2)))
    assert pts[2].result == solo


def test_sweep_error_axis_continues_past_failures():
    spec = SweepSpec(
        axis="error_rate", grid=[F(1, 100), F(3, 5), F(2, 100)],
        n=2, epsilon=F(1, 2),
    )
    pts = sweep(spec)
    assert pts[0].error is None and pts[2].error is None
    assert pts[1].result is None and "beta0" in pts[1].error
    assert pts[0].beta0 == F(99, 100) and pts[2].beta0 == F(49, 50)


def test_sweep_reports_missing_fixed_parameters():
    pts = sweep(SweepSpec(axis="n", grid=[1], epsilon=F(1, 2)))
    assert pts[0].error == "beta0 is not set"
    pts = sweep(SweepSpec(axis="error_rate", grid=[F(1, 100)], n=1, epsilon=F(1, 2)))
    assert pts == [sweep(SweepSpec(axis="error_rate", grid=[F(1, 100)], n=1, epsilon=F(1, 2)))[0]]


def test_sweep_fixed_ntilde_floors_n():
    spec = SweepSpec(
        axis="dimension", grid=[2, 3], beta0=F(9, 10), epsilon=F(1, 2),
        fixed_ntilde=600,
    )
    pts = sweep(spec)
    assert [p.n for p in pts] == [100, 50]  # 600 // (d*(d+1))


def test_sweep_parallel_matches_serial():
    spec = SweepSpec(axis="epsilon", grid=[F(1, 10), F(1, 2)], n=3, beta0=F(9, 10))
    assert sweep(spec, workers=2) == sweep(spec)


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

    monkeypatch.setattr(keyrate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(keyrate.os, "cpu_count", lambda: cpus)
    spec = SweepSpec(axis="epsilon", grid=[F(1, 10), F(1, 4), F(1, 2)], n=3, beta0=F(9, 10))
    assert sweep(spec, workers=workers) == sweep(spec)
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


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(axis="noise", grid=[1])
    with pytest.raises(ValueError, match="sweep grid is empty"):
        SweepSpec(axis="n", grid=[])


# --- threshold ---------------------------------------------------------------

def test_threshold_small_n():
    thr = threshold_error_rate(2, 500, F(1, 100))
    assert 0.039 <= thr <= 0.041


def test_threshold_grows_with_n():
    t300 = threshold_error_rate(2, 300, F(1, 100))
    t500 = threshold_error_rate(2, 500, F(1, 100))
    assert t300 < t500


def test_threshold_below_grid():
    with pytest.raises(ValueError, match="below the coarse grid"):
        threshold_error_rate(2, 1, F(1, 100))


def test_threshold_no_sign_change():
    with pytest.raises(ValueError, match="never changes sign"):
        threshold_error_rate(2, 500, F(1, 100), coarse_step=F(1, 2))

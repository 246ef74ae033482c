"""Acceptance gate: one test per shipped guarantee, C1-C9.

Each test prints a single PASS line with the measured numbers (visible with
-s or in captured output); the pytest -v status line per test is the
machine-readable verdict.  Slow points are memoized so criteria sharing a
parameter point don't pay twice.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from finitekey.asymptotic import asymptotic_rate
from finitekey.keyrate import key_length, threshold_error_rate
from oracle import (
    brute_h0,
    brute_s0,
    brute_s2,
    conditional_string_probs,
    expand,
    single_copy_states,
    waterfill_scan,
)
from finitekey.smooth import h0_smooth, s0_smooth, s2_smooth
from finitekey.spectra import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)

ANCHOR = 0.758059  # asymptotic qubit rate at 2% error, to published precision

_CACHE: dict = {}


def kl(d, n, beta0, epsilon):
    key = (d, n, beta0, epsilon)
    if key not in _CACHE:
        p = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)
        _CACHE[key] = key_length(p)
    return _CACHE[key]


def _dense_floats(spec, dim=None):
    # pad with zeros up to dim: compressed spectra omit levels outside the
    # support (the pure-state eve spectrum is just {(1, x1)})
    vals = sorted(float(v) for v, m in spec.levels for _ in range(m))
    if dim is not None and len(vals) < dim:
        vals = [0.0] * (dim - len(vals)) + vals
    return vals


def test_c1_asymptotic_anchor():
    t0 = time.perf_counter()
    rate = asymptotic_rate(2, F(49, 50)).rate
    dt = time.perf_counter() - t0
    assert rate == pytest.approx(ANCHOR, abs=5e-6)
    assert dt < 1.0
    print(f"C1 PASS: asymptotic rate {rate:.9f} vs {ANCHOR} (|diff| < 5e-6), {dt*1e3:.1f} ms")


def test_c2_finite_key_approaches_asymptotic():
    t0 = time.perf_counter()
    res = kl(2, 10**4, F(49, 50), F(1, 100))
    dt = time.perf_counter() - t0
    ratio = res.rate / ANCHOR
    assert dt <= 60.0
    assert 0.82 <= ratio < 1.0
    print(f"C2 PASS: n=1e4 rate {res.rate:.6f}, ratio {ratio:.4f} in [0.82, 1.0), {dt:.1f} s")


def test_c3_rate_orderings():
    ns = (10**2, 10**3, 10**4)
    eps = (F(1, 100), F(1, 5), F(1, 2))
    asym = asymptotic_rate(2, F(49, 50)).rate
    for n in ns:
        rates = [kl(2, n, F(49, 50), e).rate for e in eps]
        assert all(r < asym for r in rates), f"n={n}: rate not below asymptotic"
        assert all(a <= b for a, b in zip(rates, rates[1:])), \
            f"n={n}: rate not nondecreasing in epsilon"
    print(f"C3 PASS: {len(ns) * len(eps)} points below asymptotic {asym:.6f}, "
          "nondecreasing in epsilon at fixed n")


def test_c4_qubit_threshold():
    t0 = time.perf_counter()
    thr = threshold_error_rate(2, 20000, F(1, 100))
    dt = time.perf_counter() - t0
    assert 0.09 <= thr <= 0.13
    print(f"C4 PASS: threshold {thr:.4f} in [0.09, 0.13] at n=20000, {dt:.0f} s")


def test_c5_dimension_tradeoff():
    dims = (2, 3, 4, 5)
    ns = [20000 // (d * (d + 1)) for d in dims]
    thresholds = [
        threshold_error_rate(d, n, F(1, 10)) for d, n in zip(dims, ns)
    ]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:])), \
        f"thresholds not increasing: {thresholds}"
    eff = [kl(d, n, F(99, 100), F(1, 10)).effective_rate for d, n in zip(dims, ns)]
    assert all(a > b for a, b in zip(eff, eff[1:])), \
        f"effective rates not decreasing: {eff}"
    print(f"C5 PASS: thresholds {[f'{t:.4f}' for t in thresholds]} increase with d; "
          f"effective rates {[f'{r:.4f}' for r in eff]} decrease")


def test_c6_smoothing_matches_oracles():
    checked = 0
    for d in (2, 3):
        for n in (1, 2, 3):
            for beta0 in (F(17, 20), F(19, 20)):
                p = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=F(1, 2))
                probs = conditional_string_probs(d, n, beta0)
                ev, xe, cond = eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)
                dense_ev = expand(ev)
                for eps in (F(0), F(1, 100), F(1, 10)):
                    bits0, tr = s0_smooth(ev, eps)
                    assert tr.remaining_rank == brute_s0(dense_ev, eps)
                    assert bits0 == math.log2(tr.remaining_rank)

                    bitsh, cut = h0_smooth(cond, eps)
                    assert cut.k == brute_h0(probs, eps)
                    assert bitsh == math.log2(cut.k)

                    bits2, sol = s2_smooth(xe, eps)
                    oracle_purity = waterfill_scan(xe.levels, eps)
                    assert sol.purity == oracle_purity
                    oracle_bits = -math.log2(float(oracle_purity))
                    assert bits2 == pytest.approx(oracle_bits, rel=1e-9)
                    if xe.total_dim <= 128:
                        numeric = brute_s2(expand(xe), eps)
                        assert numeric == pytest.approx(float(sol.purity), abs=1e-9)
                    checked += 1
    print(f"C6 PASS: {checked} grid points; S0/H0 exactly equal oracles, "
          "S2 within 1e-9 relative")


def test_c7_closed_forms_exact():
    for d in (2, 3):
        for n in (1, 2, 3):
            for beta0 in (F(17, 20), F(19, 20)):
                p = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=F(1, 2))
                b1 = (1 - beta0) / (d - 1)
                _, sol = s2_smooth(xe_spectrum(p), 0)
                assert sol.purity == (beta0**2 + (d - 1) * b1**2) ** n / F(d) ** n
                _, tr = s0_smooth(eve_spectrum(p), 0)
                assert tr.remaining_rank == d ** (2 * n)
                _, cut = h0_smooth(conditional_spectrum(p), 0)
                assert cut.k == d**n
    res = kl(2, 100, F(1), F(1, 4))
    assert res.ell_bits == 96.0
    print("C7 PASS: zero-smoothing purity/rank/support closed forms exact; "
          "perfect-correlation key length exact (96 bits)")


def test_c8_single_copy_states_match_spectra():
    for d in (2, 3, 4):
        for beta0 in (F(9, 10), F(49, 50), F(1)):
            rho_e, rho_xe = single_copy_states(d, beta0)
            p = ProtocolParams(d=d, n=1, beta0=beta0, epsilon=F(1, 2))
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(rho_e)),
                _dense_floats(eve_spectrum(p), rho_e.shape[0]), atol=1e-10,
            )
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(rho_xe)),
                _dense_floats(xe_spectrum(p), rho_xe.shape[0]), atol=1e-10,
            )
    print("C8 PASS: 9 explicit single-copy states match compressed spectra to 1e-10")


def test_c9_sweep_scale():
    raw = np.geomspace(10, 10**4, 50)
    grid = []
    prev = 0
    for v in raw:
        iv = max(int(round(v)), prev + 1)
        grid.append(iv)
        prev = iv
    grid[-1] = 10**4
    assert len(grid) == 50 and len(set(grid)) == 50

    times = []
    t0 = time.perf_counter()
    for n in grid:
        t1 = time.perf_counter()
        p = ProtocolParams(d=2, n=n, beta0=F(49, 50), epsilon=F(1, 100))
        key_length(p)
        times.append(time.perf_counter() - t1)
    total = time.perf_counter() - t0
    assert total <= 1800.0

    big = [(n, t) for n, t in zip(grid, times) if n >= 10**3]
    logn = np.log([n for n, _ in big])
    logt = np.log([t for _, t in big])
    slope = np.polyfit(logn, logt, 1)[0]
    assert slope <= 2.6, f"empirical scaling slope {slope:.2f} exceeds 2.6"
    print(f"C9 PASS: 50-point sweep in {total:.0f} s (limit 1800), "
          f"large-n time slope {slope:.2f} <= 2.6")

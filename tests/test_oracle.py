from fractions import Fraction as F

import numpy as np
import pytest

from oracle import (
    brute_h0,
    brute_s0,
    brute_s2,
    conditional_string_probs,
    expand,
    single_copy_states,
    waterfill_scan,
)
from finitekey.spectra import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)


def params(d=2, n=1, beta0=F(9, 10), epsilon=F(1, 2)):
    return ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)


# --- expand ------------------------------------------------------------------

def test_expand_single_copy_eve():
    assert expand(eve_spectrum(params())) == [F(1, 20)] * 3 + [F(17, 20)]


def test_expand_pure_state():
    assert expand(eve_spectrum(params(beta0=F(1)))) == [F(1)]


def test_expand_xe_two_copies():
    dense = expand(xe_spectrum(params(n=2)))
    assert len(dense) == 64
    assert sum(dense) == 1
    assert dense.count(F(0)) == 48
    assert dense == sorted(dense)


def test_expand_refuses_large_spectra():
    with pytest.raises(ValueError, match="too large to expand"):
        expand(xe_spectrum(params(n=10)))


# --- rank oracle -------------------------------------------------------------

def test_brute_s0_example():
    dense = expand(eve_spectrum(params()))
    assert brute_s0(dense, F(3, 25)) == 2
    assert brute_s0(dense, 0) == 4


def test_brute_s0_keeps_one_entry():
    assert brute_s0([F(1, 4)] * 4, F(99, 100)) == 1


def test_brute_s0_cap():
    with pytest.raises(ValueError, match="rank oracle"):
        brute_s0([F(1)] * (10**5 + 1), 0)


# --- purity oracle -----------------------------------------------------------

def test_waterfill_example():
    spec = xe_spectrum(params())
    assert waterfill_scan(spec.levels, F(1, 10)) == F(131, 400)
    assert waterfill_scan(spec.levels, 0) == sum(
        m * v * v for v, m in spec.levels
    )


def test_waterfill_full_flatten():
    # budget beyond the flattening point: both groups meet at the mean
    levels = [(F(1, 4), 2), (F(1, 2), 1)]
    assert waterfill_scan(levels, F(1, 2)) == F(1, 3)


def test_brute_s2_matches_exact_scan():
    dense = expand(xe_spectrum(params()))
    assert brute_s2(dense, F(1, 10)) == pytest.approx(131 / 400, abs=1e-9)
    assert brute_s2([F(1, 4)] * 4, F(1, 10)) == pytest.approx(0.25, abs=1e-9)


def test_brute_s2_cap():
    with pytest.raises(ValueError, match="purity oracle"):
        brute_s2([F(1, 1001)] * 1001, 0)


# --- conditional distribution ------------------------------------------------

def test_conditional_string_probs_two_copies():
    probs = conditional_string_probs(2, 2, F(9, 10))
    assert sorted(probs, reverse=True) == [
        F(81, 100), F(9, 100), F(9, 100), F(1, 100)
    ]
    dense = [
        v for v, mult in conditional_spectrum(params(n=2)).levels
        for _ in range(mult)
    ]
    assert sorted(probs) == sorted(dense)


def test_conditional_string_probs_domain():
    with pytest.raises(ValueError, match="d >= 2"):
        conditional_string_probs(1, 2, F(1))
    with pytest.raises(ValueError, match="too large to enumerate"):
        conditional_string_probs(2, 20, F(9, 10))


def test_brute_h0():
    probs = conditional_string_probs(2, 2, F(9, 10))
    assert brute_h0(probs, F(1, 20)) == 3
    assert brute_h0(probs, 0) == 4
    assert brute_h0(probs, F(99, 100)) == 1
    with pytest.raises(ValueError, match="sum to 1"):
        brute_h0([F(1, 2)], 0)


# --- explicit single-copy states ---------------------------------------------

def _dense_floats(spec):
    return sorted(float(v) for v, m in spec.levels for _ in range(m))


@pytest.mark.parametrize("d,beta0", [(2, F(49, 50)), (3, F(9, 10)), (4, F(39, 40))])
def test_single_copy_eigenvalues(d, beta0):
    rho_e, rho_xe = single_copy_states(d, beta0)
    p = params(d=d, beta0=beta0)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_e)), _dense_floats(eve_spectrum(p)),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_xe)), _dense_floats(xe_spectrum(p)),
        atol=1e-10,
    )


def test_single_copy_pure_limit():
    rho_e, rho_xe = single_copy_states(2, F(1))
    eigs = np.sort(np.linalg.eigvalsh(rho_e))
    np.testing.assert_allclose(eigs, [0, 0, 0, 1], atol=1e-12)
    xe_eigs = np.sort(np.linalg.eigvalsh(rho_xe))
    np.testing.assert_allclose(xe_eigs[-2:], [0.5, 0.5], atol=1e-12)


def test_single_copy_block_structure():
    _, rho_xe = single_copy_states(2, F(9, 10))
    assert np.allclose(rho_xe[:4, 4:], 0)
    assert np.allclose(rho_xe[4:, :4], 0)


def test_single_copy_tensor_square():
    rho_e, _ = single_copy_states(2, F(49, 50))
    pair = np.kron(rho_e, rho_e)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(pair)),
        _dense_floats(eve_spectrum(params(n=2, beta0=F(49, 50)))),
        atol=1e-10,
    )


@pytest.mark.parametrize("d,beta0", [(5, F(9, 10)), (2, F(1, 2)), (2, F(11, 10))])
def test_single_copy_domain(d, beta0):
    with pytest.raises(ValueError):
        single_copy_states(d, beta0)


# --- perturbation sampling against the purity oracle -------------------------

def test_sampled_states_never_undercut_oracle():
    dense = expand(xe_spectrum(params()))
    eps = F(1, 10)
    floor = brute_s2(dense, eps)
    lam = np.array([float(v) for v in dense])
    rng = np.random.default_rng(7)
    for _ in range(50):
        mix = rng.dirichlet(np.ones(len(dense)))
        tv = np.abs(mix - lam).sum()
        if tv > 2 * float(eps):
            mix = lam + (2 * float(eps) / tv) * (mix - lam)
        assert (mix * mix).sum() >= floor - 1e-9

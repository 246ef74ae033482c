import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from finitekey.asymptotic import asymptotic_rate
from finitekey.spectra import ProtocolParams, conditional_spectrum, eve_spectrum, xe_spectrum


def test_qubit_anchor_value():
    res = asymptotic_rate(2, F(49, 50))
    assert res.rate == pytest.approx(0.758059, abs=5e-6)
    # frozen to guard against silent regressions
    assert res.rate == pytest.approx(0.758059267147, abs=1e-11)


def test_rate_is_entropy_difference():
    res = asymptotic_rate(3, F(9, 10))
    assert res.rate == pytest.approx(res.s_xe - res.s_e - res.h_xy, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_perfect_correlations_give_log_d(d):
    # 1 - 10^-400: the error levels lie below every float, yet count
    for beta0 in (F(1), 1 - F(1, 10**400)):
        res = asymptotic_rate(d, beta0)
        assert res.s_e == 0.0 and res.h_xy == 0.0
        assert res.rate == pytest.approx(math.log2(d), abs=1e-12)


def test_entropies_against_mpmath():
    def shannon(levels):
        with mp.workdps(60):
            s = mp.fsum(
                -mult * mp.mpf(v.numerator) / v.denominator
                * mp.log(mp.mpf(v.numerator) / v.denominator, 2)
                for v, mult in levels
                if v
            )
            return float(s)

    # at d = 10^170 the eve levels near 1e-341 are below every float but
    # carry nearly all of S(E); at d = 10^155 and 10^160 some levels are
    # subnormal floats whose multiplicity no float holds
    for d, beta0 in ((2, F(9, 10)), (10**155, F(9, 10)), (10**160, F(9, 10)),
                     (10**170, F(9, 10))):
        p = ProtocolParams(d=d, n=1, beta0=beta0, epsilon=F(1, 2))
        res = asymptotic_rate(d, beta0)
        assert res.s_xe == pytest.approx(shannon(xe_spectrum(p).levels), abs=1e-12)
        assert res.s_e == pytest.approx(shannon(eve_spectrum(p).levels), abs=1e-12)
        assert res.h_xy == pytest.approx(shannon(conditional_spectrum(p).levels), abs=1e-12)


def test_rate_decreases_with_error():
    rates = [
        asymptotic_rate(2, F(1) - 2 * F(e, 100)).rate for e in (0, 1, 2, 5, 8)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("d,beta0", [(1, F(1)), (2, F(1, 2)), (2, F(11, 10)), (0, F(1))])
def test_domain_errors(d, beta0):
    with pytest.raises(ValueError):
        asymptotic_rate(d, beta0)

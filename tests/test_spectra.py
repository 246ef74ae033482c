from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitekey.spectra import (
    CompressedSpectrum,
    ProbSpectrum,
    ProtocolParams,
    _Family,
    conditional_spectrum,
    eve_spectrum,
    xe_spectrum,
)


def params(d=2, n=1, beta0=F(9, 10), epsilon=F(1, 2)):
    return ProtocolParams(d=d, n=n, beta0=beta0, epsilon=epsilon)


@st.composite
def valid_params(draw, max_n=5):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(2, 40))
    p = draw(st.integers(q // d + 1, q))
    return ProtocolParams(d=d, n=n, beta0=F(p, q), epsilon=F(1, 2))


# --- ProtocolParams ---------------------------------------------------------

def test_params_derived_fields():
    p = params(d=3, beta0=F(4, 5))
    assert p.beta1 == F(1, 10)
    assert p.error_rate == F(1, 5)
    assert p.beta0 + (p.d - 1) * p.beta1 == 1


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
    assert params(beta0=F(1)).beta1 == 0


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
    assert s.support == 4


def test_conditional_beta0_one():
    s = conditional_spectrum(params(beta0=F(1)))
    assert s.levels == [(F(1), 1)]
    assert s.support == 1


# --- invariants -------------------------------------------------------------

@given(valid_params())
@settings(max_examples=60, deadline=None)
def test_normalization_and_dims(p):
    ev, xe, cond = eve_spectrum(p), xe_spectrum(p), conditional_spectrum(p)
    assert sum(v * m for v, m in ev.levels) == 1
    assert sum(v * m for v, m in xe.levels) == 1
    assert sum(v * m for v, m in cond.levels) == 1
    if p.beta0 != 1:
        assert ev.total_dim == p.d ** (2 * p.n)
        assert cond.support == p.d ** p.n
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
    for spec in (eve_spectrum(p), xe_spectrum(p)):
        direct = [m * v.numerator * (spec.den // v.denominator)
                  for v, m in spec.levels]
        assert list(spec.iter_masses()) == [m * n_ for n_, m in zip(spec.value_nums, spec.mults)]
        assert list(spec.iter_masses()) == direct
        assert list(spec.iter_masses(reverse=True)) == direct[::-1]
    cond = conditional_spectrum(p)
    masses = [c * n_ for n_, c in zip(cond.prob_nums, cond.counts)]
    assert list(cond.iter_masses()) == masses
    assert list(cond.iter_masses(reverse=True)) == masses[::-1]


@given(valid_params(), st.integers(-1, 7), st.integers(-1, 7))
@settings(max_examples=60, deadline=None)
def test_squared_mass_window(p, lo, hi):
    spec = xe_spectrum(p)
    direct = sum(
        m * n_ * n_
        for i, (n_, m) in enumerate(zip(spec.value_nums, spec.mults))
        if lo <= i <= hi
    )
    assert spec.squared_mass_sum(lo, hi) == direct


@given(valid_params())
@settings(max_examples=30, deadline=None)
def test_family_streams_match_explicit_levels(p):
    """Rebuilding through from_levels stores explicit level lists; their
    streams must agree with the closed-form family's recurrences."""
    spec = eve_spectrum(p)
    plain = CompressedSpectrum.from_levels(spec.levels, spec.total_dim)

    def masses(s, reverse=False):
        return [F(w, s.den) for w in s.iter_masses(reverse)]

    assert masses(plain) == masses(spec)
    assert masses(plain, reverse=True) == masses(spec, reverse=True)
    m = len(spec.value_nums)
    for lo in range(m):
        for hi in range(lo, m):
            assert (
                F(plain.squared_mass_sum(lo, hi), plain.den**2)
                == F(spec.squared_mass_sum(lo, hi), spec.den**2)
            )


def _eager_levels(p):
    """(nums, mults, den, total) of eve, xe and cond, built as complete lists
    the way the eager constructors did before the spectra became lazy."""
    d, n = p.d, p.n
    a, q = p.beta0.numerator, p.beta0.denominator

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
    if p.beta0 == 1:
        return  # explicit single-level spectra, no family
    want_eve, want_xe, want_cond = _eager_levels(p)
    assert (eve.value_nums, eve.mults, eve.den, eve.total_dim) == want_eve
    assert (xe.value_nums, xe.mults, xe.den, xe.total_dim) == want_xe
    assert (cond.prob_nums, cond.counts, cond.den, cond.support) == want_cond
    # a walk seeded at any level continues the same lists, either way
    for spec, (nums, mults, _, _) in ((eve, want_eve), (xe, want_xe), (cond, want_cond)):
        rows = [(m, m * v) for v, m in zip(nums, mults)]
        for i in range(len(rows)):
            assert list(spec.walk(i)) == rows[i:]
            assert list(spec.walk(i, reverse=True)) == rows[i::-1]


# --- constructor validation -------------------------------------------------

# eve at d=2, n=3, beta0=49/50: alpha=97, beta=1, div=3
EVE_FAMILY = _Family(3, 97, 1, 3, 1)


def test_family_accepts_consistent_den_and_total():
    spec = CompressedSpectrum._of_family(EVE_FAMILY, 100**3, 4**3)
    assert spec.levels == eve_spectrum(params(n=3, beta0=F(49, 50))).levels


@pytest.mark.parametrize(
    "family, den, total, match",
    [
        (EVE_FAMILY, 100**3 + 1, 4**3, "sum to 1"),
        (EVE_FAMILY, 100**3 - 1, 4**3, "sum to 1"),
        (EVE_FAMILY, 100**3, 4**3 + 1, "multiplicities do not sum"),
        (_Family(3, 97, 1, 3, 1, zero_mult=1), 100**3, 4**3, "multiplicities do not sum"),
        (_Family(3, 1, 1, 3, 1), 4**3, 4**3, "malformed"),
        (_Family(3, 97, 0, 3, 1), 97**3, 4**3, "malformed"),
        (_Family(3, 97, 1, 3, 0), 0, 0, "malformed"),
    ],
)
def test_family_rejects_inconsistent_identities(family, den, total, match):
    with pytest.raises(ValueError, match=match):
        CompressedSpectrum._of_family(family, den, total)


def test_prob_family_rejects_zero_level():
    family = _Family(3, 97, 1, 3, 1, zero_mult=5)
    with pytest.raises(ValueError, match="zero-probability"):
        ProbSpectrum._of_family(family, 100**3, 4**3 + 5)


def test_rejects_unsorted_levels():
    with pytest.raises(ValueError):
        CompressedSpectrum.from_levels([(F(1, 2), 1), (F(1, 4), 2)], 3)


def test_rejects_bad_total():
    with pytest.raises(ValueError):
        CompressedSpectrum.from_levels([(F(1, 4), 2), (F(1, 2), 1)], 7)


def test_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        CompressedSpectrum.from_levels([(F(1, 4), 1), (F(1, 2), 1)], 2)


def test_prob_spectrum_rejects_zero_level():
    with pytest.raises(ValueError):
        ProbSpectrum([0, 1], [1, 1], 1, 2)

"""Anatomy of one finite-key evaluation.

Walks a single parameter point end to end: the three compressed spectra,
the smoothed entropies evaluated at eps' = (eps/8)^2, and how they combine
into the key length

    ell = S2 - S0 - H0 - 2 log2(1/eps).

Run:  python demos/single_point.py
"""

from fractions import Fraction as F

from finitekey import (
    ProtocolParams,
    conditional_spectrum,
    eve_spectrum,
    key_length,
    xe_spectrum,
)


def main() -> None:
    params = ProtocolParams(d=2, n=2000, beta0=F(49, 50), epsilon=F(1, 100))
    print(f"d={params.d}  n={params.n}  beta0={params.beta0} "
          f"(error rate {float(1 - params.beta0):g})  eps={params.epsilon}")
    print(f"smoothing budget eps' = (eps/8)^2 = {params.epsilon_prime}\n")

    for name, spec in [
        ("rho_XE", xe_spectrum(params)),
        ("rho_E ", eve_spectrum(params)),
        ("X|Y   ", conditional_spectrum(params)),
    ]:
        print(f"{name}: {spec.size} distinct levels, "
              f"total dimension ~ 2^{spec.total_dim.bit_length() - 1}")

    res = key_length(params)
    print()
    print(f"S2(XE) smoothed : {res.s2_bits:12.3f} bits")
    print(f"S0(E)  smoothed : {res.s0_bits:12.3f} bits")
    print(f"H0(X|Y) smoothed: {res.h0_bits:12.3f} bits")
    print(f"key length ell  : {res.ell_bits:12.3f} bits")
    print()
    print(f"rate ell/n        = {res.rate:.6f}")
    print(f"per-resource rate = {res.effective_rate:.6f}  (divide by d(d+1))")
    print(f"asymptotic limit  = {res.asymptotic_rate:.6f}")
    print(f"fraction of limit = {res.rate / res.asymptotic_rate:.1%}")


if __name__ == "__main__":
    main()

"""Finite-size convergence of the key rate.

Sweeps the sifted-key length n on a geometric grid and shows the rate
climbing toward the asymptotic value; the security parameter enters only
through a 2 log2(1/eps)/n correction plus smoothing, so the gap closes
roughly like (log n)/sqrt(n).

Next to the exact ell it prints a second-order estimate of it: each
smoothed entropy of n i.i.d. copies is n*H -/+ sqrt(n*V)*Phi^-1(1 - eps')
plus O(log n) (Hayashi, IEEE TIT 54, 2008; Tomamichel & Hayashi, IEEE TIT
59, 2013), with H the entropy and V the surprisal variance of the one-copy
spectrum, the minus sign for S2.  The gap, exact minus estimate, is those
O(log n) terms: it grows slowly while ell grows like n.  The last column
is n times the asymptotic rate.

Run:  python demos/rate_vs_n.py
"""

import math
from fractions import Fraction as F
from statistics import NormalDist

from finitekey import (
    ProtocolParams,
    asymptotic_rate,
    conditional_spectrum,
    eve_spectrum,
    sweep,
    xe_spectrum,
)

BETA0 = F(49, 50)  # 2% error rate
EPSILON = F(1, 100)


def second_order(one_copy, n, eps, sign):
    """n*H + sign * sqrt(n*V) * Phi^-1(1 - eps) in bits, from the levels of
    the one-copy spectrum."""
    probs = [(float(v), m) for v, m in one_copy.levels if v]
    h = math.fsum(-m * v * math.log2(v) for v, m in probs)
    var = math.fsum(m * v * math.log2(v) ** 2 for v, m in probs) - h * h
    return n * h + sign * math.sqrt(n * var) * NormalDist().inv_cdf(1 - float(eps))


def estimate(n):
    """S2 - S0 - H0 - 2 log2(1/eps), each entropy to second order."""
    one = ProtocolParams(d=2, n=1, beta0=BETA0, epsilon=EPSILON)
    eps = one.epsilon_prime
    return (second_order(xe_spectrum(one), n, eps, -1)
            - second_order(eve_spectrum(one), n, eps, 1)
            - second_order(conditional_spectrum(one), n, eps, 1)
            - 2 * math.log2(1 / EPSILON))


def main() -> None:
    grid = (50, 100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 100_000)
    points = [(2, n, BETA0, EPSILON) for n in grid]
    limit = asymptotic_rate(2, BETA0).rate

    print(f"d=2, error rate 2%, eps={EPSILON}; asymptotic rate {limit:.6f}\n")
    print(f"{'n':>6}  {'ell':>12}  {'estimate':>10}  {'gap':>6}  {'n*limit':>10}  "
          f"{'rate':>10}  {'of limit':>9}")
    for pt in sweep(points):
        res = pt.result
        if res is None:
            print(f"{pt.n:>6}  {pt.error}")
            continue
        est = estimate(pt.n)
        frac = res.rate / limit
        bar = "#" * max(0, round(40 * frac))
        print(f"{pt.n:>6}  {res.ell_bits:>12.1f}  {est:>10.1f}  {res.ell_bits - est:>6.1f}  "
              f"{pt.n * limit:>10.1f}  {res.rate:>10.6f}  {frac:>8.1%}  {bar}")
    print("\nnegative ell means the point is below the finite-size floor;"
          "\nthe clamped rate reported downstream is 0 there")


if __name__ == "__main__":
    main()

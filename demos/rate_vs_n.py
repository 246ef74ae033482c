"""Finite-size convergence of the key rate.

Sweeps the sifted-key length n on a geometric grid and shows the rate
climbing toward the asymptotic value; the security parameter enters only
through a 2 log2(1/eps)/n correction plus smoothing, so the gap closes
roughly like (log n)/sqrt(n).

Run:  python demos/rate_vs_n.py
"""

from fractions import Fraction as F

from finitekey import asymptotic_rate, sweep

BETA0 = F(49, 50)  # 2% error rate
EPSILON = F(1, 100)


def main() -> None:
    points = [(2, n, BETA0, EPSILON) for n in (50, 100, 200, 500, 1000, 2000, 5000)]
    limit = asymptotic_rate(2, BETA0).rate

    print(f"d=2, error rate 2%, eps={EPSILON}; asymptotic rate {limit:.6f}\n")
    print(f"{'n':>6}  {'ell':>12}  {'rate':>10}  {'of limit':>9}")
    for pt in sweep(points):
        res = pt.result
        if res is None:
            print(f"{pt.n:>6}  {pt.error}")
            continue
        frac = res.rate / limit
        bar = "#" * max(0, round(40 * frac))
        print(f"{pt.n:>6}  {res.ell_bits:>12.1f}  {res.rate:>10.6f}  "
              f"{frac:>8.1%}  {bar}")
    print("\nnegative ell means the point is below the finite-size floor;"
          "\nthe clamped rate reported downstream is 0 there")


if __name__ == "__main__":
    main()

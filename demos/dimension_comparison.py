"""Higher dimensions buy noise tolerance, not throughput.

Holds the resource budget ntilde = n*d*(d+1) fixed (each tomographic round
consumes d(d+1) prepared systems) and compares dimensions.  Two effects
compete: asymptotically the threshold error rate grows with d, but a fixed
budget leaves high dimensions with fewer rounds, so the finite-size floor
eventually claws the advantage back -- at this budget the threshold rises
through d=4 and dips again at d=5.  Raise NTILDE (try 20000) to push the
crossover out and recover the strict ordering.  The per-resource rate at a
fixed small error always favours low d.

Run:  python demos/dimension_comparison.py
"""

from fractions import Fraction as F

from finitekey import ProtocolParams, key_length, threshold_error_rate
from finitekey.keyrate import n_for_ntilde

NTILDE = 6000
EPSILON = F(1, 10)


def main() -> None:
    print(f"fixed resource budget ntilde = {NTILDE}, eps = {EPSILON}\n")
    print(f"{'d':>2}  {'n':>5}  {'threshold':>9}  {'eff.rate @1%':>12}")
    for d in (2, 3, 4, 5):
        n = n_for_ntilde(NTILDE, d)
        try:
            thr = f"{threshold_error_rate(d, n, EPSILON):9.4f}"
        except ValueError:
            thr = "    (none)"
        res = key_length(
            ProtocolParams(d=d, n=n, beta0=F(99, 100), epsilon=EPSILON)
        )
        print(f"{d:>2}  {n:>5}  {thr}  {res.effective_rate:>12.6f}")
    print("\nthreshold: largest error rate with positive raw key length")


if __name__ == "__main__":
    main()

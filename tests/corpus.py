"""The differential corpus: every smoothed entropy over one kept grid, hashed.

    PYTHONPATH=src python tests/corpus.py [--subset] [--fresh]

Each call's float and every field of its witness (lazy fields read), or its
EpsilonTooLargeError's x and y, go into one SHA-256 digest, all in hex.  The
script prints the call count, the digest and, as counts, the route of each
s2 call: whether `_purity_log2` certified the float or it fell back to the
witness, and whether the untouched middle was read by a residue pass, summed
exactly, both or neither (then only its enclosure is read).  The routes are
not hashed.  It exits 1 when the digest is not the one recorded below, so a
change that moves a float or a witness shows here; one that does so on
purpose records the new digests in this one place.  `--subset` keeps n <= 1000.
The grid reuses each point's three spectra across its budgets and scans, so
a scan may start from the points an earlier one kept; `--fresh` builds new
spectra for every call, so none does, and must print the same digest.

The grid: d in {2, 3, 5} at n in {10, 37, 100, 333, 1000, 2500, 6000} and
d in {64, 1000} at n in {10, 100, 1000, 5000}; five beta0 (those above 1/d);
budgets eps' (at epsilon = 1/100), 10^-6 and 1/100; at each point s2 on
eve, xe and cond, s0 on eve and h0 on cond.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections import Counter
from fractions import Fraction as F

from finitekey import smooth
from finitekey.smooth import EpsilonTooLargeError, h0_smooth, s0_smooth, s2_smooth
from finitekey.spectra import ProtocolParams, conditional_spectrum, eve_spectrum, xe_spectrum

SMALL_D, SMALL_N = (2, 3, 5), (10, 37, 100, 333, 1000, 2500, 6000)
LARGE_D, LARGE_N = (64, 1000), (10, 100, 1000, 5000)
BETA0S = (F(49, 50), F(9, 10), F(99, 100), F(8911, 10000), F(24, 25))
EPSILON = F(1, 100)
BUILDERS = {"eve": eve_spectrum, "xe": xe_spectrum, "cond": conditional_spectrum}
SCANS = ((s2_smooth, "eve"), (s2_smooth, "xe"), (s2_smooth, "cond"), (s0_smooth, "eve"),
         (h0_smooth, "cond"))

# (calls, SHA-256) of the full grid and of the subset
RECORDED = {
    False: (2175, "0897d137033a40adb20649c6e72bd87e78aa23b7126d92b5e6af6de4eb64554c"),
    True: (1575, "f247deade538cba689759a395afe366a3c738b10d4e1ceb5680ef2818b297eec"),
}


def points(subset: bool = False):
    """The grid's (d, n, beta0) points, in order."""
    grid = [(d, n) for d in SMALL_D for n in SMALL_N]
    grid += [(d, n) for d in LARGE_D for n in LARGE_N]
    return [(d, n, beta0) for d, n in grid if n <= 1000 or not subset
            for beta0 in BETA0S if beta0 > F(1, d)]


def _hex(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, F):
        return f"{value.numerator:#x}/{value.denominator:#x}"
    return hex(value)


def _s2_route(routes: Counter, trace: list):
    """Count the route of the s2 call that `trace` saw, and empty it."""
    if not trace:
        routes["no middle (one level, or x >= y)"] += 1
        return
    certified, residues, exact = trace.pop()
    reads = [name for name, read in (("residue pass", residues), ("exact middle", exact)) if read]
    routes[f"{'certified' if certified else 'fallback'}: "
           f"{' + '.join(reads) or 'enclosure only'}"] += 1


def run(subset: bool = False, fresh: bool = False) -> tuple[int, str, Counter]:
    """(calls, digest, s2 routes) over the grid, or its n <= 1000 part,
    each call on its point's spectra or, if fresh, on new ones."""
    digest, calls, routes, trace = hashlib.sha256(), 0, Counter(), []
    inner = smooth._purity_log2

    def traced(terms, dens, tables):
        bits, mid = inner(terms, dens, tables), terms[4]
        trace.append((bits is not None, mid.residues is not None, "exact" in vars(mid)))
        return bits

    smooth._purity_log2 = traced
    try:
        for d, n, beta0 in points(subset):
            p = ProtocolParams(d=d, n=n, beta0=beta0, epsilon=EPSILON)
            kept = {name: build(p) for name, build in BUILDERS.items()}
            for eps in (p.epsilon_prime, F(1, 10**6), F(1, 100)):
                for fn, spec_name in SCANS:
                    spec = BUILDERS[spec_name](p) if fresh else kept[spec_name]
                    try:
                        bits, sol = fn(spec, eps)
                        out = [_hex(bits)] + [f"{f.name}={_hex(getattr(sol, f.name))}"
                                              for f in dataclasses.fields(sol)]
                    except EpsilonTooLargeError as exc:
                        out = ["x >= y", _hex(exc.x), _hex(exc.y)]
                    if fn is s2_smooth:
                        _s2_route(routes, trace)
                    line = f"{fn.__name__} {spec_name} {d} {n} {beta0} {eps}: {' '.join(out)}\n"
                    digest.update(line.encode())
                    calls += 1
    finally:
        smooth._purity_log2 = inner
    return calls, digest.hexdigest(), routes


def main(argv: list[str]) -> int:
    subset = "--subset" in argv
    calls, digest, routes = run(subset, "--fresh" in argv)
    print(f"{calls} calls, sha256 {digest}")
    for route, count in sorted(routes.items()):
        print(f"  s2 {route}: {count}")
    if (calls, digest) != RECORDED[subset]:
        print(f"recorded: {RECORDED[subset][0]} calls, sha256 {RECORDED[subset][1]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

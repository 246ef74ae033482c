"""The four benchmark workloads: inputs drawn from a seed, one timed pass,
and the canonical outcomes that are checked against shipped references.

Each workload has a fixed pool of inputs.  Pool members differ by a small
offset in n (for eps-scan, in the n of the scanned spectra), so their passes
cost the same to within about a percent, yet no two timed passes of a run
repeat a computation that a result cache could answer.  The seed picks and
orders the pool members; ``passes(rng)`` returns at most ``pool`` pass
inputs, so a run never repeats one.  ``prepare(item)`` does a pass's untimed
work: eps-scan builds fresh spectrum objects for every pass there, so the
first scan over a spectrum is timed in every pass.

Outcomes map one key per checked operation to a canonical form: floats as
``float.hex``, integers and fractions as hex, and values longer than 40
characters as a truncated SHA-256 of that hex.  Traced passes add the exact
witnesses of every smoothing scan (and, for threshold, the bisection path)
to what is checked.  ``expected(item, refs)`` names every reference key a
pass must produce, so a missing outcome fails as well as a wrong one.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import fields
from fractions import Fraction

from finitekey import ProtocolParams, cli, keyrate, smooth, spectra

BETA0 = Fraction(49, 50)
EPSILON = Fraction(1, 100)
SWEEP_GRID = "0.01:0.15:0.005"
SCAN_EPSILONS = (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 10**12))

# "smoke" is a tiny copy of "full" for the benchmark's own test.
SCALES = {
    "full": {
        "pool": 16,
        "ladder": (("n1e3", 1000), ("n1e4", 10000), ("n2e4", 20000)),
        # n = 3993..4008 all take 15 key_length evaluations (4009 takes 16)
        "threshold": 3993,
        "sweep": (3, 3000),
        "eps-scan": ((10000, Fraction(49, 50)), (6000, Fraction(8911, 10000))),
    },
    "smoke": {
        "pool": 3,
        "ladder": (("n50", 50), ("n100", 100), ("n200", 200)),
        "threshold": 200,
        "sweep": (3, 200),
        "eps-scan": ((200, Fraction(49, 50)), (150, Fraction(8911, 10000))),
    },
}


def canon(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Fraction):
        text = f"{value.numerator:x}/{value.denominator:x}"
    elif isinstance(value, int):
        text = f"{value:x}"
    else:
        text = str(value)
    if len(text) > 40:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]
    return text


def canon_witness(w) -> dict:
    return {f.name: canon(getattr(w, f.name)) for f in fields(w)}


def _scan_witnesses(scans) -> dict:
    return {name.split(".")[1] + "_w": canon_witness(w) for name, _, _, _, w in scans}


class Workload:
    def prepare(self, item) -> None:
        """Untimed work before the pass that runs ``item``."""

    def extras(self, outs, walls) -> dict:
        """Ungated figures of an untraced run."""
        return {}


class Ladder(Workload):
    """key_length(d=2, beta0=49/50, eps=1/100) at n near 1e3, 1e4 and 2e4."""

    name = "ladder"
    uses_pool = False

    def __init__(self, scale: str, tmpdir: str):
        self.classes = SCALES[scale]["ladder"]
        self.pool = SCALES[scale]["pool"]

    def passes(self, rng):
        order = {label: rng.sample(range(self.pool), self.pool) for label, _ in self.classes}
        out = []
        for i in range(self.pool):
            items = [(label, base + order[label][i]) for label, base in self.classes]
            rng.shuffle(items)
            out.append(items)
        return out

    def reference_passes(self):
        return [[(label, base + k) for label, base in self.classes] for k in range(self.pool)]

    def expected(self, items, refs):
        return [str(n) for _, n in items]

    def run(self, items, tracer, workers):
        out = []
        for label, n in items:
            params = ProtocolParams(d=2, n=n, beta0=BETA0, epsilon=EPSILON)
            mark = len(tracer.stats.scans) if tracer else 0
            t0 = time.perf_counter()
            res = keyrate.key_length(params)
            dt = time.perf_counter() - t0
            scans = tracer.stats.scans[mark:] if tracer else None
            out.append((label, n, dt, res, scans))
        return out

    def outcomes(self, out) -> dict:
        got = {}
        for _, n, _, res, scans in out:
            rec = {
                k: canon(getattr(res, k))
                for k in ("s2_bits", "s0_bits", "h0_bits", "ell_bits", "rate", "asymptotic_rate")
            }
            if scans is not None:
                rec.update(_scan_witnesses(scans))
            got[str(n)] = rec
        return got

    def extras(self, outs, walls) -> dict:
        lat = {}
        for out in outs:
            for label, _, dt, _, _ in out:
                lat.setdefault(label, []).append(dt)
        return {f"point_s.{label}": statistics.median(v) for label, v in lat.items()}


class Threshold(Workload):
    """threshold_error_rate(d=2, n near 4000, eps=1/100): dependent key_length calls."""

    name = "threshold"
    uses_pool = False

    def __init__(self, scale: str, tmpdir: str):
        self.base = SCALES[scale]["threshold"]
        self.pool = SCALES[scale]["pool"]

    def passes(self, rng):
        return [self.base + k for k in rng.sample(range(self.pool), self.pool)]

    def reference_passes(self):
        return [self.base + k for k in range(self.pool)]

    def expected(self, n, refs):
        return [str(n)]

    def run(self, n, tracer, workers):
        mark = len(tracer.stats.points) if tracer else 0
        thr = keyrate.threshold_error_rate(2, n, EPSILON)
        path = tracer.stats.points[mark:] if tracer else None
        return n, thr, path

    def outcomes(self, out) -> dict:
        n, thr, path = out
        rec = {"threshold": canon(thr)}
        if path is not None:
            rec["path"] = [[canon(1 - p.beta0), canon(r.ell_bits)] for p, r in path]
        return {str(n): rec}


class Sweep(Workload):
    """`finitekey sweep` over 29 error rates at d=3 through cli.main, in a pool."""

    name = "sweep"
    uses_pool = True

    def __init__(self, scale: str, tmpdir: str):
        self.d, self.base = SCALES[scale]["sweep"]
        self.pool = SCALES[scale]["pool"]
        self.csv_path = os.path.join(tmpdir, "sweep.csv")

    def passes(self, rng):
        return [self.base + k for k in rng.sample(range(self.pool), self.pool)]

    def reference_passes(self):
        return [self.base + k for k in range(self.pool)]

    def expected(self, n, refs):
        """Every CSV row of the reference and the exit status."""
        return [key for key in refs if key.split("/")[0] == str(n)]

    def run(self, n, tracer, workers):
        status = cli.main([
            "sweep", "--d", str(self.d), "--n", str(n), "--epsilon", "0.01",
            "--sweep-error", SWEEP_GRID, "--workers", str(workers),
            "--out", self.csv_path,
        ])
        with open(self.csv_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        return n, status, rows

    def outcomes(self, out) -> dict:
        n, status, rows = out
        got = {f"{n}/{i}": {"row": canon(row)} for i, row in enumerate(rows)}
        got[f"{n}/status"] = {"status": str(status)}
        return got

    def extras(self, outs, walls) -> dict:
        points = len(outs[0][2]) - 1
        return {"points_per_s": points / statistics.median(walls)}


class EpsScan(Workload):
    """s0, s2 and h0 at four budgets over spectra built before each pass."""

    name = "eps-scan"
    uses_pool = False
    _SCANS = (
        ("eve", "s0_smooth"),
        ("xe", "s2_smooth"),
        ("cond", "h0_smooth"),
    )

    def __init__(self, scale: str, tmpdir: str):
        self.bases = SCALES[scale]["eps-scan"]
        self.pool = SCALES[scale]["pool"]
        self.built_k = None
        self.spectra = None

    def _scan_list(self):
        return [
            (i, kind, fn, eps)
            for i in range(len(self.bases))
            for kind, fn in self._SCANS
            for eps in SCAN_EPSILONS
        ]

    def passes(self, rng):
        """One pass per pool member, each running every scan in a seeded order."""
        out = []
        for k in rng.sample(range(self.pool), self.pool):
            scans = self._scan_list()
            rng.shuffle(scans)
            out.append((k, scans))
        return out

    def reference_passes(self):
        return [(k, self._scan_list()) for k in range(self.pool)]

    def expected(self, item, refs):
        k, scans = item
        return [f"{k}/{i}/{fn}/{eps}" for i, _, fn, eps in scans]

    def prepare(self, item):
        """Build pool member k's spectra as new objects, unless they were
        just built for this pass (the first pass's are built in set-up)."""
        k, _ = item
        if self.built_k == k:
            return
        self.spectra = None  # free the previous pass's spectra first
        built = []
        for n, beta0 in self.bases:
            p = ProtocolParams(d=2, n=n + k, beta0=beta0, epsilon=EPSILON)
            built.append({
                "eve": spectra.eve_spectrum(p),
                "xe": spectra.xe_spectrum(p),
                "cond": spectra.conditional_spectrum(p),
            })
        self.spectra, self.built_k = built, k

    def run(self, item, tracer, workers):
        k, scans = item
        self.built_k = None  # the next pass, even of the same k, builds anew
        out = []
        for i, kind, fn, eps in scans:
            bits, w = getattr(smooth, fn)(self.spectra[i][kind], eps)
            out.append((k, i, fn, eps, bits, w))
        return out

    def outcomes(self, out) -> dict:
        return {
            f"{k}/{i}/{fn}/{eps}": {"bits": canon(bits), "w": canon_witness(w)}
            for k, i, fn, eps, bits, w in out
        }


WORKLOADS = {wl.name: wl for wl in (Ladder, Threshold, Sweep, EpsScan)}

"""One fresh benchmark process: ``probe`` or ``measure`` one workload.

    python3 perfbench/worker.py {probe|measure} WORKLOAD SEED SECONDS TRACE SCALE

Run from the root of a checkout; finitekey is imported from ``src/`` there
and nowhere else.  Both roles do the workload's set-up (import, input
generation, and the first pass's ``prepare``: for eps-scan its spectrum
builds) and report the ``time.monotonic()`` at which it finished, so the
parent can time set-up from process start.  ``measure`` then runs timed
passes until SECONDS of measuring have passed (every variant at least once,
never past the input pool; each later pass's untimed ``prepare`` is not
counted), checks each pass against the shipped references outside the timed
region, and prints one JSON object.  ``perfbench/run.py`` is the entry point
that drives this.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")


def import_finitekey(root: str):
    """Put ``root/src`` first on sys.path and make sure finitekey comes from it."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import finitekey

    if os.path.dirname(os.path.dirname(os.path.abspath(finitekey.__file__))) != src:
        raise ImportError(f"finitekey was not imported from {src}")
    return finitekey


# Reference fields that only a traced pass records.
TRACE_ONLY = ("path", "s0_w", "s2_w", "h0_w")


def check(got: dict, refs: dict, expected, traced: bool) -> tuple[int, int, list[str]]:
    """Compare one pass's outcomes with the references.  Every expected key
    must be produced and no other; a record matches when it equals its
    reference, less the fields of TRACE_ONLY when the pass was untraced.
    Returns (attempted, failed, failed keys)."""
    keys = sorted(set(expected) | set(got))
    failed = []
    for key in keys:
        ref = refs.get(key)
        if key not in expected or ref is None:
            failed.append(key)
            continue
        want = {f: v for f, v in ref.items() if traced or f not in TRACE_ONLY}
        if got.get(key) != want:
            failed.append(key)
    return len(keys), len(failed), failed


def calibrate() -> float:
    """Seconds for a fixed big-integer loop in the mix finitekey spends its
    time on: big-by-small steps of a recurrence growing from 63k to about
    85k bits, plus a few big-by-big products.  It uses no finitekey code, so
    only the machine moves it; timing it around every pass lets
    ``wall_calib`` cancel the minute-scale speed drift of a shared host.
    The fastest of three runs is taken, so a stall of a few hundred
    milliseconds during one run does not count."""
    return min(_calibration_loop() for _ in range(3))


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    w = 3 ** 40000
    acc = 0
    for j in range(1, 6000):
        w = w * (7919 + j % 4000) // (j % 4000 + 1)
        if j % 200 == 0:
            acc ^= (w * w) >> 100000
    return time.perf_counter() - t0


def _cpu_s():
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(setup, traced, walls, plain_walls, parallel_walls, workers, largest):
    """Per-layer metrics of a traced run.

    Times are self seconds per traced pass (mean over passes, so they add
    up), plus work done in set-up charged once in full: only eps-scan builds
    spectra there.  Counts are per traced pass.
    """

    def per_pass(fn):
        return fn(setup) + _mean([fn(s) for s in traced])

    def self_s(key):
        return per_pass(lambda s: s.self_time.get(key, 0.0))

    def touched(span):
        return per_pass(lambda s: sum(t for name, _, t, _, _ in s.scans if name == span))

    all_scans = [sc for s in [setup, *traced] for sc in s.scans]
    stored = sum(sc[1] for sc in all_scans)
    evals = "keyrate.threshold>keyrate.key_length"
    in_sweep = "keyrate.sweep>keyrate.key_length"
    n_evals = _mean([s.count.get(evals, 0) for s in traced])
    eval_time = _mean([s.total.get(evals, 0.0) for s in traced])
    parallel = _median(parallel_walls)
    point_sum = _mean([s.total.get(in_sweep, 0.0) for s in traced])
    accounted = [sum(s.self_time[k] for k in s.self_time if ">" not in k) + s.hook_s for s in traced]
    return {
        "spectra.eve_s": self_s("spectra.eve"),
        "spectra.xe_s": self_s("spectra.xe"),
        "spectra.cond_s": self_s("spectra.cond"),
        "spectra.levels_stored": largest["levels"],
        "spectra.bytes": largest["bytes"],
        "spectra.den_bits": largest["den_bits"],
        "smooth.s0_s": self_s("smooth.s0"),
        "smooth.s2_s": self_s("smooth.s2"),
        "smooth.h0_s": self_s("smooth.h0"),
        "smooth.s0_touched": touched("smooth.s0"),
        "smooth.s2_touched": touched("smooth.s2"),
        "smooth.h0_touched": touched("smooth.h0"),
        "smooth.touched_frac": sum(sc[2] for sc in all_scans) / stored if stored else 0.0,
        "keyrate.key_length_self_s": self_s("keyrate.key_length"),
        "asymptotic.rate_s": self_s("asymptotic.rate"),
        "keyrate.threshold_evals": n_evals,
        "keyrate.threshold_eval_s": eval_time / n_evals if n_evals else 0.0,
        "keyrate.sweep_parallel_eff": point_sum / (workers * parallel) if parallel else 0.0,
        "keyrate.sweep_max_point_s": _median([s.longest.get(in_sweep, 0.0) for s in traced]),
        "cli.self_s": self_s("cli.main"),
        "kernel.log2_bits_s": self_s("kernel.log2_bits"),
        "trace.wall_s": _median(walls),
        "trace.overhead_s": _median(walls) - _median(plain_walls),
        "trace.residual_s": _mean([w - a for w, a in zip(walls, accounted)]),
    }


def measure(wl, items, seconds: float, trace: bool, workers: int, tracer, refs, setup_stats):
    # (traced, workers) per pass, cycled.  A traced sweep runs serially in
    # this process, since pool workers are out of the tracer's reach; its
    # untraced serial twin gives the tracing overhead and an untraced pool
    # pass the parallel efficiency.
    if not trace:
        cycle = [(False, workers)]
    else:
        cycle = [(True, 1), (False, 1)]
        if workers > 1:
            cycle.append((False, workers))
    passes = {v: [] for v in cycle}  # variant -> [(wall, cpu, calib, output, stats)]
    attempted = failed = 0
    mismatches = []
    calib = calibrate() if not trace else 0.0
    elapsed = 0.0  # measuring time, less the untimed prepare steps
    for i, item in enumerate(items):
        if i >= len(cycle) and elapsed >= seconds:
            break
        variant = cycle[i % len(cycle)]
        traced, w = variant
        wl.prepare(item)
        start = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            c0 = _cpu_s()
            t0 = time.perf_counter()
            out = wl.run(item, tracer if traced else None, w)
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - c0
        stats = tracer.take() if traced else None
        if not trace:
            before, calib = calib, calibrate()
            passes[variant].append((wall, cpu, (before + calib) / 2, out, stats))
        else:
            passes[variant].append((wall, cpu, 0.0, out, stats))
        a, f, keys = check(wl.outcomes(out), refs, wl.expected(item, refs), traced)
        attempted += a
        failed += f
        mismatches += keys
        elapsed += time.perf_counter() - start

    def walls(variant):
        return [p[0] for p in passes.get(variant, [])]

    report = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:10],
        "passes": {f"{'traced' if t else 'plain'}/{w}": len(p) for (t, w), p in passes.items()},
    }
    if trace:
        report["metrics"] = layer_metrics(
            setup_stats,
            [p[4] for p in passes[(True, 1)]],
            walls((True, 1)),
            walls((False, 1)),
            walls((False, workers)) if workers > 1 else [],
            workers,
            tracer.largest,
        )
    else:
        plain = passes[cycle[0]]
        report["metrics"] = {"wall_calib": _median([p[0] / p[2] for p in plain])}
        report["extras"] = {
            "wall_s": _median(walls(cycle[0])),
            "cpu_s": _median([p[1] for p in plain]),
            "calib_s": _median([p[2] for p in plain]),
            **wl.extras([p[3] for p in plain], walls(cycle[0])),
        }
    return report


def main(argv: list[str]) -> int:
    role, name, seed, seconds, trace, scale = argv
    root = os.getcwd()
    import_finitekey(root)
    import workloads
    from tracing import Tracer

    trace = trace == "1"
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmpdir:
        wl = workloads.WORKLOADS[name](scale, tmpdir)
        workers = min(2, os.cpu_count() or 1) if wl.uses_pool else 1
        rng = random.Random(int(seed))
        tracer = Tracer()
        with tracer.installed() if trace else nullcontext():
            items = wl.passes(rng)
            wl.prepare(items[0])
        setup_stats = tracer.take()
        ready = time.monotonic()
        if role == "probe":
            print(json.dumps({"ready": ready}))
            return 0
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)[scale][name]
        report = measure(wl, items, float(seconds), trace, workers, tracer, refs, setup_stats)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["ready"] = ready
    report["peak_rss_mb"] = max(own, children) / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

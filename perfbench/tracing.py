"""Runtime span tracing for the benchmark's traced runs.

The tracer wraps public functions of finitekey at the module attributes
their callers look up at call time (``finitekey.keyrate.eve_spectrum`` is
the binding ``key_length`` calls), so no source file changes and nothing is
wrapped outside ``Tracer.installed()``.  Every wrapped call is a span.  A
span's self time is its duration minus the durations of the wrapped calls
made inside it, so self times of all spans plus the caller's own time add up
to the wall time.  Spans are aggregated in memory per name and per
``parent>child`` pair: call count, total time, self time and longest call.

Hooks run after a span ends and read its result: spectrum sizes, scan
witnesses and key-length points.  Their cost is kept out of every span and
reported as ``hook_s``.  The hooks read the spectrum classes' stored levels
(``value_nums``/``mults``, ``prob_nums``/``counts``, ``den``) directly, so a
change of that layout fails here until the tracer follows it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import finitekey.cli
import finitekey.keyrate
import finitekey.smooth
import finitekey.spectra
from finitekey.spectra import CompressedSpectrum

_SPECTRA = {
    "eve_spectrum": "spectra.eve",
    "xe_spectrum": "spectra.xe",
    "conditional_spectrum": "spectra.cond",
}
_SCANS = {
    "s0_smooth": "smooth.s0",
    "s2_smooth": "smooth.s2",
    "h0_smooth": "smooth.h0",
}


class PassStats:
    """Span aggregates and hook records of one traced pass (or set-up)."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.longest = defaultdict(float)
        self.hook_s = 0.0
        self.scans = []   # (span name, levels stored, levels touched, bits, witness)
        self.points = []  # (ProtocolParams, KeyRateResult) per key_length call

    def add(self, key: str, dt: float, self_dt: float) -> None:
        self.count[key] += 1
        self.total[key] += dt
        self.self_time[key] += self_dt
        self.longest[key] = max(self.longest[key], dt)


def _stored(spec):
    """(numerators, multiplicities) of a CompressedSpectrum or ProbSpectrum."""
    if isinstance(spec, CompressedSpectrum):
        return spec.value_nums, spec.mults
    return spec.prob_nums, spec.counts


def _spectrum_hook(tracer, args, spec):
    nums, mults = _stored(spec)
    size = sum(map(sys.getsizeof, nums)) + sum(map(sys.getsizeof, mults))
    lg = tracer.largest
    lg["levels"] = max(lg["levels"], len(nums))
    lg["bytes"] = max(lg["bytes"], size)
    lg["den_bits"] = max(lg["den_bits"], spec.den.bit_length())


def _scan_hook(name):
    def hook(tracer, args, out):
        bits, w = out
        touched = w.b_minus + w.b_plus if hasattr(w, "b_minus") else w.b
        stored = len(_stored(args[0])[0])
        tracer.stats.scans.append((name, stored, touched, bits, w))
    return hook


def _point_hook(tracer, args, out):
    tracer.stats.points.append((args[0], out))


class Tracer:
    def __init__(self):
        self.stats = PassStats()
        self.largest = {"levels": 0, "bytes": 0, "den_bits": 0}
        self._stack = []  # [span name, time spent in wrapped children]
        km, sm, sp = finitekey.keyrate, finitekey.smooth, finitekey.spectra
        self._bindings = (
            [(km, f, span, _spectrum_hook) for f, span in _SPECTRA.items()]
            + [(sp, f, span, _spectrum_hook) for f, span in _SPECTRA.items()]
            + [(km, f, span, _scan_hook(span)) for f, span in _SCANS.items()]
            + [(sm, f, span, _scan_hook(span)) for f, span in _SCANS.items()]
            + [
                (km, "asymptotic_rate", "asymptotic.rate", None),
                (km, "log2_bits", "kernel.log2_bits", None),
                (sm, "log2_bits", "kernel.log2_bits", None),
                (km, "key_length", "keyrate.key_length", _point_hook),
                (km, "threshold_error_rate", "keyrate.threshold", None),
                (finitekey.cli, "sweep", "keyrate.sweep", None),
                (finitekey.cli, "main", "cli.main", None),
            ]
        )

    def take(self) -> PassStats:
        """Return the stats gathered since the last take and start afresh."""
        stats, self.stats = self.stats, PassStats()
        return stats

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in self._bindings]
        try:
            for (mod, attr, span, hook), (_, _, fn) in zip(self._bindings, saved):
                setattr(mod, attr, self._wrap(span, fn, hook))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
            stats = self.stats
            stats.add(name, dt, dt - frame[1])
            if parent is not None:
                parent[1] += dt
                stats.add(f"{parent[0]}>{name}", dt, dt - frame[1])
            if hook is not None:
                h0 = time.perf_counter()
                hook(self, args, out)
                h = time.perf_counter() - h0
                stats.hook_s += h
                if parent is not None:
                    parent[1] += h
            return out

        return traced

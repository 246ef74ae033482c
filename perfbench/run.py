"""Benchmark for finitekey: four closed-loop workloads with one caller each.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in fresh processes
(``worker.py``): a few set-up probes, then one measuring process, so peak
RSS never leaks across workloads.  The benchmark times calls into the
package's public functions from outside; it edits no source file.

Workloads (inputs come from a fixed pool; the seed picks and orders them):

- ``ladder``: key_length(d=2, beta0=49/50, eps=1/100) at n near 1e3, 1e4
  and 2e4, one of each per pass.  Spectrum builds dominate and memory grows
  as n^2.
- ``threshold``: threshold_error_rate(d=2, n near 4000, eps=1/100), about
  15 dependent key_length calls per pass.  Its lattice error rates have
  larger denominators, so operands are wider than in ladder.
- ``sweep``: ``finitekey sweep --d 3 --n ~3000 --epsilon 0.01
  --sweep-error 0.01:0.15:0.005 --workers min(2, nproc)`` through cli.main.
  The only workload using the process pool, the CLI and d > 2.
- ``eps-scan``: s0, s2 and h0 at eps in {1/2, 1/100, 1e-6, 1e-12} over two
  spectrum sets built as new objects before each pass, untimed (the first
  pass's in set-up); smoothing does all the timed work.

With ``--trace 0`` the metrics are ``wall_calib`` (median over passes of
one pass's wall time divided by the time of a fixed big-integer loop run
just before and after it, ``worker.calibrate``; on a shared host this
cancels most of the machine's speed drift, which moves raw wall times by
up to 25% within minutes), ``setup_s`` (fresh process until the first
timed call, median over the probes and the measuring process) and
``peak_rss_mb`` (largest ru_maxrss of the measuring process and its pool
workers).  With ``--trace 1`` the public functions are wrapped at runtime
(``tracing.py``) and the per-layer metrics of ``BENCHMARK.json`` are
reported.  The line before the result carries the run's stamp and the
ungated figures: raw ``wall_s``, ``cpu_s`` and ``calib_s`` per pass,
``error_ratio``, ``point_s.*`` on ladder and ``points_per_s`` on sweep.
Every output is checked against ``refs.json`` (``make_refs.py``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is nonzero, with no result line, if the package cannot be
imported from ``src/`` or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("ladder", "threshold", "sweep", "eps-scan")
PROBES = {"ladder": 6, "threshold": 6, "sweep": 6, "eps-scan": 2}
DEADLINE_S = 170  # a run must end within 180 s


def _src_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        out += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py")]
    return out


def src_lines(root) -> int:
    total = 0
    for path in _src_files(root):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _git_commit(root):
    """HEAD commit read from .git in the checkout itself, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(root, args) -> dict:
    digest = hashlib.sha256()
    for path in _src_files(root):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": src_lines(root),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
    }


def _child(role, args, timeout):
    """Run one worker process; return (start monotonic time, its JSON)."""
    cmd = [sys.executable, WORKER, role, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), args.scale]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with status {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root, args) -> tuple[dict, dict]:
    """Return (report line, result line) for one workload."""
    start = time.monotonic()
    setup = []
    if not args.trace:
        for _ in range(PROBES[args.workload]):
            t0, probe = _child("probe", args, DEADLINE_S)
            setup.append(probe["ready"] - t0)
    t0, rep = _child("measure", args, DEADLINE_S - (time.monotonic() - start))
    setup.append(rep["ready"] - t0)

    report = stamp(root, args)
    report["passes"] = rep["passes"]
    report["mismatches"] = rep["mismatches"]
    report["error_ratio"] = rep["failed"] / rep["attempted"]
    metrics = rep["metrics"]
    if args.trace:
        metrics["src.lines"] = report["src_lines"]
        units = _units("per_layer")
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = rep["peak_rss_mb"]
        report["setup_samples_s"] = setup
        report.update(rep["extras"])
        units = _units("end_to_end")
    result = {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return report, result


def _units(kind) -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finitekey", "__init__.py")):
        print(f"no finitekey package under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        report, result = run_workload(root, args)
        print(json.dumps(report))
        print(json.dumps(result))
        return 0
    status = 0
    for name in WORKLOAD_NAMES:
        # a fresh driver process per workload, so each stays within its deadline
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(json.dumps({"workload": name, "error": f"exit status {proc.returncode}"}))
            status = 1
            continue
        print(json.dumps({"workload": name, "report": json.loads(lines[-2]),
                          "result": json.loads(lines[-1])}))
    return status


if __name__ == "__main__":
    sys.exit(main())

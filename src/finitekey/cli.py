"""Command-line front end: single evaluations, sweeps, threshold location,
and the asymptotic reference, emitted as CSV/TSV tables.

Decimal parameters are parsed into exact rationals, so 0.02 on the command
line is the fraction 1/50 all the way through the kernel.  Domain failures
(invalid beta0, epsilon out of range, ...) become per-row ERROR cells with
exit status 1; malformed flags exit 2 before any output.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from typing import Optional

from .asymptotic import asymptotic_rate
from .kernel import rational_from_decimal
from .keyrate import n_for_ntilde, sweep, threshold_error_rate

HEADER = [
    "d", "n", "beta0", "error_rate", "epsilon", "epsilon_prime",
    "S2", "S0", "H0", "ell",
    "rate", "rate_clamped", "effective_rate", "asymptotic_rate",
]
THRESHOLD_HEADER = ["d", "n", "epsilon", "threshold_error_rate"]

# Longest grid a sweep accepts, in steps: a linear grid takes one step per
# point, a log grid at least one.  One point at n >= 1e3 already costs tens
# of milliseconds, so a longer grid is a typo, and expanding it could exhaust
# memory (or, for a log ratio near 1, time) before the first point runs.
MAX_GRID_POINTS = 10**5


def _g(x: float) -> str:
    return f"{x:.12g}"


def _frac(x: Optional[Fraction]) -> str:
    return "" if x is None else _g(float(x))


def _decimal(text: str) -> Fraction:
    try:
        return rational_from_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _error_rate(text: str) -> Fraction:
    return 1 - _decimal(text)


def _int_list(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part]
    except ValueError:
        out = []
    if not out:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return out


def _decimal_list(text: str) -> list[Fraction]:
    out = [_decimal(part) for part in text.split(",") if part]
    if not out:
        raise argparse.ArgumentTypeError(f"expected comma-separated decimals, got {text!r}")
    return out


def _too_long(text: str) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(
        f"grid {text!r} is too long: more than {MAX_GRID_POINTS} steps"
    )


def _n_grid(text: str) -> list[int]:
    """a:b:step for linear grids, a:b:ratio:log for geometric ones."""
    parts = text.split(":")
    try:
        if len(parts) == 3:
            a, b, step = int(parts[0]), int(parts[1]), int(parts[2])
            if step <= 0 or a > b:
                raise ValueError
            grid = range(a, b + 1, step)
            if len(grid) > MAX_GRID_POINTS:
                raise _too_long(text)
            return list(grid)
        if len(parts) == 4 and parts[3] == "log":
            a, b, ratio = int(parts[0]), int(parts[1]), float(parts[2])
            if a < 1 or a > b or ratio <= 1:
                raise ValueError
            out = []
            x = float(a)
            # a ratio near 1 takes many steps per point: bound the steps
            for _ in range(MAX_GRID_POINTS + 1):
                if x > b + 0.5:
                    return out
                v = round(x)
                if not out or v > out[-1]:
                    out.append(v)
                x *= ratio
            raise _too_long(text)
    except (ValueError, OverflowError):  # b too large for a float
        pass
    raise argparse.ArgumentTypeError(
        f"expected a:b:step or a:b:ratio:log, got {text!r}"
    )


def _decimal_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    a, b, step = (_decimal(p) for p in parts)
    if step <= 0 or a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if (b - a) // step + 1 > MAX_GRID_POINTS:
        raise _too_long(text)
    out = []
    v = a
    while v <= b:
        out.append(v)
        v += step
    return out


def _row(d, n, beta0, epsilon, values) -> list[str]:
    """A HEADER row: the parameter columns (blank where unset), then the
    value cells, padded with blanks to the full width."""
    eps_p = None if epsilon is None else (Fraction(epsilon) / 8) ** 2
    row = ["" if d is None else str(d), "" if n is None else str(n), _frac(beta0),
           _frac(None if beta0 is None else 1 - beta0), _frac(epsilon), _frac(eps_p)]
    row += values
    return row + [""] * (len(HEADER) - len(row))


def _result_row(res) -> list[str]:
    p = res.params
    return _row(p.d, p.n, p.beta0, p.epsilon, map(_g, (
        res.s2_bits, res.s0_bits, res.h0_bits, res.ell_bits,
        res.rate, res.rate_clamped, res.effective_rate, res.asymptotic_rate,
    )))


def _points(args, parser) -> list[tuple]:
    """The (d, n, beta0, epsilon) points the flags ask for, in order, with n
    floored per d under --fixed-ntilde; a usage error if they conflict."""
    if args.mode == "compute":
        return [(args.d, args.n, args.beta0, args.epsilon)]
    if args.mode == "threshold":
        if (args.n is None) == (args.fixed_ntilde is None):
            parser.error("need exactly one of --n or --fixed-ntilde")
        axis, grid = "d", args.sweep_d or [args.d]
    else:
        axis, grid = _sweep_axis(args, parser)
    d, n, beta0, epsilon = (2 if args.d is None else args.d), args.n, args.beta0, args.epsilon
    points = []
    for v in grid:
        if axis == "n":
            n = v
        elif axis == "error":
            beta0 = 1 - v
        elif axis == "epsilon":
            epsilon = v
        else:
            d = v
        if args.fixed_ntilde is not None:
            n = n_for_ntilde(args.fixed_ntilde, d)
        points.append((d, n, beta0, epsilon))
    return points


def _sweep_axis(args, parser) -> tuple[str, list]:
    """The swept axis and its grid; a usage error if the flags conflict."""
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.sweep_n is not None:
        axis, grid = "n", args.sweep_n
        if args.n is not None:
            parser.error("--n conflicts with --sweep-n")
        if args.fixed_ntilde is not None:
            parser.error("--fixed-ntilde conflicts with --sweep-n")
    elif args.sweep_error is not None:
        axis, grid = "error", args.sweep_error
        if args.beta0 is not None:
            parser.error("--beta0/--error-rate conflict with --sweep-error")
    elif args.sweep_epsilon is not None:
        axis, grid = "epsilon", args.sweep_epsilon
        if args.epsilon is not None:
            parser.error("--epsilon conflicts with --sweep-epsilon")
    else:
        axis, grid = "d", args.sweep_d
        if args.d is not None:
            parser.error("--d conflicts with --sweep-d")
    if axis != "n" and args.n is None and args.fixed_ntilde is None:
        parser.error("need --n or --fixed-ntilde")
    if axis != "error" and args.beta0 is None:
        parser.error("need --beta0 or --error-rate")
    if axis != "epsilon" and args.epsilon is None:
        parser.error("need --epsilon")
    return axis, grid


def _run_sweep(points, workers: int) -> list[list[str]]:
    return [
        _result_row(pt.result) if pt.error is None
        else _row(pt.d, pt.n, pt.beta0, pt.epsilon, [f"ERROR:{pt.error}"])
        for pt in sweep(points, workers=workers)
    ]


def _run_threshold(points) -> list[list[str]]:
    rows = []
    for d, n, _, epsilon in points:
        try:
            value = f"{threshold_error_rate(d, n, epsilon):.4f}"
        except ValueError as exc:
            value = f"ERROR:{exc}"
        rows.append([str(d), "" if n is None else str(n), _frac(epsilon), value])
    return rows


def _run_asymptotic(args) -> list[list[str]]:
    d, beta0 = args.d, args.beta0
    try:
        ar = asymptotic_rate(d, beta0)
    except ValueError as exc:
        return [_row(d, None, beta0, None, [f"ERROR:{exc}"])]
    return [_row(d, None, beta0, None, [
        _g(ar.s_xe), _g(ar.s_e), _g(ar.h_xy), "",
        _g(ar.rate), _g(max(ar.rate, 0.0)), _g(ar.rate / (d * (d + 1))), _g(ar.rate),
    ])]


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "tsv"), default="csv")


def _add_beta_flags(sp, required: bool) -> None:
    grp = sp.add_mutually_exclusive_group(required=required)
    grp.add_argument("--beta0", type=_decimal, help="agreement probability")
    grp.add_argument("--error-rate", dest="beta0", type=_error_rate,
                     metavar="ERROR_RATE", help="error rate 1 - beta0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekey",
        description="Finite-key rates for d-dimensional tomographic QKD, "
        "computed in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    c = sub.add_parser("compute", help="evaluate one parameter point")
    c.add_argument("--d", type=int, default=2, help="signal dimension")
    c.add_argument("--n", type=int, required=True, help="sifted-key length")
    _add_beta_flags(c, required=True)
    c.add_argument("--epsilon", type=_decimal, required=True, help="security parameter")
    c.set_defaults(workers=1)
    _add_output_flags(c)

    s = sub.add_parser("sweep", help="evaluate a one-axis parameter grid")
    s.add_argument("--d", type=int, default=None, help="signal dimension (default 2)")
    s.add_argument("--n", type=int, default=None, help="sifted-key length")
    _add_beta_flags(s, required=False)
    s.add_argument("--epsilon", type=_decimal, default=None)
    axis = s.add_mutually_exclusive_group(required=True)
    axis.add_argument("--sweep-n", type=_n_grid, metavar="a:b:step[:log]",
                      help="n grid; with :log the third field is the ratio")
    axis.add_argument("--sweep-error", type=_decimal_grid, metavar="a:b:step")
    axis.add_argument("--sweep-epsilon", type=_decimal_list, metavar="v1,v2,...")
    axis.add_argument("--sweep-d", type=_int_list, metavar="d1,d2,...")
    s.add_argument("--fixed-ntilde", type=int, default=None,
                   help="hold n*(d+1)*d fixed; n = floor(ntilde / (d*(d+1)))")
    s.add_argument("--workers", type=int, default=1)
    _add_output_flags(s)

    t = sub.add_parser("threshold", help="bisect the zero of the raw key length")
    dims = t.add_mutually_exclusive_group()
    # a str default passes through type=int; an int one hides --d 2 from the conflict
    dims.add_argument("--d", type=int, default="2")
    dims.add_argument("--sweep-d", type=_int_list, metavar="d1,d2,...")
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--fixed-ntilde", type=int, default=None)
    t.add_argument("--epsilon", type=_decimal, required=True)
    t.set_defaults(beta0=None)
    _add_output_flags(t)

    a = sub.add_parser("asymptotic", help="n -> infinity reference rate")
    a.add_argument("--d", type=int, default=2)
    _add_beta_flags(a, required=True)
    _add_output_flags(a)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every usage error, an unwritable --out included, comes before the
    # first point is computed
    if args.mode == "asymptotic":
        header, run = HEADER, lambda: _run_asymptotic(args)
    elif args.mode == "threshold":
        points = _points(args, parser)
        header, run = THRESHOLD_HEADER, lambda: _run_threshold(points)
    else:
        points = _points(args, parser)
        header, run = HEADER, lambda: _run_sweep(points, args.workers)

    delim = "," if args.format == "csv" else "\t"
    if args.out:
        try:
            handle = open(args.out, "w", newline="", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    else:
        handle = sys.stdout
    try:
        rows = run()
        writer = csv.writer(handle, delimiter=delim, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            handle.close()
    # a point that failed on domain grounds keeps its row, with an ERROR cell
    return int(any(cell.startswith("ERROR:") for row in rows for cell in row))


if __name__ == "__main__":
    raise SystemExit(main())

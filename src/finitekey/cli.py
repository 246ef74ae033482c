"""Command-line front end: single evaluations, sweeps, threshold location,
and the asymptotic reference, emitted as CSV/TSV tables.

Decimal parameters are parsed into exact rationals, so 0.02 on the command
line is the fraction 1/50 all the way through the kernel.  Domain failures
(invalid beta0, epsilon out of range, ...) become per-row ERROR cells with
exit status 1; malformed flags exit 2 before any output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import sys
from fractions import Fraction
from typing import Optional

from .asymptotic import asymptotic_rate
from .kernel import log2_bits, rational_from_decimal
from .keyrate import POINT_ERRORS, n_for_ntilde, sweep, threshold_error_rate
from .spectra import smoothing_budget

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
    """A rational cell: blank, 12 digits, or exact where no float holds it,
    unless str() cannot print it: then 12 digits and an exponent, found
    without converting x's ints to decimal."""
    if x is None:
        return ""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f or not x:  # a nonzero x whose float underflows to 0 is printed exactly too
        return _g(f)
    try:
        return str(x)
    except ValueError:  # an int past str()'s digit limit: x = m * 10^e, m of 12 digits
        a, e = abs(x), math.floor(log2_bits(abs(x)) * math.log10(2)) - 11
        while not 10**11 <= (m := round(a / Fraction(10) ** e)) < 10**12:
            e += 1 if m >= 10**12 else -1
        return f"{'-' * (x < 0)}{m / 10**11:.12g}e{e + 11:+}"


def _decimal(text: str) -> Fraction:
    try:
        return rational_from_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _error_rate(text: str) -> Fraction:
    return 1 - _decimal(text)


def _list_of(item):
    """An argparse type: comma-separated values, each parsed by item (which
    raises ValueError on a bad one), at least one of them."""
    def parse(text: str) -> list:
        try:
            out = [item(part) for part in text.split(",") if part]
        except ValueError:
            out = []
        if not out:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return out
    return parse


def _too_long(text: str) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(
        f"grid {text!r} is too long: more than {MAX_GRID_POINTS} steps"
    )


def _steps(a, b, step, text: str) -> list:
    """a, a + step, ... up to b, for ints or Fractions alike."""
    if step <= 0 or a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    count = (b - a) // step + 1
    if count > MAX_GRID_POINTS:
        raise _too_long(text)
    return [a + i * step for i in range(count)]


def _n_grid(text: str) -> list[int]:
    """a:b:step for linear grids, a:b:ratio:log for geometric ones."""
    parts = text.split(":")
    try:
        if len(parts) == 3:
            return _steps(*map(int, parts), text)
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
    return _steps(*map(_decimal, parts), text)


def _row(d, n, beta0, epsilon, values) -> list[str]:
    """A HEADER row: the parameter columns (blank where unset), then the
    value cells, padded with blanks to the full width."""
    eps_p = None if epsilon is None else smoothing_budget(epsilon)
    row = [str(d), "" if n is None else str(n), _frac(beta0),
           _frac(None if beta0 is None else 1 - beta0), _frac(epsilon), _frac(eps_p)]
    row += values
    return row + [""] * (len(HEADER) - len(row))


def _result_row(res) -> list[str]:
    p = res.params
    return _row(p.d, p.n, p.beta0, p.epsilon, map(_g, (
        res.s2_bits, res.s0_bits, res.h0_bits, res.ell_bits,
        res.rate, res.rate_clamped, res.effective_rate, res.asymptotic_rate,
    )))


def _points(args) -> list[tuple]:
    """The (d, n, beta0, epsilon) points the flags ask for, in order: the
    grid of the one --sweep-* flag given, if any, with the other fields
    fixed, and n floored per d under --fixed-ntilde."""
    if args.mode == "sweep":
        if args.workers < 1:
            args.subparser.error("--workers must be >= 1")
        axes = (args.sweep_n, args.sweep_error, args.sweep_epsilon, args.sweep_d)
        if sum(grid is not None for grid in axes) != 1:
            args.subparser.error("give exactly one of --sweep-n, --sweep-error, "
                                 "--sweep-epsilon or --sweep-d")
    fields = (
        args.sweep_d or [2 if args.d is None else args.d],
        args.sweep_n or [args.n],
        [1 - e for e in args.sweep_error] if args.sweep_error else [args.beta0],
        args.sweep_epsilon or [args.epsilon],
    )
    # at most one field has a grid, so the product runs through it in order
    return [
        (d, n if args.fixed_ntilde is None else n_for_ntilde(args.fixed_ntilde, d),
         beta0, epsilon)
        for d, n, beta0, epsilon in itertools.product(*fields)
    ]


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
        except POINT_ERRORS as exc:
            value = f"ERROR:{exc}"
        rows.append([str(d), "" if n is None else str(n), _frac(epsilon), value])
    return rows


def _run_asymptotic(points) -> list[list[str]]:
    [(d, _, beta0, _)] = points
    try:
        ar = asymptotic_rate(d, beta0)
        # the effective rate can overflow even where the entropies do not
        cells = [_g(ar.s_xe), _g(ar.s_e), _g(ar.h_xy), "",
                 _g(ar.rate), _g(max(ar.rate, 0.0)), _g(ar.rate / (d * (d + 1))), _g(ar.rate)]
    except POINT_ERRORS as exc:
        cells = [f"ERROR:{exc}"]
    return [_row(d, None, beta0, None, cells)]


# The flags that can set each point field.  A subcommand takes some of
# them, each field's as one mutually exclusive group, so that no field is
# set twice; argparse then compares a given value with the default by
# identity, which is why --d defaults to None and is read as 2.
_FIELD_FLAGS = {
    "d": (
        ("--d", dict(type=int, help="signal dimension (default 2)")),
        ("--sweep-d", dict(type=_list_of(int), metavar="d1,d2,...")),
    ),
    "n": (
        ("--n", dict(type=int, help="sifted-key length")),
        ("--fixed-ntilde", dict(
            type=int, help="hold n*(d+1)*d fixed; n = floor(ntilde / (d*(d+1)))")),
        ("--sweep-n", dict(type=_n_grid, metavar="a:b:step[:log]",
                           help="n grid; with :log the third field is the ratio")),
    ),
    "beta0": (
        ("--beta0", dict(type=_decimal, help="agreement probability")),
        ("--error-rate", dict(dest="beta0", type=_error_rate, metavar="ERROR_RATE",
                              help="error rate 1 - beta0")),
        ("--sweep-error", dict(type=_decimal_grid, metavar="a:b:step")),
    ),
    "epsilon": (
        ("--epsilon", dict(type=_decimal, help="security parameter")),
        ("--sweep-epsilon", dict(type=_list_of(rational_from_decimal),
                                 metavar="v1,v2,...")),
    ),
}


def _add_flags(sp, *flags: str) -> None:
    """Give a subcommand the named point flags, one group per field, which
    must be given unless it is d (a flag it lacks reads as None), the
    output flags, and itself as `subparser`, whose usage the errors found
    after parsing print."""
    for field, options in _FIELD_FLAGS.items():
        taken = [(flag, kw) for flag, kw in options if flag in flags]
        if taken:
            grp = sp.add_mutually_exclusive_group(required=field != "d")
            for flag, kw in taken:
                grp.add_argument(flag, **kw)
    sp.set_defaults(subparser=sp, **{
        kw.get("dest", flag[2:].replace("-", "_")): None
        for options in _FIELD_FLAGS.values() for flag, kw in options if flag not in flags
    })
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "tsv"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekey",
        description="Finite-key rates for d-dimensional tomographic QKD, "
        "computed in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    c = sub.add_parser("compute", help="evaluate one parameter point")
    _add_flags(c, "--d", "--n", "--beta0", "--error-rate", "--epsilon")
    c.set_defaults(workers=1)

    s = sub.add_parser("sweep", help="evaluate a one-axis parameter grid")
    _add_flags(s, "--d", "--sweep-d", "--n", "--fixed-ntilde", "--sweep-n", "--beta0",
               "--error-rate", "--sweep-error", "--epsilon", "--sweep-epsilon")
    s.add_argument("--workers", type=int, default=1)

    t = sub.add_parser("threshold", help="bisect the zero of the raw key length")
    _add_flags(t, "--d", "--sweep-d", "--n", "--fixed-ntilde", "--epsilon")

    a = sub.add_parser("asymptotic", help="n -> infinity reference rate")
    _add_flags(a, "--d", "--beta0", "--error-rate")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # every usage error, an unwritable --out included, comes before the
    # first point is computed
    points = _points(args)
    if args.mode == "asymptotic":
        header, run = HEADER, _run_asymptotic
    elif args.mode == "threshold":
        header, run = THRESHOLD_HEADER, _run_threshold
    else:
        header, run = HEADER, lambda pts: _run_sweep(pts, args.workers)

    try:
        handle = (open(args.out, "w", newline="", encoding="utf-8") if args.out
                  else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        args.subparser.error(f"cannot write --out {args.out}: {exc.strerror}")
    with handle as out:
        rows = run(points)
        writer = csv.writer(out, delimiter="," if args.format == "csv" else "\t",
                            lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    # a point that failed on domain grounds keeps its row, with an ERROR cell
    return int(any(cell.startswith("ERROR:") for row in rows for cell in row))


if __name__ == "__main__":
    raise SystemExit(main())

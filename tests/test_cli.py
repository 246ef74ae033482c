import argparse
import csv
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction as F

import pytest

from finitekey import cli, spectra


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out.splitlines()


def cells(line, delim=","):
    # ERROR cells may contain commas and arrive quoted
    return next(csv.reader([line], delimiter=delim))


def test_compute_header_and_exact_row(capsys):
    rc, lines = run(capsys, [
        "compute", "--d", "2", "--n", "100", "--beta0", "1",
        "--epsilon", "0.25",
    ])
    assert rc == 0
    assert lines[0] == ",".join(cli.HEADER)
    row = cells(lines[1])
    assert len(row) == len(cli.HEADER)
    assert row[0] == "2" and row[1] == "100"
    assert row[2] == "1" and row[3] == "0"
    assert row[4] == "0.25" and row[5] == "0.0009765625"
    assert row[6] == "100" and row[7] == "0" and row[8] == "0"
    assert row[9] == "96" and row[10] == "0.96"
    assert row[13] == "1"


def test_error_rate_flag_matches_beta0(capsys):
    _, by_beta = run(capsys, ["compute", "--n", "10", "--beta0", "0.98",
                              "--epsilon", "0.5"])
    _, by_err = run(capsys, ["compute", "--n", "10", "--error-rate", "0.02",
                             "--epsilon", "0.5"])
    assert by_beta == by_err


def test_compute_domain_error_row(capsys):
    rc, lines = run(capsys, ["compute", "--n", "10", "--beta0", "0.4",
                             "--epsilon", "0.5"])
    assert rc == 1
    row = cells(lines[1])
    assert len(row) == len(cli.HEADER)
    assert row[6].startswith("ERROR:")


def test_compute_refuses_an_oversized_point(monkeypatch, capsys):
    """n = 1e8 is refused with an ERROR row and exit 1, before any
    spectrum is built: an exact point that size would run for days."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized spectrum was built")

    monkeypatch.setattr(spectra, "CompressedSpectrum", refuse)
    rc, lines = run(capsys, ["compute", "--n", "100000000", "--error-rate", "0.02",
                             "--epsilon", "0.01"])
    assert rc == 1
    row = cells(lines[1])
    assert row[1] == "100000000" and row[6].startswith("ERROR:point too large")


@pytest.mark.parametrize("argv", [
    ["compute", "--n", "10", "--beta0", "0.9"],            # missing epsilon
    ["compute", "--n", "10", "--epsilon", "0.5"],          # missing beta group
    ["sweep", "--sweep-n", "1:3:1", "--n", "5",
     "--beta0", "0.9", "--epsilon", "0.5"],                # axis conflicts with fixed
    ["sweep", "--beta0", "0.9", "--epsilon", "0.5"],       # no axis at all
    ["threshold", "--d", "2", "--epsilon", "0.01"],        # neither n nor ntilde
    ["threshold", "--d", "2", "--n", "5", "--fixed-ntilde", "60",
     "--epsilon", "0.01"],                                 # both
    ["threshold", "--d", "3", "--sweep-d", "2", "--n", "200",
     "--epsilon", "0.1"],                                  # --d conflicts with --sweep-d
    ["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9"],     # missing epsilon
    ["sweep", "--sweep-n", "1:3:1", "--epsilon", "0.5"],   # missing beta group
    ["threshold", "--d", "2", "--sweep-d", "3", "--n", "200",
     "--epsilon", "0.1"],                                  # --d at its default value too
    ["sweep", "--sweep-d", ",", "--n", "10", "--beta0", "0.9",
     "--epsilon", "0.5"],                                  # empty integer list
    ["sweep", "--sweep-epsilon", "", "--n", "10", "--beta0", "0.9"],  # empty decimals
    ["threshold", "--sweep-d", ",", "--n", "500",
     "--epsilon", "0.01"],                                 # empty threshold dimensions
    ["sweep", "--sweep-d", "2,x", "--n", "10", "--beta0", "0.9",
     "--epsilon", "0.5"],                                  # not an integer list
    ["sweep", "--sweep-n", "10:30:10", "--fixed-ntilde", "600",
     "--beta0", "0.9", "--epsilon", "0.5"],                # ntilde conflicts with axis n
    ["sweep", "--sweep-error", "0.01:0.02:0.01", "--n", "10",
     "--error-rate", "0.1", "--epsilon", "0.5"],           # beta flag vs error axis
    ["sweep", "--sweep-epsilon", "0.1,0.5", "--epsilon", "0.5",
     "--n", "10", "--beta0", "0.9"],                       # epsilon vs epsilon axis
    ["sweep", "--sweep-d", "2,3", "--d", "2", "--n", "10",
     "--beta0", "0.9", "--epsilon", "0.5"],                # --d vs dimension axis
    ["sweep", "--sweep-d", "2,3", "--beta0", "0.9",
     "--epsilon", "0.5"],                                  # need --n or --fixed-ntilde
    ["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9", "--epsilon", "0.5",
     "--workers", "0"],                                    # no workers
    ["compute", "--n", "4", "--beta0", "0.9", "--epsilon", "0.5",
     "--out", "/nonexistent-dir/x.csv"],                   # unwritable output
    ["sweep", "--sweep-d", "2", "--n", "10", "--fixed-ntilde", "600",
     "--beta0", "0.9", "--epsilon", "0.5"],                # --n vs --fixed-ntilde
    ["sweep", "--sweep-error", "0.01:0.02:0.01", "--n", "10",
     "--fixed-ntilde", "600", "--epsilon", "0.5"],         # the same on another axis
    ["sweep", "--d", "2", "--n", "10", "--beta0", "0.9",
     "--epsilon", "0.5"],                                  # every field fixed, no axis
    ["sweep", "--sweep-d", "2,3", "--sweep-n", "1:3:1", "--beta0", "0.9",
     "--epsilon", "0.5"],                                  # two axes
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9", "--epsilon", "0.5", "--workers", "0"],
    ["sweep", "--d", "2", "--n", "10", "--beta0", "0.9", "--epsilon", "0.5"],
    ["sweep", "--sweep-d", "2,3", "--sweep-n", "1:3:1", "--beta0", "0.9", "--epsilon", "0.5"],
    ["compute", "--n", "4", "--beta0", "0.9", "--epsilon", "0.5",
     "--out", "/nonexistent-dir/x.csv"],
    ["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9", "--epsilon", "0.5",
     "--out", "/nonexistent-dir/x.csv"],
])
def test_errors_after_parsing_print_the_subcommand_usage(capsys, argv):
    """--workers, the one-axis rule and --out are checked after parsing, and
    still print the usage of the subcommand given, not the top level's."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: finitekey {argv[0]} ")


@pytest.mark.parametrize("argv, computes", [
    (["compute", "--n", "4", "--beta0", "0.9", "--epsilon", "0.5"], "sweep"),
    (["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9", "--epsilon", "0.5"], "sweep"),
    (["threshold", "--n", "300", "--epsilon", "0.01"], "threshold_error_rate"),
])
def test_unwritable_out_fails_before_any_point(monkeypatch, capsys, tmp_path, argv, computes):
    calls = []
    monkeypatch.setattr(cli, computes, lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code == 2 and calls == []
    assert "cannot write --out" in capsys.readouterr().err


def test_asymptotic_anchor_row(capsys):
    rc, lines = run(capsys, ["asymptotic", "--d", "2", "--error-rate", "0.02"])
    assert rc == 0
    row = cells(lines[1])
    assert row[1] == "" and row[4] == "" and row[9] == ""
    assert row[10] == "0.758059267147"
    assert row[13] == row[10]


def test_asymptotic_error_row(capsys):
    rc, lines = run(capsys, ["asymptotic", "--beta0", "0.4"])
    assert rc == 1
    row = cells(lines[1])
    assert len(row) == len(cli.HEADER)
    assert row[:6] == ["2", "", "0.4", "0.6", "", ""]
    assert row[6].startswith("ERROR:") and row[7:] == [""] * 7


def test_sweep_linear_grid(capsys):
    rc, lines = run(capsys, ["sweep", "--sweep-n", "1:3:1", "--beta0", "0.9",
                             "--epsilon", "0.5"])
    assert rc == 0
    assert [cells(r)[1] for r in lines[1:]] == ["1", "2", "3"]


def test_sweep_log_grid(capsys):
    _, lines = run(capsys, ["sweep", "--sweep-n", "1:100:10:log",
                            "--beta0", "0.9", "--epsilon", "0.5"])
    assert [cells(r)[1] for r in lines[1:]] == ["1", "10", "100"]


def test_sweep_error_grid_continues_past_failures(capsys):
    rc, lines = run(capsys, ["sweep", "--sweep-error", "0.45:0.55:0.05",
                             "--n", "2", "--epsilon", "0.5"])
    assert rc == 1
    rows = [cells(r) for r in lines[1:]]
    assert len(rows) == 3
    assert rows[0][3] == "0.45" and not rows[0][6].startswith("ERROR:")
    assert rows[1][6].startswith("ERROR:") and rows[2][6].startswith("ERROR:")


def test_sweep_workers_deterministic(capsys):
    argv = ["sweep", "--sweep-epsilon", "0.1,0.5", "--n", "3",
            "--beta0", "0.9"]
    _, serial = run(capsys, argv + ["--workers", "1"])
    _, parallel = run(capsys, argv + ["--workers", "2"])
    assert serial == parallel


def test_sweep_dimension_with_fixed_ntilde(capsys):
    _, lines = run(capsys, ["sweep", "--sweep-d", "2,3", "--fixed-ntilde",
                            "600", "--beta0", "0.9", "--epsilon", "0.5"])
    rows = [cells(r) for r in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3"]
    assert [r[1] for r in rows] == ["100", "50"]


def test_tsv_and_file_output(capsys, tmp_path):
    argv = ["compute", "--n", "4", "--beta0", "0.9", "--epsilon", "0.5"]
    _, csv_lines = run(capsys, argv)
    rc, tsv_lines = run(capsys, argv + ["--format", "tsv"])
    assert rc == 0
    assert cells(tsv_lines[0], "\t") == cli.HEADER
    assert cells(tsv_lines[1], "\t") == cells(csv_lines[1])

    out = tmp_path / "rows.csv"
    rc = cli.main(argv + ["--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert out.read_text().splitlines() == csv_lines


def test_threshold_table(capsys):
    rc, lines = run(capsys, ["threshold", "--d", "2", "--n", "500",
                             "--epsilon", "0.01"])
    assert rc == 0
    assert lines[0] == ",".join(cli.THRESHOLD_HEADER)
    row = cells(lines[1])
    assert row[:3] == ["2", "500", "0.01"]
    assert row[3] == "0.0399"


def test_threshold_error_row(capsys):
    rc, lines = run(capsys, ["threshold", "--d", "2", "--n", "1",
                             "--epsilon", "0.01"])
    assert rc == 1
    assert cells(lines[1])[3].startswith("ERROR:")


def test_threshold_sweep_d(capsys):
    rc, lines = run(capsys, ["threshold", "--sweep-d", "2,3",
                             "--fixed-ntilde", "3000", "--epsilon", "0.1"])
    assert rc == 0
    rows = [cells(r) for r in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3"]
    assert [r[1] for r in rows] == ["500", "250"]
    assert all(0 < float(r[3]) < 0.5 for r in rows)



@pytest.mark.parametrize("argv, d_n", [
    (["threshold", "--d", "0", "--n", "100", "--epsilon", "0.1"], [["0", "100"]]),
    (["threshold", "--d", "1", "--n", "100", "--epsilon", "0.1"], [["1", "100"]]),
    (["threshold", "--d", "-1", "--fixed-ntilde", "600", "--epsilon", "0.1"], [["-1", ""]]),
    (["threshold", "--sweep-d", "2,1,0", "--n", "100", "--epsilon", "0.1"],
     [["2", "100"], ["1", "100"], ["0", "100"]]),
    (["sweep", "--sweep-d", "2,0", "--fixed-ntilde", "600", "--error-rate", "0.02",
      "--epsilon", "0.1"], [["2", "100"], ["0", ""]]),
])
def test_dimension_below_two_is_an_error_row(capsys, argv, d_n):
    """Each point with d < 2 gives an ERROR row, also where d*(d+1) = 0
    leaves --fixed-ntilde no n; the other points still run."""
    rc, lines = run(capsys, argv)
    assert rc == 1
    rows = [cells(r) for r in lines[1:]]
    assert [r[:2] for r in rows] == d_n
    value = 3 if argv[0] == "threshold" else 6
    for (d, _), row in zip(d_n, rows):
        error = f"ERROR:dimension d must be an integer >= 2, got {d}"
        assert (row[value] == error) == (int(d) < 2)
        assert not row[value].startswith("ERROR:") or int(d) < 2


HUGE = str(10**400)  # beyond any float
WIDE_D = str(10**155)  # its square is beyond any float


@pytest.mark.parametrize("argv", [
    ["compute", "--n", "10", "--beta0", HUGE, "--epsilon", "0.1"],
    ["compute", "--n", "10", "--error-rate", "-" + HUGE, "--epsilon", "0.1"],
    ["compute", "--n", "10", "--beta0", "0.9", "--epsilon", HUGE],
    ["asymptotic", "--beta0", HUGE],
    ["threshold", "--n", "10", "--epsilon", HUGE],
    ["sweep", "--sweep-epsilon", "0.1," + HUGE, "--n", "5", "--beta0", "0.9"],
    ["asymptotic", "--d", WIDE_D, "--beta0", "0.9"],
    ["threshold", "--d", WIDE_D, "--n", "1", "--epsilon", "0.1"],
    ["compute", "--d", WIDE_D, "--n", "1", "--beta0", "0.9", "--epsilon", "0.1"],
    pytest.param(["asymptotic", "--d", HUGE, "--beta0", "0.9"], id="asymptotic--d-huge"),
], ids=lambda argv: argv[0] + next(  # mode and the flag given the wide value
    flag for flag, value in zip(argv, argv[1:]) if HUGE in value or WIDE_D in value))
def test_values_beyond_floats_are_error_rows(capsys, argv):
    """A value no float holds refuses its point with an ERROR row and exit
    1, in every mode, as an out-of-domain value does; the cells that show
    it print it exactly rather than raise OverflowError."""
    rc, lines = run(capsys, argv)
    assert rc == 1
    row = cells(lines[-1])
    assert any(cell.startswith("ERROR:") for cell in row)
    assert any(HUGE in cell or WIDE_D in cell for cell in row)


NEAR_ONE = "0." + "9" * 400  # 1 - 10^-400: no float tells it from 1
TINY = "0." + "0" * 399 + "1"  # 10^-400: its float is 0


@pytest.mark.parametrize("argv", [
    ["compute", "--n", "10", "--beta0", NEAR_ONE, "--epsilon", "0.1"],
    ["asymptotic", "--beta0", NEAR_ONE],
    ["asymptotic", "--d", str(10**170), "--beta0", "0.9"],
    ["compute", "--n", "10", "--beta0", "0.9", "--epsilon", TINY],
    ["threshold", "--n", "300", "--epsilon", TINY],
    ["sweep", "--sweep-epsilon", "0.1," + TINY, "--n", "5", "--beta0", "0.9"],
], ids=lambda argv: argv[0] + next(  # mode and the flag given the long value
    flag for flag, value in zip(argv, argv[1:]) if len(value) > 100))
def test_values_below_floats_print_and_run(capsys, argv):
    """A parameter whose float is 0 or 1 but that is not is still a valid
    point: the entropies run, and its cells print it exactly, never as 0."""
    rc, lines = run(capsys, argv)
    header = cells(lines[0])
    params = [header.index(c) for c in ("beta0", "error_rate", "epsilon", "epsilon_prime")
              if c in header]
    for line in lines[1:]:
        row = cells(line)
        assert not any("math domain error" in cell for cell in row)
        assert all(row[i] != "0" for i in params)
    if argv[0] == "compute":
        assert rc == 0


def test_values_past_str_digits_print_with_an_exponent(capsys):
    """eps = 10^-2200 puts eps' = (eps/8)^2 = 1.5625 * 10^-4402 past every
    float and its denominator past str()'s 4300 digits: the point still
    runs, and that cell prints 12 digits and an exponent.  eps itself,
    short enough for str(), prints exactly."""
    rc, lines = run(capsys, ["compute", "--n", "10", "--beta0", "0.9",
                             "--epsilon", "0." + "0" * 2199 + "1"])
    assert rc == 0
    row = dict(zip(cli.HEADER, cells(lines[1])))
    assert row["epsilon_prime"] == "1.5625e-4402"
    assert row["epsilon"] == "1/1" + "0" * 2200
    assert not any(cell.startswith("ERROR:") for cell in row.values())


def test_frac_past_str_digits():
    """Past str()'s digit limit a cell is x rounded to 12 significant
    digits, of either sign and past either end of the floats, and an
    exponent read without converting x's ints to decimal: a mantissa that
    rounds up to 10 moves to the next exponent."""
    tiny, huge = F(1, 10**4400), F(10**5000)
    assert cli._frac(tiny * F(1, 64)) == "1.5625e-4402"
    assert cli._frac(-tiny / 3) == "-3.33333333333e-4401"
    assert cli._frac(huge * F(10**15 - 1, 10**15)) == "1e+5000"
    assert cli._frac(huge * F(2, 3)) == "6.66666666667e+4999"

# --- grid parsers ------------------------------------------------------------

def test_n_grid_parsers():
    assert cli._n_grid("10:30:10") == [10, 20, 30]
    assert cli._n_grid("1:100:10:log") == [1, 10, 100]
    assert cli._n_grid("1:4:1.5:log") == [1, 2, 3]  # rounded, deduped
    for bad in (
        "1:2", "1:2:3:4:5", "a:b:c", "1:10:2:linear", f"1:{10**400}:2:log",
        "1:3:0", "3:1:1", "0:10:2:log", "1:10:1:log", "10:1:2:log",
    ):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._n_grid(bad)


def test_decimal_parsers():
    assert cli._decimal("0.25") == F(1, 4)
    with pytest.raises(argparse.ArgumentTypeError):
        cli._decimal("1/4")
    assert cli._decimal_grid("0.01:0.03:0.01") == [F(1, 100), F(1, 50), F(3, 100)]
    decimal_list, int_list = cli._list_of(cli.rational_from_decimal), cli._list_of(int)
    assert decimal_list("0.1,0.5") == [F(1, 10), F(1, 2)]
    assert int_list("2,3,4") == [2, 3, 4]
    for bad in ("0.1:0.2", "0.1:0.2:0.3:0.4", "0.2:0.1:0.01", "0.1:0.2:0"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._decimal_grid(bad)
    for parse, bad in ((int_list, ""), (int_list, ",,"), (int_list, "2,x"),
                       (decimal_list, ""), (decimal_list, ",")):
        with pytest.raises(argparse.ArgumentTypeError):
            parse(bad)


# --- grid length cap ---------------------------------------------------------

CAP = cli.MAX_GRID_POINTS


@pytest.mark.parametrize("axis", [
    ["--sweep-n", "1:1000000000000:1"],
    ["--sweep-n", f"1:{CAP + 1}:1"],
    ["--sweep-n", "1:1000000000000:1.0000001:log"],
    ["--sweep-error", "0:0.5:0.000000001"],
    ["--sweep-error", f"0:{CAP}:1"],
])
def test_oversized_grids_exit_2(capsys, axis):
    """Grids past the cap are refused while parsing, before any expansion."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["sweep", *axis])
    assert exc.value.code == 2
    assert "too long" in capsys.readouterr().err


def test_grids_at_the_cap_are_accepted():
    parse = cli.build_parser().parse_args
    args = parse(["sweep", "--sweep-n", f"1:{CAP}:1", "--beta0", "0.9", "--epsilon", "0.5"])
    assert len(args.sweep_n) == CAP
    args = parse(["sweep", "--sweep-error", f"1:{CAP}:1", "--n", "10", "--epsilon", "0.5"])
    assert len(args.sweep_error) == CAP


def test_readme_commands_parse():
    """Every `finitekey ...` command in README's "Command line" section
    parses, so the documented flags are the ones the parser takes."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line")[1].split("\n## ")[0]
    commands = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(c)[1:] for c in commands if c.startswith("finitekey ")]
    assert len(commands) == 6
    for argv in commands:
        cli.build_parser().parse_args(argv)


# --- runtime dependencies ----------------------------------------------------

def test_package_runs_without_numpy():
    """The package needs only the standard library: every module of it
    imports, and the CLI computes a point, with numpy unavailable, and every
    top-level module imported on the way (past those the interpreter loaded
    at start-up) is in the standard library or is finitekey.  So no import
    of gmpy2 or mpmath, say, can slip in.  The point leaves
    `concurrent.futures` unimported: `sweep` imports its pool only when it
    runs one, which keeps a one-point run's start-up short."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['numpy'] = None",
        "at_start = set(sys.modules)",
        "import finitekey, finitekey.cli",
        "for mod in pkgutil.iter_modules(finitekey.__path__):",
        "    importlib.import_module('finitekey.' + mod.name)",
        "status = finitekey.cli.main(['compute', '--n', '100',",
        "    '--beta0', '0.98', '--epsilon', '0.01'])",
        "assert 'concurrent.futures' not in sys.modules, 'compute imported the pool'",
        "tops = {m.partition('.')[0] for m in set(sys.modules) - at_start}",
        "other = tops - set(sys.stdlib_module_names) - {'finitekey'}",
        "assert not other, f'imported outside the standard library: {sorted(other)}'",
        "raise SystemExit(status)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(cli.HEADER)

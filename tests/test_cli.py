"""CLI contracts: schemas, exit codes, determinism, failure trailers."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rabistark.cli as cli
from rabistark.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from rabistark.eigen import SolverError, spectrum_at_cutoff
from rabistark.fockspace import ModelParams, Variant


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_spectrum_csv_schema_and_content(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = main(
        [
            "spectrum", "--model", "stark", "--delta", "1", "--g", "0.2",
            "--scan", "u=0:0.2:0.1", "--levels", "3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["sweep_value", "level_index", "energy", "source",
                       "cutoff", "classification"]
    numeric = [r for r in rows[1:] if r[3] == "numeric"]
    analytic = [r for r in rows[1:] if r[3].startswith("analytic")]
    assert len(numeric) == 9  # 3 sweep points x 3 levels
    assert analytic, "analytic branch rows missing"
    assert all(r[5] == "Converged" for r in numeric)
    # 17-significant-digit scientific notation
    assert numeric[0][2].count("e") == 1
    mantissa = numeric[0][2].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17


def test_scan_aliases_validate_axis(tmp_path):
    out = tmp_path / "x.csv"
    ok = main(["scan-g", "--model", "rabi", "--delta", "1",
               "--scan", "g=0.1:0.3:0.1", "--levels", "2", "--out", str(out)])
    assert ok == EXIT_OK
    bad = main(["scan-g", "--model", "rabi", "--delta", "1",
                "--scan", "u=0.1:0.3:0.1", "--levels", "2", "--out", str(out)])
    assert bad == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "stark", "--scan", "u=1:0:-0.1", "--out", "o.csv"],
        ["spectrum", "--model", "stark", "--scan", "u=0:1:0", "--out", "o.csv"],
        ["spectrum", "--model", "stark", "--scan", "quux=0:1:0.1", "--out", "o.csv"],
        ["spectrum", "--model", "stark", "--out", "o.csv"],
        ["collapse-check", "--model", "stark", "--scan", "u=0:1:0.1", "--out", "o.csv"],
        ["error-map", "--model", "stark", "--scan", "g=0.1:0.5:0.1", "--out", "o.csv"],
        ["error-map", "--model", "stark", "--scan", "g=0.1:0.9:0.1",
         "--scan", "u=0:1:0.5", "--out", "o.csv"],
        ["staircase", "--model", "stark", "--scan", "u=2:2.2:0.01", "--out", "o.csv"],
        ["staircase", "--model", "completed", "--kappa", "0.05", "--delta", "1",
         "--scan", "u=2:2.2:0.01", "--out", "o.csv"],
        ["co-ladder", "--model", "completed", "--kappa", "0", "--out", "o.csv"],
        ["spectrum", "--model", "stark", "--scan", "u=0:1:0.1",
         "--out", "/nonexistent-dir/o.csv"],
        ["spectrum", "--model", "stark", "--scan", "u=0:1:0.1", "--levels", "0",
         "--out", "o.csv"],
        # --out naming a directory: the output path is not writable
        ["spectrum", "--model", "stark", "--scan", "u=0:1:0.1", "--out", "."],
    ],
)
def test_validation_failures_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("rabistark: validation error: ")
    assert not any(tmp_path.iterdir())  # no output file written


@pytest.mark.parametrize("scan", [
    "u=-inf:0:1", "u=0:inf:1", "u=0:1:inf", "u=nan:1:0.1", "g=0:1e-300:1e-320",
    "u=-1e308:1e308:1",
])
def test_bad_scan_grid_is_a_validation_error(scan, tmp_path, capsys):
    # non-finite bounds and oversized grids are refused before a grid is built
    code = main(["spectrum", "--model", "stark", "--scan", scan,
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_scan_point_bound_is_exact():
    # parsing only counts the points: the largest grid allowed and the first
    # refused, and a 1e12-point grid refused without being built
    top = cli.MAX_SCAN_POINTS
    assert cli._parse_scan(f"u=0:{top - 1}:1") == ("u", (0.0, top - 1.0, 1.0))
    assert len(cli.grid_values(0.0, top - 1.0, 1.0)) == top
    for scan in (f"u=0:{top}:1", "u=0:1000:1e-9"):
        with pytest.raises(cli.ValidationFailure, match="more than"):
            cli._parse_scan(scan)


def test_error_map_grid_bound_counts_the_product(monkeypatch, tmp_path, capsys):
    # each axis is allowed but their 600 x 2001 product is refused before
    # any solve; with a bound of 6 a 2 x 3 grid runs and a 2 x 4 one does not
    def refuse(*args, **kwargs):
        raise AssertionError("error map solved")

    out = tmp_path / "o.csv"
    monkeypatch.setattr(cli, "error_map", refuse)
    code = main(["error-map", "--model", "stark", "--scan", "g=0.001:0.6:0.001",
                 "--scan", "u=0:2:0.001", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "more than 100000 points" in capsys.readouterr().err
    assert not out.exists()

    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 6)
    grid = ["error-map", "--model", "stark", "--scan", "g=0.1:0.2:0.1", "--out", str(out)]
    assert main([*grid, "--scan", "u=0:2:1"]) == EXIT_OK
    assert len(read_csv(out)) == 1 + 2 * 3
    out.unlink()
    assert main([*grid, "--scan", "u=0:1.5:0.5"]) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("coupling", [["--delta", "nan"], ["--g", "inf"], ["--kappa", "nan"]])
@pytest.mark.parametrize("command", [
    ["spectrum", "--model", "stark", "--scan", "u=0:0.2:0.1"],
    ["staircase", "--model", "completed", "--delta", "100", "--kappa", "0.05",
     "--scan", "u=2:2.2:0.01"],
])
def test_non_finite_coupling_is_a_validation_error(command, coupling, tmp_path, capsys):
    # refused when the parameters are built, before any solve
    code = main([*command, *coupling, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_collapse_check_history_rows(tmp_path):
    out = tmp_path / "collapse.csv"
    code = main(
        [
            "collapse-check", "--model", "stark", "--delta", "1", "--g", "0.2",
            "--capital-u", "1.0", "--levels", "4", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["cutoff", "level_index", "energy", "classification"]
    cutoffs = sorted({int(r[0]) for r in rows[1:]})
    assert cutoffs[0] == 32 and len(cutoffs) >= 2  # doubling history recorded
    assert {r[3] for r in rows[1:]} == {"Converged"}


def test_collapse_check_divergence_exit_code(tmp_path):
    out = tmp_path / "div.csv"
    code = main(
        [
            "collapse-check", "--model", "stark", "--delta", "1", "--g", "0.2",
            "--capital-u", "2.5", "--levels", "4", "--out", str(out),
        ]
    )
    assert code == EXIT_DIVERGENCE
    rows = read_csv(out)
    assert {r[3] for r in rows[1:]} == {"UnboundedBelow"}


def test_collapse_check_slow_convergence_is_undetermined(tmp_path):
    # at u = 2 omega the ground drops shrink all the way to cutoff 32768:
    # the budget is spent, nothing diverges
    out = tmp_path / "u2.csv"
    code = main(["collapse-check", "--model", "stark", "--delta", "1", "--g", "0.2",
                 "--capital-u", "2.0", "--levels", "4", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)[1:]
    assert {r[3] for r in rows} == {"Undetermined"}
    assert int(rows[-1][0]) == 32_768


@pytest.mark.parametrize("tol, message", [
    ("nan", "--tol must be finite, got nan"),
    ("inf", "--tol must be finite, got inf"),
    ("-inf", "--tol must be > 0, got -inf"),
    ("0", "--tol must be > 0, got 0.0"),
])
def test_bad_tol_is_a_validation_error(tol, message, tmp_path, capsys):
    # refused before any solve: with NaN no drift would ever pass and the
    # schedule would run to cutoff 32768; with inf the second cutoff would
    # pass whatever it moved
    out = tmp_path / "o.csv"
    code = main(["collapse-check", "--model", "stark", "--delta", "1", "--g", "0.2",
                 "--capital-u", "1.0", "--levels", "2", f"--tol={tol}", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"rabistark: validation error: {message}\n"
    assert not out.exists()


def test_collapse_check_fixed_cutoff_writes_one_block(tmp_path):
    out = tmp_path / "fixed.csv"
    code = main(["collapse-check", "--model", "stark", "--delta", "1", "--g", "0.2",
                 "--capital-u", "1.5", "--levels", "4", "--cutoff", "64", "--out", str(out)])
    assert code == EXIT_OK
    p = ModelParams(delta=1.0, g=0.2, u=1.5, variant=Variant.RABI_STARK)
    energies = spectrum_at_cutoff(p, 64, 4).energies
    assert read_csv(out)[1:] == [
        ["64", str(j), f"{e:.16e}", "Undetermined"] for j, e in enumerate(energies)
    ]


def test_divergence_dominated_sweep_exit_code(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "spectrum", "--model", "stark", "--delta", "1", "--g", "0.2",
            "--scan", "u=2.3:2.7:0.2", "--levels", "2", "--out", str(out),
        ]
    )
    assert code == EXIT_DIVERGENCE


def test_fixed_cutoff_skips_convergence_study(tmp_path):
    out = tmp_path / "fixed.csv"
    code = main(
        [
            "spectrum", "--model", "rabi", "--delta", "1",
            "--scan", "g=0.1:0.2:0.1", "--levels", "2", "--cutoff", "48",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    numeric = [r for r in rows[1:] if r[3] == "numeric"]
    assert {r[4] for r in numeric} == {"48"}
    assert {r[5] for r in numeric} == {"Undetermined"}


def test_error_map_runs_and_flags_boundary(tmp_path):
    out = tmp_path / "emap.csv"
    code = main(
        [
            "error-map", "--model", "stark", "--delta", "1",
            "--scan", "g=0.1:0.4:0.1", "--scan", "u=1.8:2.0:0.1",
            "--out", str(out), "--workers", "2",
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["g", "u", "e_analytic", "e_numeric", "delta_e",
                       "region", "crossing_flag"]
    assert len(rows) == 1 + 4 * 3
    regions = {r[5] for r in rows[1:]}
    assert regions == {"I", "II"}
    assert any(r[6] == "1" for r in rows[1:])


def test_staircase_json_report(tmp_path):
    out = tmp_path / "stair.json"
    code = main(
        [
            "staircase", "--model", "completed", "--delta", "200", "--g", "0.1",
            "--kappa", "0.05", "--scan", "u=2.0:2.2:0.02", "--format", "json",
            "--out", str(out), "--workers", "2",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["complete"] is True
    assert payload["columns"] == ["u", "mean_photon", "renorm_mean_photon"]
    assert payload["spec"]["subcommand"] == "staircase"
    assert len(payload["records"]) == 11
    report = payload["report"]
    assert len(report["edges"]) == 1
    assert abs(report["edges"][0] - 2.1) < 0.02


def test_co_ladder_values(tmp_path):
    out = tmp_path / "ladder.csv"
    code = main(
        [
            "co-ladder", "--model", "completed", "--kappa", "0.05",
            "--levels", "4", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["n", "u_crossing"]
    values = [float(r[1]) for r in rows[1:]]
    assert values == pytest.approx([2.1, 2.3, 2.5, 2.7])


_STARK = ["--model", "stark", "--delta", "1", "--g", "0.2"]
# one run of every subcommand; --omega is appended
OMEGA_RUNS = {
    "spectrum": (["spectrum", *_STARK, "--scan", "u=0:1:0.5", "--levels", "4"], "json"),
    "scan-g": (["scan-g", "--model", "rabi", "--delta", "1", "--scan", "g=0.5:2.0:0.5",
                "--levels", "3"], "csv"),
    "scan-u": (["scan-u", *_STARK, "--scan", "u=0:1.5:0.5", "--levels", "4",
                "--cutoff", "48"], "csv"),
    "collapse-check": (["collapse-check", *_STARK, "--capital-u", "1.5", "--levels", "4"],
                       "csv"),
    "error-map": (["error-map", "--model", "stark", "--delta", "1", "--scan", "g=0.1:0.4:0.1",
                   "--scan", "u=1.8:2.0:0.1"], "csv"),
    "staircase": (["staircase", "--model", "completed", "--delta", "200", "--g", "0.1",
                   "--kappa", "0.05", "--scan", "u=2.0:2.2:0.02"], "json"),
    "co-ladder": (["co-ladder", "--model", "completed", "--kappa", "0.05", "--levels", "4"],
                  "csv"),
}
ENERGY_COLUMNS = {"energy", "e_analytic", "e_numeric", "delta_e"}


def scaled_energies(path, fmt, omega):
    """What the omega = 1 run that wrote path writes at --omega omega (the
    JSON text, or the CSV rows): its energy fields times omega, everything
    else as written."""
    if fmt == "json":
        payload = json.loads(path.read_text())
        payload["spec"]["omega"] = omega
        for rec in payload["records"]:
            for name in ENERGY_COLUMNS & set(rec):
                rec[name] *= omega
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    header, *rows = read_csv(path)
    scaled = {j for j, name in enumerate(header) if name in ENERGY_COLUMNS}
    return [header] + [[f"{float(v) * omega:.16e}" if j in scaled and v else v
                        for j, v in enumerate(row)] for row in rows]


@pytest.mark.parametrize("subcommand", sorted(OMEGA_RUNS))
def test_omega_scales_only_the_energy_fields(subcommand, tmp_path):
    # every subcommand solves in units of omega, so its output at --omega w
    # is the omega = 1 output with the energy fields times w, bit for bit
    args, fmt = OMEGA_RUNS[subcommand]
    unit = tmp_path / f"unit.{fmt}"
    assert main([*args, "--format", fmt, "--out", str(unit)]) == EXIT_OK
    for omega in (0.7, 2.0):
        out = tmp_path / f"w{omega}.{fmt}"
        assert main([*args, "--format", fmt, "--omega", str(omega), "--out", str(out)]) == EXIT_OK
        got = out.read_text() if fmt == "json" else read_csv(out)
        assert got == scaled_energies(unit, fmt, omega)


def test_error_map_bounds_are_in_units_of_omega(tmp_path, capsys):
    out = tmp_path / "emap.csv"
    grid = ["error-map", "--model", "stark", "--delta", "1", "--out", str(out)]
    assert main([*grid, "--omega", "0.7", "--scan", "g=0.1:0.2:0.1",
                 "--scan", "u=1.8:2.0:0.1"]) == EXIT_OK
    assert max(float(r[1]) for r in read_csv(out)[1:]) == pytest.approx(2.0)
    out.unlink()
    assert main([*grid, "--omega", "2", "--scan", "g=0.1:0.7:0.3",
                 "--scan", "u=0:1:0.5"]) == EXIT_VALIDATION
    assert "g grid must lie within 0 < g <= 0.6 omega" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("omega, message", [
    ("nan", "omega must be finite, got nan"),
    ("inf", "omega must be finite, got inf"),
    ("0", "--omega must be positive, got 0.0"),
    ("-1", "--omega must be positive, got -1.0"),
])
def test_bad_omega_is_a_validation_error(omega, message, tmp_path, capsys):
    code = main(["spectrum", *_STARK, "--scan", "u=0:0.2:0.1", "--omega", omega,
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"rabistark: validation error: {message}\n"


def test_point_without_analytic_ladder_keeps_its_numeric_rows(tmp_path):
    # from g = 1.5 omega on, the ground lambda condition has no sign change
    # in [-1, 0]: those points write their numeric rows and no analytic
    # rows, and the sweep goes on
    out = tmp_path / "g.csv"
    code = main(["scan-g", "--model", "rabi", "--delta", "1", "--scan", "g=0.5:2.0:0.5",
                 "--levels", "3", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)[1:]
    assert [float(r[0]) for r in rows] == sorted(float(r[0]) for r in rows)
    sources = {}
    for r in rows:
        sources.setdefault(r[0], []).append(r[3])
    solved, failed = list(sources.values())[:2], list(sources.values())[2:]
    assert len(failed) == 2 and all(s == ["numeric"] * 3 for s in failed)
    for s in solved:
        assert s[:3] == ["numeric"] * 3 and len(s) > 3
        assert all(src.startswith("analytic") for src in s[3:])


def test_byte_identical_reruns_and_worker_independence(tmp_path):
    args = [
        "spectrum", "--model", "stark", "--delta", "1", "--g", "0.2",
        "--scan", "u=0:1:0.25", "--levels", "4",
    ]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(paths[0]), "--workers", "1"]) == EXIT_OK
    assert main(args + ["--out", str(paths[1]), "--workers", "1"]) == EXIT_OK
    assert main(args + ["--out", str(paths[2]), "--workers", "2"]) == EXIT_OK
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_rfc4180_line_endings(tmp_path):
    out = tmp_path / "crlf.csv"
    main(["co-ladder", "--model", "completed", "--kappa", "0.1",
          "--levels", "2", "--out", str(out)])
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 3  # header + two records


def reference_csv(path, columns, records, failure_reason=None):
    """csv.writer with one formatting call per field: bools as 0/1, floats
    with 17 significant digits, anything else str."""

    def fmt(value):
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return f"{value:.16e}"
        return str(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([fmt(v) for v in rec])
        if failure_reason is not None:
            fh.write(f"# incomplete: {failure_reason}\r\n")


MIXED_RECORDS = [
    [0.1, 3, -0.0, "numeric", True, ""],
    [float("nan"), -7, float("inf"), "E+", False, "Converged"],
    [np.float64(1e-300), np.int64(12), -float("inf"), "", 1.5, None],
    [2.0, 0, 1e308, "analytic 2", np.bool_(True), np.float32(0.25)],
    [0.1, 3, -0.0, "numeric", True, ""],
    [5e-324],
    [],
]
# each needs csv's quoting, or its lone-empty-field rule, on one row
QUOTED = ["a,b", 'say "x"', "two\nlines", "cr\r", "crlf\r\n"]
CASES = [MIXED_RECORDS, MIXED_RECORDS[:-1], []] + [
    [[1.0, "plain"], [2.0, field], [3, "plain"]] for field in QUOTED
] + [[[1.0], [""], [2.0]], MIXED_RECORDS[:-1] * 100 + [[1.0, "a,b"]] + MIXED_RECORDS[:-1] * 50]


@pytest.mark.parametrize("records", CASES)
@pytest.mark.parametrize("failure_reason", [None, "u = 0.5: synthetic"])
def test_csv_writer_bytes_match_per_field_formatting(records, failure_reason, tmp_path):
    # rows formatted by one format string per row of field types, with csv's
    # own quoting wherever a field needs it
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    spec = SimpleNamespace(format="csv", out_path=str(got))
    columns = ["a", "b", "c", "d", "e", "f"]
    cli._write_output(spec, columns, records, {}, failure_reason)
    reference_csv(want, columns, records, failure_reason)
    assert got.read_bytes() == want.read_bytes()


def test_solver_failure_flushes_partial_with_trailer(tmp_path, monkeypatch):
    real = cli.converged_spectra

    def flaky(points, k, **kwargs):
        return [SolverError("synthetic failure for testing") if p.u >= 0.5 else outcome
                for p, outcome in zip(points, real(points, k, **kwargs))]

    monkeypatch.setattr(cli, "converged_spectra", flaky)
    out = tmp_path / "partial.csv"
    code = main(
        [
            "spectrum", "--model", "stark", "--delta", "1", "--g", "0.1",
            "--scan", "u=0:1:0.25", "--levels", "2", "--out", str(out),
            "--workers", "1",
        ]
    )
    assert code == EXIT_SOLVER
    text = out.read_text()
    assert "# incomplete:" in text.splitlines()[-1]
    rows = [r for r in text.splitlines() if r and not r.startswith("#")]
    # records for u = 0 and u = 0.25 flushed before the failing point
    numeric_rows = [r for r in rows[1:] if ",numeric," in r]
    assert len(numeric_rows) == 4


def test_sweep_failure_names_the_first_failing_point_in_grid_order(tmp_path, monkeypatch):
    # the sweep converges in one batch; of its failing points u = 0.5 and
    # u = 1, the trailer names the first in grid order, and only the rows
    # before it are written
    real, batches = cli.converged_spectra, []

    def flaky(points, k, **kwargs):
        batches.append(len(points))
        return [SolverError(f"synthetic failure at u = {p.u}") if p.u in (0.5, 1.0) else outcome
                for p, outcome in zip(points, real(points, k, **kwargs))]

    monkeypatch.setattr(cli, "converged_spectra", flaky)
    out = tmp_path / "partial.csv"
    code = main(["spectrum", *_STARK, "--scan", "u=0:1:0.25", "--levels", "2", "--out", str(out)])
    assert code == EXIT_SOLVER and batches == [5]
    lines = out.read_text().splitlines()
    assert lines[-1] == "# incomplete: u = 0.5: synthetic failure at u = 0.5"
    assert sorted({float(r[0]) for r in read_csv(out)[1:-1]}) == [0.0, 0.25]


def test_error_map_solver_failure_keeps_earlier_rows(tmp_path, monkeypatch):
    # error-map solves one u row per call; a row that fails ends the map
    # with the rows before it and the incompleteness trailer
    real = cli.error_map

    def flaky(base, g_grid, u_grid, **kwargs):
        if u_grid[0] >= 1.85:
            raise SolverError("synthetic failure for testing")
        return real(base, g_grid, u_grid, **kwargs)

    monkeypatch.setattr(cli, "error_map", flaky)
    out = tmp_path / "emap.csv"
    code = main(["error-map", "--model", "stark", "--delta", "1", "--scan", "g=0.1:0.4:0.1",
                 "--scan", "u=1.8:2.0:0.1", "--out", str(out)])
    assert code == EXIT_SOLVER
    lines = out.read_text().splitlines()
    assert lines[-1] == f"# incomplete: u = {1.8 + 0.1}: synthetic failure for testing"
    rows = read_csv(out)[1:-1]
    assert len(rows) == 4 and {float(r[1]) for r in rows} == {1.8}


def test_json_failure_marks_incomplete(tmp_path, monkeypatch):
    def always_fail(points, k, **kwargs):
        return [SolverError("boom") for _ in points]

    monkeypatch.setattr(cli, "converged_spectra", always_fail)
    out = tmp_path / "fail.json"
    code = main(
        [
            "spectrum", "--model", "stark", "--delta", "1", "--g", "0.1",
            "--scan", "u=0:0.5:0.25", "--levels", "2", "--format", "json",
            "--out", str(out), "--workers", "1",
        ]
    )
    assert code == EXIT_SOLVER
    payload = json.loads(out.read_text())
    assert payload["complete"] is False
    assert "boom" in payload["failure"]
    assert payload["records"] == []


# (subcommand, option, value): every option a subcommand does not read
UNREAD_OPTIONS = [
    ("scan-g", "--g", "0.5"),
    ("scan-u", "--capital-u", "1"),
    ("collapse-check", "--scan", "u=0:1:0.5"),
    ("error-map", "--g", "0.5"),
    ("error-map", "--capital-u", "9"),
    ("error-map", "--cutoff", "5"),
    ("error-map", "--levels", "99"),
    ("staircase", "--capital-u", "1"),
    ("staircase", "--levels", "4"),
    ("co-ladder", "--delta", "7"),
    ("co-ladder", "--g", "5"),
    ("co-ladder", "--capital-u", "1"),
    ("co-ladder", "--cutoff", "9"),
    ("co-ladder", "--tol", "3"),
    ("co-ladder", "--scan", "u=0:1:0.5"),
]


@pytest.mark.parametrize("subcommand, option, value", UNREAD_OPTIONS)
def test_unread_option_is_refused(subcommand, option, value, tmp_path, capsys):
    args, _ = OMEGA_RUNS[subcommand]
    out = tmp_path / "o.csv"
    assert main([*args, option, value, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"rabistark: validation error: {subcommand} takes no {option}\n"
    assert not out.exists()


def test_unread_option_with_its_value_attached_is_refused(tmp_path, capsys):
    args, _ = OMEGA_RUNS["co-ladder"]
    assert main([*args, "--tol=3", "--out", str(tmp_path / "o.csv")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "rabistark: validation error: co-ladder takes no --tol\n"


def test_each_subcommand_registers_only_the_options_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {
        (name, option)
        for name, sub in subparsers.choices.items()
        for option in sub._option_string_actions
        if option not in ("-h", "--help")
    }
    assert len(subparsers.choices) == 7 and len(registered) == 76
    assert not registered & {(sub, option) for sub, option, _ in UNREAD_OPTIONS}
    for name in subparsers.choices:
        assert {(name, "--omega"), (name, "--workers")} <= registered


@pytest.fixture
def no_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    for name in ("converged_spectra", "converged_spectrum", "spectrum_at_cutoff",
                 "analytic_ladders", "error_map", "staircase_scan", "crossing_ladder"):
        monkeypatch.setattr(cli, name, refuse)


_FIXED_CUTOFF_RUNS = [
    ["spectrum", *_STARK, "--scan", "u=0:0.2:0.1"],
    ["scan-g", "--model", "rabi", "--delta", "1", "--scan", "g=0.1:0.2:0.1"],
    ["scan-u", *_STARK, "--scan", "u=0:0.2:0.1"],
    ["collapse-check", *_STARK, "--capital-u", "1"],
]
_STAIRCASE = ["staircase", "--model", "completed", "--delta", "200", "--g", "0.1"]
# (arguments, those added at the first accepted value, at the first refused one, the refusal)
BOUNDS = [
    *[(run, ["--cutoff", "99999"], ["--cutoff", "100000"],
       "dimension 2*(cutoff+1) = 200002 exceeds the configured maximum 200000")
      for run in _FIXED_CUTOFF_RUNS],
    *[(run, ["--cutoff", "10", "--levels", "22"], ["--cutoff", "10", "--levels", "23"],
       "k must satisfy 1 <= k <= dim = 22, got 23") for run in _FIXED_CUTOFF_RUNS],
    (_FIXED_CUTOFF_RUNS[3], ["--levels", "65536"], ["--levels", "65537"],
     "empty cutoff schedule: start_cutoff=32 exceeds max_cutoff=32768"),
    # the analytic ladder's top block n = levels // 2 + 2 reads degree n + 2
    *[(run, ["--levels", "19993"], ["--levels", "19994"],
       "degree 10001 exceeds supported maximum 10000") for run in _FIXED_CUTOFF_RUNS[:3]],
    # a converged spectrum needs two cutoffs of the doubling: 16384 and 32768
    ([*_STAIRCASE, "--kappa", "0.05", "--scan", "u=2:2.2:0.01"], ["--cutoff", "16384"],
     ["--cutoff", "16385"], "start cutoff 16385 leaves the doubling one cutoff within "
     "max_cutoff=32768; a converged spectrum needs two"),
    # the default start cutoff 4 ceil((u - 2 omega - 2 kappa) / (4 kappa)) at the last u
    ([*_STAIRCASE, "--kappa", "0.25"], ["--scan", "u=4098:4098.5:0.25"],
     ["--scan", "u=4098:4098.75:0.25"], "start cutoff 16388 leaves the doubling one cutoff "
     "within max_cutoff=32768; a converged spectrum needs two"),
    ([*_STAIRCASE, "--kappa", "0.1"], ["--scan", "u=2:2.1:0.1"], ["--scan", "u=2:2.1:0.2"],
     "u grid must be strictly increasing with >= 2 points"),
    # 4 kappa / step = 3 points per step, and the next kappa below
    ([*_STAIRCASE, "--scan", "u=2:2.5:0.125"], ["--kappa", "0.09375"],
     ["--kappa", "0.09374999999999999"],
     "grid step 0.125 resolves fewer than 3 points per expected step width 4 kappa = 0.375"),
    (OMEGA_RUNS["co-ladder"][0][:-2], ["--levels", "100000"], ["--levels", "100001"],
     "--levels must be <= 100000, got 100001"),
    (_FIXED_CUTOFF_RUNS[0], ["--workers", "1"], ["--workers", "0"],
     "--workers must be >= 1, got 0"),
    (_FIXED_CUTOFF_RUNS[0], ["--cutoff", "1", "--levels", "4"], ["--cutoff", "0", "--levels", "4"],
     "--cutoff must be >= 1, got 0"),
    # a --scan that does not parse, an empty one, and one given twice
    (["spectrum", *_STARK], ["--scan", "u=0:1:0.5"], ["--scan", "u=0:1"],
     "bad --scan 'u=0:1': expected <param>=<start>:<stop>:<step>"),
    (["spectrum", *_STARK], ["--scan", "u=0:1:0.5"], ["--scan", "u=1:1:0.5"],
     "scan start 1.0 must be < stop 1.0"),
    (_FIXED_CUTOFF_RUNS[0], [], ["--scan", "u=0:0.2:0.1"], "duplicate --scan for parameter 'u'"),
    # a subcommand's scan axes
    (["scan-u", *_STARK], ["--scan", "u=0:0.2:0.1"], ["--scan", "g=0.1:0.2:0.1"],
     "scan-u requires --scan u=start:stop:step"),
    (["error-map", "--model", "stark", "--scan", "g=0.1:0.2:0.1"], ["--scan", "u=0:2:1"],
     ["--scan", "u=0:2.5:0.5"], "error-map u grid must lie within 0 <= u <= 2 omega"),
    ([*_STAIRCASE, "--kappa", "0.1", "--scan", "u=2:2.1:0.1"], [], ["--scan", "g=0.1:0.2:0.1"],
     "staircase requires exactly --scan u=start:stop:step"),
]


_RABI = ["--model", "rabi", "--delta", "1"]
_MAP_GRID = ["--scan", "g=0.1:0.2:0.1", "--scan", "u=0:1:0.5"]
# (arguments, those added at the default, those added off it, the refusal): an option whose
# value the run cannot read; a --scan u= has no default there, so the Stark model stands in
UNREAD_VALUES = [
    *[(run, ["--cutoff", "48", "--tol", "1e-8"], ["--cutoff", "48", "--tol", "1e-3"],
       f"{run[0]} takes no --tol with --cutoff") for run in _FIXED_CUTOFF_RUNS],
    (["spectrum", *_STARK[:4], "--scan", "g=0.1:0.3:0.1"], ["--g", "0"], ["--g", "0.9"],
     "spectrum takes no --g with --scan g="),
    (["spectrum", *_STARK, "--scan", "u=0:0.2:0.1"], ["--capital-u", "0"],
     ["--capital-u", "0.5"], "spectrum takes no --capital-u with --scan u="),
    *[([sub, *_RABI, *scan], ["--capital-u", "0"], ["--capital-u", "0.5"],
       f"{sub} takes no --capital-u on --model rabi")
      for sub, scan in [("spectrum", ["--scan", "g=0.1:0.2:0.1"]),
                        ("scan-g", ["--scan", "g=0.1:0.2:0.1"]), ("collapse-check", [])]],
    *[([sub, "--delta", "1", *scan], ["--model", "stark"], ["--model", "rabi"],
       f"{sub} takes no --scan u= on --model rabi")
      for sub, scan in [("spectrum", ["--scan", "u=0:0.2:0.1"]),
                        ("scan-u", ["--scan", "u=0:0.2:0.1"]), ("error-map", _MAP_GRID)]],
    # scan-u and error-map on the Rabi model are refused for their --scan u=
    *[([sub, "--model", model, "--delta", "1", *scan], ["--kappa", "0"], ["--kappa", "0.3"],
       f"{sub} takes no --kappa on --model {model}")
      for sub, scan, models in [("spectrum", ["--scan", "g=0.1:0.2:0.1"], ("rabi", "stark")),
                                ("scan-g", ["--scan", "g=0.1:0.2:0.1"], ("rabi", "stark")),
                                ("scan-u", ["--scan", "u=0:0.2:0.1"], ("stark",)),
                                ("collapse-check", [], ("rabi", "stark")),
                                ("error-map", _MAP_GRID, ("stark",))]
      for model in models],
]


# a bound, or an option set off its default that the run cannot read
@pytest.mark.parametrize("args, accepted, refused, message", [
    *[pytest.param(*case, id=" ".join([case[0][0], *case[2]])) for case in BOUNDS],
    *[pytest.param(*case, id=" ".join([*case[0], *case[2]])) for case in UNREAD_VALUES],
])
def test_bound_is_checked_before_any_solve(args, accepted, refused, message, no_solve,
                                           tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main([*args, *refused, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"rabistark: validation error: {message}\n"
    assert not out.exists()
    parsed, unread = cli.build_parser().parse_known_args([*args, *accepted, "--out", str(out)])
    assert not unread
    cli.spec_from_args(parsed)  # passes every check, and solves nothing


@pytest.mark.parametrize("args, code, err", [
    # the chain diagonal kappa n^2 overflows, and the eigensolver refuses it
    (["spectrum", "--model", "completed", "--delta", "1", "--g", "0.2", "--kappa", "1e305",
      "--scan", "u=0:0.2:0.1"], EXIT_SOLVER,
     "rabistark: solver failure: u = 0.0: array must not contain infs or NaNs\n"),
    # the lambda bracket scan's product of neighbouring residuals overflows; its sign stands
    (["spectrum", "--model", "stark", "--delta", "1e200", "--g", "0.2", "--scan", "u=0:1:0.5",
      "--levels", "2", "--cutoff", "8"], EXIT_OK, ""),
], ids=["kappa 1e305", "delta 1e200"])
def test_an_overflow_prints_no_warning(args, code, err, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "rabistark.cli", *args, "--out", "o.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, err)


_OVERFLOW = ["--model", "completed", "--delta", "1", "--g", "0.2", "--kappa", "1e305"]
# subcommand family: arguments, the solver replaced by one raising ValueError or None, the
# failure reason
SOLVE_ERRORS = {
    "spectrum": (["spectrum", *_OVERFLOW, "--scan", "u=0:0.2:0.1"], None,
                 "u = 0.0: array must not contain infs or NaNs"),
    # one lambda batch serves the whole sweep, so what it raises fails the sweep
    "spectrum-analytic": (OMEGA_RUNS["scan-g"][0], "analytic_ladders", "synthetic ValueError"),
    "collapse-check": (["collapse-check", *_OVERFLOW], None,
                       "array must not contain infs or NaNs"),
    "error-map": (OMEGA_RUNS["error-map"][0], "error_map", "u = 1.8: synthetic ValueError"),
    "staircase": (OMEGA_RUNS["staircase"][0], "staircase_scan", "synthetic ValueError"),
    "co-ladder": (OMEGA_RUNS["co-ladder"][0], "crossing_ladder", "synthetic ValueError"),
}


@pytest.mark.parametrize("family", sorted(SOLVE_ERRORS))
def test_value_error_inside_a_solve_is_a_solver_failure(family, monkeypatch, tmp_path, capsys):
    # exit 3 and the trailer from every subcommand, whatever the solver raised
    args, solver, reason = SOLVE_ERRORS[family]
    if solver is not None:
        def raise_value_error(*args, **kwargs):
            raise ValueError("synthetic ValueError")

        monkeypatch.setattr(cli, solver, raise_value_error)
    out = tmp_path / "o.csv"
    assert main([*args, "--out", str(out)]) == EXIT_SOLVER
    assert capsys.readouterr().err == f"rabistark: solver failure: {reason}\n"
    assert out.read_text().splitlines()[-1] == f"# incomplete: {reason}"

"""CLI contracts: schemas, exit codes, determinism, failure trailers."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

import rabistark.cli as cli
from rabistark.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from rabistark.eigen import SolverError


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
    ],
)
def test_validation_failures_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_VALIDATION


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
            "spectrum", "--model", "rabi", "--delta", "1", "--g", "0.1",
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
    calls = {"count": 0}
    real = cli.converged_spectrum

    def flaky(params, k, **kwargs):
        calls["count"] += 1
        if params.u >= 0.5:
            raise SolverError("synthetic failure for testing")
        return real(params, k, **kwargs)

    monkeypatch.setattr(cli, "converged_spectrum", flaky)
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


def test_analytic_error_fails_its_own_point(tmp_path, monkeypatch):
    # an error raised by the analytic ladder of one point fails that point,
    # not the whole batch: the points before it keep all their rows
    real = cli.analytic_ladders

    def flaky(points, n_max):
        if any(p.u >= 0.5 for p in points):
            raise ValueError("synthetic analytic failure for testing")
        return real(points, n_max)

    monkeypatch.setattr(cli, "analytic_ladders", flaky)
    out = tmp_path / "partial.csv"
    code = main(
        [
            "spectrum", "--model", "stark", "--delta", "1", "--g", "0.1",
            "--scan", "u=0:1:0.25", "--levels", "2", "--out", str(out),
        ]
    )
    assert code == EXIT_SOLVER
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("# incomplete:") and "u = 0.5:" in lines[-1]
    rows = read_csv(out)[1:-1]
    assert sorted({float(r[0]) for r in rows}) == [0.0, 0.25]
    for value in ("0", "0.25"):
        sources = [r[3] for r in rows if float(r[0]) == float(value)]
        assert sources[:2] == ["numeric"] * 2
        assert len(sources) > 2 and all(s.startswith("analytic") for s in sources[2:])


def test_json_failure_marks_incomplete(tmp_path, monkeypatch):
    def always_fail(params, k, **kwargs):
        raise SolverError("boom")

    monkeypatch.setattr(cli, "converged_spectrum", always_fail)
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

"""CLI contracts: schemas, exit codes, determinism, failure trailers."""

import csv
import json

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

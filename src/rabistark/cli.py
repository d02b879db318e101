"""Command-line front end: parameter parsing, sweep orchestration and
structured CSV/JSON output.

All couplings are entered in units of omega; --omega rescales the produced
energies.  Sweep output is deterministic: points are solved serially in
grid order (--workers is accepted for compatibility and changes nothing)
and every float is written with 17 significant digits, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 2 validation error, 3 solver failure (partial output
flushed with an incompleteness trailer), 4 divergence-dominated sweep.
"""

import argparse
import csv
import json
import math
import os
import sys
# sweeps run serially; ThreadPoolExecutor stays importable for perfbench/spans.py
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace as dc_replace

from .analytic import (
    LambdaSolveError,
    RegimeViolationError,
    analytic_ladders,
    error_map,
)
from .colimit import CoRegimeError, crossing_ladder
# eigen_symmetric and build_hamiltonian stay importable for perfbench/spans.py
from .eigen import (  # noqa: F401
    Classification,
    SolverError,
    converged_spectrum,
    eigen_symmetric,
    spectrum_at_cutoff,
)
from .fockspace import ModelParams, Variant, build_hamiltonian  # noqa: F401
from .observables import DivergentSpectrumError, ResolutionError, staircase_scan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_DIVERGENCE = 4
MAX_SCAN_POINTS = 100_000  # per --scan axis and per error-map grid, refused before any solve
CSV_ROWS_PER_WRITE = 256  # records formatted and written at a time

SPECTRUM_COLUMNS = ["sweep_value", "level_index", "energy", "source", "cutoff", "classification"]
COLLAPSE_COLUMNS = ["cutoff", "level_index", "energy", "classification"]
ERRORMAP_COLUMNS = ["g", "u", "e_analytic", "e_numeric", "delta_e", "region", "crossing_flag"]
STAIRCASE_COLUMNS = ["u", "mean_photon", "renorm_mean_photon"]
COLADDER_COLUMNS = ["n", "u_crossing"]

_MODEL_VARIANTS = {
    "rabi": Variant.RABI,
    "stark": Variant.RABI_STARK,
    "completed": Variant.COMPLETED,
}


class ValidationFailure(ValueError):
    pass


@dataclass
class SweepSpec:
    subcommand: str
    params: ModelParams
    grids: dict[str, tuple[float, float, float]]
    levels: int
    tol: float
    out_path: str
    format: str
    workers: int
    cutoff: int | None
    omega: float


def grid_values(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(count + 1)]


def _field_fmt(t: type) -> str:
    """Format field for a CSV value of type t: bool as 0/1, float with 17
    significant digits, anything else str."""
    return "{:d}" if t is bool else "{:.16e}" if issubclass(t, float) else "{!s}"


def _csv_rows(records) -> str | None:
    """The lines csv.writer writes for the records' formatted fields, with one
    format string per row of field types; None where csv would quote a field
    (one holding a comma, a quote or a line break, or a row's only field, empty)."""
    formats, lines = {}, []
    for rec in records:
        types = tuple(map(type, rec))
        if types not in formats:
            formats[types] = ",".join(map(_field_fmt, types))
        lines.append(formats[types].format(*rec))
    text, n = "\r\n".join(lines + [""]), len(lines)
    plain = text.count(",") == sum(map(len, records)) - n and '"' not in text
    return text if plain and text.count("\r") == text.count("\n") == n and "" not in lines else None


def _parse_scan(text: str) -> tuple[str, tuple[float, float, float]]:
    try:
        name, rhs = text.split("=", 1)
        start_s, stop_s, step_s = rhs.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValidationFailure(
            f"bad --scan {text!r}: expected <param>=<start>:<stop>:<step>"
        ) from None
    name = name.strip()
    if name not in ("g", "u"):
        raise ValidationFailure(f"unsupported scan parameter {name!r} (use g or u)")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationFailure(f"scan start, stop and step must be finite, got {rhs!r}")
    if step <= 0:
        raise ValidationFailure(f"scan step must be > 0, got {step}")
    if not start < stop:
        raise ValidationFailure(f"scan start {start} must be < stop {stop}")
    if not (stop - start) / step < MAX_SCAN_POINTS:  # an overflow to inf too
        raise ValidationFailure(f"scan {text!r} has more than {MAX_SCAN_POINTS} points")
    return name, (start, stop, step)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabistark",
        description="Spectra, collapse diagnostics and staircase observables "
        "for the Rabi / Rabi-Stark / completed Rabi-Stark models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("spectrum", "numeric + analytic levels along one coupling scan"),
        ("scan-g", "spectrum scan over the Rabi coupling g"),
        ("scan-u", "spectrum scan over the Stark coupling u"),
        ("collapse-check", "cutoff-doubling history and convergence classification"),
        ("error-map", "analytic vs numeric ground-state error over a (g, u) grid"),
        ("staircase", "ground-state mean photon number staircase over u"),
        ("co-ladder", "analytic level-crossing ladder of the completed model"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, choices=sorted(_MODEL_VARIANTS))
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--g", type=float, default=0.0)
        p.add_argument("--capital-u", type=float, default=0.0)
        p.add_argument("--kappa", type=float, default=0.0)
        p.add_argument("--cutoff", type=int, default=None)
        p.add_argument("--levels", type=int, default=6)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--scan", action="append", default=[])
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    return parser


def spec_from_args(args) -> SweepSpec:
    omega = args.omega
    if omega <= 0:
        raise ValidationFailure(f"--omega must be positive, got {omega}")
    if args.levels < 1:
        raise ValidationFailure(f"--levels must be >= 1, got {args.levels}")
    if args.tol <= 0:
        raise ValidationFailure(f"--tol must be > 0, got {args.tol}")
    if args.workers < 1:
        raise ValidationFailure(f"--workers must be >= 1, got {args.workers}")
    if args.cutoff is not None and args.cutoff < 1:
        raise ValidationFailure(f"--cutoff must be >= 1, got {args.cutoff}")

    grids: dict[str, tuple[float, float, float]] = {}
    for text in args.scan:
        name, grid = _parse_scan(text)
        if name in grids:
            raise ValidationFailure(f"duplicate --scan for parameter {name!r}")
        grids[name] = grid

    try:
        params = ModelParams(
            omega=omega,
            delta=args.delta * omega,
            g=args.g * omega,
            u=args.capital_u * omega,
            kappa=args.kappa * omega,
            variant=_MODEL_VARIANTS[args.model],
        )
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None

    spec = SweepSpec(
        subcommand=args.subcommand,
        params=params,
        grids=grids,
        levels=args.levels,
        tol=args.tol * omega,
        out_path=args.out,
        format=args.format,
        workers=args.workers,
        cutoff=args.cutoff,
        omega=omega,
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: SweepSpec) -> None:
    sub = spec.subcommand
    if sub in ("spectrum", "scan-g", "scan-u"):
        if len(spec.grids) != 1:
            raise ValidationFailure(f"{sub} requires exactly one --scan axis")
        axis = next(iter(spec.grids))
        if sub == "scan-g" and axis != "g":
            raise ValidationFailure("scan-g requires --scan g=start:stop:step")
        if sub == "scan-u" and axis != "u":
            raise ValidationFailure("scan-u requires --scan u=start:stop:step")
    elif sub == "collapse-check":
        if spec.grids:
            raise ValidationFailure("collapse-check takes no --scan")
    elif sub == "error-map":
        if set(spec.grids) != {"g", "u"}:
            raise ValidationFailure("error-map requires --scan g=... and --scan u=...")
        g_grid = grid_values(*spec.grids["g"])
        u_grid = grid_values(*spec.grids["u"])
        omega = spec.omega
        if g_grid[0] <= 0 or g_grid[-1] > 0.6 * omega + 1e-12:
            raise ValidationFailure("error-map g grid must lie within 0 < g <= 0.6 omega")
        if u_grid[0] < 0 or u_grid[-1] > 2.0 * omega + 1e-12:
            raise ValidationFailure("error-map u grid must lie within 0 <= u <= 2 omega")
        if len(g_grid) * len(u_grid) > MAX_SCAN_POINTS:
            raise ValidationFailure(
                f"error-map grid of {len(g_grid)} x {len(u_grid)} (g, u) points has more "
                f"than {MAX_SCAN_POINTS} points"
            )
    elif sub == "staircase":
        if set(spec.grids) != {"u"}:
            raise ValidationFailure("staircase requires exactly --scan u=start:stop:step")
        if spec.params.variant is not Variant.COMPLETED:
            raise ValidationFailure("staircase requires --model completed")
        if spec.params.effective_kappa <= 0:
            raise ValidationFailure("staircase requires --kappa > 0")
        if spec.params.delta / spec.params.omega < 50:
            raise ValidationFailure(
                "staircase requires the CO regime delta/omega >= 50 "
                f"(got {spec.params.delta / spec.params.omega:.3g})"
            )
    elif sub == "co-ladder":
        if spec.grids:
            raise ValidationFailure("co-ladder takes no --scan")
        if spec.params.effective_kappa <= 0:
            raise ValidationFailure("co-ladder requires --kappa > 0 on the completed model")

    out_dir = os.path.dirname(os.path.abspath(spec.out_path))
    if not os.path.isdir(out_dir):
        raise ValidationFailure(f"output directory does not exist: {out_dir}")
    try:
        with open(spec.out_path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValidationFailure(f"output path not writable: {exc}") from None


def _numeric_point(spec: SweepSpec, axis: str, value: float):
    """Parameters, numeric records and classification of one grid point of
    a spectrum scan (value in omega units)."""
    p = dc_replace(spec.params, **{axis: value * spec.omega})
    if spec.cutoff is not None:
        s = spectrum_at_cutoff(p, spec.cutoff, spec.levels)
        cutoff_used, classification = spec.cutoff, Classification.UNDETERMINED.value
    else:
        s, report = converged_spectrum(
            p, spec.levels, tol=spec.tol, degeneracy_window=1e-2 * spec.omega
        )
        cutoff_used, classification = report.final_cutoff, report.classification.value
    rows = [
        [value, j, float(energy), "numeric", cutoff_used, classification]
        for j, energy in enumerate(s.energies)
    ]
    return p, rows, classification


def _run_map(worker, items):
    """Results in grid order, stopping at the first failure (index, exc)."""
    results = [None] * len(items)
    for i, item in enumerate(items):
        try:
            results[i] = worker(item)
        except Exception as exc:  # noqa: BLE001 - converted to exit code
            return results, (i, exc)
    return results, None


def run(spec: SweepSpec) -> int:
    records: list[list] = []
    columns: list[str] = []
    extra: dict = {}
    failure_reason = None
    divergent = 0
    total_points = 0

    try:
        if spec.subcommand in ("spectrum", "scan-g", "scan-u"):
            columns = SPECTRUM_COLUMNS
            axis = next(iter(spec.grids))
            values = grid_values(*spec.grids[axis])
            total_points = len(values)
            out, failed = _run_map(lambda v: _numeric_point(spec, axis, v), values)
            done = out[: failed[0]] if failed is not None else out
            # the analytic ladders of all solved points form one lambda batch
            points, n_max = [p for p, _, _ in done], spec.levels // 2 + 2
            try:
                ladders = analytic_ladders(points, n_max)
            except Exception:  # noqa: BLE001 - the point that raises is found one by one
                ladders, raised = _run_map(lambda p: analytic_ladders([p], n_max)[0], points)
                if raised is not None:
                    done, failed = done[: raised[0]], raised
            for value, (_, rows, classification), ladder in zip(values, done, ladders):
                records.extend(rows)
                # analytic reduction unavailable at this point: numeric rows stand
                if not isinstance(ladder, LambdaSolveError):
                    for idx, label, energy in ladder:
                        records.append([value, idx, float(energy), label, "", ""])
                if classification == Classification.UNBOUNDED_BELOW.value:
                    divergent += 1
            if failed is not None:
                failure_reason = f"{axis} = {values[failed[0]]}: {failed[1]}"

        elif spec.subcommand == "collapse-check":
            columns = COLLAPSE_COLUMNS
            total_points = 1
            if spec.cutoff is not None:
                s = spectrum_at_cutoff(spec.params, spec.cutoff, spec.levels)
                history = [(spec.cutoff, s.energies)]
                classification = Classification.UNDETERMINED.value
            else:
                _, report = converged_spectrum(
                    spec.params, spec.levels, tol=spec.tol, degeneracy_window=1e-2 * spec.omega
                )
                history = report.history
                classification = report.classification.value
            for cutoff, energies in history:
                for j, energy in enumerate(energies):
                    records.append([cutoff, j, float(energy), classification])
            if classification == Classification.UNBOUNDED_BELOW.value:
                divergent = 1

        elif spec.subcommand == "error-map":
            columns = ERRORMAP_COLUMNS
            g_grid = [v * spec.omega for v in grid_values(*spec.grids["g"])]
            u_grid = [v * spec.omega for v in grid_values(*spec.grids["u"])]
            total_points = len(g_grid) * len(u_grid)
            base = spec.params
            out, failed = _run_map(lambda u: error_map(base, g_grid, [u], tol=spec.tol), u_grid)
            for row in out:
                if row is None:
                    break
                for pt in row:
                    records.append(
                        [pt.g / spec.omega, pt.u / spec.omega, pt.e_analytic,
                         pt.e_numeric, pt.delta_e, pt.region, pt.crossing]
                    )
            if failed is not None:
                failure_reason = f"u = {u_grid[failed[0]]}: {failed[1]}"

        elif spec.subcommand == "staircase":
            columns = STAIRCASE_COLUMNS
            u_values = [v * spec.omega for v in grid_values(*spec.grids["u"])]
            total_points = len(u_values)
            report = staircase_scan(
                spec.params,
                u_values,
                tol=spec.tol,
                workers=spec.workers,
                start_cutoff=spec.cutoff,
            )
            for u, nbar, renorm in zip(
                report.u_values, report.mean_photon, report.renormalized
            ):
                records.append([float(u) / spec.omega, float(nbar), float(renorm)])
            extra["report"] = {
                "edges": [float(e) for e in report.edges],
                "widths": [float(w) for w in report.widths],
                "plateaus": [float(p) for p in report.plateaus],
                "fitted_slope": report.fitted_slope,
                "fit_window": [report.fit_window[0], report.fit_window[1]],
                "cutoffs": report.cutoffs,
            }

        elif spec.subcommand == "co-ladder":
            columns = COLADDER_COLUMNS
            ladder = crossing_ladder(spec.params, spec.levels - 1)
            total_points = len(ladder.positions)
            for n, u_cross in enumerate(ladder.positions):
                records.append([n, float(u_cross)])

        else:  # pragma: no cover - argparse restricts choices
            raise ValidationFailure(f"unknown subcommand {spec.subcommand!r}")

    except (ValidationFailure, CoRegimeError, ResolutionError, ValueError) as exc:
        print(f"rabistark: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, LambdaSolveError, DivergentSpectrumError, RegimeViolationError) as exc:
        failure_reason = str(exc)

    _write_output(spec, columns, records, extra, failure_reason)
    if failure_reason is not None:
        print(f"rabistark: solver failure: {failure_reason}", file=sys.stderr)
        return EXIT_SOLVER
    if total_points and 2 * divergent > total_points:
        print(
            f"rabistark: divergence-dominated sweep "
            f"({divergent}/{total_points} points unbounded below)",
            file=sys.stderr,
        )
        return EXIT_DIVERGENCE
    return EXIT_OK


def _spec_echo(spec: SweepSpec) -> dict:
    return {
        "subcommand": spec.subcommand,
        "model": spec.params.variant.value,
        "omega": spec.omega,
        "delta": spec.params.delta / spec.omega,
        "g": spec.params.g / spec.omega,
        "capital_u": spec.params.u / spec.omega,
        "kappa": spec.params.kappa / spec.omega,
        "levels": spec.levels,
        "tol": spec.tol / spec.omega,
        "cutoff": spec.cutoff,
        "format": spec.format,
        "grids": {k: list(v) for k, v in sorted(spec.grids.items())},
    }


def _write_output(spec, columns, records, extra, failure_reason) -> None:
    if spec.format == "csv":
        with open(spec.out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for start in range(0, len(records), CSV_ROWS_PER_WRITE):
                chunk = records[start : start + CSV_ROWS_PER_WRITE]
                rows = _csv_rows(chunk)
                if rows is None:
                    writer.writerows([_field_fmt(type(v)).format(v) for v in rec] for rec in chunk)
                else:
                    fh.write(rows)
            if failure_reason is not None:
                fh.write(f"# incomplete: {failure_reason}\r\n")
        return
    payload = {
        "spec": _spec_echo(spec),
        "columns": columns,
        "records": [dict(zip(columns, rec)) for rec in records],
        "complete": failure_reason is None,
    }
    if failure_reason is not None:
        payload["failure"] = failure_reason
    payload.update(extra)
    with open(spec.out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValidationFailure as exc:
        print(f"rabistark: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(spec)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: parameter parsing, sweep orchestration and
structured CSV/JSON output.

Every subcommand solves with omega = 1: couplings, --tol, the grids, the
error-map bounds, the co-ladder and the staircase report are in units of
omega, as entered.  --omega multiplies only the energy fields of the
records (energy, e_analytic, e_numeric, delta_e).  Sweep output is
deterministic: a sweep converges its points in lane batches (one per
spectrum scan or staircase, one per error-map row) and writes them in grid
order (--workers is accepted for compatibility and changes nothing), and
every float is written with 17 significant digits, so identical
invocations produce byte-identical files.

Each subcommand registers only the options it reads (_SUBCOMMANDS); any
other option is refused, as is one set off its default that the run cannot
read: --tol with --cutoff, the coupling --scan sweeps, u on the Rabi model
and kappa off the completed one.  So is every input the solvers would refuse,
mostly by their own checks; all before any solve.

Exit codes: 0 success, 2 input refused before any solve (no output file
written), 3 an error raised inside a solver (partial output flushed with an
incompleteness trailer), 4 divergence-dominated sweep.
"""

import argparse
import json
import math
import os
import sys
# no sweep runs on a pool; ThreadPoolExecutor stays importable for perfbench/spans.py
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .analytic import LambdaSolveError, analytic_ladders, check_ladder, error_map
from .colimit import CO_MIN_RATIO, crossing_ladder
# eigen_symmetric, converged_spectrum and build_hamiltonian stay importable for perfbench/spans.py
from .eigen import (  # noqa: F401
    DEFAULT_MAX_CUTOFF,
    DEFAULT_START_CUTOFF,
    DEFAULT_TOL,
    Classification,
    _doubling_schedule,
    _raise_or_return,
    check_levels,
    converged_spectra,
    converged_spectrum,
    eigen_symmetric,
    spectrum_at_cutoff,
)
from .fockspace import ModelParams, Variant, build_hamiltonian, check_cutoff  # noqa: F401
from .observables import staircase_grid, staircase_scan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_DIVERGENCE = 4
# per --scan axis, per error-map grid and per co-ladder, refused before any solve
MAX_SCAN_POINTS = 100_000
CSV_ROWS_PER_WRITE = 256  # records formatted and written at a time

SPECTRUM_COLUMNS = ["sweep_value", "level_index", "energy", "source", "cutoff", "classification"]
COLLAPSE_COLUMNS = ["cutoff", "level_index", "energy", "classification"]
ERRORMAP_COLUMNS = ["g", "u", "e_analytic", "e_numeric", "delta_e", "region", "crossing_flag"]
STAIRCASE_COLUMNS = ["u", "mean_photon", "renorm_mean_photon"]
COLADDER_COLUMNS = ["n", "u_crossing"]

# every option, in the order --help lists them
_OPTIONS = {
    "--model": dict(required=True, choices=sorted(v.value for v in Variant)),
    "--omega": dict(type=float, default=1.0),
    "--delta": dict(type=float, default=1.0),
    "--g": dict(type=float, default=0.0),
    "--capital-u": dict(type=float, default=0.0),
    "--kappa": dict(type=float, default=0.0),
    "--cutoff": dict(type=int, default=None),
    "--levels": dict(type=int, default=6),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--scan": dict(action="append", default=[]),
    "--out": dict(required=True),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--workers": dict(type=int, default=os.cpu_count() or 1),
}
_COMMON_OPTIONS = ("--model", "--omega", "--out", "--format", "--workers")
# subcommand: help text, and the options it reads besides _COMMON_OPTIONS
_SUBCOMMANDS = {
    "spectrum": ("numeric + analytic levels along one coupling scan",
                 ("--delta", "--g", "--capital-u", "--kappa", "--cutoff", "--levels", "--tol",
                  "--scan")),
    "scan-g": ("spectrum scan over the Rabi coupling g",
               ("--delta", "--capital-u", "--kappa", "--cutoff", "--levels", "--tol", "--scan")),
    "scan-u": ("spectrum scan over the Stark coupling u",
               ("--delta", "--g", "--kappa", "--cutoff", "--levels", "--tol", "--scan")),
    "collapse-check": ("cutoff-doubling history and convergence classification",
                       ("--delta", "--g", "--capital-u", "--kappa", "--cutoff", "--levels",
                        "--tol")),
    "error-map": ("analytic vs numeric ground-state error over a (g, u) grid",
                  ("--delta", "--kappa", "--tol", "--scan")),
    "staircase": ("ground-state mean photon number staircase over u",
                  ("--delta", "--g", "--kappa", "--cutoff", "--tol", "--scan")),
    "co-ladder": ("analytic level-crossing ladder of the completed model",
                  ("--kappa", "--levels")),
}
_SPECTRUM_SUBCOMMANDS = ("spectrum", "scan-g", "scan-u")


class ValidationFailure(ValueError):
    pass


@dataclass
class SweepSpec:
    subcommand: str
    params: ModelParams  # as entered: omega = 1
    grids: dict[str, tuple[float, float, float]]
    levels: int
    tol: float
    out_path: str
    format: str
    cutoff: int | None
    omega: float  # the energy scale of the written energy fields


def grid_values(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(count + 1)]


def _field_fmt(t: type) -> str:
    """Format field for a CSV value of type t: bool as 0/1, float with 17
    significant digits, anything else str."""
    return "{:d}" if t is bool else "{:.16e}" if issubclass(t, float) else "{!s}"


def _csv_rows(records) -> str:
    """The CRLF lines of the records' formatted fields, one format string per
    row of field types.  No field is quoted: the CLI writes numbers, fixed labels
    and empty cells of longer rows, none holding a comma, quote or line break."""
    formats, lines = {}, []
    for rec in records:
        types = tuple(map(type, rec))
        if types not in formats:
            formats[types] = ",".join(map(_field_fmt, types))
        lines.append(formats[types].format(*rec))
    return "\r\n".join(lines + [""])


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
    for name, (help_text, reads) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, kwargs in _OPTIONS.items():
            if option in _COMMON_OPTIONS or option in reads:
                p.add_argument(option, **kwargs)
            else:  # not an option here, but SweepSpec and the JSON echo read its default
                p.set_defaults(**{option[2:].replace("-", "_"): kwargs["default"]})
    return parser


def spec_from_args(args) -> SweepSpec:
    if args.omega <= 0:
        raise ValidationFailure(f"--omega must be positive, got {args.omega}")
    if args.levels < 1:
        raise ValidationFailure(f"--levels must be >= 1, got {args.levels}")
    if args.tol <= 0:
        raise ValidationFailure(f"--tol must be > 0, got {args.tol}")
    if not math.isfinite(args.tol):
        raise ValidationFailure(f"--tol must be finite, got {args.tol}")
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

    if not math.isfinite(args.omega):
        raise ValidationFailure(f"omega must be finite, got {args.omega}")
    try:
        params = ModelParams(
            delta=args.delta,
            g=args.g,
            u=args.capital_u,
            kappa=args.kappa,
            variant=Variant(args.model),
        )
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None

    spec = SweepSpec(
        subcommand=args.subcommand,
        params=params,
        grids=grids,
        levels=args.levels,
        tol=args.tol,
        out_path=args.out,
        format=args.format,
        cutoff=args.cutoff,
        omega=args.omega,
    )
    _validate_spec(spec)
    return spec


def _ladder_n_max(levels: int) -> int:
    """The top block n of the analytic ladder written beside `levels`
    numeric levels."""
    return levels // 2 + 2


def _validate_spec(spec: SweepSpec) -> None:
    sub = spec.subcommand
    if sub in _SPECTRUM_SUBCOMMANDS:
        if len(spec.grids) != 1:
            raise ValidationFailure(f"{sub} requires exactly one --scan axis")
        axis = next(iter(spec.grids))
        if sub == "scan-g" and axis != "g":
            raise ValidationFailure("scan-g requires --scan g=start:stop:step")
        if sub == "scan-u" and axis != "u":
            raise ValidationFailure("scan-u requires --scan u=start:stop:step")
    elif sub == "error-map":
        if set(spec.grids) != {"g", "u"}:
            raise ValidationFailure("error-map requires --scan g=... and --scan u=...")
        g_grid = grid_values(*spec.grids["g"])
        u_grid = grid_values(*spec.grids["u"])
        if g_grid[0] <= 0 or g_grid[-1] > 0.6 + 1e-12:
            raise ValidationFailure("error-map g grid must lie within 0 < g <= 0.6 omega")
        if u_grid[0] < 0 or u_grid[-1] > 2.0 + 1e-12:
            raise ValidationFailure("error-map u grid must lie within 0 <= u <= 2 omega")
        if len(g_grid) * len(u_grid) > MAX_SCAN_POINTS:
            raise ValidationFailure(
                f"error-map grid of {len(g_grid)} x {len(u_grid)} (g, u) points has more "
                f"than {MAX_SCAN_POINTS} points"
            )
    elif sub == "staircase":
        if set(spec.grids) != {"u"}:
            raise ValidationFailure("staircase requires exactly --scan u=start:stop:step")
        if spec.params.delta < CO_MIN_RATIO:
            raise ValidationFailure(
                f"staircase requires the CO regime delta/omega >= {CO_MIN_RATIO:g} "
                f"(got {spec.params.delta:.3g})"
            )
    elif sub == "co-ladder":
        if spec.params.effective_kappa <= 0:
            raise ValidationFailure("co-ladder requires --kappa > 0 on the completed model")
        if spec.levels > MAX_SCAN_POINTS:
            raise ValidationFailure(f"--levels must be <= {MAX_SCAN_POINTS}, got {spec.levels}")

    try:  # what the solvers refuse, by their own checks
        if sub in (*_SPECTRUM_SUBCOMMANDS, "collapse-check"):
            if spec.cutoff is not None:
                check_levels(spec.cutoff, spec.levels)
                check_cutoff(spec.cutoff)
            else:
                _doubling_schedule(DEFAULT_START_CUTOFF, DEFAULT_MAX_CUTOFF, spec.levels)
        if sub in _SPECTRUM_SUBCOMMANDS:
            check_ladder(_ladder_n_max(spec.levels))
        if sub == "staircase":
            staircase_grid(spec.params, grid_values(*spec.grids["u"]), spec.cutoff)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from None
    p, model = spec.params, f"on --model {spec.params.variant.value}"
    for option, unread, condition in [  # set off its default, but this run cannot read it
        ("--tol", spec.tol != DEFAULT_TOL and spec.cutoff is not None and sub != "staircase",
         "with --cutoff"),
        ("--g", p.g != 0 and "g" in spec.grids, "with --scan g="),
        ("--capital-u", p.u != 0 and "u" in spec.grids, "with --scan u="),
        ("--capital-u", p.u != 0 and p.variant is Variant.RABI, model),
        ("--scan u=", "u" in spec.grids and p.variant is Variant.RABI, model),
        ("--kappa", p.kappa != 0 and p.variant is not Variant.COMPLETED, model),
    ]:
        if unread:
            raise ValidationFailure(f"{sub} takes no {option} {condition}")

    out_dir = os.path.dirname(os.path.abspath(spec.out_path))
    if not os.path.isdir(out_dir):
        raise ValidationFailure(f"output directory does not exist: {out_dir}")
    try:
        with open(spec.out_path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValidationFailure(f"output path not writable: {exc}") from None


def _run_map(worker, items):
    """Results in grid order up to the first failure, and that failure
    (index, exc) or None."""
    results = []
    for item in items:
        try:
            results.append(worker(item))
        except Exception as exc:  # noqa: BLE001 - converted to exit code
            return results, (len(results), exc)
    return results, None


def _numeric_solves(spec: SweepSpec, points):
    """_run_map of the points' spectra (at the final cutoff), cutoff histories
    and classifications: at the fixed --cutoff (Undetermined), one point at
    a time, or by cutoff doubling, all points in one lane batch."""
    def fixed(p):
        s = spectrum_at_cutoff(p, spec.cutoff, spec.levels)
        return s, [(spec.cutoff, s.energies)], Classification.UNDETERMINED.value

    def doubled(outcome):
        s, report = _raise_or_return(outcome)
        return s, report.history, report.classification.value
    if spec.cutoff is not None:
        return _run_map(fixed, points)
    return _run_map(doubled, converged_spectra(points, spec.levels, tol=spec.tol))


def run(spec: SweepSpec) -> int:
    records: list[list] = []
    columns: list[str] = []
    extra: dict = {}
    failure_reason = None
    divergent = 0
    total_points = 0

    try:
        if spec.subcommand in _SPECTRUM_SUBCOMMANDS:
            columns = SPECTRUM_COLUMNS
            axis = next(iter(spec.grids))
            values = grid_values(*spec.grids[axis])
            total_points = len(values)
            points = [dc_replace(spec.params, **{axis: v}) for v in values]
            done, failed = _numeric_solves(spec, points)
            # the analytic ladders of all solved points form one lambda batch
            ladders = analytic_ladders(points[: len(done)], _ladder_n_max(spec.levels))
            for value, (s, _, classification), ladder in zip(values, done, ladders):
                records.extend(
                    [value, j, float(energy) * spec.omega, "numeric", s.cutoff, classification]
                    for j, energy in enumerate(s.energies)
                )
                # analytic reduction unavailable at this point: numeric rows stand
                if not isinstance(ladder, LambdaSolveError):
                    for idx, label, energy in ladder:
                        records.append([value, idx, float(energy) * spec.omega, label, "", ""])
                if classification == Classification.UNBOUNDED_BELOW.value:
                    divergent += 1
            if failed is not None:
                failure_reason = f"{axis} = {values[failed[0]]}: {failed[1]}"

        elif spec.subcommand == "collapse-check":
            columns = COLLAPSE_COLUMNS
            total_points = 1
            done, failed = _numeric_solves(spec, [spec.params])
            if failed is not None:
                raise failed[1]
            [(_, history, classification)] = done
            for cutoff, energies in history:
                for j, energy in enumerate(energies):
                    records.append([cutoff, j, float(energy) * spec.omega, classification])
            if classification == Classification.UNBOUNDED_BELOW.value:
                divergent = 1

        elif spec.subcommand == "error-map":
            columns = ERRORMAP_COLUMNS
            g_grid = grid_values(*spec.grids["g"])
            u_grid = grid_values(*spec.grids["u"])
            total_points = len(g_grid) * len(u_grid)
            base, w = spec.params, spec.omega
            done, failed = _run_map(lambda u: error_map(base, g_grid, [u], tol=spec.tol), u_grid)
            for row in done:
                for pt in row:
                    records.append([pt.g, pt.u, pt.e_analytic * w, pt.e_numeric * w,
                                    pt.delta_e * w, pt.region, pt.crossing])
            if failed is not None:
                failure_reason = f"u = {u_grid[failed[0]]}: {failed[1]}"

        elif spec.subcommand == "staircase":
            columns = STAIRCASE_COLUMNS
            u_values = grid_values(*spec.grids["u"])
            total_points = len(u_values)
            report = staircase_scan(spec.params, u_values, tol=spec.tol, start_cutoff=spec.cutoff)
            for u, nbar, renorm in zip(
                report.u_values, report.mean_photon, report.renormalized
            ):
                records.append([float(u), float(nbar), float(renorm)])
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

    except Exception as exc:  # noqa: BLE001 - converted to exit code
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
        "delta": spec.params.delta,
        "g": spec.params.g,
        "capital_u": spec.params.u,
        "kappa": spec.params.kappa,
        "levels": spec.levels,
        "tol": spec.tol,
        "cutoff": spec.cutoff,
        "format": spec.format,
        "grids": {k: list(v) for k, v in sorted(spec.grids.items())},
    }


def _write_output(spec, columns, records, extra, failure_reason) -> None:
    if spec.format == "csv":
        with open(spec.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\r\n")
            for start in range(0, len(records), CSV_ROWS_PER_WRITE):
                fh.write(_csv_rows(records[start : start + CSV_ROWS_PER_WRITE]))
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
    args, unread = build_parser().parse_known_args(argv)
    try:
        if unread:  # an option this subcommand does not read (--opt or --opt=value)
            raise ValidationFailure(f"{args.subcommand} takes no {unread[0].split('=', 1)[0]}")
        spec = spec_from_args(args)
    except ValidationFailure as exc:
        print(f"rabistark: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    with np.errstate(over="ignore"):  # the solvers handle it: an inf is refused or keeps its sign
        return run(spec)


if __name__ == "__main__":
    raise SystemExit(main())

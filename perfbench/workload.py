"""One round of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py NAME --mode {setup,run,trace} --spawned-at T

run.py starts this script once per round with PYTHONPATH pointing at the
checkout's src/ and single-threaded BLAS/OpenMP pools.  The process imports
rabistark, builds the workload's fixed inputs and stamps its first solver
call; setup_s is that stamp minus T, the parent's time.monotonic() just
before the spawn.  --mode setup stops there.  Otherwise it runs the
workload (wall_s, cpu_s and peak_rss_mib cover the solver calls only; with
--mode trace every layer call is also recorded as a span), then checks every
output against the independent reference and prints one JSON line.

All inputs are fixed grids: nothing is drawn at random.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from rabistark import analytic, cli, eigen, observables
from rabistark.fockspace import ModelParams, Variant

OUT = Path(__file__).resolve().parent / "out"


def attempt(fn, *args, **kwargs):
    """(result, None), or (None, reason) when the program raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def op(name, reasons, known_fault=False):
    return {"op": name, "reasons": reasons, "known_fault": known_fault and bool(reasons)}


# --- collapse: the Rabi-Stark model at its collapse point, delta = omega ----

TRICHOTOMY = ((1.9, 1e-8, "Converged"), (2.0, 1e-6, "CollapsedDegenerate"),
              (2.2, 1e-8, "UnboundedBelow"))
TRICHOTOMY_LEVELS = 10
ERROR_MAP_G = [0.05 * i for i in range(1, 13)]
ERROR_MAP_U = 2.0
ERROR_MAP_TOL = 1e-8         # error_map's default tol
ERROR_MAP_MAX_CUTOFF = 4096  # error_map's default max_cutoff
ERROR_MAP_START = 32         # converged_spectrum's default start cutoff
CROSSING_U = [1.85 + 0.01 * i for i in range(46)]
CROSSING_KAPPA = (0.1, 0.01)
REFERENCE_CROSSING_CUTOFF = 128


def collapse_inputs():
    stark = [ModelParams(delta=1.0, g=0.2, u=u, variant=Variant.RABI_STARK)
             for u, _, _ in TRICHOTOMY]
    base = ModelParams(delta=1.0, variant=Variant.RABI_STARK)
    completed = [ModelParams(delta=1.0, g=0.2, kappa=k, variant=Variant.COMPLETED)
                 for k in CROSSING_KAPPA]
    return stark, base, completed


def collapse_run(inputs):
    stark, base, completed = inputs
    solves = [attempt(eigen.converged_spectrum, p, TRICHOTOMY_LEVELS, tol=tol)
              for p, (_, tol, _) in zip(stark, TRICHOTOMY)]
    emap = attempt(analytic.error_map, base, ERROR_MAP_G, [ERROR_MAP_U])
    scans = [attempt(observables.detect_level_crossings, p, "u", CROSSING_U, 2)
             for p in completed]
    return solves, emap, scans


def collapse_check(inputs, outputs, reference, checks):
    solves, (emap, emap_err), scans = outputs
    ops = []
    for (u, _, expected), (result, err) in zip(TRICHOTOMY, solves):
        name = f"converged_spectrum u={u}"
        if err:
            ops.append(op(name, [err]))
            continue
        history = [(c, [float(e) for e in energies]) for c, energies in result[1].history]
        m = reference.Model(g=0.2, u=u)
        ref = [reference.levels(m, c, len(e)) for c, e in history]
        ops.append(op(name, checks.check_collapse_solve(
            expected, result[1].classification.value, history, ref)))
    points = {} if emap is None else {round(pt.g, 12): pt for pt in emap}
    for g in ERROR_MAP_G:
        name = f"error_map g={g:.2f} u={ERROR_MAP_U}"
        pt = points.get(round(g, 12))
        if pt is None:
            ops.append(op(name, [emap_err or "point missing from the error map"]))
            continue
        ref_e, _, _ = reference.doubled_ground(reference.Model(g=g, u=ERROR_MAP_U),
                                               ERROR_MAP_START, ERROR_MAP_MAX_CUTOFF,
                                               ERROR_MAP_TOL)
        reasons = checks.check_error_map_point(pt.e_numeric, pt.delta_e, ref_e, ERROR_MAP_TOL)
        ops.append(op(name, reasons, known_fault=ref_e is None))
    for kappa, (events, err) in zip(CROSSING_KAPPA, scans):
        name = f"detect_level_crossings kappa={kappa}"
        if err:
            ops.append(op(name, [err]))
            continue
        ref = reference.ground_crossings(reference.Model(g=0.2, kappa=kappa), "u",
                                         CROSSING_U, REFERENCE_CROSSING_CUTOFF)
        reported = [ev.value for ev in events if ev.pair == (0, 1)]
        ops.append(op(name, checks.check_crossings(reported, ref)))
    return ops


# --- spectrum_sweep: the CLI spectrum scan of the Rabi-Stark model --------

SWEEP_CSV = OUT / "spectrum_sweep.csv"
SWEEP_LEVELS = 30
SWEEP_U = [0.02 * i for i in range(100)]  # 0 .. 1.98, stopped below 2 omega
SWEEP_G = 0.2


def sweep_inputs():
    OUT.mkdir(exist_ok=True)
    return ["spectrum", "--model", "stark", "--delta", "1", "--g", str(SWEEP_G),
            "--scan", "u=0:1.98:0.02", "--levels", str(SWEEP_LEVELS), "--tol", "1e-8",
            "--workers", "2", "--out", str(SWEEP_CSV)]


def sweep_run(argv):
    return attempt(cli.main, argv)


def sweep_check(argv, outputs, reference, checks):
    import csv

    code, err = outputs
    if err or code != 0:
        return [op(f"spectrum u={u:.2f}", [err or f"CLI exited {code}"]) for u in SWEEP_U]
    by_u: dict[float, dict] = {}
    with open(SWEEP_CSV, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            point = by_u.setdefault(float(row["sweep_value"]), {"numeric": [], "vacuum": None})
            if row["source"] == "numeric":
                point["numeric"].append((int(row["level_index"]), float(row["energy"]),
                                         int(row["cutoff"]), row["classification"]))
            elif row["level_index"] == "-1":
                point["vacuum"] = float(row["energy"])
    first_crossing = reference.ground_crossings(reference.Model(g=SWEEP_G), "u", SWEEP_U, 256)[0]
    ops = []
    for u in SWEEP_U:
        name = f"spectrum u={u:.2f}"
        point = by_u.get(u)
        if point is None or not point["numeric"] or point["vacuum"] is None:
            ops.append(op(name, ["point missing from the CSV or without its numeric and "
                                 "displaced-vacuum rows"]))
            continue
        m = reference.Model(g=SWEEP_G, u=u)
        ref = reference.levels(m, point["numeric"][0][2], SWEEP_LEVELS)
        vacuum_ref = reference.displaced_vacuum_minimum(m) if u == 0.0 else None
        ops.append(op(name, checks.check_sweep_point(
            point["numeric"], ref, point["vacuum"], vacuum_ref, u < first_crossing,
            SWEEP_LEVELS)))
    return ops


# --- staircase: mean-photon staircase of the completed model, CO regime ---

STAIRCASE_G = 0.1
# (delta, kappa, first u, step, points, slope target)
STAIRCASE_SCANS = (
    (200.0, 0.05, 1.9, 0.004, 275, None),
    (1000.0, 1e-3, 1.998, 0.0005, 77, 0.25),  # slope (1/delta)/(4 kappa)
    (1000.0, 1e-3, 2.190, 0.001, 21, None),   # deep segment, nbar ~ 48-52
)


def staircase_inputs():
    return [(ModelParams(delta=d, g=STAIRCASE_G, kappa=k, variant=Variant.COMPLETED),
             [u0 + i * step for i in range(count)])
            for d, k, u0, step, count, _ in STAIRCASE_SCANS]


def staircase_run(inputs):
    return [attempt(observables.staircase_scan, p, grid, workers=2) for p, grid in inputs]


def staircase_check(inputs, outputs, reference, checks):
    ops = []
    for (p, grid), (report, err), (d, k, _, step, _, slope) in zip(
            inputs, outputs, STAIRCASE_SCANS):
        tag = f"delta={d:g} kappa={k:g}"
        if err:
            ops += [op(f"staircase {tag} u={u:.4f}", [err]) for u in grid]
            ops.append(op(f"staircase geometry {tag}", [err]))
            continue
        ref_nbar = []
        for u, nbar, cutoff in zip(grid, report.mean_photon, report.cutoffs):
            ref = reference.mean_photon_ground(
                reference.Model(delta=d, g=STAIRCASE_G, u=u, kappa=k), 2 * cutoff)
            ref_nbar.append(ref)
            ops.append(op(f"staircase {tag} u={u:.4f}", checks.check_nbar(float(nbar), ref)))
        jumps = int(np.sum(np.diff(ref_nbar) >= 0.5))
        ops.append(op(f"staircase geometry {tag}", checks.check_staircase_geometry(
            report.edges, report.widths, report.plateaus, report.fitted_slope,
            step=step, omega=1.0, kappa=k, ref_jumps=jumps, slope_target=slope)))
    return ops


WORKLOADS = {
    "collapse": (collapse_inputs, collapse_run, collapse_check),
    "spectrum_sweep": (sweep_inputs, sweep_run, sweep_check),
    "staircase": (staircase_inputs, staircase_run, staircase_check),
}


def os_threads() -> int:
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "rabistark": str(Path(analytic.__file__).resolve().parent),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=["setup", "run", "trace"], default="run")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs()
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    threads_at_start = os_threads()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t0, c0 = time.perf_counter(), time.process_time()
    outputs = run(inputs)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": peak_rss_mib, "threads_at_start": threads_at_start}
    if tracer is not None:
        tracer.uninstall()
        table = tracer.table()
        result["layers"] = spans.layer_metrics(table, tracer.names)
        result["spans"] = len(table)
        OUT.mkdir(exist_ok=True)
        np.savez(OUT / f"spans-{args.workload}.npz", spans=table,
                 names=np.array(tracer.names), fields=np.array(spans.FIELDS),
                 workload=np.array(args.workload))

    import checks
    import reference

    result["reference_self_check"] = reference.self_check()
    result["ops"] = check(inputs, outputs, reference, checks)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two trees write the same bytes for a fixed set of runs.

    python3 scripts/compare_outputs.py --baseline REV_OR_DIR [--change REV_OR_DIR]

A tree is a git revision of this repository, exported with `git archive`
into a temporary directory, or a directory holding a checkout (used in
place; its scripts then rewrite its out/).  The change side defaults to
HEAD.  In each tree, every CLI invocation of CASES runs as
`python -m rabistark.cli` in a fresh process, with PYTHONPATH set to the
tree's src/ and a relative --out inside a scratch directory, and each of
SCRIPTS runs from the tree's root; a script's output files are those in
out/ that it wrote.  A run is the same when its output files, stdout,
stderr and exit code are byte-identical in both trees, with
the tree's and the scratch directory's paths in stdout and stderr replaced
by placeholders (a refusal can name the --out directory, and the scripts of
older trees print absolute paths).
The script prints one line per run and a summary, lists every difference,
and exits 1 when there is any.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import prepare

_STARK = ["--model", "stark", "--delta", "1", "--g", "0.2"]
_EMAP = ["error-map", "--model", "stark", "--delta", "1",
         "--scan", "g=0.1:0.4:0.1", "--scan", "u=1.8:2.0:0.1"]
_STAIR = ["staircase", "--model", "completed", "--g", "0.1", "--kappa", "0.05"]

# name, CLI arguments before --out, and the output file's suffix
CASES = [
    ("spectrum_sweep", ["spectrum", *_STARK, "--scan", "u=0:1.98:0.02", "--levels", "30",
                        "--workers", "2"], "csv"),
    ("spectrum_json", ["spectrum", *_STARK, "--scan", "u=0:1:0.25", "--levels", "4",
                       "--format", "json"], "json"),
    # 65 levels raise the doubling's start cutoff from 32 to 33
    ("spectrum_raised_start", ["spectrum", *_STARK, "--scan", "u=0:1:0.5", "--levels", "65"],
     "csv"),
    ("spectrum_completed", ["spectrum", "--model", "completed", "--delta", "1", "--g", "0.2",
                            "--kappa", "0.1", "--scan", "u=1.8:2.4:0.1", "--levels", "6"], "csv"),
    # its lanes stop at cutoffs 64, 256 and 32768: Converged, UnboundedBelow and Undetermined
    ("spectrum_across_collapse", ["spectrum", *_STARK, "--scan", "u=1.9:2.2:0.1", "--levels", "4"],
     "csv"),
    # g = 1.5 and 2.0: the ground lambda fails, only numeric rows are written
    ("scan_g_failed_ground_lambda", ["scan-g", "--model", "rabi", "--delta", "1",
                                     "--scan", "g=0.5:2.0:0.5", "--levels", "3"], "csv"),
    ("scan_u_fixed_cutoff", ["scan-u", *_STARK, "--scan", "u=0:1.5:0.5", "--levels", "4",
                             "--cutoff", "48"], "csv"),
    ("scan_u_fixed_cutoff_json", ["scan-u", *_STARK, "--scan", "u=0:1.5:0.5", "--levels", "4",
                                  "--cutoff", "48", "--format", "json"], "json"),
    ("collapse_u1.5", ["collapse-check", *_STARK, "--capital-u", "1.5", "--levels", "4"], "csv"),
    ("collapse_u2.0", ["collapse-check", *_STARK, "--capital-u", "2.0", "--levels", "4"], "csv"),
    ("collapse_u2.2", ["collapse-check", *_STARK, "--capital-u", "2.2", "--levels", "4"], "csv"),
    # CollapsedDegenerate at cutoff 8192, the one case that reaches that rule
    ("collapse_u2.0_tol1e-6", ["collapse-check", *_STARK, "--capital-u", "2.0", "--levels", "4",
                               "--tol", "1e-6"], "csv"),
    # 10 levels: dsterf solves the chains up to cutoff 128, bisection from 256 on
    ("collapse_u2.0_tol1e-6_levels10", ["collapse-check", *_STARK, "--capital-u", "2.0",
                                        "--levels", "10", "--tol", "1e-6"], "csv"),
    ("collapse_fixed_cutoff", ["collapse-check", *_STARK, "--capital-u", "1.5", "--levels", "4",
                               "--cutoff", "64"], "csv"),
    ("collapse_json", ["collapse-check", *_STARK, "--capital-u", "1.0", "--levels", "3",
                       "--format", "json"], "json"),
    ("error_map", _EMAP, "csv"),
    ("error_map_json", [*_EMAP, "--format", "json"], "json"),
    # at kappa = 1e305 no ground lambda meets the residual bound: six NaN rows,
    # each with an empty region cell
    ("error_map_failed_lambda", ["error-map", "--model", "completed", "--delta", "1",
                                 "--kappa", "1e305", "--scan", "g=0.1:0.2:0.1",
                                 "--scan", "u=1.8:2.0:0.1"], "csv"),
    ("staircase_delta200_json", [*_STAIR, "--delta", "200", "--scan", "u=2.0:2.2:0.02",
                                 "--format", "json"], "json"),
    ("staircase_delta1000", [*_STAIR, "--delta", "1000", "--scan", "u=2.0:2.3:0.02"], "csv"),
    # the deep segment: its points start their doublings at different cutoffs
    ("staircase_deep_segment", ["staircase", "--model", "completed", "--g", "0.1", "--delta",
                                "1000", "--kappa", "0.001", "--scan", "u=2.19:2.21:0.001"],
     "csv"),
    # no point converges: exit 3, "did not converge by cutoff 24576"
    ("staircase_refused_tol", [*_STAIR, "--delta", "200", "--scan", "u=1.8:1.82:0.01",
                               "--cutoff", "48", "--tol", "1e-300"], "csv"),
    ("co_ladder", ["co-ladder", "--model", "completed", "--kappa", "0.05", "--levels", "6"],
     "csv"),
    # --omega != 1: only the energy fields scale, the rest is in units of omega
    ("spectrum_json_omega0.7", ["spectrum", *_STARK, "--scan", "u=0:1:0.25", "--levels", "4",
                                "--format", "json", "--omega", "0.7"], "json"),
    ("collapse_omega0.7", ["collapse-check", *_STARK, "--capital-u", "1.5", "--levels", "4",
                           "--omega", "0.7"], "csv"),
    ("error_map_omega0.7", [*_EMAP, "--omega", "0.7"], "csv"),
    ("staircase_delta200_json_omega2", [*_STAIR, "--delta", "200", "--scan", "u=2.0:2.2:0.02",
                                        "--format", "json", "--omega", "2"], "json"),
    ("co_ladder_omega2", ["co-ladder", "--model", "completed", "--kappa", "0.05", "--levels",
                          "6", "--omega", "2"], "csv"),
    ("refused_scan", ["spectrum", *_STARK, "--scan", "u=-inf:0:1"], "csv"),
    ("refused_omega", ["spectrum", *_STARK, "--scan", "u=0:1:0.5", "--omega", "nan"], "csv"),
    ("refused_model", ["spectrum", "--model", "bogus", "--scan", "u=0:1:0.5"], "csv"),
    # an option co-ladder does not read
    ("refused_unread_option", ["co-ladder", "--model", "completed", "--kappa", "0.05",
                               "--levels", "6", "--tol", "3"], "csv"),
    # more levels than the chains hold at --cutoff 10: refused before any solve
    ("refused_levels", ["spectrum", *_STARK, "--scan", "u=0:0.2:0.1", "--cutoff", "10",
                        "--levels", "200001"], "csv"),
    # 65537 levels raise the doubling's start cutoff to 32769, past its maximum 32768
    ("refused_levels_doubling", ["collapse-check", *_STARK, "--capital-u", "1",
                                 "--levels", "65537"], "csv"),
    ("refused_levels_json", ["spectrum", *_STARK, "--scan", "u=0:0.2:0.1", "--cutoff", "10",
                             "--levels", "200001", "--format", "json"], "json"),
    # an option set off its default that the run cannot read, one run per rule
    ("refused_tol_with_cutoff", ["scan-u", *_STARK, "--scan", "u=0:1.5:0.5", "--levels", "4",
                                 "--cutoff", "48", "--tol", "1e-3"], "csv"),
    ("refused_swept_coupling", ["spectrum", *_STARK, "--scan", "g=0.1:0.3:0.1", "--g", "0.9"],
     "csv"),
    ("refused_u_on_rabi", ["collapse-check", "--model", "rabi", "--delta", "1", "--g", "0.2",
                           "--capital-u", "1.5"], "csv"),
    ("refused_scan_u_on_rabi", ["scan-u", "--model", "rabi", "--delta", "1", "--g", "0.2",
                                "--scan", "u=0:1:0.5"], "csv"),
    ("refused_kappa_off_completed", ["spectrum", *_STARK, "--scan", "u=0:1:0.5",
                                     "--kappa", "0.3"], "csv"),
    # the lambda bracket scan's residual product overflows; exit 0 and nothing on stderr
    ("overflow_delta1e200", ["spectrum", "--model", "stark", "--delta", "1e200", "--g", "0.2",
                             "--scan", "u=0:1:0.5", "--levels", "2", "--cutoff", "8"], "csv"),
    # at u = 1e200 the (0, -1) block's discriminant overflows: that branch fails, its
    # numeric rows and ground row stand, and nothing is printed on stderr
    ("spectrum_huge_u", ["spectrum", *_STARK, "--scan", "u=0:1e200:1e200", "--levels", "2"],
     "csv"),
    # at g = 0 and u = 1e154 the blocks are diagonal, and for n >= 1 the lower
    # energy's eigenvector norm overflows: its negative-branch rows stand as
    # the lower energies; the n = 3 block's energies overflow and that branch fails
    ("spectrum_overflowed_norm", ["spectrum", "--model", "stark", "--delta", "1", "--g", "0",
                                  "--scan", "u=0:1e154:1e154", "--levels", "2"], "csv"),
    # kappa n^2 overflows the chain diagonal: eigen_symmetric raises inside the sweep
    ("solver_failure", ["spectrum", "--model", "completed", "--delta", "1", "--g", "0.2",
                        "--kappa", "1e305", "--scan", "u=0:0.2:0.1"], "csv"),
    ("solver_failure_json", ["spectrum", "--model", "completed", "--delta", "1", "--g", "0.2",
                             "--kappa", "1e305", "--scan", "u=0:0.2:0.1", "--format", "json"],
     "json"),
]
SCRIPTS = ["collapse_cutoff_study.py", "ground_energy_error_map.py",
           "spectrum_vs_stark_coupling.py", "staircase_scan_co_limit.py"]


def run_cases(tree: Path, workdir: Path) -> dict:
    """(output bytes by file, stdout, stderr, exit code) of every run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    paths = ((str(tree).encode(), b"<tree>"), (str(workdir).encode(), b"<scratch>"))

    def streams(proc):
        out, err = proc.stdout, proc.stderr
        for path, placeholder in paths:
            out, err = out.replace(path, placeholder), err.replace(path, placeholder)
        return out, err, proc.returncode

    results = {}
    for name, args, suffix in CASES:
        out_dir = workdir / name
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "rabistark.cli", *args, "--out", f"{name}.{suffix}"],
            cwd=out_dir, env=env, capture_output=True,
        )
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        results[name] = (files, *streams(proc))
    out = tree / "out"
    for script in SCRIPTS:
        before = {p: p.stat().st_mtime_ns for p in out.glob("*")}
        proc = subprocess.run([sys.executable, f"scripts/{script}"], cwd=tree, env=env,
                              capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                 if before.get(p) != p.stat().st_mtime_ns}  # the files this script wrote
        results[script] = (files, *streams(proc))
    return results


def differences(base: tuple, change: tuple) -> list[str]:
    (files_b, *rest_b), (files_c, *rest_c) = base, change
    found = [f"{label} differs"
             for label, b, c in zip(("stdout", "stderr", "exit code"), rest_b, rest_c) if b != c]
    for name in sorted(set(files_b) | set(files_c)):
        if files_b.get(name) != files_c.get(name):
            found.append(f"output {name} differs" if name in files_b and name in files_c
                         else f"output {name} only in one tree")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--change", default="HEAD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rabistark-compare-") as scratch:
        scratch = Path(scratch)
        results = {}
        for side, spec in (("baseline", args.baseline), ("change", args.change)):
            tree, commit = prepare(spec, scratch, side)
            print(f"{side}: {spec} ({commit})")
            (scratch / f"{side}-runs").mkdir()
            results[side] = run_cases(tree, scratch / f"{side}-runs")
    failed = 0
    for name, base in results["baseline"].items():
        found = differences(base, results["change"][name])
        failed += bool(found)
        codes = f"exit {base[3]}" + ("" if base[3] == results["change"][name][3] else
                                     f" -> {results['change'][name][3]}")
        print(f"{name}: {'; '.join(found) if found else 'same'} ({codes})")
    print(f"{len(results['baseline']) - failed} of {len(results['baseline'])} runs identical "
          f"in output files, stdout, stderr and exit code")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

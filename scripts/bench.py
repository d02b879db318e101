#!/usr/bin/env python3
"""Run the end-to-end benchmark on two trees and record both sides' medians.

    python3 scripts/bench.py --baseline REV_OR_DIR [--change REV_OR_DIR] --out FILE

A tree is a git revision of this repository, exported with `git archive`
into a temporary directory, or a directory holding a checkout (used in
place).  The change side defaults to HEAD.  For each workload that
BENCHMARK.json declares, the script runs the tree's own
`perfbench/run.py --workload W --seed N --seconds S --trace 0`, with S the
file's run_seconds, once per side in each of 10 pairs, alternating which
side runs first, so that drift of the machine hits both alike.  Each run's
metrics come from the last line of its standard output.  FILE gets every
run; per side and metric the median and quartiles; the change/baseline
ratio of the medians; the number of pairs in which the change read lower;
both commits, the CPU model, the core count and the Python, numpy and
scipy versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs that can show a gain


def git(*args, cwd=ROOT):
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def prepare(spec: str, scratch: Path, name: str) -> tuple[Path, str | None]:
    """(tree directory, commit) for a revision or a checkout directory."""
    if Path(spec).is_dir():
        tree = Path(spec).resolve()
        commit = git("rev-parse", "HEAD", cwd=tree)
        if commit and git("status", "--porcelain", cwd=tree):
            commit += " (with uncommitted changes)"
        return tree, commit
    commit = git("rev-parse", "--verify", f"{spec}^{{commit}}")
    if commit is None:
        raise SystemExit(f"bench.py: {spec!r} is neither a directory nor a git revision")
    tree = scratch / name
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree, commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench.py: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="rabistark-bench-") as scratch:
        sides = {name: prepare(spec, Path(scratch), name)
                 for name, spec in (("baseline", args.baseline), ("change", args.change))}
        workloads = {}
        for workload in (w["name"] for w in declared["workloads"]):
            runs = {name: [] for name in sides}
            for pair in range(PAIRS):
                order = ("baseline", "change") if pair % 2 == 0 else ("change", "baseline")
                for name in order:
                    runs[name].append(run_once(sides[name][0], workload, pair + 1, seconds))
                    print(f"{workload} {name} run {pair + 1}: "
                          f"{runs[name][-1]['metrics']}", file=sys.stderr)
            values = {name: {m: [r["metrics"][m] for r in side_runs]
                             for m in side_runs[0]["metrics"]}
                      for name, side_runs in runs.items()}
            medians = {name: {m: statistics.median(v) for m, v in side.items()}
                       for name, side in values.items()}
            workloads[workload] = {
                "runs": runs,
                "median": medians,
                "quartiles": {name: {m: statistics.quantiles(v, n=4)[::2] for m, v in side.items()}
                              for name, side in values.items()},
                "change_over_baseline": {
                    m: medians["change"][m] / medians["baseline"][m]
                    for m in medians["change"] if medians["baseline"][m]
                },
                "pairs_change_lower": {
                    m: sum(c < b for c, b in zip(values["change"][m], values["baseline"][m]))
                    for m in values["change"]
                },
            }

    record = {
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "pairs": PAIRS,
        "baseline": {"tree": args.baseline, "commit": sides["baseline"][1]},
        "change": {"tree": args.change, "commit": sides["change"][1]},
        "machine": {"cpu": cpu_model(), "arch": platform.machine(), "cores": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0))},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
process (perfbench/workload.py) with PYTHONPATH set to the checkout's src/
and OpenBLAS/OpenMP pinned to one thread, so the workload's own worker
threads are its only parallelism and setup_s and peak_rss_mib belong to that
round alone.  Rounds repeat until the next one would end past S seconds
(at least one round runs), and every round is checked against the
independent reference in perfbench/reference.py.

--trace 0 reports the end-to-end metrics: setup_s is the median over the
rounds and over probes, processes that stop at their first solver call:
FIRST_PROBES before the first round and PROBES_PER_ROUND after each round,
so the samples spread over the whole run rather than over one phase of a
machine whose speed drifts.  wall_s, cpu_s and peak_rss_mib are medians over
the rounds; probes are kept few so that as many rounds as possible fit.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (medians), with trace.overhead_s the median
traced minus the median untraced wall_s.

The workloads draw no random inputs: --seed is recorded in the run record
and changes nothing else.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("collapse", "spectrum_sweep", "staircase")
FIRST_PROBES = 5  # set-up probes before the first round
PROBES_PER_ROUND = 1  # set-up probes after each round
RUN_DEADLINE_S = 170.0  # the whole run, set-up probes and checks included


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, mode: str, deadline: float) -> dict:
    """One workload process; returns its parsed JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), workload, "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload} {mode} round timed out") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} {mode} round exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, cycle: tuple[str, ...], seconds: float, deadline: float,
               rounds: dict):
    """Processes in the modes of cycle, repeated until the next cycle would
    end past seconds; at least one cycle runs.  Results go to rounds[mode]."""
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for m in cycle:
            rounds.setdefault(m, []).append(spawn(workload, m, deadline))
        if time.monotonic() - start + (time.monotonic() - t) > seconds:
            return rounds


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rabistark").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize_ops(all_rounds):
    """attempted, failed, correct and one reason per distinct failure.

    correct is false when the reference fails its self-check or when an
    operation fails for anything but the named error_map fault."""
    attempted = failed = 0
    correct = True
    reasons: Counter[tuple[str, str]] = Counter()
    for r in all_rounds:
        correct = correct and not r["reference_self_check"]
        reasons.update(("reference self-check", msg) for msg in r["reference_self_check"])
        for o in r["ops"]:
            attempted += 1
            if o["reasons"]:
                failed += 1
                correct = correct and o["known_fault"]
                reasons[(o["op"], "; ".join(o["reasons"]))] += 1
    failures = [{"op": op, "reason": why, "rounds": n} for (op, why), n in reasons.items()]
    return attempted, failed, correct, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rabistark" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC / 'rabistark'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        # byte-compile the sources once, so no round pays for it in setup_s
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                       check=True, capture_output=True, timeout=120)
        spawn(args.workload, "setup", deadline)  # warms the file cache; discarded
        if args.trace:
            rounds = run_rounds(args.workload, ("run", "trace"), args.seconds, deadline, {})
            measured = rounds["run"] + rounds["trace"]
        else:
            probes = {"setup": [spawn(args.workload, "setup", deadline)
                                for _ in range(FIRST_PROBES)]}
            rounds = run_rounds(args.workload, ("run",) + ("setup",) * PROBES_PER_ROUND,
                                args.seconds, deadline, probes)
            measured = rounds["run"]
    except (RoundFailed, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed, correct, failures = summarize_ops(measured)
    median = statistics.median
    if args.trace:
        units = metric_units("per_layer")
        overhead = (median(r["wall_s"] for r in rounds["trace"])
                    - median(r["wall_s"] for r in rounds["run"]))
        metrics = {name: overhead if name == "trace.overhead_s"
                   else median(r["layers"][name] for r in rounds["trace"]) for name in units}
    else:
        units = metric_units("end_to_end")
        metrics = {name: median(r[name] for r in (rounds["setup"] + measured
                                                  if name == "setup_s" else measured))
                   for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "random_inputs": False,
        "trace": bool(args.trace),
        "commit": git_commit(),
        "source_sha256_16": source_digest(),
        "machine": {"host": platform.node(), "arch": platform.machine(), "cpu": cpu_model(),
                    "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))},
        "environment": measured[0]["environment"],
        "threads_at_first_solver_call": max(r["threads_at_start"] for r in measured),
        "rounds": {m: len(v) for m, v in rounds.items()},
        "round_walls_s": {m: [r["wall_s"] for r in v] for m, v in rounds.items() if m != "setup"},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "run_s": time.monotonic() - began,
    }
    if args.trace:
        record["spans_per_traced_round"] = [r["spans"] for r in rounds["trace"]]
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"run record: {json.dumps(record)}")
    print(f"workload {args.workload}: {attempted} operations attempted, {failed} failed")
    for f in failures:
        print(f"  failed x{f['rounds']}: {f['op']}: {f['reason']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite.

One test per criterion (criterion 3 is split so its independent claims are
visible separately); each prints a pass/fail line with the measured values.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines for
passing criteria too.

Known red: the kappa = 0.01 half of criterion 3.  At delta = omega,
g = 0.2 omega the first true ground-state crossing of the completed model
sits at u = 1.9410 omega, below 2 omega (the original model's own first
ground crossing is at u = 1.9216 omega at this coupling, and kappa = 0.01
shifts it only by ~ +0.02).  The crossing moves past 2 omega only for
larger photon couplings (kappa = 0.1 gives 2.1190) or in the CO regime.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rabistark.analytic import (
    LambdaMode,
    LambdaSolveError,
    RegimeViolationError,
    analytic_ground_energy,
    jc_block,
    solve_branch,
    solve_lambda,
)
from rabistark.cli import EXIT_OK, main
from rabistark.colimit import analytic_mean_photon, co_excitation_energy
from rabistark.eigen import Classification, converged_spectrum, eigen_symmetric
from rabistark.fockspace import ModelParams, Variant
from rabistark.observables import detect_level_crossings, staircase_scan
from rabistark.specialfn import assoc_laguerre1, laguerre

from test_colimit import _explicit_state_mean_photon
from test_eigen import chain, charpoly_bisection_roots, dense

STARK = Variant.RABI_STARK
COMPLETED = Variant.COMPLETED


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------
# 1. collapse trichotomy at delta = omega, g = 0.2 omega


def test_criterion_1_collapse_trichotomy():
    results = {}
    timings = {}
    # below the critical point: plain convergence at the default tolerance
    t0 = time.monotonic()
    _, rep = converged_spectrum(
        ModelParams(delta=1.0, g=0.2, u=1.9, variant=STARK), 10, tol=1e-8
    )
    timings[1.9] = time.monotonic() - t0
    results[1.9] = (rep.classification, np.nan)

    # at the critical point the collapsed band edge converges ~ N^-1.7, so
    # the classification tolerance is 1e-6 omega here (1e-8 would need
    # cutoffs far beyond desk scale); the 1e-2 omega degeneracy window is
    # the criterion's stated figure
    t0 = time.monotonic()
    spec, rep = converged_spectrum(
        ModelParams(delta=1.0, g=0.2, u=2.0, variant=STARK),
        10,
        tol=1e-6,
    )
    timings[2.0] = time.monotonic() - t0
    assert rep.degeneracy_window == 1e-2
    spread = float(spec.energies[-1] - spec.energies[0])
    results[2.0] = (rep.classification, spread)

    t0 = time.monotonic()
    _, rep = converged_spectrum(
        ModelParams(delta=1.0, g=0.2, u=2.2, variant=STARK), 10, tol=1e-8
    )
    timings[2.2] = time.monotonic() - t0
    results[2.2] = (rep.classification, np.nan)

    ok = (
        results[1.9][0] is Classification.CONVERGED
        and results[2.0][0] is Classification.COLLAPSED_DEGENERATE
        and results[2.0][1] <= 1e-2
        and results[2.2][0] is Classification.UNBOUNDED_BELOW
        and all(dt < 60.0 for dt in timings.values())
    )
    report(
        "1",
        ok,
        f"u=1.9 -> {results[1.9][0].value}, "
        f"u=2.0 -> {results[2.0][0].value} (spread {results[2.0][1]:.2e}), "
        f"u=2.2 -> {results[2.2][0].value}; "
        f"runtimes {[f'{timings[u]:.1f}s' for u in (1.9, 2.0, 2.2)]}",
    )
    assert results[1.9][0] is Classification.CONVERGED
    assert results[2.0][0] is Classification.COLLAPSED_DEGENERATE
    assert results[2.0][1] <= 1e-2
    assert results[2.2][0] is Classification.UNBOUNDED_BELOW
    for u, dt in timings.items():
        assert dt < 60.0, f"u={u} took {dt:.1f}s"


# --------------------------------------------------------------------------
# 2. analytic/numeric ground-state agreement at delta = u = omega


def test_criterion_2_ground_energy_agreement():
    deltas = {}
    for g in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        p = ModelParams(delta=1.0, g=g, u=1.0, variant=STARK)
        spec, rep = converged_spectrum(p, 1, tol=1e-8)
        assert rep.classification is Classification.CONVERGED
        deltas[g] = abs(analytic_ground_energy(p) - float(spec.energies[0]))
    within = all(deltas[g] <= 2e-2 for g in (0.05, 0.1, 0.2, 0.3))
    seq = [deltas[g] for g in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
    monotone = all(a < b for a, b in zip(seq, seq[1:]))
    report(
        "2",
        within and monotone,
        "dE = " + ", ".join(f"{g}: {deltas[g]:.2e}" for g in sorted(deltas)),
    )
    assert within
    assert monotone


# --------------------------------------------------------------------------
# 3. completed-model boundedness and first crossing position


def test_criterion_3_completed_boundedness():
    all_converged = True
    for kappa in (0.01, 0.1):
        for u in np.arange(0.0, 3.01, 0.2):
            p = ModelParams(delta=1.0, g=0.2, u=float(u), kappa=kappa, variant=COMPLETED)
            _, rep = converged_spectrum(p, 4, tol=1e-8)
            if rep.classification not in (
                Classification.CONVERGED,
                Classification.COLLAPSED_DEGENERATE,
            ):
                all_converged = False
    report("3 (boundedness)", all_converged,
           "kappa in {0.01, 0.1}: every u <= 3 omega classifies Converged")
    assert all_converged


def test_criterion_3_first_crossing_kappa_01():
    p = ModelParams(delta=1.0, g=0.2, u=0.0, kappa=0.1, variant=COMPLETED)
    events = detect_level_crossings(p, "u", np.arange(1.85, 2.3001, 0.01), levels=2)
    first = events[0].value if events else math.inf
    ok = bool(events) and first > 2.0
    report("3 (crossing, kappa=0.1)", ok, f"first ground crossing at u = {first:.4f}")
    assert events
    assert first > 2.0


def test_criterion_3_first_crossing_kappa_001():
    # KNOWN RED: measured first ground crossing at u = 1.9410 < 2 omega;
    # see the module docstring
    p = ModelParams(delta=1.0, g=0.2, u=0.0, kappa=0.01, variant=COMPLETED)
    events = detect_level_crossings(p, "u", np.arange(1.85, 2.3001, 0.01), levels=2)
    first = events[0].value if events else math.inf
    ok = bool(events) and first > 2.0
    report("3 (crossing, kappa=0.01)", ok, f"first ground crossing at u = {first:.4f}")
    assert events
    assert first > 2.0, (
        f"first true ground-state crossing measured at u = {first:.4f} omega, "
        "below the original critical point; the stated criterion is not "
        "attainable at delta = omega, g = 0.2 omega, kappa = 0.01 omega"
    )


# --------------------------------------------------------------------------
# 4. staircase geometry in the CO regime


def test_criterion_4_staircase_geometry():
    p = ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=COMPLETED)
    rep = staircase_scan(p, np.arange(1.9, 3.0, 0.004), workers=2)
    first_ok = abs(rep.edges[0] - 2.1) <= 0.02
    widths = np.array(rep.widths)
    width_ok = np.all(np.abs(widths / 0.2 - 1.0) <= 0.05) and len(widths) >= 3
    mean_width_ok = abs(float(np.mean(widths)) / 0.2 - 1.0) <= 0.05
    plateau_ok = all(
        abs(pl - round(pl)) <= 0.05 for pl in rep.plateaus
    ) and len(rep.plateaus) >= 4

    t0 = time.monotonic()
    p1000 = ModelParams(delta=1000.0, g=0.1, kappa=1e-3, variant=COMPLETED)
    rep1000 = staircase_scan(p1000, np.arange(1.998, 2.036, 0.0005), workers=2)
    elapsed = time.monotonic() - t0
    slope_ok = abs(rep1000.fitted_slope / 0.25 - 1.0) <= 0.05
    runtime_ok = elapsed <= 30 * 60

    ok = first_ok and width_ok and mean_width_ok and plateau_ok and slope_ok and runtime_ok
    report(
        "4",
        ok,
        f"first edge {rep.edges[0]:.4f} (2.1 +- 0.02), mean width "
        f"{float(np.mean(widths)):.4f} (0.2 +- 5%), plateaus "
        f"{[round(pl, 3) for pl in rep.plateaus]}, delta=1000 slope "
        f"{rep1000.fitted_slope:.4f} (0.25 +- 5%) in {elapsed:.0f}s",
    )
    assert first_ok
    assert width_ok and mean_width_ok
    assert plateau_ok
    assert slope_ok
    assert runtime_ok


# --------------------------------------------------------------------------
# 5. CO-limit phase boundary


def test_criterion_5_phase_boundary():
    base = dict(delta=200.0, g=0.1, variant=STARK)
    eps = lambda u: co_excitation_energy(ModelParams(u=u, **base))

    at_boundary = eps(2.0).simplified
    below, above = eps(2.0 - 1e-12).simplified, eps(2.0 + 1e-12).simplified
    simplified_ok = at_boundary == 0.0 and below > 0.0 and above < 0.0

    lo, hi = 1.9, 2.1
    f_lo = eps(lo).full
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = eps(mid).full
        if f_lo * fm <= 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    root = 0.5 * (lo + hi)
    full_ok = abs(root - 2.0) <= 1e-3

    report(
        "5",
        simplified_ok and full_ok,
        f"simplified form vanishes at u = 2 exactly; with C retained the "
        f"sign change sits at u = {root:.9f}",
    )
    assert simplified_ok
    assert full_ok


# --------------------------------------------------------------------------
# 6. reduction chain, bit-level


def test_criterion_6_reduction_chain():
    rabi = ModelParams(delta=1.0, g=0.3, u=2.7, kappa=0.4, variant=Variant.RABI)
    stark0 = ModelParams(delta=1.0, g=0.3, u=0.0, variant=STARK)
    pipeline_equal = True
    for n in (0, 1, 3):
        for t_z in (+1, -1):
            lam_r = solve_lambda(rabi, n, t_z)
            lam_s = solve_lambda(stark0, n, t_z)
            pipeline_equal &= lam_r == lam_s
            pipeline_equal &= bool(
                np.array_equal(jc_block(rabi, n, lam_r), jc_block(stark0, n, lam_s))
            )
            lam_z_r = solve_lambda(rabi, n, t_z, mode=LambdaMode.ZERO_ORDER)
            lam_z_s = solve_lambda(stark0, n, t_z, mode=LambdaMode.ZERO_ORDER)
            pipeline_equal &= lam_z_r == lam_z_s
    pipeline_equal &= analytic_ground_energy(rabi) == analytic_ground_energy(stark0)

    stark = ModelParams(delta=1.0, g=0.3, u=1.4, variant=STARK)
    completed0 = ModelParams(delta=1.0, g=0.3, u=1.4, kappa=0.0, variant=COMPLETED)
    blocks_equal = True
    for n in (0, 2):
        for t_z in (+1, -1):
            lam_f = solve_lambda(stark, n, t_z, mode=LambdaMode.FULL)
            lam_c = solve_lambda(completed0, n, t_z, mode=LambdaMode.COMPLETED_FULL)
            blocks_equal &= lam_f == lam_c
            blocks_equal &= bool(
                np.array_equal(jc_block(stark, n, lam_f), jc_block(completed0, n, lam_c))
            )
    blocks_equal &= analytic_ground_energy(stark) == analytic_ground_energy(completed0)

    report(
        "6",
        pipeline_equal and blocks_equal,
        "u-hard-zeroed pipelines bit-identical; kappa = 0 completed blocks "
        "entry-identical to the original blocks",
    )
    assert pipeline_equal
    assert blocks_equal


# --------------------------------------------------------------------------
# 7. oracle suites


def _series_oracle(n, k, x):
    xf = Fraction(x)
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction((-1) ** j * math.comb(n + k, n - j), math.factorial(j)) * xf**j
    return float(total)


def test_criterion_7_oracle_suites():
    # (a) Laguerre recurrence vs exact rational series
    worst = 0.0
    for n in range(61):
        for x in (0.0, 0.01, 0.1, 1.0, 4.0):
            for k, fn in ((0, laguerre), (1, assoc_laguerre1)):
                ref = _series_oracle(n, k, x)
                err = abs(fn(n, x) - ref) / max(abs(ref), 1e-300)
                worst = max(worst, err)
    laguerre_ok = worst <= 1e-12

    # (b) eigensolver vs characteristic-polynomial bisection
    rng = np.random.default_rng(7)
    eigen_worst = 0.0
    for _ in range(3):
        h = chain(rng.normal(size=6), rng.normal(size=5))
        roots = charpoly_bisection_roots(dense(h))
        spec = eigen_symmetric(h, 6)
        eigen_worst = max(eigen_worst, float(np.max(np.abs(spec.energies - roots))))
    eigen_ok = eigen_worst <= 1e-9

    # (c) lambda-condition residual on every returned branch
    residual_worst = 0.0
    for delta in (0.5, 1.0, 2.0, 200.0):
        for g in (0.1, 0.3, 0.5):
            for u in (0.0, 1.0, 1.9):
                for kappa, variant in ((0.0, STARK), (0.05, COMPLETED)):
                    for n in (0, 3, 7):
                        for t_z in (+1, -1):
                            p = ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)
                            try:
                                br = solve_branch(p, n, t_z)
                            except (LambdaSolveError, RegimeViolationError):
                                continue
                            residual_worst = max(residual_worst, abs(br.residual))
    residual_ok = residual_worst <= 1e-10

    # (d) mean-photon quadratic form vs explicit displaced state
    photon_worst = 0.0
    for n, lam, c1 in ((0, -0.05, 1.0), (1, -0.12, 0.6), (2, -0.01, 0.3), (4, 0.2, 0.8)):
        c2 = math.sqrt(1.0 - c1 * c1)
        got = analytic_mean_photon(n, lam, c1, c2)
        ref = _explicit_state_mean_photon(n, lam, c1, c2)
        photon_worst = max(photon_worst, abs(got - ref))
    photon_ok = photon_worst <= 1e-6

    # (e) variational monotonicity across every recorded doubling history
    monotone_ok = True
    for u in (0.7, 1.5, 2.0):
        p = ModelParams(delta=1.0, g=0.3, u=u, variant=STARK)
        _, rep = converged_spectrum(p, 5, tol=1e-10, max_cutoff=512)
        for (_, prev), (_, cur) in zip(rep.history, rep.history[1:]):
            monotone_ok &= bool(np.all(cur <= prev + 1e-9))

    ok = laguerre_ok and eigen_ok and residual_ok and photon_ok and monotone_ok
    report(
        "7",
        ok,
        f"laguerre {worst:.1e} (<=1e-12), eigensolver {eigen_worst:.1e} "
        f"(<=1e-9), lambda residual {residual_worst:.1e} (<=1e-10), "
        f"mean photon {photon_worst:.1e} (<=1e-6), variational monotonicity "
        f"{monotone_ok}",
    )
    assert laguerre_ok
    assert eigen_ok
    assert residual_ok
    assert photon_ok
    assert monotone_ok


# --------------------------------------------------------------------------
# 8. byte-identical sweep reruns


def test_criterion_8_determinism(tmp_path):
    argv = [
        "spectrum", "--model", "completed", "--delta", "1", "--g", "0.2",
        "--kappa", "0.1", "--scan", "u=0:2.4:0.3", "--levels", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a), "--workers", "2"]) == EXIT_OK
    assert main(argv + ["--out", str(b), "--workers", "1"]) == EXIT_OK

    argv_json = [
        "staircase", "--model", "completed", "--delta", "200", "--g", "0.1",
        "--kappa", "0.05", "--scan", "u=2.0:2.2:0.01", "--format", "json",
    ]
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert main(argv_json + ["--out", str(c), "--workers", "2"]) == EXIT_OK
    assert main(argv_json + ["--out", str(d), "--workers", "1"]) == EXIT_OK

    csv_same = a.read_bytes() == b.read_bytes()
    json_same = c.read_bytes() == d.read_bytes()
    report("8", csv_same and json_same,
           f"csv rerun identical: {csv_same}; json rerun identical: {json_same}")
    assert csv_same
    assert json_same

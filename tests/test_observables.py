"""Mean-photon observables, staircase detection, crossing detection."""

import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

import rabistark.eigen as eigen
import rabistark.observables as observables
from rabistark.analytic import LambdaMode, solve_lambda
from rabistark.colimit import CoRegimeError, crossing_ladder
from rabistark.eigen import DEFAULT_MAX_CUTOFF, DEFAULT_TOL, converged_spectrum, spectrum_at_cutoff
from rabistark.fockspace import HamiltonianMatrix, ModelParams, Variant
from rabistark.observables import (
    TAIL_TOL,
    DivergentSpectrumError,
    ResolutionError,
    detect_level_crossings,
    initial_cutoff,
    mean_photon_ground,
    staircase_scan,
)

CO = Variant.COMPLETED
STARK = Variant.RABI_STARK


def test_mean_photon_zero_coupling():
    p = ModelParams(delta=1.0, g=0.0, u=1.5, variant=STARK)
    assert mean_photon_ground(p) == 0.0


def test_mean_photon_refuses_unbounded():
    p = ModelParams(delta=1.0, g=0.2, u=2.5, variant=STARK)
    with pytest.raises(DivergentSpectrumError):
        mean_photon_ground(p, max_cutoff=2048)


def test_mean_photon_refuses_an_undetermined_spectrum():
    # at u = 2 omega the ground level is still moving at cutoff 64
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=STARK)
    with pytest.raises(DivergentSpectrumError, match="u = 2.0, kappa = 0.0 did not converge "
                       "by cutoff 64"):
        mean_photon_ground(p, max_cutoff=64)


def test_refusal_names_the_last_cutoff_solved():
    # the doubling 32, 64 stops below max_cutoff = 100
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=STARK)
    with pytest.raises(DivergentSpectrumError, match="did not converge by cutoff 64$"):
        mean_photon_ground(p, max_cutoff=100)


def test_mean_photon_matches_displacement_occupation():
    # in the CO regime before the first edge the ground state carries
    # lambda^2 photons
    p = ModelParams(delta=200.0, g=0.1, u=1.5, kappa=0.05, variant=CO)
    lam = solve_lambda(p, 0, -1, mode=LambdaMode.CO_LIMIT)
    assert mean_photon_ground(p) == pytest.approx(lam * lam, abs=1e-3)


def test_initial_cutoff_policy():
    p = ModelParams(delta=1000.0, g=0.1, u=2.03, kappa=1e-3, variant=CO)
    n_star = (2.03 - 2.0 - 2e-3) / 4e-3
    assert initial_cutoff(p) == max(32, 4 * math.ceil(n_star))
    assert initial_cutoff(ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)) == 32


def test_ground_vectors_need_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(HamiltonianMatrix, "to_dense", refuse)
    p = ModelParams(delta=200.0, g=0.1, u=2.15, kappa=0.05, variant=CO)
    assert mean_photon_ground(p) == pytest.approx(1.0, abs=0.05)
    report = staircase_scan(p, np.arange(2.0, 2.2001, 0.02))
    assert len(report.edges) == 1


def test_staircase_preconditions():
    with pytest.raises(ValueError):
        staircase_scan(ModelParams(delta=200.0, g=0.1, u=0.0, variant=STARK), [2.0, 2.1])
    with pytest.raises(ValueError):
        staircase_scan(
            ModelParams(delta=200.0, g=0.1, kappa=0.0, variant=CO), [2.0, 2.1]
        )
    with pytest.raises(CoRegimeError):
        staircase_scan(
            ModelParams(delta=1.0, g=0.1, kappa=0.05, variant=CO), [2.0, 2.1]
        )
    with pytest.raises(ValueError, match="workers"):
        staircase_scan(
            ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO), [2.0, 2.02], workers=0
        )


def test_staircase_resolution_guard():
    p = ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO)
    with pytest.raises(ResolutionError):
        staircase_scan(p, np.arange(1.9, 2.6, 0.15))  # step 0.15 vs width 0.2


def test_staircase_detects_integer_plateaus_and_ladder_edges():
    p = ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO)
    grid = np.arange(1.95, 2.56, 0.02)
    report = staircase_scan(p, grid, workers=2)
    # monotone non-decreasing staircase
    assert np.all(np.diff(report.mean_photon) >= -1e-9)
    assert len(report.edges) == 3
    ladder = crossing_ladder(p, 2)
    for edge, predicted in zip(report.edges, ladder.positions):
        assert abs(edge - predicted) <= 2 * 0.02  # within two grid steps
    for width in report.widths:
        assert width == pytest.approx(4 * 0.05, rel=0.05)
    for plateau, expected in zip(report.plateaus, (0.0, 1.0, 2.0, 3.0)):
        assert abs(plateau - expected) <= 0.05
    # plateau just above the first edge sits at one photon
    just_above = report.mean_photon[np.searchsorted(grid, report.edges[0]) + 1]
    assert abs(just_above - 1.0) <= 0.05
    assert report.renormalized == pytest.approx(report.mean_photon / 200.0)


def test_staircase_first_step_sharpens_with_frequency_ratio():
    # kappa = 1/delta: the measured first step width shrinks as delta grows
    widths = []
    for delta in (50.0, 200.0, 1000.0):
        kappa = 1.0 / delta
        p = ModelParams(delta=delta, g=0.1, kappa=kappa, variant=CO)
        step = 4.0 * kappa / 5.0
        grid = np.arange(2.0 - 2 * kappa, 2.0 + 11.5 * kappa, step)
        report = staircase_scan(p, grid, workers=2)
        assert len(report.edges) >= 2
        widths.append(report.widths[0])
    assert widths[0] > widths[1] > widths[2]


def test_crossing_detector_validates_input():
    p = ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)
    with pytest.raises(ValueError):
        detect_level_crossings(p, "omega", [0.1, 0.2, 0.3], 2)
    with pytest.raises(ValueError):
        detect_level_crossings(p, "u", [0.1, 0.2, 0.3], 1)
    with pytest.raises(ValueError):
        detect_level_crossings(p, "u", [0.3, 0.2, 0.1], 2)
    with pytest.raises(ValueError):  # g = 0: diagonal chains, degenerate sectors
        detect_level_crossings(dc_replace(p, g=0.0), "u", [0.1, 0.2, 0.3], 2)


def test_crossing_scan_refuses_an_unbounded_point():
    p = ModelParams(delta=1.0, g=0.2, variant=STARK)
    with pytest.raises(DivergentSpectrumError, match="u = 2.3 is unbounded from below"):
        detect_level_crossings(p, "u", [2.3, 2.4, 2.5], 2)


def test_crossing_scan_refuses_an_undetermined_point(monkeypatch):
    # no crossing is reported from levels that did not converge
    real = observables.converged_spectrum

    def budget_spent_at(u):
        def solve(params, **kwargs):
            spec, report = real(params, **kwargs)
            if params.u == u:
                report = dc_replace(
                    report,
                    classification=eigen.Classification.UNDETERMINED,
                    final_cutoff=eigen.DEFAULT_MAX_CUTOFF,
                )
            return spec, report
        return solve

    p = ModelParams(delta=1.0, g=0.2, variant=STARK)
    grid = [1.0, 1.5, 1.9]
    monkeypatch.setattr(observables, "converged_spectrum", budget_spent_at(1.5))
    with pytest.raises(DivergentSpectrumError, match="u = 1.5 did not converge by cutoff 32768"):
        detect_level_crossings(p, "u", grid, 2)
    monkeypatch.setattr(observables, "converged_spectrum", budget_spent_at(None))
    assert detect_level_crossings(p, "u", grid, 2) == []


def test_crossing_scan_reuses_the_converged_sector_levels(monkeypatch):
    # sweep points read the sector levels converged_spectrum already solved;
    # only a bracketed crossing solves the chains again
    def refuse(*args, **kwargs):
        raise AssertionError("sector chains solved again")

    monkeypatch.setattr(observables, "spectrum_at_cutoff", refuse)
    p = ModelParams(delta=1.0, variant=Variant.RABI)
    assert detect_level_crossings(p, "g", np.arange(0.05, 1.01, 0.05), levels=2) == []


@pytest.fixture
def chain_solves(monkeypatch):
    """Log of (cutoff, want_vectors) for every sector-chain solve: each chain
    the lane solver bisects (values) and each vector eigen_symmetric solves.
    A vector solve that reuses its chain's bisection logs only the vector."""
    log, real_block, real_eigen = [], eigen._solve_block, eigen.eigen_symmetric

    def counting_block(rows, k, order):
        log.extend([(rows.shape[-1] - 1, False)] * (len(rows) * (rows.shape[1] - 1)))
        return real_block(rows, k, order)

    def counting(h, k, want_vectors=False, bisection=None):
        if want_vectors:
            log.append((h.cutoff, True))
        return real_eigen(h, k, want_vectors, bisection=bisection)

    monkeypatch.setattr(eigen, "_solve_block", counting_block)
    monkeypatch.setattr(eigen, "eigen_symmetric", counting)
    monkeypatch.setattr(observables, "eigen_symmetric", counting)
    return log


def test_refined_crossing_costs_few_chain_solves(monkeypatch, chain_solves):
    # the crossings or edges of a scan are the lanes of one Illinois
    # refinement on E+_a - E-_b: per lane two endpoint evaluations (fewer
    # where the scan solved them already) plus a few steps, two chain solves
    # per evaluation (a bisection to 1e-12 needs 64-78); an evaluation is
    # charged to every bracket that holds it
    costs, evaluations = [], []
    real_crossing, real_spectrum = observables._sector_crossing, observables.spectrum_at_cutoff

    def measured(params, name, lo, hi, *args):
        evaluations.clear()
        out = real_crossing(params, name, lo, hi, *args)
        for a, b in zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()):
            costs.append(sum(n for x, n in evaluations if a <= x <= b))
        return out

    def located(p, cutoff, k):
        start = len(chain_solves)
        out = real_spectrum(p, cutoff, k)
        evaluations.append((p.u, len(chain_solves) - start))
        return out

    monkeypatch.setattr(observables, "_sector_crossing", measured)
    monkeypatch.setattr(observables, "spectrum_at_cutoff", located)
    p = ModelParams(delta=1.0, g=0.2, u=0.0, kappa=0.01, variant=CO)
    events = detect_level_crossings(p, "u", np.arange(1.85, 2.3001, 0.01), levels=2)
    assert len(events) == len(costs) == 5
    report = staircase_scan(
        ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO), np.arange(1.95, 2.56, 0.02)
    )
    assert len(costs) == 5 + len(report.edges) > 5
    assert 0 < max(costs) <= 24


def test_mean_photon_solves_one_chain_with_vectors_per_tail_cutoff(monkeypatch, chain_solves):
    # the ground chain is picked from the converged sector levels; only it
    # is solved again, with vectors, at each cutoff of the tail check
    p = ModelParams(delta=200.0, g=0.1, u=2.15, kappa=0.05, variant=CO)
    mean_photon_ground(p)
    [(cutoff, _)] = [c for c in chain_solves if c[1]]
    chain_solves.clear()
    monkeypatch.setattr(observables, "TAIL_TOL", 0.0)  # force the tail doubling
    with pytest.raises(DivergentSpectrumError):
        mean_photon_ground(p, max_cutoff=4 * cutoff)
    assert [c for c in chain_solves if c[1]] == [(m * cutoff, True) for m in (1, 2, 4)]


def test_converged_point_builds_each_cutoff_once(monkeypatch, chain_solves):
    # the lane controller builds both chains of a cutoff as one block row, and
    # the ground vector is solved on the chain built at the converged cutoff,
    # reusing the bisection that solved its level
    builds, real_build = [], eigen.build_chain_block

    def counting_build(points, cutoff):
        builds.extend([cutoff] * len(points))
        return real_build(points, cutoff)

    def refuse(*args, **kwargs):
        raise AssertionError("a chain was built again")

    monkeypatch.setattr(eigen, "build_chain_block", counting_build)
    monkeypatch.setattr(eigen, "build_chains", refuse)
    monkeypatch.setattr(observables, "build_hamiltonian", refuse)
    mean_photon_ground(ModelParams(delta=200.0, g=0.1, u=2.3, kappa=0.05, variant=CO))
    assert len(builds) == len(set(builds)) == 2 and len(chain_solves) == 5
    assert [c for c in chain_solves if not c[1]] == [(c, False) for c in builds for _ in "+-"]
    assert [c for c in chain_solves if c[1]] == [(builds[-1], True)]


def _sector_gap(p, name, x, cutoff, a, b):
    plus, minus = spectrum_at_cutoff(dc_replace(p, **{name: x}), cutoff, max(a, b) + 1).sectors
    return plus[a] - minus[b]


def _bisect_sector_root(p, name, lo, hi, cutoff, a, b):
    """E+_a - E-_b = 0 by plain bisection to 1e-14 or float spacing."""
    above_lo = _sector_gap(p, name, lo, cutoff, a, b) > 0.0
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-14 and lo < mid < hi:
        above_mid = _sector_gap(p, name, mid, cutoff, a, b) > 0.0
        lo, hi = (mid, hi) if above_mid == above_lo else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


@pytest.mark.parametrize(
    "params, name, grid, levels",
    [
        (ModelParams(delta=1.0, g=0.2, kappa=0.01, variant=CO), "u",
         np.arange(1.85, 2.3001, 0.01), 2),
        (ModelParams(delta=1.0, g=0.2, variant=STARK), "u", np.arange(1.85, 1.9951, 0.005), 6),
        (ModelParams(delta=1.0, variant=Variant.RABI), "g", np.arange(0.05, 1.01, 0.05), 6),
    ],
)
def test_crossings_match_an_independent_bisection(params, name, grid, levels):
    events = detect_level_crossings(params, name, grid, levels)
    assert events
    for ev in events:
        i = int(np.searchsorted(grid, ev.value)) - 1
        lo, hi = float(grid[i]), float(grid[i + 1])
        cutoff = max(
            converged_spectrum(dc_replace(params, **{name: v}), levels)[0].cutoff
            for v in (lo, hi)
        )
        # every sector pair (a, b) with a + b = pair[0] that changes sign
        splits = [(a, ev.pair[0] - a) for a in range(ev.pair[0] + 1)]
        roots = [
            _bisect_sector_root(params, name, lo, hi, cutoff, a, b)
            for a, b in splits
            if (_sector_gap(params, name, lo, cutoff, a, b) > 0.0)
            != (_sector_gap(params, name, hi, cutoff, a, b) > 0.0)
        ]
        assert min(abs(r - ev.value) for r in roots) <= 1e-11


def test_staircase_edges_match_an_independent_bisection():
    p = ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO)
    grid = np.arange(1.95, 2.56, 0.02)
    report = staircase_scan(p, grid)
    assert len(report.edges) >= 2
    for edge in report.edges:
        i = int(np.searchsorted(grid, edge)) - 1
        cutoff = max(report.cutoffs[i : i + 2])
        root = _bisect_sector_root(p, "u", float(grid[i]), float(grid[i + 1]), cutoff, 0, 0)
        assert abs(edge - root) <= 1e-11


def test_completed_first_crossing_after_original_critical_point():
    p = ModelParams(delta=1.0, g=0.2, u=0.0, kappa=0.1, variant=CO)
    events = detect_level_crossings(p, "u", np.arange(1.9, 2.4001, 0.02), levels=2)
    assert events, "expected a ground-state crossing in the scan window"
    first = events[0]
    assert first.pair == (0, 1)
    assert first.value > 2.0
    assert first.value == pytest.approx(2.11898, abs=1e-3)
    assert first.gap < 1e-6


def test_collapse_cluster_of_true_crossings_below_critical_point():
    # kappa = 0: negative branches cross each other approaching u = 2 omega
    p = ModelParams(delta=1.0, g=0.2, u=0.0, variant=STARK)
    events = detect_level_crossings(p, "u", np.arange(1.85, 1.9951, 0.005), levels=6)
    assert len(events) >= 3
    assert all(1.9 <= ev.value <= 2.0 for ev in events)
    pairs = {ev.pair for ev in events}
    assert (0, 1) in pairs  # the ground state itself crosses before 2 omega


def test_rabi_model_crossing_structure():
    # the two lowest Rabi levels never truly cross (the parity doublet only
    # closes exponentially); the first true crossings involve excited
    # levels, pinned by the first-baseline degeneracy condition
    # 4 g^2 + delta^2/4 = 1, i.e. g = sqrt(3)/4 for the (2, 3) pair
    p = ModelParams(delta=1.0, g=0.0, u=0.0, variant=Variant.RABI)
    ground_events = detect_level_crossings(p, "g", np.arange(0.05, 2.51, 0.05), levels=2)
    assert ground_events == []

    events = detect_level_crossings(p, "g", np.arange(0.05, 1.01, 0.05), levels=6)
    juddian = [ev for ev in events if ev.pair == (2, 3)]
    assert juddian
    assert juddian[0].value == pytest.approx(math.sqrt(3.0) / 4.0, abs=2e-4)


@pytest.mark.parametrize("u_values, start_cutoff, message", [
    ([2.0, 2.05], 32_769, "empty cutoff schedule: start_cutoff=32769"),
    ([2.0], None, "u grid must be strictly increasing with >= 2 points"),
    ([2.0, 2.1], None, "resolves fewer than 3 points"),
    # the default start cutoff at the last u: 4 ceil((u - 2.5) / 1)
    ([8194.5, 8194.75], None, "empty cutoff schedule: start_cutoff=32772"),
    # a converged spectrum needs two cutoffs of the doubling
    ([2.0, 2.05], 16_385, "start cutoff 16385 leaves the doubling one cutoff"),
    ([4098.5, 4098.75], None, "start cutoff 16388 leaves the doubling one cutoff"),
])
def test_staircase_grid_is_refused_before_any_solve(u_values, start_cutoff, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(observables, "_mean_photon_detail", refuse)
    kappa = 0.25 if u_values[0] > 4000 else 0.05
    p = ModelParams(delta=200.0, g=0.1, kappa=kappa, variant=Variant.COMPLETED)
    with pytest.raises(ValueError, match=message):
        observables.staircase_scan(p, u_values, start_cutoff=start_cutoff)


def _one_point_staircase(params, u_values):
    """mean_photon, cutoffs and edges of a staircase scan, point by point:
    one-lane _mean_photon_detail (mean_photon_ground is its first field) and
    one-lane _sector_crossing with both ends evaluated afresh."""
    points = [dc_replace(params, u=float(u)) for u in u_values]
    detail = [observables._mean_photon_detail([p], DEFAULT_TOL, None, DEFAULT_MAX_CUTOFF)
              for p in points]
    nbar = [float(d[0][0]) for d in detail]
    cutoffs = [int(d[1][0]) for d in detail]
    assert nbar == [mean_photon_ground(p) for p in points]
    edges = []
    for i in range(len(points) - 1):
        if nbar[i + 1] - nbar[i] >= 0.5:
            x, _ = observables._sector_crossing(
                params, "u", [u_values[i]], [u_values[i + 1]], [max(cutoffs[i : i + 2])], [0], [0]
            )
            edges.append(float(x[0]))
    return nbar, cutoffs, edges


@pytest.mark.parametrize("params, u_values, tail_tol", [
    # lanes start at different cutoffs (initial_cutoff grows with u)
    (ModelParams(delta=1000.0, g=0.1, kappa=1e-3, variant=CO), np.arange(2.19, 2.2101, 0.001),
     TAIL_TOL),
    # a Fock tail above 1e-96 at the converged cutoff of some points doubles it
    (ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO), np.arange(2.0, 2.2001, 0.02),
     1e-96),
], ids=["deep segment", "tail doubling"])
def test_staircase_lanes_equal_the_one_point_route(params, u_values, tail_tol, monkeypatch):
    monkeypatch.setattr(observables, "TAIL_TOL", tail_tol)
    report = staircase_scan(params, u_values)
    nbar, cutoffs, edges = _one_point_staircase(params, u_values)
    assert report.mean_photon.tolist() == nbar
    assert report.cutoffs == cutoffs
    assert report.edges == edges and edges
    if tail_tol != TAIL_TOL:
        starts = [initial_cutoff(dc_replace(params, u=float(u))) for u in u_values]
        assert any(c > 2 * s for c, s in zip(cutoffs, starts))


def test_staircase_raises_the_error_of_the_first_failing_point(monkeypatch):
    # chains of u in (2.05, 2.09) drop by their dimension at every doubling,
    # so those points are unbounded below after four cutoffs; a chain of
    # u = 2.14 fails its bisection at once.  The scan raises what the first
    # failing point in grid order raises alone.
    params = ModelParams(delta=200.0, g=0.1, kappa=0.05, variant=CO)
    u_values = np.arange(2.0, 2.2001, 0.02)
    real = eigen.dstebz

    def faulty(d, e, *args):
        m, w, iblock, isplit, info = real(d, e, *args)
        # +1 chain: d[1] = omega + kappa - (u + delta)/2; -1 chain: the sign flips
        sign = 1.0 if d[0] > 0 else -1.0
        u = 2.0 * sign * (1.0 + params.kappa - d[1]) - params.delta
        if 2.05 < u < 2.09:
            w = w - d.size
        return m, w, iblock, isplit, 1 if 2.13 < u < 2.15 else info

    monkeypatch.setattr(eigen, "dstebz", faulty)
    expected = None
    for u in u_values:
        try:
            observables._mean_photon_detail(
                [dc_replace(params, u=float(u))], DEFAULT_TOL, None, DEFAULT_MAX_CUTOFF
            )
        except (ValueError, RuntimeError) as exc:  # the one-point route's first refusal
            expected = exc
            break
    assert isinstance(expected, DivergentSpectrumError)
    assert str(expected) == "spectrum at u = 2.06, kappa = 0.05 is unbounded from below"
    with pytest.raises(DivergentSpectrumError) as raised:
        staircase_scan(params, u_values)
    assert str(raised.value) == str(expected)

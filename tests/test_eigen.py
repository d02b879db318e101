"""Eigensolver contracts and the convergence classifier."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabistark
from rabistark.eigen import (
    Classification,
    converged_spectrum,
    eigen_symmetric,
    spectrum_at_cutoff,
)
from rabistark.fockspace import ModelParams, Variant, build_hamiltonian


def test_one_by_one_block():
    spec = eigen_symmetric(np.array([[3.7]]), 1)
    assert spec.energies[0] == pytest.approx(3.7, abs=0.0)


def test_two_by_two_closed_form():
    a, b, d = 0.3, -1.2, 2.1
    spec = eigen_symmetric(np.array([[a, b], [b, d]]), 2)
    s = np.sqrt(((a - d) / 2) ** 2 + b * b)
    assert spec.energies[0] == pytest.approx((a + d) / 2 - s, rel=1e-14)
    assert spec.energies[1] == pytest.approx((a + d) / 2 + s, rel=1e-14)


def charpoly_bisection_roots(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Roots of det(A - x I) by sign-change bisection on a Gershgorin scan.

    Uses LU-based determinants, independent of the symmetric eigensolver.
    """
    radius = np.max(np.sum(np.abs(mat), axis=1))
    xs = np.linspace(-radius, radius, 20_001)
    det = np.array([np.linalg.det(mat - x * np.eye(mat.shape[0])) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if det[i] == 0.0:
            roots.append(xs[i])
        elif det[i] * det[i + 1] < 0:
            lo, hi, flo = xs[i], xs[i + 1], det[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = np.linalg.det(mat - mid * np.eye(mat.shape[0]))
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


def test_random_6x6_against_charpoly_oracle():
    rng = np.random.default_rng(20240817)
    base = rng.normal(size=(6, 6))
    mat = (base + base.T) / 2.0
    expected = charpoly_bisection_roots(mat)
    assert len(expected) == 6
    spec = eigen_symmetric(mat, 6)
    assert np.max(np.abs(spec.energies - expected)) <= 1e-9


def test_vector_contract():
    # the full band matrix and both tridiagonal sector chains
    p = ModelParams(delta=1.0, g=0.25, u=0.8, variant=Variant.RABI_STARK)
    for parity in (None, +1, -1):
        h = build_hamiltonian(p, 40, parity=parity)
        spec = eigen_symmetric(h, 4, want_vectors=True)
        dense = h.to_dense()
        for j in range(4):
            v = spec.vectors[:, j]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
            resid = np.linalg.norm(dense @ v - spec.energies[j] * v)
            assert resid <= 1e-8 * (1.0 + abs(spec.energies[j]))
            assert v[np.argmax(np.abs(v))] > 0  # fixed sign convention


def test_k_bounds_validated():
    h = build_hamiltonian(ModelParams(), 4)
    with pytest.raises(ValueError):
        eigen_symmetric(h, 0)
    with pytest.raises(ValueError):
        eigen_symmetric(h, h.dim + 1)
    with pytest.raises(ValueError):
        eigen_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # not symmetric


def test_decoupled_spectrum_matches_diagonal():
    # g = 0: eigenvalues are omega n +- (delta/2 + u n/2) + kappa n^2 exactly
    p = ModelParams(delta=0.9, g=0.0, u=0.6, kappa=0.03, variant=Variant.COMPLETED)
    h = build_hamiltonian(p, 30)
    expected = np.sort(h.diagonal())[:8]
    got = eigen_symmetric(h, 8).energies
    assert np.allclose(got, expected, atol=1e-12)


def test_converged_below_collapse():
    p = ModelParams(delta=1.0, g=0.2, u=1.0, variant=Variant.RABI_STARK)
    spec, report = converged_spectrum(p, 6, tol=1e-8)
    assert report.classification is Classification.CONVERGED
    # stable across the final doubling
    last, prev = report.history[-1][1], report.history[-2][1]
    assert np.max(np.abs(last - prev)) <= 1e-8


def test_unbounded_below_past_collapse():
    p = ModelParams(delta=1.0, g=0.2, u=2.5, variant=Variant.RABI_STARK)
    spec, report = converged_spectrum(p, 4, tol=1e-8, max_cutoff=4096)
    assert report.classification is Classification.UNBOUNDED_BELOW
    assert report.drift_rate < 0
    drops = [
        report.history[i][1][0] - report.history[i + 1][1][0]
        for i in range(len(report.history) - 1)
    ]
    assert all(d > 10 * report.tolerance for d in drops[-3:])


def test_undetermined_when_budget_too_small():
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=Variant.RABI_STARK)
    spec, report = converged_spectrum(p, 4, tol=1e-12, max_cutoff=128)
    assert report.classification is Classification.UNDETERMINED


def test_parity_doublet_is_not_collapse():
    # the Rabi model's Z2 doublet has one level per parity sector and closes
    # exponentially in g; collapse stacks many levels inside each sector
    for g in (1.55, 2.0, 2.5):
        p = ModelParams(delta=1.0, g=g, variant=Variant.RABI)
        spec, report = converged_spectrum(p, 2)
        assert spec.energies[1] - spec.energies[0] <= report.degeneracy_window
        assert report.classification is Classification.CONVERGED
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=Variant.RABI_STARK)
    _, report = converged_spectrum(p, 10, tol=1e-6, degeneracy_window=1e-2)
    assert report.classification is Classification.COLLAPSED_DEGENERATE


def test_spectrum_keeps_its_sector_levels():
    p = ModelParams(delta=1.0, g=0.4, u=1.2, variant=Variant.RABI_STARK)
    spec = spectrum_at_cutoff(p, 20, 7)
    plus, minus = spec.sectors
    assert len(plus) == len(minus) == 7
    assert np.array_equal(spec.energies, np.sort(np.concatenate(spec.sectors))[:7])
    for parity, levels in ((+1, plus), (-1, minus)):
        h = build_hamiltonian(p, 20, parity=parity)
        assert np.array_equal(levels, eigen_symmetric(h, 7).energies)
    converged, report = converged_spectrum(p, 7)
    assert converged.cutoff == report.final_cutoff
    assert np.array_equal(converged.energies, report.history[-1][1])
    assert converged.sectors is not None


def test_variational_monotonicity_across_histories():
    # E_k(N) non-increasing in the cutoff for a nested truncation
    for u in (0.5, 1.5, 2.0):
        p = ModelParams(delta=1.0, g=0.3, u=u, variant=Variant.RABI_STARK)
        _, report = converged_spectrum(p, 5, tol=1e-10, max_cutoff=512)
        for (_, prev), (_, cur) in zip(report.history, report.history[1:]):
            assert np.all(cur <= prev + 1e-9)


def test_sorted_energies_invariant():
    p = ModelParams(delta=1.0, g=0.4, u=1.8, variant=Variant.RABI_STARK)
    spec, _ = converged_spectrum(p, 10, tol=1e-8)
    assert np.all(np.diff(spec.energies) >= 0)
    assert spec.k_requested == 10 and len(spec.energies) == 10


def test_solver_paths_leave_scipy_optimize_unloaded():
    # importing scipy.optimize costs about 0.3 s and 20 MiB, more than the
    # rest of the package's start-up; neither import nor a solve may load it
    code = (
        "import sys, rabistark as r\n"
        "p = r.ModelParams(delta=1.0, g=0.2, kappa=0.1, variant=r.Variant.COMPLETED)\n"
        "r.detect_level_crossings(p, 'u', [2.08, 2.12, 2.16], 2)\n"
        "r.mean_photon_ground(p)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(rabistark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

"""Eigensolver contracts and the convergence classifier."""

import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.blas import dsbmv

import oracle
import rabistark
from rabistark import eigen
from rabistark.eigen import (
    Classification,
    SolverError,
    converged_spectrum,
    eigen_symmetric,
    spectrum_at_cutoff,
)
from rabistark.fockspace import HamiltonianMatrix, ModelParams, Variant, build_chain_block
from rabistark.fockspace import build_chains, build_hamiltonian


def chain(d, e) -> HamiltonianMatrix:
    band = np.zeros((2, len(d)))
    band[0], band[1, :-1] = d, e
    return HamiltonianMatrix(band=band, cutoff=len(d) - 1, parity=+1)


def dense(h: HamiltonianMatrix) -> np.ndarray:
    """The symmetric tridiagonal matrix a chain's band represents."""
    off = h.band[1, :-1]
    return np.diag(h.band[0]) + np.diag(off, 1) + np.diag(off, -1)


def test_one_by_one_block():
    spec = eigen_symmetric(chain([3.7], []), 1)
    assert spec.energies[0] == pytest.approx(3.7, abs=0.0)
    spec = eigen_symmetric(chain([3.7], []), 1, want_vectors=True)
    assert spec.energies.tolist() == [3.7] and spec.vectors.tolist() == [[1.0]]


@st.composite
def chains(draw, min_dim=2):
    """(d, e) of a random symmetric tridiagonal chain; some off-diagonals
    are zero or tiny enough for LAPACK to split the chain there, and some
    diagonals are rounded to integers so that levels cluster."""
    dim = draw(st.integers(min_dim, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=dim)
    if draw(st.booleans()):
        d = np.round(d)
    e = rng.uniform(0.01, 3.0, size=dim - 1) * rng.choice([-1.0, 1.0], size=dim - 1)
    split = rng.random(dim - 1) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    e[split] = rng.choice([0.0, 1e-300, 1e-20], size=int(split.sum()))
    return d, e


@given(de=chains(), k_frac=st.floats(0.0, 1.0), want_vectors=st.booleans())
@settings(max_examples=120, deadline=None)
def test_chain_solver_matches_eigh_tridiagonal_bit_for_bit(de, k_frac, want_vectors):
    # the direct LAPACK calls are the ones eigh_tridiagonal makes for the
    # kernel the chain solver picks: all levels by dsterf for values only
    # with k > 1 and dim/k < 2 floor(log2 dim), else select='i' (dstebz, then
    # dstein), so values and vectors agree to the last bit
    d, e = de
    k = 1 + int(k_frac * (len(d) - 1))
    spec = eigen_symmetric(chain(d, e), k, want_vectors=want_vectors)
    if not want_vectors and 1 < k and len(d) < 2 * k * (len(d).bit_length() - 1):
        ref = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")[:k]
    else:
        ref = eigh_tridiagonal(d, e, eigvals_only=not want_vectors, select="i",
                               select_range=(0, k - 1))
    if not want_vectors:
        assert spec.vectors is None and np.array_equal(spec.energies, ref)
        return
    w, v = ref
    flip = v[np.argmax(np.abs(v), axis=0), np.arange(k)] < 0  # the package's sign convention
    v[:, flip] *= -1.0
    assert np.array_equal(spec.energies, w)
    assert np.array_equal(spec.vectors, v)


lane_points = st.builds(
    ModelParams,
    delta=st.floats(0.0, 1e3),
    g=st.floats(0.0, 2.0),
    u=st.floats(-3.0, 3.0),
    kappa=st.floats(0.0, 0.5),
    variant=st.sampled_from(list(Variant)),
)


# the CLI's two overflow points: kappa n^2 near the largest double (its chains
# are finite up to cutoff 42) and a level splitting of 1e200
OVERFLOW_POINTS = [ModelParams(delta=1.0, g=0.2, kappa=1e305, variant=Variant.COMPLETED),
                   ModelParams(delta=1e200, g=0.2, u=0.5, variant=Variant.RABI_STARK)]


@st.composite
def model_chains(draw):
    """(d, e) of a parity chain of a random model point or an overflow point."""
    p, top = draw(st.one_of(st.tuples(lane_points, st.just(200)),
                            st.tuples(st.sampled_from(OVERFLOW_POINTS), st.just(42))))
    h = build_chains(p, draw(st.integers(1, top)))[draw(st.integers(0, 1))]
    return h.band[0], h.band[1, :-1]


@given(de=st.one_of(chains(), model_chains()), k_frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_dsterf_levels_match_bisection_within_a_few_eps_norm(de, k_frac):
    # both errors are absolute: dsterf's is a small multiple of eps ||T||, and
    # dstebz with ABSTOL = 0 stops at a bracket of ulp ||T||; over 2,795 chains
    # of the chains() kind that take dsterf, the two kernels' lowest k differed
    # by at most 2.4 sqrt(dim) eps ||T||, with ||T|| the largest absolute row sum.
    # dstebz also drops every off-diagonal whose square underflows
    # (|e| < sqrt(tiny)), which moves a level by less than 2 sqrt(tiny)
    d, e = de
    k = 1 + int(k_frac * (len(d) - 1))
    sterf, info = eigen.dsterf(d, e)
    m, stebz, _, _, stebz_info = eigen.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "E")
    assert info == stebz_info == 0 and m == k and np.isfinite(sterf).all()
    norm = np.abs(d)
    norm[1:] += np.abs(e)
    norm[:-1] += np.abs(e)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    bound = 8 * np.sqrt(len(d)) * eps * norm.max() + 2 * np.sqrt(tiny)
    assert np.abs(sterf[:k] - stebz[:k]).max() <= bound


@given(points=st.lists(lane_points, min_size=1, max_size=5), cutoff=st.integers(1, 200),
       k_frac=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_lane_solver_levels_equal_eigen_symmetric_per_chain(points, cutoff, k_frac):
    k = 1 + int(k_frac * cutoff)
    solved = eigen._solve_block(build_chain_block(points, cutoff), k, "B" if k == 1 else "E")
    for p, chains in zip(points, solved):
        for h, (levels, _, _) in zip(build_chains(p, cutoff), chains):
            assert np.array_equal(levels, eigen_symmetric(h, k).energies)


@given(de=chains(min_dim=1))
@settings(max_examples=120, deadline=None)
def test_one_level_bisection_is_the_same_in_either_order(de):
    # ORDER='B' groups levels by split block and 'E' sorts them; one level is both
    d, e = de
    rows = chain(d, e).band[None]
    [[(by_block, _, _)]], [[(sorted_, _, _)]] = (eigen._solve_block(rows, 1, o) for o in "BE")
    assert np.array_equal(by_block, sorted_)


@given(points=st.lists(lane_points, min_size=1, max_size=4), cutoff=st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_vector_from_a_reused_bisection_equals_a_fresh_solve(points, cutoff):
    solved = eigen._solve_block(build_chain_block(points, cutoff), 1, "B")
    for p, chains in zip(points, solved):
        for h, bisection in zip(build_chains(p, cutoff), chains):
            fresh = eigen_symmetric(h, 1, want_vectors=True)
            reused = eigen_symmetric(h, 1, want_vectors=True, bisection=bisection)
            assert np.array_equal(reused.energies, fresh.energies)
            assert np.array_equal(reused.vectors, fresh.vectors)


def test_a_malformed_bisection_is_refused_before_dstein(monkeypatch):
    # dstein's wrapper takes a None iblock, and that corrupts numpy's int dtype
    h = build_hamiltonian(ModelParams(delta=1.0, g=0.2, u=0.5), 40, parity=+1)
    [[(levels, iblock, isplit)]] = eigen._solve_block(h.band[None], 1, "B")
    assert (levels.shape, iblock.shape, isplit.shape) == ((1,), (41,), (41,))
    monkeypatch.setattr(eigen, "dstein", lambda *a: pytest.fail("dstein was called"))
    for bad in ((levels, None, None), (levels, iblock[:-1], isplit),
                (levels, iblock.astype(np.int64), isplit), (levels[:0], iblock, isplit)):
        with pytest.raises(ValueError, match="bisection must be"):
            eigen_symmetric(h, 1, want_vectors=True, bisection=bad)


def test_an_overflowing_chain_is_refused_without_a_warning():
    # kappa n^2 overflows the diagonal; the block build ignores the overflow
    # and the lane solver refuses the inf
    p = ModelParams(delta=1.0, g=0.2, kappa=1e305, variant=Variant.COMPLETED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            spectrum_at_cutoff(p, 64, 2)
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            converged_spectrum(p, 2)


def test_chain_solver_failures_raise_solver_error(monkeypatch):
    h = build_hamiltonian(ModelParams(delta=1.0, g=0.3, u=0.5), 20, parity=+1)
    real_stebz = eigen.dstebz
    for info in (1, -3):
        monkeypatch.setattr(eigen, "dstebz", lambda *a, info=info: (*real_stebz(*a)[:4], info))
        with pytest.raises(SolverError, match="dstebz"):
            eigen_symmetric(h, 2)
    monkeypatch.setattr(eigen, "dstebz", real_stebz)
    monkeypatch.setattr(eigen, "dstein", lambda d, e, w, *a: (np.zeros((d.size, w.size)), 2))
    with pytest.raises(SolverError, match="dstein"):
        eigen_symmetric(h, 2, want_vectors=True)


def test_dsterf_failures_raise_solver_error(monkeypatch):
    # 20 of 21 levels, values only: the chain solver takes dsterf
    h = build_hamiltonian(ModelParams(delta=1.0, g=0.3, u=0.5), 20, parity=+1)
    levels = eigen.dsterf(h.band[0], h.band[1, :-1])[0]
    monkeypatch.setattr(eigen, "dstebz", lambda *a: pytest.fail("dstebz was called"))
    monkeypatch.setattr(eigen, "dsterf", lambda d, e: (levels.copy(), 1))
    with pytest.raises(SolverError, match=r"LAPACK dsterf failed with info=1 \(dim=21, k=20\)"):
        eigen_symmetric(h, 20)
    monkeypatch.setattr(eigen, "dsterf", lambda d, e: (levels[::-1].copy(), 0))
    with pytest.raises(SolverError, match="out of order"):
        eigen_symmetric(h, 20)


def test_residual_and_norm_guards_raise_solver_error(monkeypatch):
    h = build_hamiltonian(ModelParams(delta=1.0, g=0.3, u=0.5), 20, parity=+1)
    flat = np.full(h.dim, h.dim**-0.5)  # unit norm, but the chain couples its sites
    monkeypatch.setattr(eigen, "dstein", lambda d, e, w, *a: (np.tile(flat, (w.size, 1)).T, 0))
    with pytest.raises(SolverError, match="residual"):
        eigen_symmetric(h, 1, want_vectors=True)
    doubled = np.zeros(h.dim)
    doubled[0] = 2.0
    monkeypatch.setattr(eigen, "dstein", lambda d, e, w, *a: (np.tile(doubled, (w.size, 1)).T, 0))
    with pytest.raises(SolverError, match="unit-norm"):
        eigen_symmetric(h, 1, want_vectors=True)


@given(de=chains(min_dim=1), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_chain_product_matches_band_matrix_vector_product(de, seed):
    # the residual check's H v against the BLAS band product it replaced
    d, e = de
    h = chain(d, e)
    v = np.random.default_rng(seed).normal(size=h.dim)
    v /= np.linalg.norm(v)
    ref = dsbmv(1, 1.0, h.band, v, lower=1)
    scale = np.abs(d).max() + np.abs(e).max(initial=0.0)
    assert np.abs(eigen._chain_product(h.band, v) - ref).max() <= 1e-15 * scale


def test_non_finite_chain_entries_are_refused():
    # finite couplings whose kappa n^2 overflows; a NaN off-diagonal
    with np.errstate(over="ignore"):
        h = build_hamiltonian(ModelParams(kappa=1e308, variant=Variant.COMPLETED), 4, parity=-1)
    assert np.isinf(h.band[0, -1])
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigen_symmetric(h, 1)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigen_symmetric(chain([0.0, 1.0, 2.0], [0.5, np.nan]), 1)


def test_two_by_two_closed_form():
    a, b, d = 0.3, -1.2, 2.1
    spec = eigen_symmetric(chain([a, d], [b]), 2)
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
    h = chain(rng.normal(size=6), rng.normal(size=5))
    expected = charpoly_bisection_roots(dense(h))
    assert len(expected) == 6
    spec = eigen_symmetric(h, 6)
    assert np.max(np.abs(spec.energies - expected)) <= 1e-9


def test_vector_contract():
    # both tridiagonal sector chains
    p = ModelParams(delta=1.0, g=0.25, u=0.8, variant=Variant.RABI_STARK)
    for parity in (+1, -1):
        h = build_hamiltonian(p, 40, parity=parity)
        spec = eigen_symmetric(h, 4, want_vectors=True)
        mat = dense(h)
        for j in range(4):
            v = spec.vectors[:, j]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
            resid = np.linalg.norm(mat @ v - spec.energies[j] * v)
            assert resid <= 1e-8 * (1.0 + abs(spec.energies[j]))
            assert v[np.argmax(np.abs(v))] > 0  # fixed sign convention


def test_k_bounds_validated():
    h = build_hamiltonian(ModelParams(), 4, parity=+1)
    with pytest.raises(ValueError):
        eigen_symmetric(h, 0)
    with pytest.raises(ValueError):
        eigen_symmetric(h, h.dim + 1)
    # only parity-sector chains: no dense matrix, no wider band
    for other in (np.eye(2), HamiltonianMatrix(band=np.zeros((4, 10)), cutoff=4, parity=+1)):
        with pytest.raises(ValueError, match="parity-sector chain"):
            eigen_symmetric(other, 1)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_tol_must_be_finite_and_positive(tol):
    # no drift is <= NaN (the schedule would run to its end) and every
    # drift is <= inf (the second cutoff would pass whatever it moved)
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        converged_spectrum(ModelParams(delta=1.0, g=0.2, u=1.0), 2, tol=tol)


def test_decoupled_spectrum_matches_diagonal():
    # g = 0: eigenvalues are omega n +- (delta/2 + u n/2) + kappa n^2, the
    # diagonal of the oracle's full matrix
    p = ModelParams(delta=0.9, g=0.0, u=0.6, kappa=0.03, variant=Variant.COMPLETED)
    expected = np.sort(np.diag(oracle.hamiltonian(p, 30)))[:8]
    got = spectrum_at_cutoff(p, 30, 8).energies
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


def test_slow_convergence_that_spends_the_budget_is_undetermined():
    # at u = 2 omega the ground drops stay above 10 tol up to the last cutoff
    # but shrink on every doubling (4.4e-4 down to 1.4e-7): slow convergence,
    # not divergence
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=Variant.RABI_STARK)
    spec, report = converged_spectrum(p, 4, tol=1e-8)
    assert report.classification is Classification.UNDETERMINED
    assert spec.cutoff == report.final_cutoff == 32_768
    ground = np.array([energies[0] for _, energies in report.history])
    drops = -np.diff(ground)
    assert (drops[-3:] > 10 * report.tolerance).all() and (np.diff(drops) < 0).all()


@pytest.mark.parametrize("k", [1, 2, 10])
def test_lane_controller_equals_one_point_solves(k):
    # batches whose lanes start at mixed cutoffs and stop in every way the
    # controller has; each lane gives the bits of its own converged_spectrum
    def stark(u):
        return ModelParams(delta=1.0, g=0.2, u=u, variant=Variant.RABI_STARK)

    overflow = ModelParams(delta=1.0, g=0.2, kappa=1e305, variant=Variant.COMPLETED)
    batches = [
        (1e-6, eigen.DEFAULT_MAX_CUTOFF,
         [(stark(1.9), 16), (stark(2.0), 32), (stark(2.2), 8), (overflow, 32), (stark(1.9), 64)]),
        (1e-8, 128, [(stark(2.0), 16), (stark(1.9), 32), (stark(2.0), 64)]),
    ]
    seen = set()
    for tol, max_cutoff, lanes in batches:
        points, starts = ([lane[i] for lane in lanes] for i in (0, 1))
        outcomes = dict(eigen._converge_lanes(points, k, tol, max_cutoff, starts))
        assert sorted(outcomes) == list(range(len(lanes)))
        for lane, (p, start) in enumerate(lanes):
            got = outcomes[lane]
            try:
                spec, report = converged_spectrum(
                    p, k, tol=tol, max_cutoff=max_cutoff, start_cutoff=start
                )
            except ValueError as exc:
                assert isinstance(got, ValueError)
                assert str(got) == str(exc) == "array must not contain infs or NaNs"
                seen.add("error")
                continue
            lane_spec, lane_report = got
            assert np.array_equal(lane_spec.energies, spec.energies)
            assert lane_spec.cutoff == spec.cutoff
            for lane_levels, levels in zip(lane_spec.sectors, spec.sectors, strict=True):
                assert np.array_equal(lane_levels, levels)
            if k == 1:
                for lane_bisection, bisection in zip(
                    lane_spec.bisections, spec.bisections, strict=True
                ):
                    for a, b in zip(lane_bisection, bisection, strict=True):
                        assert np.array_equal(a, b)
            else:
                assert lane_spec.bisections is spec.bisections is None
            assert lane_report.classification is report.classification
            assert lane_report.final_cutoff == report.final_cutoff
            assert [c for c, _ in lane_report.history] == [c for c, _ in report.history]
            for (_, lane_levels), (_, levels) in zip(lane_report.history, report.history):
                assert np.array_equal(lane_levels, levels)
            assert np.array_equal(lane_report.drift_rate, report.drift_rate, equal_nan=True)
            seen.add(report.classification)
    expected = {Classification.CONVERGED, Classification.UNBOUNDED_BELOW,
                Classification.UNDETERMINED, "error"}
    if k > 1:  # one level per chain cannot hold a degenerate pair
        expected.add(Classification.COLLAPSED_DEGENERATE)
    assert seen == expected


def test_dsterf_solves_classify_as_bisection_does(monkeypatch):
    # the spectrum_sweep grid (k = 30) and the collapse trichotomy (k = 10)
    # take dsterf at their first cutoffs; solved by bisection alone (ORDER
    # 'B', which dsterf never serves, then sorted) every lane must stop at
    # the same cutoff with the same classification
    def stark(u):
        return ModelParams(delta=1.0, g=0.2, u=u, variant=Variant.RABI_STARK)

    runs = [([stark(0.02 * i) for i in range(100)], 30, 1e-8),
            ([stark(1.9)], 10, 1e-8), ([stark(2.0)], 10, 1e-6), ([stark(2.2)], 10, 1e-8)]
    real_solve, real_sterf = eigen._solve_block, eigen.dsterf
    sterf_calls = []

    def bisection_only(rows, m, order):
        return [lane if isinstance(lane, Exception) else [(np.sort(w), None, None)
                                                         for w, _, _ in lane]
                for lane in real_solve(rows, m, "B")]

    def counted_sterf(d, e):
        sterf_calls.append(d.size)
        return real_sterf(d, e)

    seen = set()
    for points, k, tol in runs:
        starts = [eigen.DEFAULT_START_CUTOFF] * len(points)
        monkeypatch.setattr(eigen, "dsterf", counted_sterf)
        solved = dict(eigen._converge_lanes(points, k, tol, eigen.DEFAULT_MAX_CUTOFF, starts))
        monkeypatch.setattr(eigen, "_solve_block", bisection_only)
        bisected = dict(eigen._converge_lanes(points, k, tol, eigen.DEFAULT_MAX_CUTOFF, starts))
        monkeypatch.setattr(eigen, "_solve_block", real_solve)
        for lane in range(len(points)):
            (spec, report), (ref_spec, ref_report) = solved[lane], bisected[lane]
            assert report.classification is ref_report.classification
            assert report.final_cutoff == ref_report.final_cutoff == spec.cutoff
            assert [c for c, _ in report.history] == [c for c, _ in ref_report.history]
            for (_, levels), (_, ref_levels) in zip(report.history, ref_report.history):
                assert np.abs(levels - ref_levels).max() <= 1e-11
            seen.add(report.classification)
    assert set(sterf_calls) == {33, 65, 129}
    assert seen == {Classification.CONVERGED, Classification.COLLAPSED_DEGENERATE,
                    Classification.UNBOUNDED_BELOW}


@pytest.mark.parametrize("k", [1, 2])
def test_a_block_is_released_before_the_next_is_built(monkeypatch, k):
    # a round holds one block: its rows and its dstebz output go once the
    # consumer has dropped the outcomes and resumed the controller
    real_build, real_solve = eigen.build_chain_block, eigen._solve_block
    held = []

    def build(points, cutoff):
        assert not [ref for ref in held if ref() is not None], "an earlier block is held"
        rows = real_build(points, cutoff)
        held.append(weakref.ref(rows))
        return rows

    def solve(rows, m, order):
        solved = real_solve(rows, m, order)
        held.extend(weakref.ref(a) for lane in solved for chain in lane for a in chain)
        return solved

    monkeypatch.setattr(eigen, "build_chain_block", build)
    monkeypatch.setattr(eigen, "_solve_block", solve)
    monkeypatch.setattr(eigen, "_BLOCK_BUDGET", 3 * 65)  # one lane per block from cutoff 64
    points = [ModelParams(delta=1.0, g=0.2, u=u, variant=Variant.RABI_STARK)
              for u in (0.5, 1.0, 1.5, 2.2)]
    stopped = []
    for lane, outcome in eigen._converge_lanes(points, k, 1e-8, 2048, [32] * 4):
        stopped.append(lane)
        del outcome
    assert sorted(stopped) == [0, 1, 2, 3] and len(held) > 8


def test_parity_doublet_is_not_collapse():
    # the Rabi model's Z2 doublet has one level per parity sector and closes
    # exponentially in g; collapse stacks many levels inside each sector
    for g in (1.55, 2.0, 2.5):
        p = ModelParams(delta=1.0, g=g, variant=Variant.RABI)
        spec, report = converged_spectrum(p, 2)
        assert spec.energies[1] - spec.energies[0] <= report.degeneracy_window
        assert report.classification is Classification.CONVERGED
    p = ModelParams(delta=1.0, g=0.2, u=2.0, variant=Variant.RABI_STARK)
    _, report = converged_spectrum(p, 10, tol=1e-6)
    assert report.classification is Classification.COLLAPSED_DEGENERATE


def test_settled_means_converged_or_collapsed_degenerate():
    assert [c.value for c in Classification if c.settled] == ["Converged", "CollapsedDegenerate"]


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
    assert len(spec.energies) == 10


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


def _run_fresh(code: str) -> None:
    src = str(Path(rabistark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_solver_paths_leave_scipy_linalg_unloaded():
    # importing scipy.linalg costs more than every solve of a typical run;
    # the LAPACK extension is loaded from its file instead
    _run_fresh(
        "import sys, rabistark as r\n"
        "p = r.ModelParams(delta=1.0, g=0.2, kappa=0.1, variant=r.Variant.COMPLETED)\n"
        "r.converged_spectrum(p, 4)\n"
        "r.mean_photon_ground(p)\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
        "assert 'importlib.metadata' not in sys.modules, 'importlib.metadata was imported'\n"
    )


def test_later_scipy_linalg_import_reuses_the_lapack_module():
    _run_fresh(
        "import numpy as np\n"
        "import rabistark as r\n"
        "from rabistark import eigen\n"
        "h = r.build_hamiltonian(r.ModelParams(delta=1.0, g=0.4, u=1.5), 60, parity=-1)\n"
        "spec = eigen.eigen_symmetric(h, 5, want_vectors=True)\n"
        "import scipy.linalg\n"
        "assert scipy.linalg.lapack.dstebz is eigen.dstebz\n"
        "assert scipy.linalg.lapack.dstein is eigen.dstein\n"
        "w, v = scipy.linalg.eigh_tridiagonal(h.band[0], h.band[1, :-1], select='i',\n"
        "                                     select_range=(0, 4))\n"
        "v[:, v[np.argmax(np.abs(v), axis=0), np.arange(5)] < 0] *= -1.0\n"
        "assert np.array_equal(spec.energies, w) and np.array_equal(spec.vectors, v)\n"
    )


def test_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError) as excinfo:
        eigen._load_flapack(tmp_path)
    assert str(tmp_path) in str(excinfo.value)
    assert f"scipy {scipy.__version__}" in str(excinfo.value)

"""The JC-like reduction: lambda condition, blocks, ground energy, spectra
and the ground-state error map."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabistark.analytic import (
    LambdaMode,
    LambdaSolveError,
    RegimeViolationError,
    analytic_ground_energy,
    analytic_ladders,
    analytic_level_ladder,
    analytic_spectra,
    analytic_spectrum,
    block_eigenpairs,
    error_map,
    jc_block,
    lambda_condition_residual,
    solve_branch,
    solve_lambda,
)
import rabistark.analytic as analytic
import rabistark.eigen as eigen
from rabistark.eigen import SolverError, converged_spectrum
from rabistark.fockspace import ModelParams, Variant
from rabistark.specialfn import f1

STARK = Variant.RABI_STARK


def bisect_oracle(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_residual_vanishes_identically_at_g0_lambda0():
    p = ModelParams(delta=1.0, g=0.0, u=1.3, variant=STARK)
    for n in range(4):
        for t_z in (+1, -1):
            assert lambda_condition_residual(p, n, t_z, 0.0) == 0.0


def test_residual_reduces_to_rabi_form_at_u0():
    # u = 0, kappa = 0: residual is lambda omega + g + f1(n, lambda) delta / 2
    p = ModelParams(omega=1.1, delta=0.8, g=0.3, u=0.0, variant=STARK)
    for n in (0, 2, 5):
        for lam in (-0.3, -0.05):
            expected = lam * 1.1 + 0.3 + 0.5 * f1(n, lam) * 0.8
            assert lambda_condition_residual(p, n, +1, lam) == pytest.approx(
                expected, rel=1e-15
            )


def test_solve_lambda_matches_bisection_oracle():
    p = ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)
    root = solve_lambda(p, 0, +1, mode=LambdaMode.FULL)
    oracle = bisect_oracle(lambda lam: lambda_condition_residual(p, 0, +1, lam), -1.0, 0.0)
    assert root == pytest.approx(oracle, abs=1e-12)
    assert abs(lambda_condition_residual(p, 0, +1, root)) <= 1e-12


def mp_lambda_root(p: ModelParams, n: int, t_z: int):
    """Root of the lambda condition in 30-digit arithmetic, in the first
    sign-change interval of the solver's 1/256 grid scanned from 0."""
    with mpmath.workdps(30):
        omega, delta, g = (mpmath.mpf(v) for v in (p.omega, p.delta, p.g))
        u, kappa = mpmath.mpf(p.effective_u), mpmath.mpf(p.effective_kappa)

        def residual(lam):
            env = mpmath.exp(-2 * lam**2)
            g0 = mpmath.laguerre(n, 0, 4 * lam**2) * env
            f1 = 2 * lam * mpmath.laguerre(n, 1, 4 * lam**2) * env / (n + 1)
            return (
                lam * omega + g - u * g0 * lam * t_z / 2
                + f1 * (delta + u * lam**2 + u * n) / 2
                + 2 * kappa * lam**3 + 2 * kappa * lam * n + kappa * lam * t_z
            )

        hi, f_hi = mpmath.mpf(0), residual(mpmath.mpf(0))
        for i in range(1, 257):
            lo = mpmath.mpf(-i) / 256
            f_lo = residual(lo)
            if f_lo * f_hi <= 0:
                return float(mpmath.findroot(residual, (lo, hi), solver="anderson"))
            hi, f_hi = lo, f_lo
    raise AssertionError("no sign change on the grid")


@given(
    delta=st.floats(min_value=0.5, max_value=200.0),
    g=st.floats(min_value=1e-3, max_value=0.5),
    u=st.floats(min_value=0.0, max_value=1.9),
    kappa=st.floats(min_value=0.0, max_value=0.1),
    n=st.integers(min_value=0, max_value=30),
    t_z=st.sampled_from([+1, -1]),
    mode=st.sampled_from([LambdaMode.FULL, LambdaMode.COMPLETED_FULL]),
)
@settings(max_examples=50, deadline=None)
def test_solve_lambda_matches_mpmath_root(delta, g, u, kappa, n, t_z, mode):
    variant = Variant.COMPLETED if mode is LambdaMode.COMPLETED_FULL else STARK
    p = ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)
    lam = solve_lambda(p, n, t_z, mode=mode)
    assert abs(lam - mp_lambda_root(p, n, t_z)) <= 1e-14
    assert abs(lambda_condition_residual(p, n, t_z, lam)) <= 1e-12


def test_lambda_solve_work_per_branch(monkeypatch):
    # the spectrum sweep's ladders (Rabi-Stark, g = 0.2, u = 0 .. 1.98) cost
    # about 17 to 21 residual lane-evaluations per lambda: the grid scan plus
    # a short Illinois refinement, not a bisection down to 1e-14.  That holds
    # for one-lane solves, point by point and for the whole sweep in one
    # batch, as the CLI solves it.  The scan reads its kernels from one
    # Laguerre table per round, so only lambda = 0 and the refinement's
    # steps evaluate displacement_kernels, at most 8 lanes per lambda.  The
    # ground energy reuses the (0, -1) lane, so a ladder solves 36 lambdas,
    # not 37
    counts = {"lanes": 0, "residuals": 0, "kernels": 0}
    real_solve, real_residual = analytic._solve_lambdas, analytic._residual
    real_kernels = analytic.displacement_kernels

    def counting_solve(lanes):
        counts["lanes"] += lanes.n.size
        return real_solve(lanes)

    def counting_residual(lanes, lam, kern0, kern1):
        counts["residuals"] += lam.size
        return real_residual(lanes, lam, kern0, kern1)

    def counting_kernels(n, lam):
        counts["kernels"] += np.size(lam)
        return real_kernels(n, lam)

    monkeypatch.setattr(analytic, "_solve_lambdas", counting_solve)
    monkeypatch.setattr(analytic, "_residual", counting_residual)
    monkeypatch.setattr(analytic, "displacement_kernels", counting_kernels)
    points = [ModelParams(delta=1.0, g=0.2, u=0.02 * i, variant=STARK) for i in range(100)]
    shapes = {
        "one lane": (
            lambda: [solve_lambda(p, n, t_z) for p in points[::10]
                     for n in range(18) for t_z in (+1, -1)],
            10 * 36,
        ),
        "point by point": (lambda: [analytic_level_ladder(p, 17) for p in points], 100 * 36),
        "one batch": (lambda: analytic_ladders(points, 17), 100 * 36),
    }
    for shape, (solve, lambdas) in shapes.items():
        counts.update(lanes=0, residuals=0, kernels=0)
        out = solve()
        if shape != "one lane":
            assert [len(rows) for rows in out] == [37] * 100, shape
        assert counts["lanes"] == lambdas, shape
        assert counts["residuals"] / counts["lanes"] <= 25, shape
        assert counts["kernels"] / counts["lanes"] <= 8, shape


def test_branch_residual_is_the_one_its_solve_ended_on(monkeypatch):
    # solving spectra evaluates no residual after the lambda solve, yet the
    # residual a branch reports equals a fresh evaluation bit for bit
    points = [
        ModelParams(delta=1.0, g=0.2, u=0.1 * i, kappa=kappa, variant=variant)
        for i in range(20)
        for variant, kappa in ((STARK, 0.0), (Variant.COMPLETED, 0.05))
    ]

    def refuse(*args):
        raise AssertionError("residual evaluated again after the solve")

    with monkeypatch.context() as m:
        m.setattr(analytic, "lambda_condition_residual", refuse)
        spectra = analytic_spectra(points, 8)
    for p, spec in zip(points, spectra):
        for br in spec.branches:
            fresh = lambda_condition_residual(p, br.n, br.t_z, br.lam)
            assert float.hex(br.residual) == float.hex(fresh)


def test_scan_residuals_equal_fresh_evaluations(monkeypatch):
    # the scan reads its kernels from one Laguerre table per round; every
    # residual a batch solve evaluates equals a fresh evaluation through
    # displacement_kernels, as lambda_condition_residual makes it, bit for bit
    seen = []
    real = analytic._residual

    def recording(lanes, lam, kern0, kern1):
        r = real(lanes, lam, kern0, kern1)
        seen.append((lanes, lam.copy(), r.copy()))
        return r

    points = [
        ModelParams(delta=1.0, g=0.05 + 0.02 * i, u=0.09 * i, kappa=kappa, variant=variant)
        for i in range(20)
        for variant, kappa in ((STARK, 0.0), (Variant.COMPLETED, 0.05))
    ]
    with monkeypatch.context() as m:
        m.setattr(analytic, "_residual", recording)
        analytic_spectra(points, 12)
    on_grid = sum(int(np.count_nonzero((lam != 0.0) & (lam * 256 == np.round(lam * 256))))
                  for _, lam, _ in seen)
    assert on_grid > 1000  # the scan's evaluations
    for lanes, lam, r in seen:
        fresh = real(lanes, lam, *analytic.displacement_kernels(lanes.n, lam))
        assert fresh.tobytes() == r.tobytes()


def _batch_points(draws):
    return [
        ModelParams(delta=delta, g=g, u=u, kappa=0.05 if completed else 0.0,
                    variant=Variant.COMPLETED if completed else STARK)
        for delta, g, u, completed in draws
    ]


@given(
    draws=st.lists(
        st.tuples(
            st.sampled_from([0.2, 1.0, 3.0]),
            st.floats(min_value=0.0, max_value=1.6),
            st.floats(min_value=0.0, max_value=2.5),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    n_max=st.integers(min_value=0, max_value=8),
)
# a failed ground lambda (g = 1.5), a lambda with no sign change (n = 1 at
# g = 0.9) and a complex block (n = 7, t_z = +1 at delta = 3, g = 0.6)
@example(draws=[(1.0, 0.2, 1.0, False), (1.0, 1.5, 0.5, False),
                (1.0, 0.9, 0.5, True), (3.0, 0.6, 0.0, False)], n_max=8)
@settings(max_examples=25, deadline=None)
def test_ladder_batch_equals_one_point_calls(draws, n_max):
    points = _batch_points(draws)
    ladders = analytic_ladders(points, n_max)
    spectra = analytic_spectra(points, n_max)
    for p, ladder, spec in zip(points, ladders, spectra):
        try:
            one_ladder = analytic_level_ladder(p, n_max)
            one = analytic_spectrum(p, n_max)
            ground = analytic_ground_energy(p)
        except LambdaSolveError as exc:
            assert isinstance(ladder, LambdaSolveError) and str(ladder) == str(exc)
            assert isinstance(spec, LambdaSolveError) and str(spec) == str(exc)
            continue
        assert ladder == one_ladder
        assert spec.failures == one.failures
        assert spec.ground_energy == one.ground_energy
        assert [(b.n, b.t_z, b.lam, b.residual, b.energies, b.block.tobytes())
                for b in spec.branches] == [
            (b.n, b.t_z, b.lam, b.residual, b.energies, b.block.tobytes())
            for b in one.branches
        ]
        # each row is its branch's energy for its t_z, and the ground row the
        # displaced-vacuum energy, bit for bit
        assert float.hex(ground) == float.hex(spec.ground_energy) == float.hex(ladder[0][2])
        assert [(n, label, float.hex(e)) for n, label, e in ladder[1:]] == [
            (b.n, "analytic_pos", float.hex(b.positive_energy)) if b.t_z == +1
            else (b.n, "analytic_neg", float.hex(b.negative_energy)) for b in spec.branches
        ]


def test_batch_failures_keep_their_reasons():
    points = _batch_points([(1.0, 1.5, 0.5, False), (1.0, 0.9, 0.5, False),
                            (3.0, 0.6, 0.0, False)])
    ground_failed, no_change, complex_block = analytic_spectra(points, 8)
    assert str(ground_failed) == (
        "no sign change of the lambda condition in [-1, 0] (n=0, t_z=-1)"
    )
    assert (1, -1, "no sign change of the lambda condition in [-1, 0] (n=1, t_z=-1)") in (
        no_change.failures
    )
    reasons = {(n, t_z): reason for n, t_z, reason in complex_block.failures}
    assert reasons[(7, +1)].startswith("block eigenvalues are complex")
    with pytest.raises(RegimeViolationError):
        solve_branch(points[2], 7, +1)
    # at u = 1e200 the (0, -1) block's discriminant overflows, and at u = 1e308
    # the displaced-vacuum energy is NaN: neither is returned as a result
    huge_u = [ModelParams(delta=1.0, g=0.2, u=u, variant=STARK) for u in (1e200, 1e308)]
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed_block, nan_ground = analytic_spectra(huge_u, 0)
        with pytest.raises(LambdaSolveError, match="^displaced-vacuum energy nan is not finite$"):
            analytic_ground_energy(huge_u[1])
    assert overflowed_block.failures[-1] == (
        0, -1, "block energies (-inf, inf) are not finite (n=0, t_z=-1)"
    )
    assert str(nan_ground) == "displaced-vacuum energy nan is not finite"


def test_an_overflowed_eigenvector_norm_keeps_the_negative_branch():
    # at g = 0 every block is diagonal, its lower energy the |-x, n+1> entry
    # near -u (n + 1) / 2; at u = 1e154 and n >= 1 that energy's eigenvector
    # [b, e_lo - a] squares past the float maximum and divides down to zero,
    # and the negative branch is still that energy
    p = ModelParams(delta=1.0, g=0.0, u=1e154, variant=STARK)
    with np.errstate(over="ignore"):
        spec = analytic_spectrum(p, 2)
    assert [(b.n, b.t_z) for b in spec.branches] == [(n, t_z) for n in range(3) for t_z in (1, -1)]
    assert all(b.negative_energy == b.energies[0] == b.block[1, 1] for b in spec.branches)


_COUPLING = st.floats(0.0, 1e308)


@given(
    variant=st.sampled_from(list(Variant)),
    couplings=st.lists(
        st.tuples(_COUPLING, _COUPLING, st.floats(-1e308, 1e308), _COUPLING),
        min_size=1, max_size=4,
    ),
)
# every coupling at the largest magnitude the strategies draw, and u = 1e200,
# where the (0, -1) block's discriminant overflows
@example(variant=Variant.COMPLETED, couplings=[(1e308, 1e308, -1e308, 1e308),
                                              (1e308, 1e308, 1e308, 1e308)])
@example(variant=Variant.RABI_STARK, couplings=[(1.0, 0.2, 1e200, 0.0)])
@settings(max_examples=100, deadline=None)
# |u| or kappa near 1e308 makes NaN intermediates, which warn but do not raise
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ladder_batch_returns_one_outcome_per_point_and_never_raises(variant, couplings):
    # a spectrum sweep makes one ladder batch (n_max = 4 beside --levels 4)
    # with the overflow warnings off, as the CLI runs it; a point whose
    # lambda fails is that point's outcome, never an error of the batch, and
    # every energy returned is finite
    points = [ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)
              for delta, g, u, kappa in couplings]
    with np.errstate(over="ignore"):
        ladders = analytic_ladders(points, 4)
    assert len(ladders) == len(points)
    for ladder in ladders:
        if not isinstance(ladder, LambdaSolveError):
            assert ladder[0][:2] == (-1, "analytic_neg")
            assert all(label in ("analytic_pos", "analytic_neg") for _, label, _ in ladder)
            assert all(math.isfinite(energy) for _, _, energy in ladder)


def test_precision_guard_refuses_a_lambda_batch(monkeypatch):
    import rabistark.specialfn as specialfn

    monkeypatch.setattr(specialfn, "EXTENDED_PRECISION", False)
    with pytest.raises(RuntimeError, match="extended precision"):
        analytic_ladders([ModelParams(delta=1.0, g=0.2, u=u, variant=STARK)
                          for u in (0.0, 1.0)], 4)


def test_refine_bracket_stops_at_float_spacing():
    # near 1e5 neighbouring doubles are 1.5e-11 apart, so xtol = 1e-12 can
    # never be met; the root 1e5 + 1/3 is not a double and fn is never 0,
    # so only the float-spacing stop ends the iteration
    root = 1e5 + 1.0 / 3.0
    calls = []

    def fn(x):
        calls.append(x)
        return math.tanh(3.0 * (x - 1e5) - 1.0)

    lo, hi = 1e5, 1e5 + 1.0
    (x,), (fx,) = analytic.refine_bracket(
        lambda _, xs: [fn(v) for v in xs.tolist()], [lo], [fn(lo)], [hi], [fn(hi)], 1e-12
    )
    assert abs(x - root) <= math.ulp(root)
    assert fx != 0.0 and abs(fx) <= 1e-10
    assert len(calls) <= analytic._REFINE_MAX_ITER // 4


def test_solve_lambda_zero_coupling_every_mode():
    p = ModelParams(delta=1.0, g=0.0, u=1.0, kappa=0.1, variant=Variant.COMPLETED)
    for mode in LambdaMode:
        assert solve_lambda(p, 1, -1, mode=mode) == 0.0
    # kappa near the float maximum: the condition is 0 at lam = 0, not inf * 0
    huge_kappa = ModelParams(delta=1.0, g=0.0, kappa=1e308, variant=Variant.COMPLETED)
    assert analytic_ground_energy(huge_kappa) == -0.5
    with pytest.raises(ValueError, match=r"^t_z must be \+1 or -1, got 0$"):
        solve_lambda(p, 1, 0)
    with pytest.raises(ValueError, match=r"^unknown lambda mode 'bogus'$"):
        solve_lambda(ModelParams(delta=1.0, g=0.2), 1, -1, mode="bogus")


def test_co_limit_formula_direct_value():
    # G = omega - u t_z / 2 = 0.5 at u = 1, t_z = +1; lambda = -0.1/200.5
    p = ModelParams(delta=200.0, g=0.1, u=1.0, variant=STARK)
    lam = solve_lambda(p, 0, +1, mode=LambdaMode.CO_LIMIT)
    assert lam == pytest.approx(-0.1 / 200.5, rel=1e-15)
    # u n + delta + G = 0 + 0.2 + (1 - 3 / 2) < 0 at u = 3
    with pytest.raises(LambdaSolveError, match=r"^CO-limit denominator -0.3\d* not positive$"):
        solve_lambda(ModelParams(delta=0.2, g=0.1, u=3.0, variant=STARK), 0, +1,
                     mode=LambdaMode.CO_LIMIT)


def test_full_vs_zero_order_agreement():
    # zero-order drops the u lambda^2 term of the condition; measured gap at
    # g = 0.2 is 1.6e-3, slightly above the nominal 1e-3 ballpark
    p1 = ModelParams(delta=1.0, g=0.1, u=1.0, variant=STARK)
    assert solve_lambda(p1, 0, +1, mode=LambdaMode.FULL) == pytest.approx(
        solve_lambda(p1, 0, +1, mode=LambdaMode.ZERO_ORDER), abs=1e-3
    )
    p2 = ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)
    assert solve_lambda(p2, 0, +1, mode=LambdaMode.FULL) == pytest.approx(
        solve_lambda(p2, 0, +1, mode=LambdaMode.ZERO_ORDER), abs=2e-3
    )


def test_zero_order_non_contraction_error():
    # denominator crosses zero for delta - u/2 < -omega: the map oscillates
    p = ModelParams(delta=0.2, g=0.3, u=2.4, variant=STARK)
    with pytest.raises(LambdaSolveError):
        solve_lambda(p, 0, +1, mode=LambdaMode.ZERO_ORDER)


def test_block_is_diagonal_at_lambda0():
    p = ModelParams(delta=1.2, g=0.0, u=0.7, variant=STARK)
    for n in (0, 1, 3):
        block = jc_block(p, n, 0.0)
        assert block[0, 1] == 0.0 and block[1, 0] == 0.0
        assert block[0, 0] == pytest.approx(n * 1.0 + (1.2 + n * 0.7) / 2, rel=1e-15)
        assert block[1, 1] == pytest.approx(
            (n + 1) * 1.0 - (1.2 + (n + 1) * 0.7) / 2, rel=1e-15
        )


def test_completed_block_additions_are_explicit():
    lam = -0.11
    stark = ModelParams(delta=1.0, g=0.25, u=1.1, kappa=0.07, variant=STARK)
    completed = ModelParams(delta=1.0, g=0.25, u=1.1, kappa=0.07, variant=Variant.COMPLETED)
    for n in (0, 2):
        base = jc_block(stark, n, lam)
        full = jc_block(completed, n, lam)
        kappa = 0.07
        add_diag0 = kappa * (lam**4 + lam**2 + 4 * lam**2 * n + n**2)
        add_diag1 = kappa * (lam**4 + lam**2 + 4 * lam**2 * (n + 1) + (n + 1) ** 2)
        add_off = 2 * kappa * lam**3 + kappa * lam * (2 * n + 1)
        assert full[0, 0] == pytest.approx(base[0, 0] + add_diag0, rel=1e-15)
        assert full[1, 1] == pytest.approx(base[1, 1] + add_diag1, rel=1e-15)
        assert full[0, 1] == pytest.approx(base[0, 1] + add_off, rel=1e-15)
        assert full[1, 0] == pytest.approx(base[1, 0] + add_off, rel=1e-15)


def test_block_eigenpairs_equals_the_branch_solve():
    # one block through the public 2x2 solver gives the batch's energies and
    # eigenvectors bit for bit
    p = ModelParams(delta=1.0, g=0.3, u=0.8, variant=STARK)
    for n, t_z in [(0, -1), (0, +1), (3, -1), (5, +1)]:
        branch = solve_branch(p, n, t_z)
        (e_lo, v_lo), (e_hi, v_hi) = block_eigenpairs(branch.block)
        assert (e_lo, e_hi) == branch.energies
        assert np.array_equal(v_lo, branch.vectors[0]) and np.array_equal(v_hi, branch.vectors[1])


def test_block_eigenpairs_rejects_complex_pair():
    with pytest.raises(RegimeViolationError):
        block_eigenpairs(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_block_matches_numerics_level_by_level():
    # lower eigenvalue of the n = 1 negative-branch block against the
    # matching converged numerical level (away from crossings)
    p = ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)
    spec, _ = converged_spectrum(p, 8, tol=1e-8)
    br = solve_branch(p, 1, -1)
    gap = np.min(np.abs(spec.energies - br.negative_energy))
    assert gap <= 2e-2


def test_ground_energy_trivials_and_identity():
    p = ModelParams(delta=1.4, g=0.0, u=0.9, variant=STARK)
    assert analytic_ground_energy(p) == -0.7
    # the two printed forms of the ground energy are algebraically equal
    for lam in (-0.2, -0.05):
        for delta, u in ((1.0, 0.8), (0.5, 1.9)):
            env = math.exp(-2 * lam * lam)
            form_a = lam**2 + 2 * lam * 0.3 - (delta - u * lam**2 + 4 * u * lam**4) / 2 * env
            form_b = lam**2 + 2 * lam * 0.3 + ((u * lam**2 - delta) / 2 - 2 * u * lam**4) * env
            assert form_a == pytest.approx(form_b, rel=1e-14)


def test_ground_energy_against_numerics_region_one():
    p = ModelParams(delta=1.0, g=0.2, u=1.0, variant=STARK)
    spec, _ = converged_spectrum(p, 1, tol=1e-8)
    assert analytic_ground_energy(p) == pytest.approx(spec.energies[0], abs=1e-2)


def test_reduction_chain_is_bitwise():
    # stark with u hard-zeroed runs the identical pipeline as rabi
    rabi = ModelParams(delta=1.0, g=0.3, u=1.7, variant=Variant.RABI)
    stark0 = ModelParams(delta=1.0, g=0.3, u=0.0, variant=STARK)
    for n in (0, 1, 2):
        for t_z in (+1, -1):
            lam_r = solve_lambda(rabi, n, t_z)
            lam_s = solve_lambda(stark0, n, t_z)
            assert lam_r == lam_s
            assert np.array_equal(jc_block(rabi, n, lam_r), jc_block(stark0, n, lam_s))
    assert analytic_ground_energy(rabi) == analytic_ground_energy(stark0)

    # kappa = 0 completed pipeline returns the stark blocks entry-wise
    stark = ModelParams(delta=1.0, g=0.3, u=1.2, variant=STARK)
    completed0 = ModelParams(delta=1.0, g=0.3, u=1.2, kappa=0.0, variant=Variant.COMPLETED)
    for n in (0, 1):
        for t_z in (+1, -1):
            lam_f = solve_lambda(stark, n, t_z, mode=LambdaMode.FULL)
            lam_c = solve_lambda(completed0, n, t_z, mode=LambdaMode.COMPLETED_FULL)
            assert lam_f == lam_c
            assert np.array_equal(
                jc_block(stark, n, lam_f), jc_block(completed0, n, lam_c)
            )


def test_decoupled_ladder_limit():
    # u = 0, g -> 0: analytic levels approach omega n +- delta / 2
    p = ModelParams(delta=1.0, g=1e-6, u=0.0, variant=STARK)
    rows = analytic_level_ladder(p, 4)
    energies = sorted(e for _, _, e in rows)
    expected = sorted(
        [-0.5] + [n + 0.5 for n in range(5)] + [n + 1 - 0.5 for n in range(5)]
    )
    assert np.allclose(energies, expected, atol=1e-5)


def test_ground_sits_below_all_blocks_before_crossing():
    p = ModelParams(delta=1.0, g=0.15, u=1.2, variant=STARK)
    spec = analytic_spectrum(p, 6)
    assert not spec.failures
    assert all(spec.ground_energy < min(br.energies) for br in spec.branches)


def test_negative_branch_slopes_steepen_toward_collapse():
    # d E_neg / d u for the n-th branch grows with u toward 2 omega
    p = ModelParams(delta=1.0, g=0.2, u=0.0, variant=STARK)
    du = 1e-4
    slopes = []
    for u in (0.5, 1.0, 1.5, 1.9):
        lo = solve_branch(ModelParams(delta=1.0, g=0.2, u=u, variant=STARK), 3, -1)
        hi = solve_branch(ModelParams(delta=1.0, g=0.2, u=u + du, variant=STARK), 3, -1)
        slopes.append((hi.negative_energy - lo.negative_energy) / du)
    assert all(s < 0 for s in slopes)
    assert all(np.diff(slopes) < 0)  # increasingly negative


@given(
    delta=st.floats(min_value=0.2, max_value=2.0),
    g=st.floats(min_value=1e-3, max_value=0.5),
    u=st.floats(min_value=0.0, max_value=1.9),
    n=st.integers(min_value=0, max_value=5),
    t_z=st.sampled_from([+1, -1]),
)
@settings(max_examples=80, deadline=None)
def test_lambda_residual_invariant(delta, g, u, n, t_z):
    p = ModelParams(delta=delta, g=g, u=u, variant=STARK)
    try:
        br = solve_branch(p, n, t_z)
    except (LambdaSolveError, RegimeViolationError):
        assume(False)
        return
    assert abs(br.residual) <= 1e-10
    assert np.all(np.isfinite(br.block))
    lo, hi = br.energies
    assert lo <= hi


def test_error_map_vanishes_as_g_to_zero():
    base = ModelParams(delta=1.0, variant=STARK)
    pts = error_map(base, [1e-4], [0.0, 0.5, 1.0, 1.5])
    assert all(pt.delta_e <= 1e-7 for pt in pts)


def test_error_map_golden_point():
    base = ModelParams(delta=1.0, variant=STARK)
    (pt,) = error_map(base, [0.2], [1.5])
    assert pt.region == "I"
    assert pt.delta_e == pytest.approx(6.608554291605007e-4, abs=5e-8)


def test_error_map_withholds_unconverged_numerics():
    # at u = 2 omega the ground energy is still moving at cutoff 512
    base = ModelParams(delta=1.0, variant=STARK)
    (pt,) = error_map(base, [0.2], [2.0], max_cutoff=512)
    assert math.isnan(pt.e_numeric) and math.isnan(pt.delta_e)
    assert math.isfinite(pt.e_analytic) and pt.region in ("I", "II")


def test_error_map_failed_ground_lambda_fails_only_its_point():
    # at g = 1.5 the ground lambda condition has no sign change: that point
    # gets a NaN row with no region, and it neither flags a crossing nor
    # sets the sign the next point is compared with
    base = ModelParams(delta=1.0, variant=STARK)
    first, failed, last = error_map(base, [0.2, 1.5, 0.3], [0.5])
    assert (failed.g, failed.u, failed.region, failed.crossing) == (1.5, 0.5, "", False)
    assert all(math.isnan(v) for v in (failed.e_analytic, failed.e_numeric, failed.delta_e))
    # the points around it read their own lanes of the batch, bit for bit
    assert first == error_map(base, [0.2], [0.5])[0]
    assert last == error_map(base, [0.3], [0.5])[0]
    assert (first.region, last.region, last.crossing) == ("I", "I", False)
    # across a failed point from region II to region I no crossing is flagged
    row = error_map(base, [0.6, 1.5, 0.3], [1.5])
    assert [(pt.region, pt.crossing) for pt in row] == [("II", False), ("", False), ("I", False)]


def test_error_map_raises_the_first_chain_error_in_grid_order(monkeypatch):
    # the chains of g = 0.3 fail at cutoff 32, before those of g = 0.1 fail
    # at 64; the map raises the error of g = 0.1, the first in grid order
    real = eigen._solve_block
    fail_at = {0.1: 64, 0.3: 32}

    def failing(rows, k, order):
        solved, cutoff = real(rows, k, order), rows.shape[-1] - 1
        for lane, g in enumerate(rows[:, -1, 0].tolist()):  # off-diagonal g sqrt(1)
            if fail_at.get(g) == cutoff:
                solved[lane] = SolverError(f"g = {g} failed at cutoff {cutoff}")
        return solved

    monkeypatch.setattr(eigen, "_solve_block", failing)
    base = ModelParams(delta=1.0, variant=STARK)
    with pytest.raises(SolverError, match=r"^g = 0.1 failed at cutoff 64$"):
        error_map(base, [0.2, 1.5, 0.1, 0.3], [0.5])


def test_error_map_hump_at_crossing_row():
    # along g at fixed u = 1.9 the error rises to a local max at the
    # region boundary, dips just past it, then rises again
    base = ModelParams(delta=1.0, variant=STARK)
    g_grid = [0.025 * i for i in range(1, 21)]  # 0.025 .. 0.5
    pts = error_map(base, g_grid, [1.9])
    errs = [pt.delta_e for pt in pts]
    regions = [pt.region for pt in pts]
    assert regions[0] == "I" and regions[-1] == "II"
    flagged = [i for i, pt in enumerate(pts) if pt.crossing]
    assert len(flagged) == 1
    boundary = flagged[0]
    assert all(np.diff(errs[:boundary]) > 0)  # rises through region I
    assert errs[boundary] < errs[boundary - 1]  # dips at the crossing
    assert errs[-1] > errs[boundary - 1]  # and rises again beyond it


def test_ladder_degree_bound_is_checked_before_any_lambda(monkeypatch):
    # the top block n_max reads Laguerre degree n_max + 2: n_max = 9999 is
    # refused before any lambda is solved, and n_max = 9998 passes the check
    def refuse(*args, **kwargs):
        raise AssertionError("lambdas solved")

    monkeypatch.setattr(analytic, "_solve_lanes", refuse)
    p = ModelParams(delta=1.0, g=0.2, variant=Variant.RABI_STARK)
    for batch in (analytic_ladders, analytic_spectra):
        with pytest.raises(ValueError, match=r"^degree 10001 exceeds supported maximum 10000$"):
            batch([p], 9999)
        with pytest.raises(ValueError, match=r"^n_max must be >= 0, got -1$"):
            batch([p], -1)
    analytic.check_ladder(9998)


def test_an_overflowing_bracket_scan_solves_as_before_without_a_warning():
    # at delta = 1e200 the product of neighbouring residuals in the bracket
    # scan overflows; only its sign is read, so the lambdas, residuals and
    # refusals are those of a run that lets the overflow warn
    p = ModelParams(delta=1e200, g=0.2, u=0.5, variant=Variant.RABI_STARK)
    lanes = analytic._Lanes.of([p], [(0, 1), (0, -1), (1, 1), (1, -1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, residual, errors = analytic._solve_lambdas(lanes)
        [spectrum] = analytic_spectra([p], 2)
    assert lam.tolist() == [-2.000061036087582e-201] * 2 + [-2.0001220749692648e-201] * 2
    assert residual.tolist() == [-6.103608758190049e-06] * 2 + [-1.2207496926458505e-05] * 2
    assert errors == [
        f"lambda root residual {r} exceeds 1e-10 (n={n}, t_z={t})"
        for r, n, t in [("-6.104e-06", 0, 1), ("-6.104e-06", 0, -1),
                        ("-1.221e-05", 1, 1), ("-1.221e-05", 1, -1)]
    ]
    assert isinstance(spectrum, LambdaSolveError)
    assert str(spectrum) == "lambda root residual -6.104e-06 exceeds 1e-10 (n=0, t_z=-1)"

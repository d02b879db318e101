"""Classical-oscillator-limit formulas against numerics and each other."""

import numpy as np
import pytest
from scipy.linalg import expm

from rabistark.analytic import analytic_ground_energy, solve_branch
from rabistark.colimit import (
    CoRegimeError,
    analytic_mean_photon,
    co_branch_energy,
    co_excitation_energy,
    colimit_params,
    crossing_ladder,
    slope_prediction,
)
from rabistark.eigen import converged_spectrum, spectrum_at_cutoff
from rabistark.fockspace import ModelParams, Variant

CO = Variant.COMPLETED
STARK = Variant.RABI_STARK


def co_params(delta=200.0, g=0.1, u=1.0, kappa=0.0, variant=STARK):
    return ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)


def test_guard_rejects_small_ratio():
    p = ModelParams(delta=1.0, g=0.1, u=1.0, variant=STARK)
    with pytest.raises(CoRegimeError):
        co_excitation_energy(p)
    # override evaluates anyway
    eps = co_excitation_energy(p, allow_small_ratio=True)
    assert eps.simplified == 0.5


def test_colimit_params_fields():
    p = co_params(u=1.0)
    co = colimit_params(p, n=0, t_z=-1)
    assert co.G == 1.0 + 0.5  # omega - u t_z / 2
    assert co.C == pytest.approx(
        4 * 0.1**2 * 1.5**2 / (200.0 * (200.0 + 1.5) ** 2), rel=1e-14
    )
    assert co.C >= 0
    assert co.Omega_n == pytest.approx(200.0, rel=1e-5)
    # Gamma(n) with the CO-limit lambda
    assert co.Gamma_n == pytest.approx(0.1 + co.lam * (1.5 - 0.0 - 200.0), rel=1e-12)


def test_correction_shrinks_with_frequency_ratio():
    cs = [colimit_params(co_params(delta=d), 0, -1).C for d in (50.0, 200.0, 1000.0)]
    assert cs[0] > cs[1] > cs[2] > 0


def test_excitation_energy_trivials():
    assert co_excitation_energy(co_params(u=0.0)).simplified == 1.0
    assert co_excitation_energy(co_params(u=2.0)).simplified == 0.0


def test_excitation_energy_sign_trichotomy():
    for u, sign in ((1.5, +1), (2.0, 0), (2.5, -1)):
        eps = co_excitation_energy(co_params(u=u)).simplified
        assert np.sign(eps) == sign


def test_excitation_energy_against_level_spacing():
    # the numeric E1 - E0 spacing realizes omega - u/2 - C in the CO regime
    p = co_params(delta=200.0, g=0.1, u=1.0)
    spec, _ = converged_spectrum(p, 2, tol=1e-8)
    spacing = spec.energies[1] - spec.energies[0]
    eps = co_excitation_energy(p).full
    assert spacing == pytest.approx(eps, abs=1e-3)


def test_branch_energy_n0_forms():
    p = co_params(delta=200.0, g=0.1, u=1.2)
    lam = -0.1 / (200.0 + (1.0 + 0.6))
    assert co_branch_energy(p, 0) == pytest.approx(-100.0 + 2 * lam * 0.1, rel=1e-12)


def test_branch_energy_degeneracy_at_collapse():
    # u = 2 omega, kappa = 0: the ladder loses its n-dependence up to the
    # residual lambda(n) drift
    p = co_params(delta=1000.0, g=0.1, u=2.0)
    e0 = co_branch_energy(p, 0)
    for n in range(1, 11):
        assert co_branch_energy(p, n) == pytest.approx(e0, abs=1e-5)


def test_branch_energy_consistent_with_ground_energy():
    # Eq-chain consistency: the n = 0 branch energy coincides with the
    # displaced-vacuum ground energy in the CO regime
    for delta in (200.0, 1000.0):
        p = co_params(delta=delta, g=0.1, u=1.0, kappa=1.0 / delta, variant=CO)
        assert abs(co_branch_energy(p, 0) - analytic_ground_energy(p)) <= 1e-3


def test_branch_energies_against_numerics():
    # n = 0..5 negative-branch energies vs eigenvalues near -delta/2
    p = co_params(delta=1000.0, g=0.1, u=2.5, kappa=1e-3, variant=CO)
    spec = spectrum_at_cutoff(p, 512, 280)
    for n in range(6):
        target = co_branch_energy(p, n)
        assert np.min(np.abs(spec.energies - target)) <= 5e-2


def test_crossing_ladder_geometry():
    p = ModelParams(delta=200.0, g=0.1, u=0.0, kappa=0.05, variant=CO)
    ladder = crossing_ladder(p, 5)
    assert ladder.positions[0] == pytest.approx(2.0 + 0.1, rel=1e-15)
    assert np.allclose(np.diff(ladder.positions), 4 * 0.05, atol=0.0)
    single = crossing_ladder(p, 0)
    assert single.positions.tolist() == [2.1]
    assert crossing_ladder(p, 3).positions[3] == pytest.approx(2.7, rel=1e-15)


def test_crossing_ladder_degenerate_at_kappa_zero():
    with pytest.raises(ValueError):
        crossing_ladder(ModelParams(delta=200.0, kappa=0.0, variant=CO), 4)
    # kappa -> 0 limit recovers the original critical point
    tiny = crossing_ladder(ModelParams(delta=200.0, kappa=1e-9, variant=CO), 4)
    assert np.allclose(tiny.positions, 2.0, atol=1e-7)


def _branch_crossing_u(params, n, drop_lambda_term, lo=2.0, hi=3.5):
    """u where consecutive branch energies cross, by bisection."""

    def diff(u):
        p = ModelParams(
            delta=params.delta, g=params.g, u=u, kappa=params.kappa, variant=CO
        )
        a = co_branch_energy(p, n + 1) - co_branch_energy(p, n)
        if drop_lambda_term:
            from rabistark.analytic import LambdaMode, solve_lambda

            lam_hi = solve_lambda(p, n + 1, -1, mode=LambdaMode.CO_LIMIT)
            lam_lo = solve_lambda(p, n, -1, mode=LambdaMode.CO_LIMIT)
            a -= 2.0 * (lam_hi - lam_lo) * p.g
        return a

    f_lo = diff(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = diff(mid)
        if f_lo * fm <= 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    return 0.5 * (lo + hi)


def test_ladder_matches_branch_crossings():
    p = ModelParams(delta=200.0, g=0.1, u=0.0, kappa=0.05, variant=CO)
    ladder = crossing_ladder(p, 2)
    for n in range(3):
        exact = _branch_crossing_u(p, n, drop_lambda_term=True)
        assert exact == pytest.approx(ladder.positions[n], abs=1e-10)
        shifted = _branch_crossing_u(p, n, drop_lambda_term=False)
        assert abs(shifted - ladder.positions[n]) <= 1e-2


def test_mean_photon_form_trivials():
    assert analytic_mean_photon(3, -0.1, 1.0, 0.0) == pytest.approx(3 + 0.01, rel=1e-15)
    assert analytic_mean_photon(0, -0.02, 1.0, 0.0) == pytest.approx(4e-4, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_mean_photon(1, -0.1, 0.9, 0.9)


def _explicit_state_mean_photon(n, lam, c1, c2, dim=200):
    """<a^dag a> of c1 |+x, n> + c2 |-x, n+1> pulled back through the
    displacement exp[lambda sigma_z (a^dag - a)], spelled out in a large
    Fock space."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    disp_up = expm(lam * (a.T - a))      # spin-up component displaces by +lam
    disp_dn = expm(-lam * (a.T - a))
    e_n = np.zeros(dim)
    e_n[n] = 1.0
    e_n1 = np.zeros(dim)
    e_n1[n + 1] = 1.0
    up = (c1 * disp_up @ e_n + c2 * disp_up @ e_n1) / np.sqrt(2.0)
    dn = (c1 * disp_dn @ e_n - c2 * disp_dn @ e_n1) / np.sqrt(2.0)
    nvec = np.arange(dim)
    return float(up @ (nvec * up) + dn @ (nvec * dn))


def test_mean_photon_form_against_explicit_state():
    # coefficients from an actually solved block in the CO regime
    p = co_params(delta=200.0, g=0.1, u=1.5, kappa=0.05, variant=CO)
    br = solve_branch(p, 2, -1)
    c1, c2 = br.vectors[0]
    value = analytic_mean_photon(2, br.lam, c1, c2)
    oracle = _explicit_state_mean_photon(2, br.lam, c1, c2)
    assert value == pytest.approx(oracle, abs=1e-6)

    # strongly mixed synthetic state exercises the cross term
    for n, lam, c1 in ((1, -0.12, 0.6), (4, 0.2, 0.8), (0, -0.05, 0.3)):
        c2 = np.sqrt(1.0 - c1 * c1)
        value = analytic_mean_photon(n, lam, c1, c2)
        oracle = _explicit_state_mean_photon(n, lam, c1, c2)
        assert value == pytest.approx(oracle, abs=1e-10)


def test_slope_prediction_values():
    p = ModelParams(delta=1000.0, g=0.1, kappa=1e-3, variant=CO)
    assert slope_prediction(p) == 0.25
    p = ModelParams(delta=1000.0, g=0.1, kappa=5e-4, variant=CO)
    assert slope_prediction(p) == 0.5
    p = ModelParams(delta=1000.0, g=0.1, kappa=2e-3, variant=CO)
    assert slope_prediction(p) == 0.125
    with pytest.raises(ValueError):
        slope_prediction(ModelParams(delta=1000.0, kappa=0.0, variant=CO))

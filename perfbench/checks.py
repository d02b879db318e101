"""Correctness checks for the benchmark workloads.

Each check takes the program's output and the values an independent
computation gives (see reference.py), and returns a list of failure reasons:
an empty list means the output passed.  The checks hold no stored copy of
any earlier output; they compare against the reference or against a
property the method must have.
"""

import math

ENERGY_REL = 1e-9  # |E - E_ref| <= ENERGY_REL (1 + |E|)
MONOTONE_SLACK = 1e-9
DEGENERACY_SPREAD = 1e-2
CROSSING_ABS = 1e-8
VACUUM_ABS = 1e-10
ANALYTIC_GROUND_ABS = 2e-2
NBAR_REL = 1e-8
WIDTH_REL = 0.05
PLATEAU_ABS = 0.05
SLOPE_REL = 0.05


def check_energies(energies, ref, what: str) -> list[str]:
    """Every energy within ENERGY_REL (1 + |E|) of the reference levels."""
    if len(energies) != len(ref):
        return [f"{what}: {len(energies)} levels, reference has {len(ref)}"]
    worst = max((abs(e - r) / (1.0 + abs(e)) for e, r in zip(energies, ref)), default=0.0)
    if not worst <= ENERGY_REL:
        return [f"{what}: energy off the reference by {worst:.3e} (1 + |E|)"]
    return []


def check_collapse_solve(expected: str, classification: str, history, ref_history) -> list[str]:
    """One converged_spectrum call of the collapse trichotomy.

    history is the recorded [(cutoff, energies)], ref_history the reference
    levels at the same cutoffs.  The classification must be the expected
    one, a CollapsedDegenerate spectrum must sit inside the degeneracy
    window, every recorded energy must match the reference, and each level
    may only go down (or stay) when the cutoff doubles.
    """
    reasons = []
    if classification != expected:
        reasons.append(f"classified {classification}, expected {expected}")
    final = history[-1][1]
    if expected == "CollapsedDegenerate" and not final[-1] - final[0] <= DEGENERACY_SPREAD:
        reasons.append(f"spread {final[-1] - final[0]:.3e} exceeds {DEGENERACY_SPREAD}")
    for (cutoff, energies), ref in zip(history, ref_history):
        reasons += check_energies(energies, ref, f"cutoff {cutoff}")
    for (c1, e1), (c2, e2) in zip(history, history[1:]):
        rise = max(b - a for a, b in zip(e1, e2))
        if rise > MONOTONE_SLACK:
            reasons.append(f"a level rose by {rise:.3e} from cutoff {c1} to {c2}")
    return reasons


def check_error_map_point(e_numeric: float, delta_e: float, ref_energy, tol: float) -> list[str]:
    """ref_energy is the reference ground energy where it settled within tol
    on the call's doubling schedule, or None where it was still moving."""
    if ref_energy is None:
        if math.isnan(e_numeric) and math.isnan(delta_e):
            return []
        return [
            f"e_numeric = {e_numeric!r}, delta_e = {delta_e!r} published although the "
            "ground energy has not converged within max_cutoff (expected NaN)"
        ]
    if not abs(e_numeric - ref_energy) <= 10.0 * tol:
        return [f"e_numeric = {e_numeric!r} is {abs(e_numeric - ref_energy):.3e} "
                f"off the converged reference {ref_energy!r}"]
    return []


def check_crossings(reported, ref) -> list[str]:
    """Reported (0, 1) crossings against the reference sign changes of
    E0(+) - E0(-): same count, each within CROSSING_ABS."""
    if len(reported) != len(ref):
        return [f"{len(reported)} crossings reported, reference finds {len(ref)} "
                f"at {[round(x, 10) for x in ref]}"]
    worst = max((abs(a - b) for a, b in zip(sorted(reported), ref)), default=0.0)
    if not worst <= CROSSING_ABS:
        return [f"crossing position off the reference by {worst:.3e}"]
    return []


def check_sweep_point(numeric, ref_levels, analytic_vacuum, vacuum_ref, below_first_crossing,
                      levels: int) -> list[str]:
    """One point of the spectrum sweep.

    numeric: [(level_index, energy, cutoff, classification)] in file order;
    ref_levels: reference levels at the reported cutoff;
    analytic_vacuum: the displaced-vacuum analytic energy (level_index -1);
    vacuum_ref: the reference minimum of <psi_lam|H|psi_lam>, or None where
    it does not apply (u != 0).
    """
    reasons = []
    if [row[0] for row in numeric] != list(range(levels)):
        reasons.append(f"numeric level indices {[row[0] for row in numeric]}, "
                       f"expected 0..{levels - 1}")
    energies = [row[1] for row in numeric]
    if any(b < a for a, b in zip(energies, energies[1:])):
        reasons.append("numeric energies not ascending")
    classes = {row[3] for row in numeric}
    if classes != {"Converged"}:
        reasons.append(f"classifications {sorted(classes)}, expected Converged")
    cutoffs = {row[2] for row in numeric}
    if len(cutoffs) != 1:
        reasons.append(f"several cutoffs reported: {sorted(cutoffs)}")
    reasons += check_energies(energies, ref_levels, "numeric levels")
    if vacuum_ref is not None and not abs(analytic_vacuum - vacuum_ref) <= VACUUM_ABS:
        reasons.append(f"displaced-vacuum energy {analytic_vacuum!r} is "
                       f"{abs(analytic_vacuum - vacuum_ref):.3e} off the variational "
                       f"minimum {vacuum_ref!r}")
    if below_first_crossing and energies:
        gap = abs(analytic_vacuum - energies[0])
        if not gap <= ANALYTIC_GROUND_ABS:
            reasons.append(f"|E_analytic(-1) - E_numeric(0)| = {gap:.3e} exceeds "
                           f"{ANALYTIC_GROUND_ABS}")
    return reasons


def check_nbar(nbar: float, ref_nbar: float) -> list[str]:
    if not abs(nbar - ref_nbar) <= NBAR_REL * (1.0 + abs(nbar)):
        return [f"mean photon {nbar!r} is {abs(nbar - ref_nbar):.3e} off the reference "
                f"{ref_nbar!r}"]
    return []


def check_staircase_geometry(edges, widths, plateaus, fitted_slope, *, step, omega, kappa,
                             ref_jumps, slope_target=None) -> list[str]:
    """Staircase geometry against the CO-limit ladder u_n = 2 omega + 2 kappa
    + 4 n kappa.  ref_jumps is the number of unit steps the reference mean
    photon number takes along the same grid."""
    reasons = []
    if len(edges) != ref_jumps:
        reasons.append(f"{len(edges)} edges, the reference staircase has {ref_jumps} steps")
    rungs = []
    for e in edges:
        n = round((e - 2.0 * omega - 2.0 * kappa) / (4.0 * kappa))
        rungs.append(n)
        offset = abs(e - (2.0 * omega + 2.0 * kappa + 4.0 * n * kappa))
        if not offset < step:
            reasons.append(f"edge {e!r} is {offset:.3e} from ladder rung {n}, "
                           f"not within one grid step {step}")
    if any(b - a != 1 for a, b in zip(rungs, rungs[1:])):
        reasons.append(f"edges sit on ladder rungs {rungs}, not consecutive ones")
    for w in widths:
        if not abs(w - 4.0 * kappa) <= WIDTH_REL * 4.0 * kappa:
            reasons.append(f"width {w!r} not within {WIDTH_REL:.0%} of 4 kappa")
    for p in plateaus:
        if not abs(p - round(p)) <= PLATEAU_ABS:
            reasons.append(f"plateau {p!r} not within {PLATEAU_ABS} of an integer")
    if slope_target is not None and not abs(fitted_slope - slope_target) <= SLOPE_REL * slope_target:
        reasons.append(f"fitted slope {fitted_slope!r} not within {SLOPE_REL:.0%} "
                       f"of {slope_target}")
    return reasons

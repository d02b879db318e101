"""The benchmark's own tests: the reference solver is sound and independent,
and every check fails on a perturbed output (negative controls), so none
passes vacuously.

    python3 -m pytest perfbench -q
"""

import ast
import math
from pathlib import Path

import numpy as np

import checks
import reference
from reference import Model

CROSSING_U = [1.85 + 0.01 * i for i in range(46)]


def test_reference_self_check_passes():
    assert reference.self_check() == []


def test_reference_imports_nothing_from_the_program():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "rabistark" for name in imported)


def _history(m, cutoffs, k):
    return [(c, [float(e) for e in reference.levels(m, c, k)]) for c in cutoffs]


def test_energy_off_by_1e6_fails_the_history_check():
    m = Model(g=0.2, u=1.9)
    history = _history(m, (32, 64), 10)
    ref = [reference.levels(m, c, 10) for c, _ in history]
    assert checks.check_collapse_solve("Converged", "Converged", history, ref) == []
    history[1][1][3] += 1e-6
    assert checks.check_collapse_solve("Converged", "Converged", history, ref)


def test_energy_off_by_1e6_fails_the_sweep_check():
    m = Model(g=0.2, u=0.0)
    ref = reference.levels(m, 64, 30)
    vacuum = reference.displaced_vacuum_minimum(m)
    rows = [(j, float(e), 64, "Converged") for j, e in enumerate(ref)]
    assert checks.check_sweep_point(rows, ref, vacuum, vacuum, True, 30) == []
    rows[7] = (7, rows[7][1] + 1e-6, 64, "Converged")
    assert checks.check_sweep_point(rows, ref, vacuum, vacuum, True, 30)


def test_rising_level_fails_the_monotonicity_check():
    history = [(32, [-1.0, -0.5]), (64, [-1.0, -0.4])]
    assert checks.check_collapse_solve("Converged", "Converged", history,
                                       [np.array(e) for _, e in history])


def test_edge_moved_by_one_grid_step_fails():
    kappa, step = 0.05, 0.004
    edges = [2.0 + 2 * kappa + 4 * n * kappa for n in range(5)]
    widths = [b - a for a, b in zip(edges, edges[1:])]
    geometry = dict(step=step, omega=1.0, kappa=kappa, ref_jumps=5)
    assert checks.check_staircase_geometry(edges, widths, [0.0, 1.0, 2.0], math.nan,
                                           **geometry) == []
    for sign in (+1, -1):
        moved = list(edges)
        moved[2] += sign * step
        assert checks.check_staircase_geometry(moved, widths, [0.0, 1.0, 2.0], math.nan,
                                               **geometry)


def test_published_number_without_convergence_fails():
    ref_e, _, _ = reference.doubled_ground(Model(g=0.05, u=2.0), 32, 4096, 1e-8)
    assert ref_e is None  # still moving at the error map's max_cutoff
    assert checks.check_error_map_point(math.nan, math.nan, ref_e, 1e-8) == []
    assert checks.check_error_map_point(-0.504999990942, 0.0014, ref_e, 1e-8)


def test_wrong_crossing_count_fails():
    ref = reference.ground_crossings(Model(g=0.2, kappa=0.01), "u", CROSSING_U, 64)
    assert len(ref) == 5
    assert checks.check_crossings(ref, ref) == []
    assert checks.check_crossings(ref[:1], ref)
    assert checks.check_crossings(ref + [2.29], ref)


def test_mean_photon_off_the_reference_fails():
    m = Model(delta=200.0, g=0.1, u=2.35, kappa=0.05)
    nbar = reference.mean_photon_ground(m, 64)
    assert checks.check_nbar(nbar, reference.mean_photon_ground(m, 128)) == []
    assert checks.check_nbar(nbar + 1e-6, nbar)

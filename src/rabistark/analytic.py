"""Jaynes-Cummings-like reduction of the (completed) Rabi-Stark model.

After the displacement transformation exp[lambda sigma_z (a^dag - a)] the
Hamiltonian couples only the pairs {|+x, n>, |-x, n+1>}, provided lambda is
fixed by a self-consistency condition.  This module solves that condition,
builds the 2x2 blocks, and assembles analytic spectra, the displaced-vacuum
ground energy and ground-state error maps against the numerical solver.

Sign conventions: lambda carries the sign of -g (so lambda <= 0 here), and
t_z = +1 tracks the |+x, n> row of a block while t_z = -1 tracks
|-x, n+1>.  Blocks are not symmetric in general; eigenvalues are those of
the full 2x2 real matrix and must be real in the validity regime
(g <= 0.5 omega) -- a complex pair raises RegimeViolationError instead of
being silently projected onto the real axis.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .eigen import Classification, converged_spectrum
from .fockspace import ModelParams, Variant
from .specialfn import assoc_laguerre1, f1, g0, laguerre

LAMBDA_RESIDUAL_TOL = 1e-10
_BRACKET_STEPS = 256
_REFINE_XTOL = 1e-15
_REFINE_MAX_ITER = 100
_FIXED_POINT_MAX_ITER = 1000
_ERROR_MAP_BLOCKS = 8


class LambdaSolveError(RuntimeError):
    """The displacement-parameter condition could not be solved."""


class RegimeViolationError(RuntimeError):
    """A block produced complex eigenvalues: outside the validity regime."""


class LambdaMode(str, Enum):
    FULL = "full"
    ZERO_ORDER = "zero-order"
    COMPLETED_FULL = "completed-full"
    CO_LIMIT = "co-limit"


def default_mode(params: ModelParams) -> LambdaMode:
    if params.variant is Variant.COMPLETED:
        return LambdaMode.COMPLETED_FULL
    return LambdaMode.FULL


def _residual(omega, delta, g, u, kappa, n, t_z, lam) -> float:
    r = (
        lam * omega
        + g
        - 0.5 * u * g0(n, lam) * lam * t_z
        + 0.5 * f1(n, lam) * (delta + u * lam * lam + u * n)
    )
    r += 2.0 * kappa * lam**3 + 2.0 * kappa * lam * n + kappa * lam * t_z
    return r


def _check_tz(t_z) -> int:
    if t_z not in (+1, -1):
        raise ValueError(f"t_z must be +1 or -1, got {t_z!r}")
    return int(t_z)


def lambda_condition_residual(params: ModelParams, n: int, t_z: int, lam: float) -> float:
    """Left-hand side of the lambda self-consistency condition.

    Zero at a valid lambda.  The photon-coupling terms
    2 kappa lam^3 + 2 kappa lam n + kappa lam t_z enter only for the
    completed variant.
    """
    t_z = _check_tz(t_z)
    return _residual(
        params.omega,
        params.delta,
        params.g,
        params.effective_u,
        params.effective_kappa,
        n,
        t_z,
        lam,
    )


def refine_bracket(fn, lo, f_lo, hi, f_hi, xtol) -> tuple[float, float]:
    """Root of fn in [lo, hi], given f_lo = fn(lo) and f_hi = fn(hi) of
    opposite signs (or one of them zero).

    Safeguarded Illinois (modified regula falsi; Dowell & Jarratt, BIT 11,
    168 (1971)): the end that survives two steps in a row has its value
    halved, so both ends close in; a step that leaves the bracket falls
    back to the midpoint.  Stops at hi - lo <= xtol, at an exact zero, or
    when the midpoint no longer splits the bracket (float spacing).
    Returns the iterate with the smallest |fn| and that value.
    """
    best, f_best = (hi, f_hi) if abs(f_hi) < abs(f_lo) else (lo, f_lo)
    kept = 0  # +1 when hi survived the last step, -1 when lo did
    for _ in range(_REFINE_MAX_ITER):
        if f_best == 0.0 or hi - lo <= xtol:
            break
        x = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        if not lo < x < hi:
            x = 0.5 * (hi + lo)
            if not lo < x < hi:
                break
        fx = fn(x)
        if abs(fx) < abs(f_best):
            best, f_best = x, fx
        if (fx > 0.0) == (f_hi > 0.0):
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = x, fx
            if kept == +1:
                f_hi *= 0.5
            kept = +1
    return best, f_best


def _solve_bracketed(fn, n, t_z) -> float:
    # first sign change scanning from 0 toward -1, then Illinois on [b, a]
    a, fa = 0.0, fn(0.0)
    if fa == 0.0:
        return 0.0
    for i in range(1, _BRACKET_STEPS + 1):
        b = -i / _BRACKET_STEPS
        fb = fn(b)
        if fa * fb <= 0.0:
            break
        a, fa = b, fb
    else:
        raise LambdaSolveError(
            f"no sign change of the lambda condition in [-1, 0] (n={n}, t_z={t_z})"
        )
    best, f_best = refine_bracket(fn, b, fb, a, fa, _REFINE_XTOL)
    if abs(f_best) > LAMBDA_RESIDUAL_TOL:
        raise LambdaSolveError(
            f"lambda root residual {f_best:.3e} exceeds {LAMBDA_RESIDUAL_TOL} "
            f"(n={n}, t_z={t_z})"
        )
    return best


def solve_lambda(
    params: ModelParams,
    n: int,
    t_z: int,
    mode: LambdaMode | None = None,
) -> float:
    """Displacement parameter for one block.

    FULL / COMPLETED_FULL bracket the self-consistency condition on [-1, 0]
    (without / with the photon-coupling terms).  ZERO_ORDER iterates the
    zeroth Laguerre-order fixed point
    lambda = -g / [omega + (delta - u t_z / 2 + u n) exp(-2 lambda^2)].
    CO_LIMIT evaluates lambda = -g / (u n + delta + G [+ 2 kappa n -
    kappa t_z]) with G = omega - u t_z / 2.
    """
    t_z = _check_tz(t_z)
    if mode is None:
        mode = default_mode(params)
    if params.g == 0.0:
        return 0.0

    omega, delta, g = params.omega, params.delta, params.g
    u = params.effective_u

    if mode is LambdaMode.FULL:
        return _solve_bracketed(
            lambda lam: _residual(omega, delta, g, u, 0.0, n, t_z, lam), n, t_z
        )
    if mode is LambdaMode.COMPLETED_FULL:
        kappa = params.effective_kappa
        return _solve_bracketed(
            lambda lam: _residual(omega, delta, g, u, kappa, n, t_z, lam), n, t_z
        )
    if mode is LambdaMode.ZERO_ORDER:
        d = delta - u * t_z / 2.0 + u * n
        lam = -g / (omega + delta)
        for _ in range(_FIXED_POINT_MAX_ITER):
            nxt = -g / (omega + d * math.exp(-2.0 * lam * lam))
            if abs(nxt - lam) <= 1e-15 * max(1.0, abs(nxt)):
                return nxt
            lam = nxt
        raise LambdaSolveError(
            f"zero-order fixed point did not contract in {_FIXED_POINT_MAX_ITER} "
            f"iterations (n={n}, t_z={t_z})"
        )
    if mode is LambdaMode.CO_LIMIT:
        big_g = omega - u * t_z / 2.0
        denom = u * n + delta + big_g
        kappa = params.effective_kappa
        denom += 2.0 * kappa * n - kappa * t_z
        if denom <= 0:
            raise LambdaSolveError(f"CO-limit denominator {denom} not positive")
        return -g / denom
    raise ValueError(f"unknown lambda mode {mode!r}")


def jc_block(params: ModelParams, n: int, lam: float) -> np.ndarray:
    """2x2 block on {|+x, n>, |-x, n+1>} for the given displacement.

    The completed variant adds kappa[lam^4 + lam^2 + 4 lam^2 n + n^2] on the
    first diagonal, the same with n -> n+1 on the second, and
    2 kappa lam^3 + kappa lam (2n + 1) on both off-diagonals.
    """
    omega, delta = params.omega, params.delta
    g, u = params.g, params.effective_u
    kappa = params.effective_kappa
    x = 4.0 * lam * lam
    e = float(np.exp(-2.0 * lam * lam))
    ln = laguerre(n, x)
    ln1 = laguerre(n + 1, x)
    l1n = assoc_laguerre1(n, x)
    l1n1 = assoc_laguerre1(n + 1, x)
    l1n2 = assoc_laguerre1(n + 2, x)

    h11 = (
        n * omega
        + 2.0 * g * lam
        + lam**2 * omega
        + e * ln * (delta + n * u + lam**2 * u) / 2.0
        + lam**2 * u * e * (l1n1 / (n + 2) - l1n / (n + 1))
    )
    h12 = math.sqrt(n + 1) * (
        g
        + lam * omega
        - 0.5 * lam * u * e * ln
        - lam * e * l1n * (delta + n * u + lam**2 * u) / (n + 1)
    )
    h21 = math.sqrt(n + 1) * (
        g
        + lam * omega
        + 0.5 * lam * u * e * ln1
        - lam * e * l1n1 * (delta + (n + 1) * u + lam**2 * u) / (n + 2)
    )
    h22 = (
        (n + 1) * omega
        + 2.0 * g * lam
        + lam**2 * omega
        - e
        * (
            ln1 * (delta + (n + 1 + lam**2) * u) / 2.0
            + u * lam**2 * (l1n2 / (n + 3) - l1n1 / (n + 2))
        )
    )

    h11 += kappa * (lam**4 + lam**2 + 4.0 * lam**2 * n + n**2)
    h22 += kappa * (lam**4 + lam**2 + 4.0 * lam**2 * (n + 1) + (n + 1) ** 2)
    off = 2.0 * kappa * lam**3 + kappa * lam * (2 * n + 1)
    h12 += off
    h21 += off
    return np.array([[h11, h12], [h21, h22]])


def block_eigenpairs(block: np.ndarray):
    """Eigenvalues and right eigenvectors of a real 2x2 block, ascending.

    Raises RegimeViolationError on a complex pair (negative discriminant).
    """
    a, b = block[0, 0], block[0, 1]
    c, d = block[1, 0], block[1, 1]
    half_tr = 0.5 * (a + d)
    disc = (0.5 * (a - d)) ** 2 + b * c
    if disc < 0.0:
        raise RegimeViolationError(
            f"block eigenvalues are complex (discriminant {disc:.3e}); "
            "parameters are outside the validity regime g <= 0.5 omega"
        )
    s = math.sqrt(disc)
    pairs = []
    for energy in (half_tr - s, half_tr + s):
        v = np.array([b, energy - a])
        if np.linalg.norm(v) < 1e-14 * max(1.0, abs(energy)):
            v = np.array([energy - d, c])
        if np.linalg.norm(v) == 0.0:
            v = np.array([1.0, 0.0]) if energy == a else np.array([0.0, 1.0])
        v = v / np.linalg.norm(v)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        pairs.append((float(energy), v))
    return pairs


@dataclass
class AnalyticBranch:
    """One solved rung of the JC-like ladder."""

    n: int
    t_z: int
    lam: float
    block: np.ndarray = field(repr=False)
    energies: tuple[float, float]
    residual: float
    vectors: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def energy_for_row(self, row: int) -> float:
        """Eigenvalue whose eigenvector is dominated by the given row.

        Row 0 is |+x, n> (positive branch), row 1 is |-x, n+1> (negative
        branch).  Ties go to the eigenvector with the larger weight ratio.
        """
        w0 = abs(self.vectors[0][row]) - abs(self.vectors[0][1 - row])
        w1 = abs(self.vectors[1][row]) - abs(self.vectors[1][1 - row])
        return self.energies[0] if w0 >= w1 else self.energies[1]

    @property
    def positive_energy(self) -> float:
        return self.energy_for_row(0)

    @property
    def negative_energy(self) -> float:
        return self.energy_for_row(1)


@dataclass
class AnalyticSpectrum:
    branches: list[AnalyticBranch]
    ground_energy: float
    failures: list[tuple[int, int, str]]


def solve_branch(params: ModelParams, n: int, t_z: int) -> AnalyticBranch:
    lam = solve_lambda(params, n, t_z)
    block = jc_block(params, n, lam)
    (e_lo, v_lo), (e_hi, v_hi) = block_eigenpairs(block)
    return AnalyticBranch(
        n=n,
        t_z=t_z,
        lam=lam,
        block=block,
        energies=(e_lo, e_hi),
        residual=lambda_condition_residual(params, n, t_z, lam),
        vectors=(v_lo, v_hi),
    )


def analytic_ground_energy(params: ModelParams) -> float:
    """Energy of the displaced vacuum |-x, 0>, the ground state before the
    first level crossing.

    E0 = omega lam^2 + 2 lam g + [(u lam^2 - delta)/2 - 2 u lam^4] e^{-2 lam^2}
         + kappa lam^2 (1 + lam^2),
    with lambda solved at n = 0, t_z = -1.  The kappa term vanishes for the
    original variants, where this reduces to the familiar
    omega lam^2 + 2 lam g - (delta - u lam^2 + 4 u lam^4) e^{-2 lam^2} / 2.
    """
    lam = solve_lambda(params, 0, -1)
    u = params.effective_u
    kappa = params.effective_kappa
    e = float(np.exp(-2.0 * lam * lam))
    return (
        params.omega * lam**2
        + 2.0 * lam * params.g
        + ((u * lam**2 - params.delta) / 2.0 - 2.0 * u * lam**4) * e
        + kappa * lam**2 * (1.0 + lam**2)
    )


def analytic_spectrum(params: ModelParams, n_max: int) -> AnalyticSpectrum:
    """Solve all blocks for n = 0..n_max and both t_z signs.

    Per-branch solve failures are collected, not raised; the scalar ground
    energy must be solvable or the whole call fails.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    branches: list[AnalyticBranch] = []
    failures: list[tuple[int, int, str]] = []
    for n in range(n_max + 1):
        for t_z in (+1, -1):
            try:
                branches.append(solve_branch(params, n, t_z))
            except (LambdaSolveError, RegimeViolationError) as exc:
                failures.append((n, t_z, str(exc)))
    return AnalyticSpectrum(
        branches=branches,
        ground_energy=analytic_ground_energy(params),
        failures=failures,
    )


def analytic_level_ladder(params: ModelParams, n_max: int):
    """(index, label, energy) rows for the analytic spectrum.

    The displaced vacuum appears with index -1 and label 'analytic_neg';
    each block n contributes its row-dominant positive and negative branch
    energies.  Failed branches are skipped.
    """
    spec = analytic_spectrum(params, n_max)
    rows = [(-1, "analytic_neg", spec.ground_energy)]
    for br in spec.branches:
        if br.t_z == +1:
            rows.append((br.n, "analytic_pos", br.positive_energy))
        else:
            rows.append((br.n, "analytic_neg", br.negative_energy))
    return rows


@dataclass
class ErrorMapPoint:
    g: float
    u: float
    e_analytic: float
    e_numeric: float
    delta_e: float
    region: str
    crossing: bool


def _analytic_ground_candidates(params: ModelParams):
    e0 = analytic_ground_energy(params)
    block_min = np.inf
    for n in range(_ERROR_MAP_BLOCKS):
        try:
            br = solve_branch(params, n, -1)
        except (LambdaSolveError, RegimeViolationError):
            continue
        block_min = min(block_min, br.energies[0])
    return e0, block_min


def error_map(
    params_base: ModelParams,
    g_grid,
    u_grid,
    tol: float = 1e-8,
    max_cutoff: int = 4096,
) -> list[ErrorMapPoint]:
    """Ground-state error of the analytic solution over a (g, u) grid.

    The analytic candidate is the displaced-vacuum energy in region I and
    the minimum eigenvalue of the t_z = -1 blocks n < 8 in region II; the
    region boundary (where the two candidates cross along g) is flagged.
    Per-point failures are recorded as NaN entries rather than aborting the
    sweep; e_numeric and delta_e are NaN unless the numeric spectrum
    converged within max_cutoff.
    """
    g_grid = [float(g) for g in g_grid]
    u_grid = [float(u) for u in u_grid]
    points: list[ErrorMapPoint] = []
    for u in u_grid:
        prev_sign = None
        for g in g_grid:
            p = replace(params_base, g=g, u=u)
            try:
                e0, block_min = _analytic_ground_candidates(p)
                spec, report = converged_spectrum(p, 1, tol=tol, max_cutoff=max_cutoff)
                settled = report.classification in (
                    Classification.CONVERGED, Classification.COLLAPSED_DEGENERATE
                )
                e_num = float(spec.energies[0]) if settled else np.nan
            except (LambdaSolveError, RegimeViolationError):
                points.append(ErrorMapPoint(g, u, np.nan, np.nan, np.nan, "", False))
                prev_sign = None
                continue
            e_an = min(e0, block_min)
            region = "I" if e0 <= block_min else "II"
            sign = 1.0 if e0 <= block_min else -1.0
            crossing = prev_sign is not None and sign != prev_sign
            prev_sign = sign
            points.append(
                ErrorMapPoint(
                    g=g,
                    u=u,
                    e_analytic=e_an,
                    e_numeric=e_num,
                    delta_e=abs(e_an - e_num),
                    region=region,
                    crossing=crossing,
                )
            )
    return points

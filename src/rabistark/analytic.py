"""Jaynes-Cummings-like reduction of the (completed) Rabi-Stark model.

After the displacement transformation exp[lambda sigma_z (a^dag - a)] the
Hamiltonian couples only the pairs {|+x, n>, |-x, n+1>}, provided lambda is
fixed by a self-consistency condition.  This module solves that condition,
builds the 2x2 blocks, and assembles analytic spectra, the displaced-vacuum
ground energy and ground-state error maps against the numerical solver.

Every branch (params, n, t_z) is a lane: the lambdas of a whole spectrum,
of many spectra, or of an error map are solved together over arrays, and
the scalar functions are batches of one lane.

Sign conventions: lambda carries the sign of -g (so lambda <= 0 here), and
t_z = +1 tracks the |+x, n> row of a block while t_z = -1 tracks
|-x, n+1>.  Blocks are not symmetric in general; eigenvalues are those of
the full 2x2 real matrix and must be real in the validity regime
(g <= 0.5 omega) -- a complex pair raises RegimeViolationError instead of
being silently projected onto the real axis, as do block energies that are
not finite.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .eigen import DEFAULT_TOL, _raise_or_return, converged_spectra
# converged_spectrum stays importable here for perfbench/spans.py
from .eigen import converged_spectrum  # noqa: F401
from .fockspace import ModelParams, Variant
from .specialfn import MAX_DEGREE, displacement_kernels, kernels_from_laguerre, laguerre_lanes
# the scalar kernels stay importable here for perfbench/spans.py
from .specialfn import assoc_laguerre1, f1, g0, laguerre  # noqa: F401

LAMBDA_RESIDUAL_TOL = 1e-10
_BRACKET_STEPS = 256
_SCAN_CHUNK = 8  # grid steps a lane scans per round, a little past most brackets
_LANE_BUDGET = 4096  # residual lane-evaluations per call, bounding its temporaries
_REFINE_XTOL = 1e-15
_REFINE_MAX_ITER = 100
_FIXED_POINT_MAX_ITER = 1000
_ERROR_MAP_BLOCKS = 8


class LambdaSolveError(RuntimeError):
    """The displacement-parameter condition could not be solved."""


class RegimeViolationError(RuntimeError):
    """A block's eigenvalues are complex (outside the validity regime) or not
    finite (a coupling too large for double precision)."""


class LambdaMode(str, Enum):
    FULL = "full"
    ZERO_ORDER = "zero-order"
    COMPLETED_FULL = "completed-full"
    CO_LIMIT = "co-limit"


def default_mode(params: ModelParams) -> LambdaMode:
    if params.variant is Variant.COMPLETED:
        return LambdaMode.COMPLETED_FULL
    return LambdaMode.FULL


class _Lanes(NamedTuple):
    """Per-lane couplings, block index n and branch sign t_z."""

    omega: np.ndarray
    delta: np.ndarray
    g: np.ndarray
    u: np.ndarray
    kappa: np.ndarray
    n: np.ndarray
    t_z: np.ndarray

    @classmethod
    def of(cls, points, labels) -> "_Lanes":
        """One lane per label (n, t_z) of every point, point by point."""
        couplings = np.array(
            [(p.omega, p.delta, p.g, p.effective_u, p.effective_kappa) for p in points],
            dtype=float,
        ).reshape(-1, 5)
        # degrees keep their own dtype, so laguerre_lanes refuses non-integers
        n, t_z = (np.tile(col, len(couplings)) for col in zip(*labels))
        return cls(*np.repeat(couplings.T, len(labels), axis=1), n, t_z.astype(np.int64))

    def take(self, idx) -> "_Lanes":
        return _Lanes(*(col[idx] for col in self))


def _pow(lam: np.ndarray, k: int) -> np.ndarray:
    # Python's float ** (libm pow) lane by lane: numpy's ** and x * x round
    # some last bits differently, and the published outputs rest on pow;
    # only for lambdas, whose |lambda| <= 1 cannot overflow
    return np.array([v**k for v in lam.tolist()])


def _residual(lanes: _Lanes, lam: np.ndarray, kern0: np.ndarray, kern1: np.ndarray) -> np.ndarray:
    """The condition at lam for each lane, given its g0 and f1 kernels there."""
    omega, delta, g, u, kappa, n, t_z = lanes
    r = (
        lam * omega
        + g
        - 0.5 * u * kern0 * lam * t_z
        + 0.5 * kern1 * (delta + u * lam * lam + u * n)
    )
    # where kappa == 0 the cube enters as a signed zero, the same for any cube
    cube = lam * lam * lam
    coupled = kappa != 0.0
    cube[coupled] = _pow(lam[coupled], 3)
    # doubling last is exact and keeps kappa near the float maximum from making
    # inf * 0 = NaN at lam = 0
    r += kappa * cube * 2.0 + kappa * lam * n * 2.0 + kappa * lam * t_z
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
    lanes, lam = _Lanes.of([params], [(n, t_z)]), np.array([float(lam)])
    return float(_residual(lanes, lam, *displacement_kernels(lanes.n, lam))[0])


def refine_bracket(fn, lo, f_lo, hi, f_hi, xtol) -> tuple[np.ndarray, np.ndarray]:
    """Root of fn in [lo, hi] for every lane, given f_lo = fn(lo) and
    f_hi = fn(hi) of opposite signs (or one of them zero).

    lo, f_lo, hi and f_hi hold one entry per lane; fn(lanes, x) returns fn
    at x for the lanes with those indices.  Safeguarded Illinois (modified
    regula falsi; Dowell & Jarratt, BIT 11, 168 (1971)), run on all lanes in
    lockstep: the end that survives two steps in a row has its value
    halved, so both ends close in; a step that leaves the bracket falls back
    to the midpoint.  A lane stops at hi - lo <= xtol, at an exact zero, or
    when the midpoint no longer splits its bracket (float spacing).
    Returns each lane's iterate with the smallest |fn| and that value.
    """
    lo, f_lo, hi, f_hi = (np.array(v, dtype=float).reshape(-1) for v in (lo, f_lo, hi, f_hi))
    take_hi = np.abs(f_hi) < np.abs(f_lo)
    best, f_best = np.where(take_hi, hi, lo), np.where(take_hi, f_hi, f_lo)
    kept = np.zeros(lo.size, dtype=np.int8)  # +1 when hi survived the last step, -1 when lo did
    live = np.arange(lo.size)
    for _ in range(_REFINE_MAX_ITER):
        live = live[(f_best[live] != 0.0) & ~(hi[live] - lo[live] <= xtol)]
        l, fl, h, fh = lo[live], f_lo[live], hi[live], f_hi[live]
        x = (h * fl - l * fh) / (fl - fh)
        out = ~((l < x) & (x < h))
        x[out] = 0.5 * (h[out] + l[out])
        split = (l < x) & (x < h)
        live, x = live[split], x[split]
        if not live.size:
            break
        fx = np.asarray(fn(live, x), dtype=float)
        better = np.abs(fx) < np.abs(f_best[live])
        best[live[better]], f_best[live[better]] = x[better], fx[better]
        to_hi = (fx > 0.0) == (f_hi[live] > 0.0)
        up, down = live[to_hi], live[~to_hi]
        hi[up], f_hi[up] = x[to_hi], fx[to_hi]
        f_lo[up[kept[up] == -1]] *= 0.5
        kept[up] = -1
        lo[down], f_lo[down] = x[~to_hi], fx[~to_hi]
        f_hi[down[kept[down] == +1]] *= 0.5
        kept[down] = +1
    return best, f_best


def _pieces(size: int) -> list[slice]:
    # lane arrays are worked on in pieces of at most _LANE_BUDGET lanes,
    # which bounds the temporaries of every step
    return [slice(s, s + _LANE_BUDGET) for s in range(0, size, _LANE_BUDGET)]


def _solve_lambdas(lanes: _Lanes) -> tuple[np.ndarray, np.ndarray, list]:
    """lambda and its residual for every lane of the FULL / COMPLETED_FULL
    condition, and per lane None or the reason it could not be solved.

    Each lane takes the first sign change of its residual on the 1/256 grid
    scanned from 0 toward -1 and refines that bracket with refine_bracket.
    All lanes scan together in rounds of at most _SCAN_CHUNK grid steps and
    _LANE_BUDGET residual evaluations; a lane leaves the scan at the end of
    the round that holds its sign change.  A round reads the kernels from
    one Laguerre table over its grid points through kernels_from_laguerre,
    as displacement_kernels does, bit for bit; refinement steps call the latter.
    """
    size = lanes.n.size

    def fn(idx, lam, table=None, cols=None):
        out = np.empty(idx.size)
        for piece in _pieces(idx.size):
            sub, x = lanes.take(idx[piece]), lam[piece]
            if table is None:
                kernels = displacement_kernels(sub.n, x)
            else:  # table: its first degree, L and L^1 by (degree, grid point)
                first, ln, l1n = table
                at = (sub.n - first, cols[piece])
                kernels = kernels_from_laguerre(sub.n, x, ln[at], l1n[at])
            out[piece] = _residual(sub, x, *kernels)
        return out

    a = np.zeros(size)
    fa = fn(np.arange(size), a)
    lam, residual = a.copy(), fa.copy()  # a lane with fn(0) == 0 has its root at 0
    b, fb = a.copy(), fa.copy()
    scanning = np.flatnonzero(fa != 0.0)
    bracketed = []
    reached, top = 0, int(lanes.n.max(initial=0))
    while scanning.size and reached < _BRACKET_STEPS:
        steps = min(_SCAN_CHUNK, max(1, _LANE_BUDGET // scanning.size), _BRACKET_STEPS - reached)
        grid = -np.arange(reached + 1, reached + steps + 1) / _BRACKET_STEPS
        first = int(lanes.n[scanning].min())
        table = laguerre_lanes(np.full(steps, first), 4.0 * grid * grid, span=top - first + 1)
        cols = np.arange(scanning.size * steps) % steps  # lane-major evaluations
        f = fn(np.repeat(scanning, steps), grid[cols], (first, *table), cols)
        f = f.reshape(scanning.size, steps)
        f_prev = np.concatenate([fa[scanning, None], f[:, :-1]], axis=1)
        with np.errstate(over="ignore"):  # only the sign of the product is read
            change = f_prev * f <= 0.0
        hit = change.any(axis=1)
        row, col = np.flatnonzero(hit), change.argmax(axis=1)[hit]
        found = scanning[hit]
        b[found], fb[found] = grid[col], f[row, col]
        a[found] = np.where(col > 0, grid[col - 1], a[found])
        fa[found] = f_prev[row, col]
        bracketed.append(found)
        scanning = scanning[~hit]
        a[scanning], fa[scanning] = grid[-1], f[~hit, -1]
        reached += steps

    errors = [None] * size
    for i in scanning.tolist():
        errors[i] = (
            "no sign change of the lambda condition in [-1, 0] "
            f"(n={lanes.n[i]}, t_z={lanes.t_z[i]})"
        )
    idx = np.concatenate(bracketed) if bracketed else np.zeros(0, dtype=np.int64)
    lam[scanning] = residual[scanning] = np.nan
    lam[idx], residual[idx] = refine_bracket(
        lambda k, x: fn(idx[k], x), b[idx], fb[idx], a[idx], fa[idx], _REFINE_XTOL
    )
    for i in idx[np.abs(residual[idx]) > LAMBDA_RESIDUAL_TOL].tolist():
        errors[i] = (
            f"lambda root residual {residual[i]:.3e} exceeds {LAMBDA_RESIDUAL_TOL} "
            f"(n={lanes.n[i]}, t_z={lanes.t_z[i]})"
        )
    return lam, residual, errors


def solve_lambda(
    params: ModelParams,
    n: int,
    t_z: int,
    mode: LambdaMode | None = None,
) -> float:
    """Displacement parameter for one block.

    FULL / COMPLETED_FULL bracket the self-consistency condition on [-1, 0]
    (without / with the photon-coupling terms), as a batch of one lane.
    ZERO_ORDER iterates the zeroth Laguerre-order fixed point
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

    if mode in (LambdaMode.FULL, LambdaMode.COMPLETED_FULL):
        if mode is LambdaMode.FULL:  # without the photon-coupling terms
            params = replace(params, kappa=0.0)
        lam, _, errors = _solve_lambdas(_Lanes.of([params], [(n, t_z)]))
        if errors[0] is not None:
            raise LambdaSolveError(errors[0])
        return float(lam[0])
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


def _jc_blocks(lanes: _Lanes, lam: np.ndarray) -> np.ndarray:
    """The (lanes, 2, 2) blocks of jc_block, lane by lane."""
    omega, delta, g, u, kappa, n, _ = lanes
    x = 4.0 * lam * lam
    e = np.exp(-2.0 * lam * lam)
    (ln, ln1, _), (l1n, l1n1, l1n2) = laguerre_lanes(n, x, span=3)
    lam2, lam3, lam4 = (_pow(lam, k) for k in (2, 3, 4))

    h11 = (
        n * omega
        + 2.0 * g * lam
        + lam2 * omega
        + e * ln * (delta + n * u + lam2 * u) / 2.0
        + lam2 * u * e * (l1n1 / (n + 2) - l1n / (n + 1))
    )
    h12 = np.sqrt(n + 1) * (
        g
        + lam * omega
        - 0.5 * lam * u * e * ln
        - lam * e * l1n * (delta + n * u + lam2 * u) / (n + 1)
    )
    h21 = np.sqrt(n + 1) * (
        g
        + lam * omega
        + 0.5 * lam * u * e * ln1
        - lam * e * l1n1 * (delta + (n + 1) * u + lam2 * u) / (n + 2)
    )
    h22 = (
        (n + 1) * omega
        + 2.0 * g * lam
        + lam2 * omega
        - e
        * (
            ln1 * (delta + (n + 1 + lam2) * u) / 2.0
            + u * lam2 * (l1n2 / (n + 3) - l1n1 / (n + 2))
        )
    )

    h11 += kappa * (lam4 + lam2 + 4.0 * lam2 * n + n**2)
    h22 += kappa * (lam4 + lam2 + 4.0 * lam2 * (n + 1) + (n + 1) ** 2)
    off = 2.0 * kappa * lam3 + kappa * lam * (2 * n + 1)
    h12 += off
    h21 += off
    return np.stack([h11, h12, h21, h22], axis=1).reshape(-1, 2, 2)


def jc_block(params: ModelParams, n: int, lam: float) -> np.ndarray:
    """2x2 block on {|+x, n>, |-x, n+1>} for the given displacement.

    The completed variant adds kappa[lam^4 + lam^2 + 4 lam^2 n + n^2] on the
    first diagonal, the same with n -> n+1 on the second, and
    2 kappa lam^3 + kappa lam (2n + 1) on both off-diagonals.
    """
    lanes = _Lanes.of([params], [(n, +1)])
    return _jc_blocks(lanes, np.array([float(lam)]))[0]


def _norms(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each row: matmul dots a row with itself through the
    # same BLAS ddot that the norm of a single vector uses, bit for bit
    v = np.ascontiguousarray(v)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _eigenvectors(energy, a, b, c, d) -> np.ndarray:
    v = np.stack([b, energy - a], axis=1)
    norm = _norms(v)
    alt = norm < 1e-14 * np.maximum(1.0, np.abs(energy))
    v[alt] = np.stack([energy - d, c], axis=1)[alt]
    norm[alt] = _norms(v[alt])
    zero = norm == 0.0
    v[zero] = np.where((energy == a)[zero, None], [1.0, 0.0], [0.0, 1.0])
    norm[zero] = 1.0
    # an overflowed norm of finite entries leaves a zero vector (zero weights in
    # _row_energies); inf / inf leaves NaN in a lane that fails on its energies
    with np.errstate(invalid="ignore"):
        v /= norm[:, None]
    flip = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)] < 0
    v[flip] = -v[flip]
    return v


def _block_eigen(blocks: np.ndarray):
    """Ascending eigenvalues (lanes, 2), right eigenvectors (lanes, 2, 2)
    and discriminants of real 2x2 blocks; a lane with a negative
    discriminant has a complex pair and its other entries mean nothing."""
    a, b = blocks[:, 0, 0], blocks[:, 0, 1]
    c, d = blocks[:, 1, 0], blocks[:, 1, 1]
    half_tr = 0.5 * (a + d)
    # np.float64 ** 2 lane by lane, which is libm pow like _pow (numpy's
    # array ** rounds otherwise) but overflows to inf instead of raising
    disc = np.array([h**2 for h in 0.5 * (a - d)], dtype=float) + b * c
    s = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    energies = (half_tr - s, half_tr + s)
    vectors = np.stack([_eigenvectors(e, a, b, c, d) for e in energies], axis=1)
    return np.stack(energies, axis=1), vectors, disc


def _complex_pair(disc: float) -> RegimeViolationError:
    return RegimeViolationError(
        f"block eigenvalues are complex (discriminant {disc:.3e}); "
        "parameters are outside the validity regime g <= 0.5 omega"
    )


def block_eigenpairs(block: np.ndarray):
    """Eigenvalues and right eigenvectors of a real 2x2 block, ascending.

    Raises RegimeViolationError on a complex pair (negative discriminant).
    """
    energies, vectors, disc = _block_eigen(np.asarray(block, dtype=float).reshape(1, 2, 2))
    if disc[0] < 0.0:
        raise _complex_pair(disc[0])
    return [(float(energies[0, j]), vectors[0, j]) for j in (0, 1)]


def _row_energies(energies: np.ndarray, vectors: np.ndarray, row: int) -> np.ndarray:
    """Per lane, the energy AnalyticBranch's rule picks for the given row."""
    w = np.abs(vectors[:, :, row]) - np.abs(vectors[:, :, 1 - row])
    return np.where(w[:, 0] >= w[:, 1], energies[:, 0], energies[:, 1])


@dataclass
class AnalyticBranch:
    """One solved rung of the JC-like ladder.  positive_energy (negative_energy)
    is the eigenvalue whose eigenvector is dominated by row 0, |+x, n> (row 1,
    |-x, n+1>); ties go to the eigenvector with the larger weight ratio."""

    n: int
    t_z: int
    lam: float
    block: np.ndarray = field(repr=False)
    energies: tuple[float, float]
    residual: float
    vectors: tuple[np.ndarray, np.ndarray] = field(repr=False)
    positive_energy: float
    negative_energy: float


@dataclass
class AnalyticSpectrum:
    branches: list[AnalyticBranch]
    ground_energy: float
    failures: list[tuple[int, int, str]]


class _Solved(NamedTuple):
    """Solved lanes: lambda and the residual its solve ended on, blocks
    (lanes, 2, 2), ascending energies (lanes, 2) and eigenvectors
    (lanes, 2, 2), each lane's positive and negative branch energy (picked
    here once, by AnalyticBranch's row rule), and per lane None or the
    LambdaSolveError / RegimeViolationError that stopped it.  Entries a
    failure left unset are NaN."""

    lam: np.ndarray
    residual: np.ndarray
    blocks: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    failures: list

    def branch(self, i: int, n: int, t_z: int) -> AnalyticBranch:
        e_lo, e_hi = self.energies[i].tolist()
        return AnalyticBranch(
            n=n,
            t_z=t_z,
            lam=float(self.lam[i]),
            block=self.blocks[i],
            energies=(e_lo, e_hi),
            residual=float(self.residual[i]),
            vectors=(self.vectors[i, 0], self.vectors[i, 1]),
            positive_energy=float(self.positive[i]),
            negative_energy=float(self.negative[i]),
        )


def _solve_lanes(points, labels) -> _Solved:
    """Solve the branches (n, t_z) in labels of every point together; lane
    k * len(labels) + j is label j of point k.  A lane fails on a complex
    pair, or on block energies that are not both finite."""
    lanes = _Lanes.of(points, labels)
    lam, residual, errors = _solve_lambdas(lanes)
    failures: list = [None if e is None else LambdaSolveError(e) for e in errors]
    idx = np.flatnonzero([e is None for e in errors])
    blocks = np.full((lam.size, 2, 2), np.nan)
    energies, vectors = np.full((lam.size, 2), np.nan), np.full((lam.size, 2, 2), np.nan)
    for piece in _pieces(idx.size):
        i = idx[piece]
        blocks[i] = _jc_blocks(lanes.take(i), lam[i])
        energies[i], vectors[i], disc = _block_eigen(blocks[i])
        complex_pair = disc < 0.0
        for k, d in zip(i[complex_pair].tolist(), disc[complex_pair].tolist()):
            failures[k] = _complex_pair(d)
        for k in i[~complex_pair & ~np.isfinite(energies[i]).all(axis=1)].tolist():
            failures[k] = RegimeViolationError(
                f"block energies {tuple(energies[k].tolist())} are not finite "
                f"(n={lanes.n[k]}, t_z={lanes.t_z[k]})"
            )
    positive, negative = (_row_energies(energies, vectors, row) for row in (0, 1))
    return _Solved(lam, residual, blocks, energies, vectors, positive, negative, failures)


def solve_branch(params: ModelParams, n: int, t_z: int) -> AnalyticBranch:
    t_z = _check_tz(t_z)
    solved = _solve_lanes([params], [(n, t_z)])
    _raise_or_return(solved.failures[0])
    return solved.branch(0, n, t_z)


def _ground_energy(params: ModelParams, lam: float) -> float:
    u = params.effective_u
    kappa = params.effective_kappa
    e = float(np.exp(-2.0 * lam * lam))
    return (
        params.omega * lam**2
        + 2.0 * lam * params.g
        + ((u * lam**2 - params.delta) / 2.0 - 2.0 * u * lam**4) * e
        + kappa * lam**2 * (1.0 + lam**2)
    )


def analytic_ground_energy(params: ModelParams) -> float:
    """Energy of the displaced vacuum |-x, 0>, the ground state before the
    first level crossing.

    E0 = omega lam^2 + 2 lam g + [(u lam^2 - delta)/2 - 2 u lam^4] e^{-2 lam^2}
         + kappa lam^2 (1 + lam^2),
    with lambda solved at n = 0, t_z = -1.  The kappa term vanishes for the
    original variants, where this reduces to the familiar
    omega lam^2 + 2 lam g - (delta - u lam^2 + 4 u lam^4) e^{-2 lam^2} / 2.
    Raises LambdaSolveError when that lambda cannot be solved or E0 is not
    finite.
    """
    _, [point] = _solve_points([params], [(0, -1)])
    return _raise_or_return(point)[1]


def check_ladder(n_max: int) -> None:
    """Refuses an n_max < 0, or one whose top block reads the Laguerre
    degree n_max + 2 (_jc_blocks) past MAX_DEGREE; _ladder_labels and the
    CLI check it here, before any lambda is solved."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max + 2 > MAX_DEGREE:
        raise ValueError(f"degree {n_max + 2} exceeds supported maximum {MAX_DEGREE}")


def _ladder_labels(n_max: int) -> list[tuple[int, int]]:
    check_ladder(n_max)
    return [(n, t_z) for n in range(n_max + 1) for t_z in (+1, -1)]


def _solve_points(points, labels):
    """The branches (n, t_z) in labels, (0, -1) among them, of every point
    solved in one batch: the _Solved lanes and, per point, its lane range and
    displaced-vacuum ground energy, or the LambdaSolveError of its (0, -1) lane
    or of a ground energy that is not finite."""
    points, width = list(points), len(labels)
    solved, ground, out = _solve_lanes(points, labels), labels.index((0, -1)), []
    for k, p in enumerate(points):
        i = k * width + ground
        point = solved.failures[i]
        if not isinstance(point, LambdaSolveError):
            e0 = _ground_energy(p, float(solved.lam[i]))
            point = (range(k * width, (k + 1) * width), e0)
            if not math.isfinite(e0):
                point = LambdaSolveError(f"displaced-vacuum energy {e0} is not finite")
        out.append(point)
    return solved, out


def analytic_spectra(points, n_max: int) -> list:
    """analytic_spectrum of every parameter point, all lambdas in one batch.

    The entry of a point whose ground-energy lambda cannot be solved is that
    LambdaSolveError instead of a spectrum.
    """
    labels = _ladder_labels(n_max)
    solved, split = _solve_points(points, labels)
    spectra = []
    for point in split:
        if not isinstance(point, LambdaSolveError):
            lanes, ground_energy = point
            labelled = [(i, n, t_z, solved.failures[i]) for i, (n, t_z) in zip(lanes, labels)]
            point = AnalyticSpectrum(
                [solved.branch(i, n, t_z) for i, n, t_z, failure in labelled if failure is None],
                ground_energy,
                [(n, t_z, str(failure)) for _, n, t_z, failure in labelled if failure is not None],
            )
        spectra.append(point)
    return spectra


def analytic_spectrum(params: ModelParams, n_max: int) -> AnalyticSpectrum:
    """Solve all blocks for n = 0..n_max and both t_z signs.

    Per-branch solve failures are collected, not raised; the ground energy
    reuses the lambda of the (0, -1) branch, which must be solvable or the
    whole call fails.
    """
    return _raise_or_return(analytic_spectra([params], n_max)[0])


def analytic_ladders(points, n_max: int) -> list:
    """analytic_level_ladder of every parameter point, all lambdas in one
    batch, read off the lane arrays without building branch objects.  The
    entry of a point whose ground-energy lambda cannot be solved is that
    LambdaSolveError instead of rows."""
    labels = _ladder_labels(n_max)
    solved, split = _solve_points(points, labels)
    energy = {+1: solved.positive.tolist(), -1: solved.negative.tolist()}
    out = []
    for point in split:
        if not isinstance(point, LambdaSolveError):
            lanes, ground_energy = point
            point = [(-1, "analytic_neg", ground_energy)] + [
                (n, "analytic_pos" if t_z == +1 else "analytic_neg", energy[t_z][i])
                for i, (n, t_z) in zip(lanes, labels) if solved.failures[i] is None
            ]
        out.append(point)
    return out


def analytic_level_ladder(params: ModelParams, n_max: int):
    """(index, label, energy) rows for the analytic spectrum.

    The displaced vacuum appears with index -1 and label 'analytic_neg';
    each block n contributes its row-dominant positive and negative branch
    energies.  Failed branches are skipped.
    """
    return _raise_or_return(analytic_ladders([params], n_max)[0])


@dataclass
class ErrorMapPoint:
    g: float
    u: float
    e_analytic: float
    e_numeric: float
    delta_e: float
    region: str
    crossing: bool


def error_map(
    params_base: ModelParams,
    g_grid,
    u_grid,
    tol: float = DEFAULT_TOL,
    max_cutoff: int = 4096,
) -> list[ErrorMapPoint]:
    """Ground-state error of the analytic solution over a (g, u) grid.

    The analytic candidate is the displaced-vacuum energy in region I and
    the minimum eigenvalue of the t_z = -1 blocks n < 8 in region II; the
    region boundary (where the two candidates cross along g) is flagged.
    The lambdas of every grid point are solved in one batch, and the numeric
    spectra of the points whose lambda was solved in one converged_spectra
    batch.  A point whose lambda fails is a row of NaN entries; e_numeric and
    delta_e are NaN unless the numeric spectrum converged within max_cutoff.
    A point's chain error is raised, the first in grid order, not a NaN row.
    """
    g_grid = [float(g) for g in g_grid]
    u_grid = [float(u) for u in u_grid]
    points = [replace(params_base, g=g, u=u) for u in u_grid for g in g_grid]
    solved, split = _solve_points(points, [(n, -1) for n in range(_ERROR_MAP_BLOCKS)])
    solvable = [p for p, point in zip(points, split) if not isinstance(point, LambdaSolveError)]
    numeric = iter(converged_spectra(solvable, 1, tol=tol, max_cutoff=max_cutoff))
    out: list[ErrorMapPoint] = []
    prev_region = ""  # of the point before along g; "" at a row start or a failed point
    for k, (p, point) in enumerate(zip(points, split)):
        if k % len(g_grid) == 0:
            prev_region = ""
        if isinstance(point, LambdaSolveError):
            out.append(ErrorMapPoint(p.g, p.u, np.nan, np.nan, np.nan, "", False))
            prev_region = ""
            continue
        lanes, e0 = point
        block_min = min(
            [np.inf] + [float(solved.energies[i, 0]) for i in lanes if solved.failures[i] is None]
        )
        spec, report = _raise_or_return(next(numeric))
        e_num = float(spec.energies[0]) if report.classification.settled else np.nan
        e_an = min(e0, block_min)
        region = "I" if e0 <= block_min else "II"
        crossing = prev_region not in ("", region)
        prev_region = region
        out.append(
            ErrorMapPoint(
                g=p.g,
                u=p.u,
                e_analytic=e_an,
                e_numeric=e_num,
                delta_e=abs(e_an - e_num),
                region=region,
                crossing=crossing,
            )
        )
    return out

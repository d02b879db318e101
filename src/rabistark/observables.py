"""Eigenvector observables: ground-state mean photon number, staircase
detection with slope fitting, and level-crossing detection in numerical
spectra, all on the two parity-sector chains."""

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .analytic import refine_bracket
from .colimit import check_co_regime
from .eigen import DEFAULT_MAX_CUTOFF, DEFAULT_START_CUTOFF, DEFAULT_TOL, Classification
from .eigen import _converge_lanes, _doubling_schedule, _raise_or_return, converged_spectra
# converged_spectrum stays importable here for perfbench/spans.py
from .eigen import converged_spectrum, eigen_symmetric, spectrum_at_cutoff  # noqa: F401
from .fockspace import ModelParams, Variant, build_hamiltonian, sector_chain

TAIL_TOL = 1e-8
CROSSING_XTOL = 1e-12
MIN_POINTS_PER_STEP = 3


class DivergentSpectrumError(RuntimeError):
    """Requested a ground-state observable for an unbounded-below spectrum."""


class ResolutionError(ValueError):
    """Scan grid too coarse to resolve the staircase steps."""


def initial_cutoff(params: ModelParams) -> int:
    """Starting cutoff for ground-vector solves.

    For the completed model the CO-limit estimate of the occupied rung,
    n* = (u - 2 omega - 2 kappa) / (4 kappa), sets the scale; start at four
    times that so the adaptive tail check rarely has to re-solve.
    """
    kappa = params.effective_kappa
    if kappa <= 0.0:
        return DEFAULT_START_CUTOFF
    n_star = (params.effective_u - 2.0 * params.omega - 2.0 * kappa) / (4.0 * kappa)
    return max(DEFAULT_START_CUTOFF, 4 * math.ceil(n_star))


def _sector_crossing(
    params, name, lo, hi, cutoffs, a, b, f_lo=None, f_hi=None
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of E+_a - E-_b along parameter name, one lane per bracket
    [lo[i], hi[i]] with its own cutoffs[i], a[i] and b[i].

    A chain with g > 0 has a simple spectrum, so every true level crossing
    is one between the two sectors.  Each difference is evaluated through
    spectrum_at_cutoff, except at a bracket end whose f_lo[i] or f_hi[i] is
    given (not NaN): the difference there, already solved at that cutoff
    with that level count.  All lanes are refined in one call of the lambda
    solver's Illinois iteration (refine_bracket), each to
    |dx| <= CROSSING_XTOL or float spacing, which leaves every lane's bits
    as a refinement of its own.  Returns each lane's best iterate and
    |E+_a - E-_b| there; raises ValueError, for the first such lane, when a
    bracket holds no sign change.
    """
    lanes = list(zip(cutoffs, a, b))

    def diff(i, x):
        cutoff, a_i, b_i = lanes[i]
        p = dc_replace(params, **{name: x})
        plus, minus = spectrum_at_cutoff(p, cutoff, max(a_i, b_i) + 1).sectors
        return float(plus[a_i] - minus[b_i])

    lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
    ends = []
    for xs, known in ((lo, f_lo), (hi, f_hi)):
        known = [math.nan] * len(lanes) if known is None else np.asarray(known).tolist()
        ends.append([diff(i, x) if math.isnan(f) else f for i, (x, f) in enumerate(zip(xs, known))])
    for (_, a_i, b_i), x0, x1, f0, f1 in zip(lanes, lo, hi, *ends):
        if (f0 > 0.0) == (f1 > 0.0):
            raise ValueError(f"E+_{a_i} - E-_{b_i} does not change sign for {name} in [{x0}, {x1}]")
    x, fx = refine_bracket(
        lambda idx, xs: [diff(i, x) for i, x in zip(idx.tolist(), xs.tolist())],
        lo, ends[0], hi, ends[1], CROSSING_XTOL,
    )
    return x, np.abs(fx)


def _refuse_unsettled(report, where: str) -> None:
    """DivergentSpectrumError unless the spectrum of report settled."""
    if report.classification is Classification.UNBOUNDED_BELOW:
        raise DivergentSpectrumError(f"{where} is unbounded from below")
    if not report.classification.settled:
        raise DivergentSpectrumError(f"{where} did not converge by cutoff {report.final_cutoff}")


def _ground_occupation(params: ModelParams, spec, report, block, max_cutoff: int):
    """(<a^dag a>, the cutoff whose Fock tail accepted it, E+_0 - E-_0 at
    that cutoff when it is the converged one, else NaN) of one point, whose
    k = 1 lane stopped with block (its chain rows and their bisections)."""
    _refuse_unsettled(
        report, f"spectrum at u = {params.effective_u}, kappa = {params.effective_kappa}"
    )
    # the ground state lives in the sector chain with the lower ground level
    # (+1 on a tie), and chain site n carries n photons; at the converged
    # cutoff its vector reuses the bisection that solved the chain
    plus, minus = spec.sectors
    sector = 0 if plus[0] <= minus[0] else 1
    rows, bisections = block
    h, bisection = sector_chain(rows, (+1, -1)[sector]), bisections[sector]
    for cutoff in _doubling_schedule(spec.cutoff, max_cutoff, 1):
        if cutoff > spec.cutoff:
            h, bisection = build_hamiltonian(params, cutoff, parity=h.parity), None
        occ = eigen_symmetric(h, 1, want_vectors=True, bisection=bisection).vectors[:, 0] ** 2
        if occ[-2:].sum() < TAIL_TOL:  # top two Fock levels
            gap = plus[0] - minus[0] if cutoff == spec.cutoff else math.nan
            return occ @ np.arange(cutoff + 1), cutoff, gap
    raise DivergentSpectrumError(
        f"Fock tail does not fall below {TAIL_TOL} within cutoff {max_cutoff}"
    )


def _mean_photon_detail(points, tol: float, start_cutoff: int | None, max_cutoff: int):
    """_ground_occupation of every point, as three arrays: its spectrum
    converged as one lane of _converge_lanes (from start_cutoff, by default
    initial_cutoff) and its ground vector solved while the lane's block is
    held.  Raises the error of the first point, in order, that has one."""
    starts = [initial_cutoff(p) if start_cutoff is None else start_cutoff for p in points]
    nbar, gaps = np.empty(len(points)), np.empty(len(points))
    cutoffs = np.empty(len(points), dtype=np.int64)
    first = None  # (lane, error) of the first refused point in order
    for lane, outcome, block in _converge_lanes(points, 1, tol, max_cutoff, starts):
        try:
            nbar[lane], cutoffs[lane], gaps[lane] = _ground_occupation(
                points[lane], *_raise_or_return(outcome), block, max_cutoff
            )
        except (ValueError, RuntimeError) as exc:
            # keep only that one error: its traceback holds its block
            if first is None or lane < first[0]:
                first = lane, exc
        del block  # the block goes before the generator builds the next one
    if first is not None:
        raise first[1]
    return nbar, cutoffs, gaps


def mean_photon_ground(
    params: ModelParams, tol: float = DEFAULT_TOL, max_cutoff: int = DEFAULT_MAX_CUTOFF
) -> float:
    """<a^dag a> in the converged ground state: the batch of one of a
    staircase scan's points.

    The cutoff is raised until the spectrum classifies Converged and the
    occupation of the top two Fock levels falls below TAIL_TOL.  Refuses
    with DivergentSpectrumError when the spectrum is unbounded below
    (original model past the collapse point) or did not converge by max_cutoff.
    """
    return float(_mean_photon_detail([params], tol, None, max_cutoff)[0][0])


@dataclass
class StaircaseReport:
    u_values: np.ndarray
    mean_photon: np.ndarray
    renormalized: np.ndarray
    edges: list[float]
    widths: list[float]
    plateaus: list[float]
    fitted_slope: float
    fit_window: tuple[float, float]
    cutoffs: list[int] = field(default_factory=list, repr=False)


def staircase_grid(
    params: ModelParams, u_values, start_cutoff: int | None
) -> tuple[np.ndarray, float]:
    """The u grid of a staircase scan as an array, and its largest step.

    Refuses a model other than the completed one with kappa > 0, a grid
    that is not strictly increasing with >= 2 points or holds fewer than
    MIN_POINTS_PER_STEP points per expected step width 4 kappa, and a start
    cutoff (by default initial_cutoff, largest at the last u) that leaves
    the doubling fewer than the two cutoffs a converged spectrum needs
    within DEFAULT_MAX_CUTOFF.  staircase_scan and the CLI check the model
    and grid here, before any solve.
    """
    if params.variant is not Variant.COMPLETED:
        raise ValueError("staircase scan requires the completed model variant")
    if params.effective_kappa <= 0.0:
        raise ValueError("staircase scan requires kappa > 0")
    u_values = np.asarray(list(u_values), dtype=float)
    if u_values.size < 2 or np.any(np.diff(u_values) <= 0):
        raise ValueError("u grid must be strictly increasing with >= 2 points")
    step = float(np.max(np.diff(u_values)))
    expected_width = 4.0 * params.effective_kappa
    if expected_width / step < MIN_POINTS_PER_STEP:
        raise ResolutionError(
            f"grid step {step:.3g} resolves fewer than {MIN_POINTS_PER_STEP} points "
            f"per expected step width 4 kappa = {expected_width:.3g}"
        )
    if start_cutoff is None:
        start_cutoff = initial_cutoff(dc_replace(params, u=float(u_values[-1])))
    if len(_doubling_schedule(start_cutoff, DEFAULT_MAX_CUTOFF, 1)) < 2:
        raise ValueError(f"start cutoff {start_cutoff} leaves the doubling one cutoff within "
                         f"max_cutoff={DEFAULT_MAX_CUTOFF}; a converged spectrum needs two")
    return u_values, step


def staircase_scan(
    params: ModelParams,
    u_values,
    tol: float = DEFAULT_TOL,
    allow_small_ratio: bool = False,
    workers: int = 1,
    start_cutoff: int | None = None,
) -> StaircaseReport:
    """Ground-state mean photon number across a Stark-coupling grid.

    Step edges are the ground-state crossings of the two parity sectors
    (E+_0 = E-_0) inside grid intervals where the mean photon number jumps
    by at least 1/2, refined like every crossing (_sector_crossing); the
    grid must hold MIN_POINTS_PER_STEP points per expected width 4 kappa.
    Measures widths and plateau values, and fits the renormalized
    staircase midline slope by least squares.  The fit window
    starts one full step after the first edge; the fitted slope is NaN when
    fewer than five midline points land in the window.  Points are solved
    serially; workers (>= 1) is accepted for compatibility.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_co_regime(params, allow_small_ratio)
    u_values, step = staircase_grid(params, u_values, start_cutoff)

    points = [dc_replace(params, u=float(u)) for u in u_values]
    nbar, cutoffs, gaps = _mean_photon_detail(points, tol, start_cutoff, DEFAULT_MAX_CUTOFF)

    # an edge is refined at the larger of its two points' cutoffs, and an end
    # reuses its point's E+_0 - E-_0 where that was solved at this cutoff
    jumps = np.flatnonzero(np.diff(nbar) >= 0.5)
    refine_at = np.maximum(cutoffs[jumps], cutoffs[jumps + 1])
    known = [np.where(cutoffs[end] == refine_at, gaps[end], np.nan) for end in (jumps, jumps + 1)]
    zeros = [0] * len(jumps)
    x, _ = _sector_crossing(
        params, "u", u_values[jumps], u_values[jumps + 1], refine_at.tolist(), zeros, zeros, *known
    )
    edges = x.tolist()
    cutoffs = cutoffs.tolist()
    widths = [edges[j + 1] - edges[j] for j in range(len(edges) - 1)]

    # plateau values: average over interior points at least one grid step
    # away from the surrounding edges
    plateaus: list[float] = []
    bounds = [u_values[0] - step] + edges + [u_values[-1] + step]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = (u_values > lo + step) & (u_values < hi - step)
        if np.any(mask):
            plateaus.append(float(np.mean(nbar[mask])))

    renorm = nbar / params.delta
    fitted_slope = float("nan")
    fit_window = (float("nan"), float("nan"))
    if len(edges) >= 2:
        window_lo = edges[0] + float(np.mean(widths))
        window_hi = edges[-1]
        fit_window = (window_lo, window_hi)
        midline = []
        for e in edges:
            if not window_lo - 1e-12 <= e <= window_hi + 1e-12:
                continue
            below = nbar[np.searchsorted(u_values, e) - 1]
            midline.append((e, (round(below) + 0.5) / params.delta))
        if len(midline) >= 5:
            xs = np.array([m[0] for m in midline])
            ys = np.array([m[1] for m in midline])
            fitted_slope = float(np.polyfit(xs, ys, 1)[0])

    return StaircaseReport(
        u_values=u_values,
        mean_photon=nbar,
        renormalized=renorm,
        edges=edges,
        widths=widths,
        plateaus=plateaus,
        fitted_slope=fitted_slope,
        fit_window=fit_window,
        cutoffs=cutoffs,
    )


@dataclass(frozen=True)
class CrossingEvent:
    value: float
    pair: tuple[int, int]
    gap: float


def detect_level_crossings(
    params: ModelParams, param_name: str, values, levels: int
) -> list[CrossingEvent]:
    """True level crossings among the lowest `levels` levels along a sweep.

    A crossing is a sign change of E+_a - E-_b (sector levels a and b,
    a + b + 1 < levels) between neighbouring sweep points converged to
    eigen.DEFAULT_TOL.  It is refined by the lambda solver's Illinois
    iteration at the larger of the two points' cutoffs and reported as the
    merged pair (a + b, a + b + 1) with gap |E+_a - E-_b|.  Requires g > 0
    at every point: with g = 0 the chains are diagonal and may be degenerate.
    A point that is unbounded below or Undetermined raises DivergentSpectrumError;
    of several failing points, the first in grid order is raised.
    """
    if param_name not in ("g", "u", "kappa", "delta"):
        raise ValueError(f"unsupported sweep parameter {param_name!r}")
    if levels < 2:
        raise ValueError("need at least two levels to detect crossings")
    values = np.asarray(list(values), dtype=float)
    if values.size < 3 or np.any(np.diff(values) <= 0):
        raise ValueError("sweep grid must be strictly increasing with >= 3 points")
    if (values[0] if param_name == "g" else params.g) <= 0.0:
        raise ValueError("crossing detection needs g > 0 at every sweep point")

    points = [dc_replace(params, **{param_name: float(v)}) for v in values]
    sectors, cutoffs = [], []
    for v, outcome in zip(values, converged_spectra(points, levels)):
        spec, report = _raise_or_return(outcome)
        _refuse_unsettled(report, f"sweep point {param_name} = {v}")
        sectors.append([s[: levels - 1] for s in spec.sectors])
        cutoffs.append(spec.cutoff)

    brackets = []  # (point, a, b) of each sign change
    for i in range(len(values) - 1):
        (plus_lo, minus_lo), (plus_hi, minus_hi) = sectors[i], sectors[i + 1]
        for a in range(min(len(plus_lo), len(plus_hi))):
            for b in range(min(len(minus_lo), len(minus_hi), levels - 1 - a)):
                if (plus_lo[a] > minus_lo[b]) != (plus_hi[a] > minus_hi[b]):
                    brackets.append((i, a, b))
    at = [i for i, _, _ in brackets]
    x, gap = _sector_crossing(
        params, param_name, values[at], values[[i + 1 for i in at]],
        [max(cutoffs[i : i + 2]) for i in at], [a for _, a, _ in brackets],
        [b for _, _, b in brackets],
    )
    events = [
        CrossingEvent(value=v, pair=(a + b, a + b + 1), gap=d)
        for v, d, (_, a, b) in zip(x.tolist(), gap.tolist(), brackets)
    ]
    events.sort(key=lambda ev: (ev.value, ev.pair))
    return events

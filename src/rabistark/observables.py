"""Eigenvector observables: ground-state mean photon number, staircase
detection with slope fitting, and level-crossing detection in numerical
spectra, all on the two parity-sector chains."""

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .analytic import refine_bracket
from .colimit import check_co_regime
from .eigen import Classification, converged_spectrum, eigen_symmetric, spectrum_at_cutoff
from .fockspace import ModelParams, Variant, build_hamiltonian

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
    if kappa > 0.0:
        n_star = (params.effective_u - 2.0 * params.omega - 2.0 * kappa) / (4.0 * kappa)
        if n_star > 0.0:
            return max(32, 4 * math.ceil(n_star))
    return 32


def _sector_crossing(params, name, lo, hi, cutoff, a=0, b=0) -> tuple[float, float]:
    """Root of E+_a - E-_b in [lo, hi] along parameter name, at a fixed cutoff.

    A chain with g > 0 has a simple spectrum, so every true level crossing
    is one between the two sectors.  Refines the bracket with the lambda
    solver's Illinois iteration (refine_bracket) to |dx| <= CROSSING_XTOL
    or float spacing and returns the best iterate with |E+_a - E-_b| there;
    raises ValueError when the bracket holds no sign change.
    """

    def diff(x):
        p = dc_replace(params, **{name: x})
        plus, minus = spectrum_at_cutoff(p, cutoff, max(a, b) + 1).sectors
        return float(plus[a] - minus[b])

    lo, hi = float(lo), float(hi)
    f_lo, f_hi = diff(lo), diff(hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"E+_{a} - E-_{b} does not change sign for {name} in [{lo}, {hi}]")
    x, fx = refine_bracket(
        lambda _, xs: [diff(v) for v in xs.tolist()], [lo], [f_lo], [hi], [f_hi], CROSSING_XTOL
    )
    return float(x[0]), abs(float(fx[0]))


def _mean_photon_detail(
    params: ModelParams, tol: float, start_cutoff: int | None, max_cutoff: int
) -> tuple[float, int]:
    if start_cutoff is None:
        start_cutoff = initial_cutoff(params)
    spec, report = converged_spectrum(
        params, k=1, tol=tol, max_cutoff=max_cutoff, start_cutoff=start_cutoff
    )
    if report.classification is Classification.UNBOUNDED_BELOW:
        raise DivergentSpectrumError(
            "spectrum is unbounded from below at these parameters "
            f"(u = {params.effective_u}, kappa = {params.effective_kappa}); "
            "the ground state does not exist"
        )
    if report.classification is Classification.UNDETERMINED:
        raise DivergentSpectrumError(
            f"spectrum did not converge within max_cutoff = {max_cutoff}"
        )

    # the ground state lives in the sector chain with the lower ground level
    # (+1 on a tie), and chain site n carries n photons
    plus, minus = spec.sectors
    parity = +1 if plus[0] <= minus[0] else -1
    cutoff, h = spec.cutoff, spec.chains[0 if parity > 0 else 1]
    while True:
        occ = eigen_symmetric(h, 1, want_vectors=True).vectors[:, 0] ** 2
        if occ[-2:].sum() < TAIL_TOL:  # top two Fock levels
            return float(occ @ np.arange(cutoff + 1)), cutoff
        cutoff *= 2
        if cutoff > max_cutoff:
            raise DivergentSpectrumError(
                f"Fock tail does not fall below {TAIL_TOL} within cutoff {max_cutoff}"
            )
        h = build_hamiltonian(params, cutoff, parity=parity)


def mean_photon_ground(
    params: ModelParams, tol: float = 1e-8, max_cutoff: int = 32_768
) -> float:
    """<a^dag a> in the converged ground state.

    The cutoff is raised until the spectrum classifies Converged and the
    occupation of the top two Fock levels falls below TAIL_TOL.  Refuses
    with a divergence diagnostic when the spectrum is unbounded below
    (original model past the collapse point).
    """
    value, _ = _mean_photon_detail(params, tol, None, max_cutoff)
    return value


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


def staircase_scan(
    params: ModelParams,
    u_values,
    tol: float = 1e-8,
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
    if params.variant is not Variant.COMPLETED:
        raise ValueError("staircase scan requires the completed model variant")
    if params.effective_kappa <= 0.0:
        raise ValueError("staircase scan requires kappa > 0")
    check_co_regime(params, allow_small_ratio)

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

    def point(u):
        return _mean_photon_detail(dc_replace(params, u=float(u)), tol, start_cutoff, 32_768)

    results = [point(u) for u in u_values]
    nbar = np.array([r[0] for r in results])
    cutoffs = [r[1] for r in results]

    edges = [
        _sector_crossing(params, "u", u_values[i], u_values[i + 1], max(cutoffs[i : i + 2]))[0]
        for i in range(len(u_values) - 1)
        if nbar[i + 1] - nbar[i] >= 0.5
    ]
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
        mean_width = float(np.mean(widths)) if widths else expected_width
        window_lo = edges[0] + mean_width
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

    sectors, cutoffs = [], []
    for v in values:
        p = dc_replace(params, **{param_name: float(v)})
        spec, report = converged_spectrum(p, k=levels)
        if report.classification is Classification.UNBOUNDED_BELOW:
            raise DivergentSpectrumError(
                f"sweep point {param_name} = {v} is unbounded from below"
            )
        sectors.append([s[: levels - 1] for s in spec.sectors])
        cutoffs.append(spec.cutoff)

    events: list[CrossingEvent] = []
    for i in range(len(values) - 1):
        (plus_lo, minus_lo), (plus_hi, minus_hi) = sectors[i], sectors[i + 1]
        for a in range(min(len(plus_lo), len(plus_hi))):
            for b in range(min(len(minus_lo), len(minus_hi), levels - 1 - a)):
                if (plus_lo[a] > minus_lo[b]) == (plus_hi[a] > minus_hi[b]):
                    continue
                x, gap = _sector_crossing(
                    params, param_name, values[i], values[i + 1], max(cutoffs[i : i + 2]), a, b
                )
                events.append(CrossingEvent(value=x, pair=(a + b, a + b + 1), gap=gap))
    events.sort(key=lambda ev: (ev.value, ev.pair))
    return events

"""Parity-chain eigensolver plus the cutoff-convergence controller.

Model spectra are solved on the two tridiagonal Z2 parity-sector chains
(Braak, PRL 107, 100401 (2011)), the only matrices the package builds.  The
controller doubles the Fock cutoff until the tracked levels stop moving
(Converged), the ground energy keeps dropping (UnboundedBelow) or the
budget is exhausted (Undetermined).
Converged spectra whose tracked levels sit inside a declared degeneracy
window that holds two levels of one parity sector are sub-classified
CollapsedDegenerate, the numerical signature of spectral collapse at
u = 2 omega (a Z2 parity doublet has one level per sector).
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dstebz, dstein

# build_hamiltonian stays importable for perfbench/spans.py
from .fockspace import HamiltonianMatrix, ModelParams, build_chains, build_hamiltonian  # noqa: F401

DEFAULT_TOL = 1e-8
DEFAULT_DEGENERACY_WINDOW = 1e-2
DEFAULT_START_CUTOFF = 32
DEFAULT_MAX_CUTOFF = 32_768

RESIDUAL_SCALE = 1e-8
NORM_TOL = 1e-10


class SolverError(RuntimeError):
    """Eigensolver failed or violated its residual contract."""


class Classification(str, Enum):
    CONVERGED = "Converged"
    COLLAPSED_DEGENERATE = "CollapsedDegenerate"
    UNBOUNDED_BELOW = "UnboundedBelow"
    UNDETERMINED = "Undetermined"


@dataclass
class Spectrum:
    energies: np.ndarray
    cutoff: int
    k_requested: int
    vectors: np.ndarray | None = field(default=None, repr=False)
    # lowest min(k, cutoff + 1) levels of the parity +1 and -1 chains, and the chains
    sectors: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    chains: tuple[HamiltonianMatrix, HamiltonianMatrix] | None = field(default=None, repr=False)


@dataclass
class ConvergenceReport:
    classification: Classification
    final_cutoff: int
    history: list[tuple[int, np.ndarray]]
    tolerance: float
    drift_rate: float
    degeneracy_window: float


def eigen_symmetric(h: HamiltonianMatrix, k: int, want_vectors: bool = False) -> Spectrum:
    """Lowest k eigenpairs of a parity-sector chain, a HamiltonianMatrix
    with a two-row band as build_chains makes; anything else is a
    ValueError.

    The chain is solved by LAPACK bisection (dstebz, RANGE='I', ABSTOL=0)
    and inverse iteration (dstein): the calls scipy.linalg.eigh_tridiagonal
    makes for select='i', so every bit is the same, without that wrapper's
    per-call argument handling.  Eigenvalues come back ascending.  When
    vectors are requested they are checked against the residual contract
    ||H v - E v|| <= 1e-8 (1 + |E|), with H v a band product, and normalized
    with a fixed sign convention (largest-magnitude component positive).
    """
    if not (isinstance(h, HamiltonianMatrix) and h.band.shape[:-1] == (2,)):
        shape = np.shape(h.band if isinstance(h, HamiltonianMatrix) else h)
        raise ValueError(
            "eigen_symmetric takes a parity-sector chain, a HamiltonianMatrix with a "
            f"two-row band; got a {type(h).__name__} of shape {shape}"
        )
    band, dim = h.band, h.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must satisfy 1 <= k <= dim = {dim}, got {k}")
    # the last off-diagonal slot lies outside the chain; the message is the
    # one the CLI has always written into its incompleteness trailer
    if not np.isfinite(band.ravel()[:-1]).all():
        raise ValueError("array must not contain infs or NaNs")
    d, e = band[0], band[1, :-1]
    if dim == 1:  # the wrappers reject an empty off-diagonal
        energies, vectors = d.copy(), (np.ones((1, 1)) if want_vectors else None)
    else:
        m, w, iblock, isplit, info = dstebz(
            d, e, 2, 0.0, 1.0, 1, k, 0.0, "B" if want_vectors else "E"
        )
        if info != 0:
            raise SolverError(f"LAPACK dstebz failed with info={info} (dim={dim}, k={k})")
        energies, vectors = w[:m], None
        if want_vectors:
            vectors, info = dstein(d, e, energies, iblock, isplit)
            if info != 0:
                raise SolverError(f"LAPACK dstein failed with info={info} (dim={dim}, k={k})")
            if m > 1:  # order 'B' groups the values by split block
                order = np.argsort(energies)
                energies, vectors = energies[order], vectors[:, order]

    if k > 1 and (energies[1:] < energies[:-1]).any():
        raise SolverError("eigenvalues returned out of order")

    if vectors is not None:
        for j in range(k):
            v = vectors[:, j]
            norm = np.linalg.norm(v)
            if abs(norm - 1.0) > NORM_TOL:
                raise SolverError(f"eigenvector {j} norm {norm} violates unit-norm contract")
            resid = np.linalg.norm(dsbmv(1, 1.0, band, v, lower=1) - energies[j] * v)
            bound = RESIDUAL_SCALE * (1.0 + abs(energies[j]))
            if resid > bound:
                raise SolverError(
                    f"residual {resid:.3e} for level {j} exceeds {bound:.3e} "
                    f"(dim={dim}, E={energies[j]})"
                )
            if v[np.argmax(np.abs(v))] < 0:
                vectors[:, j] = -v

    return Spectrum(energies=energies, cutoff=h.cutoff, k_requested=k, vectors=vectors)


def spectrum_at_cutoff(params: ModelParams, cutoff: int, k: int) -> Spectrum:
    """Lowest k levels at a fixed photon cutoff: the merged lowest
    min(k, cutoff + 1) levels of the two parity-sector chains."""
    dim = 2 * (cutoff + 1)
    if not 1 <= k <= dim:
        raise ValueError(f"k must satisfy 1 <= k <= dim = {dim}, got {k}")
    m = min(k, cutoff + 1)
    chains = build_chains(params, cutoff)
    plus, minus = (eigen_symmetric(h, m).energies for h in chains)
    merged = np.concatenate((plus, minus))
    merged.sort()
    return Spectrum(merged[:k], cutoff, k, sectors=(plus, minus), chains=chains)


def _doubling_schedule(start: int, max_cutoff: int, k: int):
    c = max(start, (k + 1) // 2)  # need dim = 2(c+1) >= k
    while c <= max_cutoff:
        yield c
        c *= 2


def converged_spectrum(
    params: ModelParams,
    k: int,
    tol: float = DEFAULT_TOL,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
    start_cutoff: int = DEFAULT_START_CUTOFF,
    degeneracy_window: float = DEFAULT_DEGENERACY_WINDOW,
) -> tuple[Spectrum, ConvergenceReport]:
    """Doubling-schedule spectrum with convergence classification.

    Classification rules, applied on the recorded history:
      Converged          max level drift over the last doubling <= tol
      CollapsedDegenerate  Converged, spread of the k tracked levels
                           below degeneracy_window, and some parity sector
                           has two levels within degeneracy_window of the
                           ground level
      UnboundedBelow     ground energy dropped by > 10 tol on each of the
                         last three doublings (early exit additionally
                         requires the drops not to be shrinking, which
                         separates divergence from slow convergence)
      Undetermined       budget exhausted without meeting any rule
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    history: list[tuple[int, np.ndarray]] = []
    drops: list[float] = []
    classification = Classification.UNDETERMINED
    drift_rate = np.nan

    for cutoff in _doubling_schedule(start_cutoff, max_cutoff, k):
        spec = spectrum_at_cutoff(params, cutoff, k)
        history.append((cutoff, spec.energies))
        if len(history) >= 2:
            prev = history[-2][1]
            drift = float(abs(spec.energies - prev).max())
            drift_rate = float(spec.energies[0] - prev[0])
            drops.append(prev[0] - spec.energies[0])
            if drift <= tol:
                e0 = spec.energies[0]
                spread = float(spec.energies[-1] - e0)
                stacked = any(len(s) > 1 and s[1] - e0 <= degeneracy_window for s in spec.sectors)
                classification = (
                    Classification.COLLAPSED_DEGENERATE
                    if spread <= degeneracy_window and stacked
                    else Classification.CONVERGED
                )
                break
            if (
                len(drops) >= 3
                and all(d > 10 * tol for d in drops[-3:])
                and drops[-1] >= drops[-2] >= drops[-3]
            ):
                classification = Classification.UNBOUNDED_BELOW
                break
    else:
        if len(drops) >= 3 and all(d > 10 * tol for d in drops[-3:]):
            classification = Classification.UNBOUNDED_BELOW

    if not history:
        raise ValueError(
            f"empty cutoff schedule: start_cutoff={start_cutoff} exceeds "
            f"max_cutoff={max_cutoff}"
        )
    report = ConvergenceReport(
        classification=classification,
        final_cutoff=spec.cutoff,
        history=history,
        tolerance=tol,
        drift_rate=drift_rate,
        degeneracy_window=degeneracy_window,
    )
    return spec, report

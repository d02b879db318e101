"""Parity-chain eigensolver plus the cutoff-convergence controller.

Model spectra are solved on the two tridiagonal Z2 parity-sector chains
(Braak, PRL 107, 100401 (2011)), the only matrices the package builds.  The
controller doubles the Fock cutoff until the tracked levels stop moving
(Converged), the ground energy keeps dropping (UnboundedBelow) or the
budget is exhausted (Undetermined).
Converged spectra whose tracked levels sit inside the fixed degeneracy
window (DEGENERACY_WINDOW, 1e-2 omega) that holds two levels of one
parity sector are sub-classified CollapsedDegenerate, the numerical
signature of spectral collapse at u = 2 omega (a Z2 parity doublet has one
level per sector).
"""

import sys
from dataclasses import dataclass, field
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np

from .fockspace import HamiltonianMatrix, ModelParams, build_chain_block, build_chains
# build_hamiltonian stays importable for perfbench/spans.py
from .fockspace import build_hamiltonian  # noqa: F401

DEFAULT_TOL = 1e-8
DEGENERACY_WINDOW = 1e-2
DEFAULT_START_CUTOFF = 32
DEFAULT_MAX_CUTOFF = 32_768

RESIDUAL_SCALE = 1e-8
NORM_TOL = 1e-10
_BLOCK_BUDGET = 2048  # chain-row entries of one lane block, bounding what a doubling round holds


def _load_flapack(linalg_dir: Path):
    """scipy's LAPACK extension, the module scipy.linalg.lapack wraps, loaded
    from its file in linalg_dir without running scipy/linalg/__init__.py,
    whose imports cost more than the solves of a typical run.  It is
    registered under its own name, so a later import of scipy.linalg reuses
    it and every bit is the same."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    for path in (linalg_dir / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            loader = ExtensionFileLoader(name, str(path))
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    # the file layout is private to scipy, so a change of it is named here
    from importlib.metadata import version  # imported here: only this path needs it
    raise ImportError(f"no {name} extension in {linalg_dir} (scipy {version('scipy')})")


_flapack = _load_flapack(Path(find_spec("scipy").submodule_search_locations[0], "linalg"))
dstebz, dstein, dsterf = _flapack.dstebz, _flapack.dstein, _flapack.dsterf


def _chain_product(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for the chain whose diagonal is band[0] and off-diagonal band[1, :-1]
    (empty for a one-site chain)."""
    off = band[1, :-1]
    hv = band[0] * v
    hv[1:] += off * v[:-1]
    hv[:-1] += off * v[1:]
    return hv


class SolverError(RuntimeError):
    """Eigensolver failed or violated its residual contract."""


class Classification(str, Enum):
    CONVERGED = "Converged"
    COLLAPSED_DEGENERATE = "CollapsedDegenerate"
    UNBOUNDED_BELOW = "UnboundedBelow"
    UNDETERMINED = "Undetermined"

    @property
    def settled(self) -> bool:
        return self in (Classification.CONVERGED, Classification.COLLAPSED_DEGENERATE)


@dataclass
class Spectrum:
    energies: np.ndarray
    cutoff: int
    vectors: np.ndarray | None = field(default=None, repr=False)
    # lowest min(k, cutoff + 1) levels of the parity +1 and -1 chains
    sectors: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    # set by the lane controller only: the two chains and, for k = 1, each
    # chain's bisection (levels, iblock, isplit), for eigen_symmetric to reuse
    chains: tuple[HamiltonianMatrix, HamiltonianMatrix] | None = field(default=None, repr=False)
    bisections: tuple[tuple, tuple] | None = field(default=None, repr=False)


@dataclass
class ConvergenceReport:
    classification: Classification
    final_cutoff: int
    history: list[tuple[int, np.ndarray]]
    tolerance: float
    drift_rate: float
    degeneracy_window: float


def _solve_block(rows: np.ndarray, k: int, order: str) -> list:
    """Lowest k levels of every chain of a block of chain rows: the
    package's one LAPACK eigenvalue call.  Where k > 1 levels are asked in
    ORDER 'E' and dim/k < 2 floor(log2 dim), one implicit QL/QR sweep
    (dsterf) solves all levels of a chain in less time than k bisections,
    and its lowest k are kept; every other solve is bisection (dstebz,
    RANGE='I', ABSTOL=0).  The bound follows the break-even dim/k of the
    model's chains, measured on a 2-core x86_64 Xeon: about 6 at dim 17,
    8-11 at dim 33 and 16-30 from dim 129 to 2049.  Both kernels are
    accurate to a few eps ||T|| absolute.

    rows has shape (lanes, chains + 1, dim): the chains of lane i have the
    diagonals rows[i, :-1] and the off-diagonal rows[i, -1, :-1]; the last
    off-diagonal slot lies outside them (a one-site chain passes it, as the
    wrappers refuse an empty e).  order is dstebz's ORDER: 'E' sorts the
    levels, 'B' groups them by split block and keeps the iblock and isplit
    that dstein needs; with one level both return the same value.  Returns
    per lane a list of (levels, iblock, isplit), one per chain (iblock and
    isplit are None for dsterf levels, which dstein never takes), or the
    error of its first failing chain: a non-finite entry (checked once per
    block), a LAPACK info != 0, or 'E' levels out of order.
    """
    lanes, dim = len(rows), rows.shape[-1]
    sterf = order == "E" and 1 < k and dim < 2 * k * (dim.bit_length() - 1)
    finite = np.isfinite(rows.reshape(lanes, -1)[:, :-1]).all(axis=1)
    out = []
    for lane, ok in zip(rows, finite.tolist()):
        if not ok:
            # the message the CLI has always written into its incompleteness trailer
            out.append(ValueError("array must not contain infs or NaNs"))
            continue
        solved, e = [], lane[-1, : max(dim - 1, 1)]
        for d in lane[:-1]:
            if sterf:
                (w, info), m, iblock, isplit = dsterf(d, e), k, None, None
            else:
                m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, order)
            if info != 0:
                kernel = "dsterf" if sterf else "dstebz"
                solved = SolverError(f"LAPACK {kernel} failed with info={info} (dim={dim}, k={k})")
                break
            w = w[:m]
            if order == "E" and k > 1 and (w[1:] < w[:-1]).any():
                solved = SolverError("eigenvalues returned out of order")
                break
            solved.append((w, iblock, isplit))
        out.append(solved)
    return out


def eigen_symmetric(
    h: HamiltonianMatrix, k: int, want_vectors: bool = False, bisection: tuple | None = None
) -> Spectrum:
    """Lowest k eigenpairs of a parity-sector chain, a HamiltonianMatrix
    with a two-row band as build_chains makes; anything else is a
    ValueError.

    The chain is solved by the lane solver (_solve_block) as a block of one
    and, for vectors, by inverse iteration (dstein).  These are the calls
    scipy.linalg.eigh_tridiagonal makes for select='i' (dstebz, then
    dstein), or, where _solve_block takes dsterf (values only, k > 1 and
    dim/k < 2 floor(log2 dim)), for lapack_driver='sterf' cut to its lowest
    k.  So every bit is the same, without that wrapper's per-call argument
    handling.  bisection may hold the (levels, iblock, isplit) of an
    ORDER='B' solve of this chain for the same k, such as
    Spectrum.bisections, and is then used in place of bisecting again;
    arrays of other types or shapes are a ValueError.
    Eigenvalues come back ascending.  When vectors are requested they are
    checked against the residual contract ||H v - E v|| <= 1e-8 (1 + |E|),
    with H v a numpy chain product, and normalized with a fixed sign
    convention (largest-magnitude component positive).
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
    if bisection is None:
        [solved] = _solve_block(band[None], k, "B" if want_vectors else "E")
        if isinstance(solved, Exception):
            raise solved
        [bisection] = solved
    elif not (
        len(bisection) == 3
        and all(isinstance(a, np.ndarray) for a in bisection)
        and bisection[0].shape == (k,)
        and all(a.dtype == np.int32 and a.shape == (dim,) for a in bisection[1:])
    ):
        # dstein's wrapper is not safe with anything else: a None iblock breaks numpy's refcounts
        raise ValueError(
            f"bisection must be dstebz's (levels, iblock, isplit) for k = {k} and dim = {dim}"
        )
    energies, iblock, isplit = bisection
    if not want_vectors:
        return Spectrum(energies=energies, cutoff=h.cutoff)

    vectors, info = dstein(band[0], band[1, : max(dim - 1, 1)], energies, iblock, isplit)
    if info != 0:
        raise SolverError(f"LAPACK dstein failed with info={info} (dim={dim}, k={k})")
    if k > 1:  # order 'B' groups the values by split block
        order = np.argsort(energies)
        energies, vectors = energies[order], vectors[:, order]
    for j in range(k):
        v = vectors[:, j]
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_TOL:
            raise SolverError(f"eigenvector {j} norm {norm} violates unit-norm contract")
        resid = np.linalg.norm(_chain_product(band, v) - energies[j] * v)
        bound = RESIDUAL_SCALE * (1.0 + abs(energies[j]))
        if resid > bound:
            raise SolverError(
                f"residual {resid:.3e} for level {j} exceeds {bound:.3e} "
                f"(dim={dim}, E={energies[j]})"
            )
        if v[np.argmax(np.abs(v))] < 0:
            vectors[:, j] = -v
    return Spectrum(energies=energies, cutoff=h.cutoff, vectors=vectors)


def check_levels(cutoff: int, k: int) -> None:
    """Refuses k outside 1 <= k <= 2 (cutoff + 1), the levels both chains
    hold at cutoff; spectrum_at_cutoff and the CLI check it here."""
    dim = 2 * (cutoff + 1)
    if not 1 <= k <= dim:
        raise ValueError(f"k must satisfy 1 <= k <= dim = {dim}, got {k}")


def spectrum_at_cutoff(params: ModelParams, cutoff: int, k: int) -> Spectrum:
    """Lowest k levels at a fixed photon cutoff: the merged lowest
    min(k, cutoff + 1) levels of the two parity-sector chains."""
    check_levels(cutoff, k)
    m = min(k, cutoff + 1)
    plus, minus = (eigen_symmetric(h, m).energies for h in build_chains(params, cutoff))
    merged = np.concatenate((plus, minus))
    merged.sort()
    return Spectrum(merged[:k], cutoff, sectors=(plus, minus))


def _doubling_schedule(start: int, max_cutoff: int, k: int) -> list[int]:
    """The cutoffs of a doubling from start, raised to the least whose chains
    hold k levels, up to max_cutoff; refused when that leaves none."""
    c = max(start, (k + 1) // 2)  # need dim = 2(c+1) >= k
    if c > max_cutoff:
        raise ValueError(
            f"empty cutoff schedule: start_cutoff={start} exceeds max_cutoff={max_cutoff}"
        )
    cutoffs = []
    while c <= max_cutoff:
        cutoffs.append(c)
        c *= 2
    return cutoffs


_LAST_FOUR = np.arange(-3, 1)


def _converge_lanes(points, k: int, tol: float, max_cutoff: int, start_cutoffs):
    """The doubling of converged_spectrum, run over lanes, one per point.

    Every round takes the lanes at the lowest pending cutoff, builds and
    solves them in blocks of at most _BLOCK_BUDGET chain-row entries, or of
    one lane where its rows alone are more, and applies the drift, drop and
    degeneracy rules to each block as arrays; a lane that does not stop
    moves on to twice its cutoff.
    Yields (lane, outcome) as each lane stops, outcome being its (Spectrum,
    ConvergenceReport) or the error its chains raised.  The Spectrum's
    chains are views of its block and, for k = 1, its bisections are that
    block's dstebz output (ORDER='B'); the block is released once the
    consumer resumes the generator.
    """
    if not 0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # one schedule per distinct start, each checked here
    schedules = {s: _doubling_schedule(s, max_cutoff, k) for s in dict.fromkeys(start_cutoffs)}
    pending: dict[int, list[int]] = {}
    for lane, start in enumerate(start_cutoffs):
        pending.setdefault(schedules[start][0], []).append(lane)
    rounds = max(map(len, schedules.values()), default=0)
    # per lane, the levels of every cutoff it solved and how many cutoffs that is
    levels = np.zeros((len(points), rounds, k))
    nsolved = np.zeros(len(points), dtype=np.int64)
    window = DEGENERACY_WINDOW
    while pending:
        cutoff = min(pending)
        lanes = pending.pop(cutoff)
        m = min(k, cutoff + 1)
        per_block = max(1, _BLOCK_BUDGET // (3 * (cutoff + 1)))
        for first in range(0, len(lanes), per_block):
            block = lanes[first : first + per_block]
            rows = build_chain_block([points[i] for i in block], cutoff)
            solved = _solve_block(rows, m, "B" if k == 1 else "E")
            yield from ((block[j], r) for j, r in enumerate(solved) if isinstance(r, Exception))
            ok = [j for j, r in enumerate(solved) if not isinstance(r, Exception)]
            idx = np.array([block[j] for j in ok], dtype=np.int64)
            # each lane's plus levels then its minus levels, merged as spectrum_at_cutoff does
            sectors = np.array([[plus[0], minus[0]] for plus, minus in (solved[j] for j in ok)])
            energies = np.sort(sectors.reshape(len(ok), 2 * m), axis=1)[:, :k]

            count = nsolved[idx]
            levels[idx, count] = energies
            nsolved[idx] = count + 1
            e0 = energies[:, 0]
            prev = levels[idx, np.maximum(count - 1, 0)]  # a first cutoff compares to itself
            converged = (count >= 1) & (np.abs(energies - prev).max(axis=1) <= tol)
            collapsed = unbounded = np.zeros(len(ok), dtype=bool)
            if m > 1 and converged.any():
                # the tracked levels' spread, and a sector holding two levels near the ground
                collapsed = converged & (energies[:, -1] - e0 <= window) & (
                    sectors[:, :, 1] - e0[:, None] <= window
                ).any(axis=1)
            if count.max(initial=0) >= 3:
                # the ground levels of the last four cutoffs and their three drops, newest last
                ground = levels[idx[:, None], np.maximum(count[:, None] + _LAST_FOUR, 0), 0]
                drops = ground[:, :3] - ground[:, 1:]
                unbounded = (
                    ~converged
                    & (count >= 3)
                    & (drops > 10 * tol).all(axis=1)
                    & (drops[:, 2] >= drops[:, 1])
                    & (drops[:, 1] >= drops[:, 0])
                )
            stop = converged | unbounded | (2 * cutoff > max_cutoff)
            for j, lane in enumerate(idx.tolist()):
                if not stop[j]:
                    pending.setdefault(2 * cutoff, []).append(lane)
                    continue
                classification = (
                    Classification.COLLAPSED_DEGENERATE if collapsed[j]
                    else Classification.CONVERGED if converged[j]
                    else Classification.UNBOUNDED_BELOW if unbounded[j]
                    else Classification.UNDETERMINED
                )
                n = int(count[j]) + 1
                yield lane, (
                    Spectrum(
                        energies[j],
                        cutoff,
                        sectors=(sectors[j, 0], sectors[j, 1]),
                        chains=(
                            HamiltonianMatrix(rows[ok[j], 0::2], cutoff, +1),
                            HamiltonianMatrix(rows[ok[j], 1:], cutoff, -1),
                        ),
                        bisections=tuple(solved[ok[j]]) if k == 1 else None,
                    ),
                    ConvergenceReport(
                        classification=classification,
                        final_cutoff=cutoff,
                        # the cutoffs of a lane's doubling end at this one
                        history=[(cutoff >> (n - 1 - r), levels[lane, r].copy()) for r in range(n)],
                        tolerance=tol,
                        drift_rate=float(e0[j] - prev[j, 0]) if n > 1 else np.nan,
                        degeneracy_window=window,
                    ),
                )
            del rows, solved  # the block goes before the next one is built


def converged_spectrum(
    params: ModelParams,
    k: int,
    tol: float = DEFAULT_TOL,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
    start_cutoff: int = DEFAULT_START_CUTOFF,
) -> tuple[Spectrum, ConvergenceReport]:
    """Doubling-schedule spectrum with convergence classification: the
    batch of one of the lane controller (_converge_lanes).

    Classification rules, applied on the recorded history:
      Converged          max level drift over the last doubling <= tol
      CollapsedDegenerate  Converged, spread of the k tracked levels
                           below DEGENERACY_WINDOW, and some parity
                           sector has two levels within that window of the
                           ground level
      UnboundedBelow     ground energy dropped by > 10 tol on each of the
                         last three doublings and the drops are not
                         shrinking (shrinking drops are slow convergence)
      Undetermined       budget exhausted without meeting any rule
    """
    [(_, outcome)] = _converge_lanes([params], k, tol, max_cutoff, [start_cutoff])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome

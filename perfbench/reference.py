"""Independent reference solver for the Rabi, Rabi-Stark and completed
Rabi-Stark models, by parity sectors.

It shares no code with the program under test: it imports nothing from
rabistark and builds every matrix from the Hamiltonian formula

    H = omega a'a + (delta/2 + (u/2) a'a) sigma_z + g sigma_x (a + a') + kappa (a'a)^2

in the sigma_z basis |n, s>.  The operator s (-1)^n commutes with H, so the
truncated matrix (n <= cutoff, both spins) splits exactly into two
tridiagonal chains, one per parity p = +-1, with basis states |n, s_n>,
s_n = p (-1)^n (Braak, PRL 107, 100401 (2011)).  Chains are solved with
LAPACK's tridiagonal routines; ground-state crossings are the sign changes
of E0(+) - E0(-), refined with brentq.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, expm
from scipy.optimize import brentq, minimize_scalar


@dataclass(frozen=True)
class Model:
    """Couplings in units of omega; kappa = 0 is the Rabi-Stark model."""

    omega: float = 1.0
    delta: float = 1.0
    g: float = 0.0
    u: float = 0.0
    kappa: float = 0.0

    def at(self, **changes) -> "Model":
        return replace(self, **changes)


def chain(m: Model, cutoff: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the parity-p chain over n = 0..cutoff."""
    n = np.arange(cutoff + 1, dtype=float)
    s = parity * (-1.0) ** n
    diag = m.omega * n + s * (m.delta / 2 + m.u * n / 2) + m.kappa * n * n
    return diag, m.g * np.sqrt(n[1:])


def sector_levels(m: Model, cutoff: int, parity: int, k: int) -> np.ndarray:
    diag, off = chain(m, cutoff, parity)
    k = min(k, cutoff + 1)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))


def levels(m: Model, cutoff: int, k: int) -> np.ndarray:
    """Lowest k levels of the truncated model, both sectors merged."""
    both = np.concatenate([sector_levels(m, cutoff, p, k) for p in (+1, -1)])
    return np.sort(both)[:k]


def ground_energy(m: Model, cutoff: int) -> float:
    return float(min(sector_levels(m, cutoff, p, 1)[0] for p in (+1, -1)))


def ground_gap(m: Model, cutoff: int) -> float:
    """E0(+) - E0(-): changes sign exactly where the ground state crosses."""
    return float(sector_levels(m, cutoff, +1, 1)[0] - sector_levels(m, cutoff, -1, 1)[0])


def mean_photon_ground(m: Model, cutoff: int) -> float:
    """<a'a> in the ground state, taken from the lower of the two sectors."""
    best = None
    for p in (+1, -1):
        diag, off = chain(m, cutoff, p)
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        if best is None or w[0] < best[0]:
            best = (w[0], v[:, 0])
    vec = best[1]
    return float(np.arange(cutoff + 1) @ (vec * vec))


def ground_crossings(m: Model, param: str, grid, cutoff: int) -> list[float]:
    """Ground-state crossings along a grid: sign changes of E0(+) - E0(-)
    between neighbouring grid points, each refined by brentq."""
    grid = [float(x) for x in grid]

    def gap(x):
        return ground_gap(m.at(**{param: x}), cutoff)

    values = [gap(x) for x in grid]
    roots = []
    for (a, fa), (b, fb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(brentq(gap, a, b, xtol=1e-14, rtol=1e-15, maxiter=200))
    return roots


def doubled_ground(m: Model, start: int, max_cutoff: int, tol: float):
    """Ground energy on the doubling schedule start, 2 start, ... <= max_cutoff.

    Returns (energy, cutoff, history): energy and cutoff are those of the
    first doubling that moved the ground energy by at most tol, or
    (None, None, history) when it was still moving at max_cutoff.
    """
    history = []
    c = start
    while c <= max_cutoff:
        history.append((c, ground_energy(m, c)))
        if len(history) >= 2 and abs(history[-1][1] - history[-2][1]) <= tol:
            return history[-1][1], c, history
        c *= 2
    return None, None, history


def dense_hamiltonian(m: Model, cutoff: int) -> np.ndarray:
    """Full truncated matrix over |n, s>, index 2 n + (s == up)."""
    dim = 2 * (cutoff + 1)
    h = np.zeros((dim, dim))
    for n in range(cutoff + 1):
        for up in (0, 1):
            s = 1.0 if up else -1.0
            i = 2 * n + up
            h[i, i] = m.omega * n + s * (m.delta / 2 + m.u * n / 2) + m.kappa * n * n
            if n < cutoff:
                j = 2 * (n + 1) + (1 - up)  # sigma_x flips the spin
                h[i, j] = h[j, i] = m.g * np.sqrt(n + 1)
    return h


def displaced_vacuum(lam: float, cutoff: int) -> np.ndarray:
    """exp[lam sigma_x (a' - a)] |down, 0> in the |n, s> basis."""
    dim = 2 * (cutoff + 1)
    gen = np.zeros((dim, dim))
    for n in range(cutoff):
        for up in (0, 1):
            # <n+1, -s| sigma_x a' |n, s> = sqrt(n+1); the generator is real antisymmetric
            i, j = 2 * (n + 1) + (1 - up), 2 * n + up
            gen[i, j] = np.sqrt(n + 1)
            gen[j, i] = -np.sqrt(n + 1)
    psi0 = np.zeros(dim)
    psi0[0] = 1.0
    return expm(lam * gen) @ psi0


def displaced_vacuum_minimum(m: Model, cutoff: int = 60) -> float:
    """min over lam in [-1, 0] of <psi_lam| H |psi_lam>."""
    h = dense_hamiltonian(m, cutoff)

    def energy(lam):
        psi = displaced_vacuum(lam, cutoff)
        return float(psi @ h @ psi)

    res = minimize_scalar(energy, bounds=(-1.0, 0.0), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.fun)


def self_check() -> list[str]:
    """Sector spectra against dense eigvalsh, and the displaced vacuum
    against its coherent-state closed form, at small cutoffs.  Returns a
    list of failures (empty when the reference is sound)."""
    failures = []
    for m in (Model(g=0.3, u=0.7), Model(delta=2.5, g=0.45, u=1.9, kappa=0.05),
              Model(delta=200.0, g=0.1, u=2.3, kappa=0.05), Model(g=0.0, u=1.2)):
        for cutoff in (3, 12, 25):
            dense = np.linalg.eigvalsh(dense_hamiltonian(m, cutoff))
            sectors = levels(m, cutoff, 2 * (cutoff + 1))
            err = float(np.max(np.abs(dense - sectors)))
            if err > 1e-10 * (1.0 + float(np.max(np.abs(dense)))):
                failures.append(f"sectors vs dense at {m}, cutoff {cutoff}: {err:.3e}")
    lam, cutoff = -0.37, 30
    coherent = np.zeros(2 * (cutoff + 1))
    amp = np.exp(-lam * lam / 2)
    for n in range(cutoff + 1):
        # D(+-lam)|0> splits by photon parity: even n on spin down, odd n on spin up
        coherent[2 * n + (n % 2)] = amp
        amp *= lam / np.sqrt(n + 1)
    err = float(np.max(np.abs(displaced_vacuum(lam, cutoff) - coherent)))
    if err > 1e-12:
        failures.append(f"displaced vacuum vs coherent state: {err:.3e}")
    return failures

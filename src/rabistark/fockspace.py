"""Model parameters and the truncated Hamiltonian's parity-sector chains.

All couplings connect |n, s> and |n+1, -s> (s = -1/+1 the sigma_z
eigenvalue), so the parity s (-1)^n is conserved and the spin (x) Fock space
splits into two chains (Braak, PRL 107, 100401 (2011)).  The chain of
parity p has the basis |n, s_n>, n = 0..cutoff, with s_n = p (-1)^n; its
index is n, and it is tridiagonal.  The two chains differ only in the signs
s_n on their diagonals, so both are built in one (3, cutoff + 1) array: the
+1 diagonal, the -1 diagonal and the shared off-diagonal.  Each chain's band
is a view of two of its rows in LAPACK lower band form: band[0] the
diagonal, band[1, n] = H[n + 1, n], band[1, cutoff] = 0.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_MAX_DIM = 200_000


class Variant(str, Enum):
    RABI = "rabi"
    RABI_STARK = "stark"
    COMPLETED = "completed"


@dataclass(frozen=True, slots=True)
class ModelParams:
    """The five couplings plus the model-variant tag.

    All couplings are in units of omega unless omega != 1 is set explicitly.
    variant selects which couplings are active: RABI zeroes u and kappa,
    RABI_STARK zeroes kappa.
    """

    omega: float = 1.0
    delta: float = 1.0
    g: float = 0.0
    u: float = 0.0
    kappa: float = 0.0
    variant: Variant = Variant.RABI_STARK

    def __post_init__(self):
        for name in ("omega", "delta", "g", "u", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")

    @property
    def effective_u(self) -> float:
        return 0.0 if self.variant is Variant.RABI else self.u

    @property
    def effective_kappa(self) -> float:
        return self.kappa if self.variant is Variant.COMPLETED else 0.0


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric tridiagonal parity-sector chain (parity +-1) in
    lower band form: band has shape (2, cutoff + 1)."""

    band: np.ndarray = field(repr=False)
    cutoff: int
    parity: int

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim))
        for d in range(self.band.shape[0]):
            idx = np.arange(self.dim - d)
            h[idx + d, idx] = self.band[d, : self.dim - d]
            h[idx, idx + d] = self.band[d, : self.dim - d]
        return h


def check_cutoff(cutoff) -> int:
    """cutoff as an int, refused unless it is an integer >= 1 whose chains
    fit DEFAULT_MAX_DIM; build_chains and the CLI check it here."""
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if 2 * (cutoff + 1) > DEFAULT_MAX_DIM:
        raise ValueError(
            f"dimension 2*(cutoff+1) = {2 * (cutoff + 1)} exceeds the configured "
            f"maximum {DEFAULT_MAX_DIM}"
        )
    return cutoff


def build_chain_block(points, cutoff: int) -> np.ndarray:
    """The chain rows of every point at one cutoff, as a (len(points), 3,
    cutoff + 1) array: lane i holds the +1 diagonal, the -1 diagonal and the
    shared off-diagonal of points[i], and build_chains is its one-lane case.

    Diagonal entry at |n, s_n>:  omega n + s_n (delta/2 + u n / 2) + kappa n^2.
    Off-diagonal:                <n+1, -s_n| H |n, s_n> = g sqrt(n+1).
    Each lane rounds as that formula does for its own couplings, bit for bit
    (check_cutoff bounds the cutoff).  An entry that overflows becomes inf
    without a warning; the chain solver refuses it.
    """
    cutoff = check_cutoff(cutoff)
    couplings = np.array(
        [(p.omega, p.delta, p.g, p.effective_u, p.effective_kappa) for p in points], dtype=float
    ).reshape(-1, 5, 1)
    omega, delta, g = couplings[:, 0], couplings[:, 1], couplings[:, 2]  # each (lanes, 1)
    u, kappa = couplings[:, 3], couplings[:, 4]
    n = np.arange(cutoff + 1, dtype=float)
    rows = np.empty((len(couplings), 3, cutoff + 1))
    plus, minus, off = rows[:, 0], rows[:, 1], rows[:, 2]
    with np.errstate(over="ignore"):
        # in place, rounding as omega n + s (delta/2 + u n / 2) + kappa n^2 does:
        # the same products and sums in the same order, and s = +-1 is exact
        np.multiply(u, n, out=plus)
        plus /= 2
        plus += delta / 2
        plus[:, 1::2] *= -1.0  # s_n = (-1)^n on the +1 chain, -(-1)^n on the -1 chain
        np.negative(plus, out=minus)
        np.multiply(omega, n, out=off)  # scratch until sqrt(n) fills it
        rows[:, :2] += off[:, None]
        np.sqrt(n[1:], out=off[:, :cutoff])
        off[:, :cutoff] *= g
        off[:, cutoff] = 0.0
        n *= n
        rows[:, :2] += (n * kappa)[:, None]
    return rows


def sector_chain(rows: np.ndarray, parity: int) -> HamiltonianMatrix:
    """The parity +1 or -1 chain of one build_chain_block lane, as a view of
    its rows: the +1 diagonal or the -1 diagonal, then the off-diagonal."""
    return HamiltonianMatrix(rows[0::2] if parity > 0 else rows[1:], rows.shape[1] - 1, parity)


def build_chains(params: ModelParams, cutoff: int) -> tuple[HamiltonianMatrix, HamiltonianMatrix]:
    """The parity +1 and -1 chains of the truncated Hamiltonian for the
    requested variant, as views of one build_chain_block lane.
    DEFAULT_MAX_DIM bounds the full dimension 2 (cutoff + 1) of both chains
    (check_cutoff).
    """
    rows = build_chain_block([params], cutoff)[0]
    return sector_chain(rows, +1), sector_chain(rows, -1)


def build_hamiltonian(params: ModelParams, cutoff: int, parity: int) -> HamiltonianMatrix:
    """Parity-sector chain (parity = +-1) of build_chains."""
    if parity not in (+1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity!r}")
    return build_chains(params, cutoff)[0 if parity > 0 else 1]

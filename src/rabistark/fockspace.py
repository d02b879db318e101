"""Model parameters and truncated spin (x) Fock Hamiltonians.

Basis ordering of the full matrix: |n, s> with s in {down, up} (sigma_z
eigenstates, s = -1/+1), index = 2 n + (1 if s == up else 0).  All couplings
connect n and n+1 with a spin flip, so the matrix is banded with bandwidth 3
in this interleaved ordering.  Matrices are stored in LAPACK lower band form
(band[i, j] = H[j + i, j]); the represented matrix is exactly symmetric by
construction.
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


@dataclass(frozen=True)
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


def basis_index(n: int, s: int) -> int:
    """Index of |n, s> in the interleaved ordering (s = -1 down, +1 up)."""
    return 2 * n + (1 if s > 0 else 0)


def basis_state(index: int) -> tuple[int, int]:
    """Inverse of basis_index: index -> (n, s)."""
    return index // 2, (1 if index % 2 else -1)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric banded matrix over the truncated basis.

    band holds the lower band form; parity is None for the full matrix or
    +-1 for a parity-sector chain (basis: n = 0..cutoff with spin
    s_n = parity * (-1)^n, which is tridiagonal).
    """

    band: np.ndarray = field(repr=False)
    cutoff: int
    parity: int | None = None

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def diagonal(self) -> np.ndarray:
        return self.band[0]

    def entry(self, i: int, j: int) -> float:
        if j > i:
            i, j = j, i
        d = i - j
        if d > self.bandwidth:
            return 0.0
        return float(self.band[d, j])

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim))
        for d in range(self.band.shape[0]):
            idx = np.arange(self.dim - d)
            h[idx + d, idx] = self.band[d, : self.dim - d]
            h[idx, idx + d] = self.band[d, : self.dim - d]
        return h


def _check_cutoff(cutoff, max_dim):
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if 2 * (cutoff + 1) > max_dim:
        raise ValueError(
            f"dimension 2*(cutoff+1) = {2 * (cutoff + 1)} exceeds the configured "
            f"maximum {max_dim}"
        )
    return cutoff


def build_hamiltonian(
    params: ModelParams,
    cutoff: int,
    parity: int | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> HamiltonianMatrix:
    """Truncated Hamiltonian for the requested variant.

    Diagonal entry at |n, s>:  omega n + s (delta/2 + u n / 2) + kappa n^2.
    Off-diagonal:              <n+1, -s| H |n, s> = g sqrt(n+1).
    parity = +-1 builds the corresponding tridiagonal sector chain instead
    of the full interleaved matrix.
    """
    cutoff = _check_cutoff(cutoff, max_dim)
    u = params.effective_u
    kappa = params.effective_kappa
    n = np.arange(cutoff + 1, dtype=float)

    if parity is None:
        sqrt_np1 = np.sqrt(n[1:])
        dim = 2 * (cutoff + 1)
        band = np.zeros((4, dim))
        band[0, 0::2] = params.omega * n - (params.delta / 2 + u * n / 2) + kappa * n**2
        band[0, 1::2] = params.omega * n + (params.delta / 2 + u * n / 2) + kappa * n**2
        # |n,up> <-> |n+1,down>: index distance 1; |n,down> <-> |n+1,up>: distance 3
        band[1, 1 : dim - 2 : 2] = params.g * sqrt_np1
        band[3, 0 : dim - 3 : 2] = params.g * sqrt_np1
        return HamiltonianMatrix(band=band, cutoff=cutoff)

    if parity not in (+1, -1):
        raise ValueError(f"parity must be None, +1 or -1, got {parity!r}")
    band = np.empty((2, cutoff + 1))
    diag, off = band
    # in place, rounding as omega n + s (delta/2 + u n / 2) + kappa n^2 does:
    # the same products and sums in the same order, and s = +-1 is exact
    np.multiply(u, n, out=diag)
    diag /= 2
    diag += params.delta / 2
    diag[(1 if parity > 0 else 0)::2] *= -1.0  # s = parity (-1)^n
    diag += params.omega * n
    np.sqrt(n[1:], out=off[:cutoff])
    off[:cutoff] *= params.g
    off[cutoff] = 0.0
    n *= n
    n *= kappa
    diag += n
    return HamiltonianMatrix(band=band, cutoff=cutoff, parity=parity)


def mean_photon_operator(cutoff: int, max_dim: int = DEFAULT_MAX_DIM) -> HamiltonianMatrix:
    """Diagonal photon-number operator a^dag a (x) 1 in the interleaved basis."""
    cutoff = _check_cutoff(cutoff, max_dim)
    band = np.zeros((1, 2 * (cutoff + 1)))
    band[0] = np.repeat(np.arange(cutoff + 1, dtype=float), 2)
    return HamiltonianMatrix(band=band, cutoff=cutoff)


def parity_signs(cutoff: int) -> np.ndarray:
    """Diagonal of the parity operator s (-1)^n in the interleaved ordering."""
    n = np.arange(cutoff + 1)
    signs = np.empty(2 * (cutoff + 1))
    signs[0::2] = -((-1.0) ** n)
    signs[1::2] = (-1.0) ** n
    return signs

"""Dense reference for the truncated Hamiltonian, independent of rabistark.

The full spin (x) Fock matrix is built in spin-major order: index
b (cutoff + 1) + n holds |n, s> with s = +1 for block b = 0 and s = -1 for
b = 1 (sigma_z = diag(1, -1)).  It is assembled from Kronecker products of
the ladder operator and the Pauli matrices and solved with
numpy.linalg.eigh, so it shares neither the ordering, the construction nor
the eigensolver of the package's parity-sector chains.  params needs only
the attributes omega, delta, g, effective_u and effective_kappa.
"""

import numpy as np


def hamiltonian(params, cutoff: int) -> np.ndarray:
    """Dense omega a^dag a + delta/2 sigma_z + g sigma_x (a + a^dag)
    + u/2 sigma_z a^dag a + kappa (a^dag a)^2 over n = 0..cutoff."""
    dim = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    num = a.T @ a
    eye2, eye = np.eye(2), np.eye(dim)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (
        params.omega * np.kron(eye2, num)
        + params.delta / 2 * np.kron(sz, eye)
        + params.g * np.kron(sx, a + a.T)
        + params.effective_u / 2 * np.kron(sz, num)
        + params.effective_kappa * np.kron(eye2, num @ num)
    )


def photon_numbers(cutoff: int) -> np.ndarray:
    """Diagonal of a^dag a (x) 1 in the spin-major ordering."""
    return np.tile(np.arange(cutoff + 1.0), 2)


def parities(cutoff: int) -> np.ndarray:
    """Diagonal of the parity operator s (-1)^n in the spin-major ordering."""
    signs = (-1.0) ** np.arange(cutoff + 1)
    return np.concatenate((signs, -signs))


def lowest(params, cutoff: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues and eigenvectors (columns) of the full matrix."""
    energies, vectors = np.linalg.eigh(hamiltonian(params, cutoff))
    return energies[:k], vectors[:, :k]

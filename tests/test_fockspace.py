"""Hamiltonian builders against closed-form entries, an independent
Kronecker-product construction, and the parity symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabistark.eigen import eigen_symmetric, spectrum_at_cutoff
from rabistark.fockspace import (
    ModelParams,
    Variant,
    basis_index,
    basis_state,
    build_hamiltonian,
    mean_photon_operator,
    parity_signs,
)

couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def kron_oracle(params: ModelParams, cutoff: int) -> np.ndarray:
    """Independent spin-major dense construction."""
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


def test_basis_indexing_roundtrip():
    assert basis_index(0, -1) == 0
    assert basis_index(0, +1) == 1
    assert basis_index(3, -1) == 6
    for i in range(20):
        n, s = basis_state(i)
        assert basis_index(n, s) == i


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=-1.0)
    with pytest.raises(ValueError):
        ModelParams(g=-0.1)
    with pytest.raises(ValueError):
        ModelParams(kappa=-0.5)


@pytest.mark.parametrize("name", ["omega", "delta", "g", "u", "kappa"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite_couplings(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelParams(**{name: value})


def test_variant_masks_couplings():
    p = ModelParams(g=0.2, u=1.5, kappa=0.3, variant=Variant.RABI)
    assert p.effective_u == 0.0 and p.effective_kappa == 0.0
    p = ModelParams(g=0.2, u=1.5, kappa=0.3, variant=Variant.RABI_STARK)
    assert p.effective_u == 1.5 and p.effective_kappa == 0.0
    p = ModelParams(g=0.2, u=1.5, kappa=0.3, variant=Variant.COMPLETED)
    assert p.effective_u == 1.5 and p.effective_kappa == 0.3


def test_diagonal_entry_closed_form():
    # stark diagonal at |2, down>: omega n - (delta/2 + u n/2) + kappa n^2
    p = ModelParams(omega=1.0, delta=1.0, g=0.0, u=0.5, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 8)
    assert h.entry(basis_index(2, -1), basis_index(2, -1)) == pytest.approx(
        2.0 - (0.5 + 0.5), abs=0.0
    )


def test_coupling_entry_is_g_sqrt_np1():
    p = ModelParams(delta=0.7, g=0.31, u=1.1, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 8)
    assert h.entry(basis_index(1, +1), basis_index(0, -1)) == 0.31
    assert h.entry(basis_index(3, -1), basis_index(2, +1)) == pytest.approx(
        0.31 * np.sqrt(3.0), rel=1e-15
    )


def test_bandwidth_and_exact_symmetry():
    p = ModelParams(delta=1.0, g=0.4, u=0.9, kappa=0.05, variant=Variant.COMPLETED)
    h = build_hamiltonian(p, 16)
    assert h.bandwidth == 3
    dense = h.to_dense()
    assert np.array_equal(dense, dense.T)


def test_independent_construction_oracle():
    # lowest eigenvalue against the spin-major Kronecker construction
    p = ModelParams(delta=1.0, g=0.3, u=1.0, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 64)
    ours = eigen_symmetric(h, 1).energies[0]
    theirs = np.linalg.eigvalsh(kron_oracle(p, 64))[0]
    assert ours == pytest.approx(theirs, abs=1e-10)


@given(delta=couplings, g=couplings, u=couplings, kappa=couplings)
@settings(max_examples=50, deadline=None)
def test_variant_reduction_chain_entry_identical(delta, g, u, kappa):
    rabi = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=Variant.RABI), 12)
    stark0 = build_hamiltonian(ModelParams(delta=delta, g=g, u=0.0, kappa=kappa, variant=Variant.RABI_STARK), 12)
    assert np.array_equal(rabi.band, stark0.band)

    stark = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=Variant.RABI_STARK), 12)
    completed0 = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=0.0, variant=Variant.COMPLETED), 12)
    assert np.array_equal(stark.band, completed0.band)


def test_parity_commutator_exactly_zero():
    p = ModelParams(delta=1.3, g=0.45, u=1.7, kappa=0.02, variant=Variant.COMPLETED)
    h = build_hamiltonian(p, 20).to_dense()
    par = np.diag(parity_signs(20))
    assert np.max(np.abs(h @ par - par @ h)) == 0.0


@given(
    delta=couplings,
    g=st.floats(min_value=0.01, max_value=1.5),
    u=couplings,
    kappa=st.floats(min_value=0.0, max_value=0.5),
    variant=st.sampled_from(list(Variant)),
    cutoff=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_parity_sectors_reassemble_full_spectrum(delta, g, u, kappa, variant, cutoff):
    # the sector path against the interleaved full matrix, levels and the
    # ground state's photon number
    p = ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)
    h = build_hamiltonian(p, cutoff)
    k = min(12, h.dim)
    full = eigen_symmetric(h, k, want_vectors=True)
    merged = spectrum_at_cutoff(p, cutoff, k).energies
    assert np.all(np.abs(merged - full.energies) <= 1e-12 * (1.0 + np.abs(full.energies)))

    if full.energies[1] - full.energies[0] < 1e-3:
        return  # the ground vector is only well defined for a simple ground level
    sectors = [
        eigen_symmetric(build_hamiltonian(p, cutoff, parity=s), 1, want_vectors=True)
        for s in (+1, -1)
    ]
    ground = min(sectors, key=lambda spec: spec.energies[0])
    nbar_sector = ground.vectors[:, 0] ** 2 @ np.arange(cutoff + 1)
    nbar_full = full.vectors[:, 0] ** 2 @ mean_photon_operator(cutoff).diagonal()
    assert nbar_sector == pytest.approx(nbar_full, rel=1e-8, abs=1e-10)


def test_parity_sector_is_tridiagonal():
    p = ModelParams(delta=1.0, g=0.3, u=0.5, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 10, parity=+1)
    assert h.bandwidth == 1
    assert h.dim == 11


def test_mean_photon_operator_entries_and_trace():
    op = mean_photon_operator(12)
    assert op.entry(basis_index(0, -1), basis_index(0, -1)) == 0.0
    assert op.entry(basis_index(5, +1), basis_index(5, +1)) == 5.0
    assert op.diagonal().sum() == 12 * 13  # 2 * sum_{n<=12} n


def test_dimension_overflow_guard():
    p = ModelParams()
    with pytest.raises(ValueError):
        build_hamiltonian(p, 10, max_dim=20)
    with pytest.raises(ValueError):
        build_hamiltonian(p, 0)

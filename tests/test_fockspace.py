"""Parity-sector chains against closed-form entries and the independent
dense Kronecker-product construction of tests/oracle.py, and the parity
symmetry."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from rabistark.eigen import eigen_symmetric, spectrum_at_cutoff
from rabistark.fockspace import ModelParams, Variant, build_chains, build_hamiltonian

couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "rabistark" for name in imported)


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
    # stark diagonal at |2, down>, site 2 of the parity -1 chain:
    # omega n - (delta/2 + u n/2) + kappa n^2
    p = ModelParams(omega=1.0, delta=1.0, g=0.0, u=0.5, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 8, parity=-1)
    assert h.band[0, 2] == pytest.approx(2.0 - (0.5 + 0.5), abs=0.0)


def test_coupling_entry_is_g_sqrt_np1():
    p = ModelParams(delta=0.7, g=0.31, u=1.1, variant=Variant.RABI_STARK)
    # <1, up| H |0, down> in the parity -1 chain, <3, down| H |2, up> in the +1 chain
    assert build_hamiltonian(p, 8, parity=-1).band[1, 0] == 0.31
    assert build_hamiltonian(p, 8, parity=+1).band[1, 2] == pytest.approx(
        0.31 * np.sqrt(3.0), rel=1e-15
    )


def test_bandwidth_and_exact_symmetry():
    # the oracle's full matrix is exactly symmetric (eigh reads one
    # triangle); each chain is one diagonal and one off-diagonal row whose
    # slot past the chain's end is zero
    p = ModelParams(delta=1.0, g=0.4, u=0.9, kappa=0.05, variant=Variant.COMPLETED)
    dense = oracle.hamiltonian(p, 16)
    assert np.array_equal(dense, dense.T)
    for parity in (+1, -1):
        h = build_hamiltonian(p, 16, parity=parity)
        assert h.band.shape == (2, 17) and h.band[1, -1] == 0.0


def test_independent_construction_oracle():
    # lowest eigenvalue against the spin-major Kronecker construction
    p = ModelParams(delta=1.0, g=0.3, u=1.0, variant=Variant.RABI_STARK)
    ours = spectrum_at_cutoff(p, 64, 1).energies[0]
    theirs = oracle.lowest(p, 64, 1)[0][0]
    assert ours == pytest.approx(theirs, abs=1e-10)


@given(delta=couplings, g=couplings, u=couplings, kappa=couplings)
@settings(max_examples=50, deadline=None)
def test_variant_reduction_chain_entry_identical(delta, g, u, kappa):
    for parity in (+1, -1):
        rabi = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=Variant.RABI), 12, parity)
        stark0 = build_hamiltonian(ModelParams(delta=delta, g=g, u=0.0, kappa=kappa, variant=Variant.RABI_STARK), 12, parity)
        assert np.array_equal(rabi.band, stark0.band)

        stark = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=Variant.RABI_STARK), 12, parity)
        completed0 = build_hamiltonian(ModelParams(delta=delta, g=g, u=u, kappa=0.0, variant=Variant.COMPLETED), 12, parity)
        assert np.array_equal(stark.band, completed0.band)


def reference_chain(p, cutoff, parity):
    """Diagonal and off-diagonal of one chain, built alone in the formula's
    operation order: u n, / 2, + delta/2, the sign s_n, + omega n,
    + kappa n^2; g sqrt(n + 1) off the diagonal."""
    n = np.arange(cutoff + 1, dtype=float)
    diag = p.effective_u * n
    diag /= 2
    diag += p.delta / 2
    diag[(1 if parity > 0 else 0)::2] *= -1.0
    diag += p.omega * n
    diag += n * n * p.effective_kappa
    off = np.zeros(cutoff + 1)
    off[:cutoff] = np.sqrt(n[1:]) * p.g
    return diag, off


def either_or_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@given(
    omega=st.floats(min_value=0.05, max_value=5.0),
    delta=either_or_zero(st.floats(min_value=0.0, max_value=1e3)),
    g=either_or_zero(couplings),
    u=either_or_zero(st.floats(min_value=-5.0, max_value=5.0)),
    kappa=either_or_zero(st.floats(min_value=0.0, max_value=1.0)),
    variant=st.sampled_from(list(Variant)),
    cutoff=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_chain_pair_bit_identical_to_single_chains(omega, delta, g, u, kappa, variant, cutoff):
    # both chains come from one three-row array and share its off-diagonal
    p = ModelParams(omega=omega, delta=delta, g=g, u=u, kappa=kappa, variant=variant)
    pair = build_chains(p, cutoff)
    assert np.shares_memory(pair[0].band, pair[1].band)
    for h, parity in zip(pair, (+1, -1)):
        assert h.parity == parity and h.cutoff == cutoff
        assert h.band.shape == (2, cutoff + 1) and h.band[1, cutoff] == 0.0
        diag, off = reference_chain(p, cutoff, parity)
        assert np.array_equal(h.band[0], diag) and np.array_equal(h.band[1], off)
        assert np.array_equal(build_hamiltonian(p, cutoff, parity).band, h.band)


def test_parity_commutator_exactly_zero():
    # the full matrix commutes with the parity s (-1)^n exactly, so it
    # splits into the two sectors the package's chains solve
    p = ModelParams(delta=1.3, g=0.45, u=1.7, kappa=0.02, variant=Variant.COMPLETED)
    h = oracle.hamiltonian(p, 20)
    par = np.diag(oracle.parities(20))
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
    # the sector path against the oracle's full matrix, levels and the
    # ground state's photon number
    p = ModelParams(delta=delta, g=g, u=u, kappa=kappa, variant=variant)
    k = min(12, 2 * (cutoff + 1))
    energies, vectors = oracle.lowest(p, cutoff, k)
    merged = spectrum_at_cutoff(p, cutoff, k).energies
    assert np.all(np.abs(merged - energies) <= 1e-12 * (1.0 + np.abs(energies)))

    if energies[1] - energies[0] < 1e-3:
        return  # the ground vector is only well defined for a simple ground level
    sectors = [
        eigen_symmetric(build_hamiltonian(p, cutoff, parity=s), 1, want_vectors=True)
        for s in (+1, -1)
    ]
    ground = min(sectors, key=lambda spec: spec.energies[0])
    nbar_sector = ground.vectors[:, 0] ** 2 @ np.arange(cutoff + 1)
    nbar_full = vectors[:, 0] ** 2 @ oracle.photon_numbers(cutoff)
    assert nbar_sector == pytest.approx(nbar_full, rel=1e-8, abs=1e-10)


def test_parity_sector_is_tridiagonal():
    p = ModelParams(delta=1.0, g=0.3, u=0.5, variant=Variant.RABI_STARK)
    h = build_hamiltonian(p, 10, parity=+1)
    assert h.band.shape == (2, 11)
    assert h.dim == 11
    for parity in (0, 2, None):
        with pytest.raises(ValueError, match="parity must be"):
            build_hamiltonian(p, 10, parity=parity)


def test_dimension_overflow_guard():
    p = ModelParams()
    with pytest.raises(ValueError):
        build_hamiltonian(p, 10, parity=+1, max_dim=20)
    with pytest.raises(ValueError):
        build_hamiltonian(p, 0, parity=+1)

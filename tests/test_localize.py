"""Degeneracy classes and localizing bases of symmetric operators."""

import numpy as np
import pytest

from ethlab.errors import DimensionError, LocalizationError, ValidationError
from ethlab.hamiltonians import haar_orthogonal
from ethlab.localize import localizability, localizing_basis
from oracles import embed

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULIS = {"x": SX, "y": SY, "z": SZ}


def test_single_site_paulis_are_qubit_local():
    sites = 4
    for name, op in PAULIS.items():
        for site in range(sites):
            vals = np.linalg.eigvalsh(embed({site: op}, sites))
            report = localizability(vals)
            assert report.local_dim == 2, (name, site)
            assert report.multiplicity_gcd == 2 ** (sites - 1)
            assert [m for _, m in report.classes] == [8, 8]


def test_two_site_pauli_products_are_qubit_local():
    sites = 4
    for a in "xyz":
        for b in "xyz":
            vals = np.linalg.eigvalsh(
                embed({0: PAULIS[a], 2: PAULIS[b]}, sites)
            )
            report = localizability(vals)
            assert report.local_dim == 2, (a, b)


def test_nondegenerate_spectrum_has_no_locality():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1.0, 1.0, 32)
    report = localizability(vals)
    assert report.multiplicity_gcd == 1
    assert report.local_dim == 32
    assert report.total_dim == 32


def test_multiplicity_gcd_oracle():
    # Multiplicities (2, 4, 6) share gcd 2: a 6-dimensional local factor.
    vals = np.concatenate([np.full(2, -1.0), np.full(4, 0.25), np.full(6, 2.0)])
    report = localizability(vals)
    assert [m for _, m in report.classes] == [2, 4, 6]
    assert report.multiplicity_gcd == 2
    assert report.local_dim == 6


def test_clustering_tolerance():
    vals = np.array([0.0, 1e-12, 1.0, 1.0 + 1e-12])
    assert localizability(vals, tol=1e-9).local_dim == 2
    assert localizability(vals, tol=1e-14).local_dim == 4
    # Fully degenerate spectrum: one class, local dimension 1.
    assert localizability(np.full(8, 3.0)).local_dim == 1


def test_localizability_validation():
    with pytest.raises(DimensionError):
        localizability(np.array([]))
    with pytest.raises(ValidationError):
        localizability(np.array([0.0, np.nan]))
    with pytest.raises(ValidationError):
        localizability(np.array([0.0, 1.0]), tol=-1.0)


def _roundtrip_error(op):
    basis, block = localizing_basis(op)
    copies = op.shape[0] // block.shape[0]
    recon = basis @ np.kron(block, np.eye(copies)) @ basis.T
    return block, float(np.abs(recon - op).max())


def test_localizing_basis_roundtrip_pauli_products():
    sites = 4
    cases = [
        embed({1: SX}, sites).real,
        embed({0: SZ, 3: SZ}, sites).real,
        embed({1: SX, 2: SZ}, sites).real,
        embed({0: SY, 1: SY}, sites).real,  # yy product is real symmetric
    ]
    for op in cases:
        block, err = _roundtrip_error(op)
        assert block.shape == (2, 2)
        assert err <= 1e-9


def test_localizing_basis_roundtrip_hidden_rotation():
    # A rotated kron(diag(1, 2, 5), identity) must be recognized exactly.
    rng = np.random.default_rng(6)
    block_in = np.diag([1.0, 2.0, 5.0])
    q = haar_orthogonal(12, rng)
    op = q @ np.kron(block_in, np.eye(4)) @ q.T
    op = 0.5 * (op + op.T)
    block, err = _roundtrip_error(op)
    assert np.allclose(np.diag(block), [1.0, 2.0, 5.0], atol=1e-10)
    assert err <= 1e-9


def test_localizing_basis_nondegenerate_identity_block():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 6))
    op = 0.5 * (g + g.T)
    basis, block = localizing_basis(op)
    assert block.shape == (6, 6)
    assert np.abs(basis @ block @ basis.T - op).max() <= 1e-12


def test_localizing_basis_block_dim_override():
    op = embed({0: SZ}, 3).real
    # Explicit block_dim consistent with the degeneracy structure.
    basis, block = localizing_basis(op, block_dim=4)
    assert block.shape == (4, 4)
    copies = 2
    recon = basis @ np.kron(block, np.eye(copies)) @ basis.T
    assert np.abs(recon - op).max() <= 1e-9
    with pytest.raises(LocalizationError):
        localizing_basis(op, block_dim=3)
    with pytest.raises(LocalizationError):
        # Multiplicities (4, 4) cannot tile into 8 copies.
        localizing_basis(op, block_dim=1)

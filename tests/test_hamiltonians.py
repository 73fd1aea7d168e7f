"""Chain construction, bipartite assembly, random-matrix sampling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ethlab import hamiltonians
from ethlab.errors import DimensionError, ValidationError
from ethlab.experiments import BinningParams, OperatorEnsembleSpec
from ethlab.figures import build_system
from ethlab.hamiltonians import (
    MAX_CHAIN_SITES,
    RandomSystemParams,
    SpinChainParams,
    build_random_system,
    build_spin_chain,
    decompose_chain,
    haar_orthogonal,
    make_bipartite,
    pauli,
    sample_goe,
)
from ethlab.io import RunConfig, cached_spectrum, config_cache_key
from ethlab.linalg import eig_sym, eigvals_sym
from oracles import embed

# Ground-state energy of the 12-site default chain, frozen from the dense
# diagonalization (independent builds agree to every printed digit).
E_MIN_12 = -15.7082937346734
SPECTRAL_RANGE_12 = 35.65407177371265


def _chain_by_hand(params):
    # Independent construction from explicit Kronecker products.
    n = params.sites
    h = np.zeros((2**n, 2**n))
    for r in range(n):
        h += params.field_x * embed({r: pauli("x")}, n)
        h += params.field_z * embed({r: pauli("z")}, n)
    for r in range(n - 1):
        h += params.coupling * embed({r: pauli("z"), r + 1: pauli("z")}, n)
    return h


def _fragments(params, cut):
    # The two open chains H_A, H_B that a cut after site ``cut`` leaves.
    sizes = (cut, params.sites - cut)
    return [build_spin_chain(replace(params, sites=n)) for n in sizes]


def _reassembled(params, cut):
    # kron(H_A, 1) + kron(1, H_B) + J sz_cut sz_{cut+1}, the bond built from
    # site operators on each fragment.
    h_a, h_b = _fragments(params, cut)
    bond = params.coupling * np.kron(
        embed({cut - 1: pauli("z")}, cut),
        embed({0: pauli("z")}, params.sites - cut),
    )
    h_0 = np.kron(h_a, np.eye(h_b.shape[0])) + np.kron(np.eye(h_a.shape[0]), h_b)
    return h_0 + bond


def _assert_fragment_spectra(system, params, cut):
    # The subsystem eigenvalues are bitwise the fragment chains' eigenvalue-
    # only solve, and eig_sym's to roundoff; the eigenvectors, solved on
    # first read (which may have come before: the fixtures are shared), are
    # bitwise eig_sym's and then kept.
    spectra = (system.spectrum_a, system.spectrum_b)
    for spectrum, h in zip(spectra, _fragments(params, cut)):
        want = eig_sym(h)
        assert np.array_equal(spectrum.eigenvalues, eigvals_sym(h))
        gap = np.abs(spectrum.eigenvalues - want.eigenvalues).max()
        assert gap <= 1e-12 * want.spectral_range
        assert np.array_equal(spectrum.eigenvectors, want.eigenvectors)
        assert spectrum.eigenvectors is spectrum.eigenvectors


@pytest.fixture
def diagonalize_args(monkeypatch):
    """``(h_a, h_b, h_i)`` of every total diagonalization the random builder makes."""
    calls = []
    real = hamiltonians._diagonalize

    def spy(h_a, h_b, h_i):
        calls.append((h_a, h_b, h_i))
        return real(h_a, h_b, h_i)

    monkeypatch.setattr(hamiltonians, "_diagonalize", spy)
    return calls


def test_chain_matches_kronecker_construction():
    for sites in (1, 2, 3, 6):
        params = SpinChainParams(sites, coupling=0.9, field_x=1.3, field_z=-0.4)
        # Summation order differs between the two constructions, so demand
        # agreement to a few ulps rather than byte equality.
        diff = np.abs(build_spin_chain(params) - _chain_by_hand(params)).max()
        assert diff < 1e-13


def test_chain_two_site_analytic_entries():
    # J sz sz + hx (sx1 + sx2) + hz (sz1 + sz2) in the computational basis.
    h = build_spin_chain(SpinChainParams(2, coupling=2.0, field_x=3.0, field_z=5.0))
    expected = np.array(
        [
            [2.0 + 10.0, 3.0, 3.0, 0.0],
            [3.0, -2.0, 0.0, 3.0],
            [3.0, 0.0, -2.0, 3.0],
            [0.0, 3.0, 3.0, 2.0 - 10.0],
        ]
    )
    assert np.array_equal(h, expected)


def test_chain_is_exactly_symmetric_and_finite():
    # decompose_chain solves the fragments and the total without eig_sym's
    # symmetry and finiteness check: every chain it builds must pass it
    # exactly.
    for sites in range(1, 13):
        h = build_spin_chain(SpinChainParams(sites))
        assert np.array_equal(h, h.T)
        assert np.isfinite(h).all()


def test_chain_params_validation():
    with pytest.raises(ValidationError):
        SpinChainParams(0)
    with pytest.raises(ValidationError):
        SpinChainParams(20)
    with pytest.raises(ValidationError):
        SpinChainParams(4, field_x=np.inf)
    with pytest.raises(ValidationError):
        SpinChainParams(MAX_CHAIN_SITES + 1)


def test_pauli_rejects_unsupported_labels():
    with pytest.raises(ValidationError):
        pauli("y")


def test_chain12_frozen_spectrum_endpoints(chain12):
    e = chain12.spectrum_t.eigenvalues
    assert e[0] == pytest.approx(E_MIN_12, abs=1e-9)
    assert chain12.spectrum_t.spectral_range == pytest.approx(
        SPECTRAL_RANGE_12, abs=1e-9
    )


def test_reassembly_identity_chain(chain12, chain10):
    # The subsystem spectra are those of the fragment chains, and
    # kron(H_A, 1) + kron(1, H_B) + H_I reproduces the full chain to machine
    # precision (both fixtures are cut after site 3).
    for system, sites in ((chain12, 12), (chain10, 10)):
        params = SpinChainParams(sites)
        _assert_fragment_spectra(system, params, 3)
        full = build_spin_chain(params)
        total = _reassembled(params, 3)
        assert np.abs(total - full).max() <= 1e-12 * np.abs(full).max()


def test_chain_total_spectrum_is_cut_independent():
    # The cut only splits the chain: at couplings whose kron assembly differs
    # from the full chain at roundoff, every cut still gets the same spectrum.
    params = SpinChainParams(8, coupling=0.7, field_x=0.3, field_z=-1.3)
    ref = decompose_chain(params, 1).spectrum_t
    for cut in range(2, params.sites):
        spec = decompose_chain(params, cut).spectrum_t
        assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
        assert np.array_equal(spec.eigenvectors, ref.eigenvectors)


def test_decompose_chain_fragments_are_chains():
    # Each fragment of the cut chain is itself an open chain at the same
    # couplings; adding the single cut bond gives back the full chain.
    params = SpinChainParams(6)
    system = decompose_chain(params, 2)
    _assert_fragment_spectra(system, params, 2)
    assert np.array_equal(_reassembled(params, 2), build_spin_chain(params))


def test_decompose_chain_cut_validation():
    with pytest.raises(ValidationError):
        decompose_chain(SpinChainParams(6), 0)
    with pytest.raises(ValidationError):
        decompose_chain(SpinChainParams(6), 6)


def test_make_bipartite_validation():
    h2 = np.eye(2)
    with pytest.raises(DimensionError):
        make_bipartite(h2, h2, np.eye(3))
    with pytest.raises(ValidationError):
        make_bipartite(np.array([[0.0, 1.0], [0.5, 0.0]]), h2, np.eye(4))


def test_sum_energies_outer_sum():
    system = decompose_chain(SpinChainParams(5), 2)
    sums = system.sum_energies()
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    assert sums.shape == (4, 8)
    assert np.array_equal(sums, np.add.outer(e_a, e_b))


def test_goe_symmetry_and_variances():
    rng = np.random.default_rng(2)
    dim = 400
    g = sample_goe(dim, rng)
    assert np.array_equal(g, g.T)
    diag_var = g[np.diag_indices(dim)].var()
    off = g[np.triu_indices(dim, k=1)]
    # Diagonal variance 1, off-diagonal 1/2, up to sampling noise.
    assert diag_var == pytest.approx(1.0, rel=0.2)
    assert off.var() == pytest.approx(0.5, rel=0.05)


def test_goe_determinism_and_validation():
    a = sample_goe(16, np.random.default_rng(9))
    b = sample_goe(16, np.random.default_rng(9))
    assert np.array_equal(a, b)
    with pytest.raises(DimensionError):
        sample_goe(0, np.random.default_rng(0))


def test_haar_orthogonal_properties():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 7, 40):
        q = haar_orthogonal(dim, rng)
        assert np.abs(q.T @ q - np.eye(dim)).max() < 1e-12
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12


def test_haar_orthogonal_column_statistics():
    # Entries of a Haar column have mean square 1/dim.
    rng = np.random.default_rng(8)
    dim, draws = 24, 200
    acc = np.zeros(dim)
    for _ in range(draws):
        acc += haar_orthogonal(dim, rng)[:, 0] ** 2
    assert np.allclose(acc / draws, 1.0 / dim, atol=0.01)


def test_random_system_interaction_fraction(diagonalize_args):
    params = RandomSystemParams(
        sites_a=2, sites_b=5, sites_i=3, interaction_fraction=0.05, seed=3
    )
    build_random_system(params)
    [(h_a, h_b, h_i)] = diagonalize_args
    h_0 = np.kron(h_a, np.eye(h_b.shape[0])) + np.kron(np.eye(h_a.shape[0]), h_b)
    ratio = np.linalg.norm(h_i, 2) / np.linalg.norm(h_0, 2)
    assert ratio == pytest.approx(0.05, rel=1e-10)


def test_random_system_determinism_and_a_scale(diagonalize_args):
    params = RandomSystemParams(
        sites_a=2, sites_b=4, sites_i=2, interaction_fraction=0.02, seed=11
    )
    s1 = build_random_system(params)
    s2 = build_random_system(params)
    assert np.array_equal(diagonalize_args[0][2], diagonalize_args[1][2])
    assert np.array_equal(s1.spectrum_t.eigenvalues, s2.spectrum_t.eigenvalues)
    assert np.array_equal(s1.spectrum_t.eigenvectors, s2.spectrum_t.eigenvectors)
    wide = build_random_system(
        RandomSystemParams(
            sites_a=2,
            sites_b=4,
            sites_i=2,
            interaction_fraction=0.02,
            seed=11,
            a_scale=3.0,
        )
    )
    assert wide.spectrum_a.spectral_range == pytest.approx(
        3.0 * s1.spectrum_a.spectral_range, rel=1e-12
    )


def test_random_system_warm_build_equals_cold(diagonalize_args):
    # A cached total spectrum skips the interaction: the warm build neither
    # draws nor builds it, and still reproduces every spectrum and
    # <alpha|H_I^2|alpha> bit for bit.
    params = RandomSystemParams(
        sites_a=2, sites_b=5, sites_i=4, interaction_fraction=0.05, seed=5
    )
    cold = build_random_system(params)
    warm = build_random_system(params, spectrum_t=cold.spectrum_t)
    assert len(diagonalize_args) == 1
    for name in ("spectrum_a", "spectrum_b", "spectrum_t"):
        a, b = getattr(cold, name), getattr(warm, name)
        assert np.array_equal(a.eigenvalues, b.eigenvalues), name
        assert np.array_equal(a.eigenvectors, b.eigenvectors), name
    assert np.array_equal(cold.interaction_sq, warm.interaction_sq)


def test_random_system_cache_hit_never_computes(
    diagonalize_args, tmp_path, monkeypatch
):
    # build_system hands the random builder a fetch(compute) over the cache,
    # as it does the chain: a miss computes once, a hit never calls compute
    # (so the interaction is neither drawn nor diagonalized) and equals the
    # cold build bit for bit.
    params = RandomSystemParams(
        sites_a=2, sites_b=5, sites_i=4, interaction_fraction=0.05, seed=5
    )
    draws = []
    real = hamiltonians._random_interaction

    def spy(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(hamiltonians, "_random_interaction", spy)
    config = RunConfig(
        chain=None, cut=0, random=params, ensemble=OperatorEnsembleSpec(),
        binning=BinningParams(), predict_kinds=(),
    )
    cold = build_system(config, cache_dir=tmp_path)
    assert len(diagonalize_args) == 1
    computes = []

    def fetch(compute):
        computes.append(compute)
        return cached_spectrum(config_cache_key(config), tmp_path, "forbid", compute)

    for warm in (build_system(config, cache_dir=tmp_path, policy="forbid"),
                 build_random_system(params, spectrum_t=fetch)):
        for name in ("spectrum_a", "spectrum_b", "spectrum_t"):
            a, b = getattr(cold, name), getattr(warm, name)
            assert np.array_equal(a.eigenvalues, b.eigenvalues), name
            assert np.array_equal(a.eigenvectors, b.eigenvectors), name
        assert np.array_equal(cold.interaction_sq, warm.interaction_sq)
    assert len(computes) == 1
    assert len(diagonalize_args) == len(draws) == 1


def test_random_system_cold_build_is_bitwise_the_plain_sum(diagonalize_args):
    # H_T is summed in place; the oracle diagonalizes the plain expression
    # of the same draw, and <alpha|H_I^2|alpha> follows from its spectrum.
    params = RandomSystemParams(
        sites_a=2, sites_b=5, sites_i=3, interaction_fraction=0.05, seed=3
    )
    system = build_random_system(params)
    [(h_a, h_b, h_i)] = diagonalize_args
    ident_a = np.eye(h_a.shape[0])
    ident_b = np.eye(h_b.shape[0])
    want = eig_sym(np.kron(h_a, ident_b) + np.kron(ident_a, h_b) + h_i)
    assert np.array_equal(system.spectrum_t.eigenvalues, want.eigenvalues)
    assert np.array_equal(system.spectrum_t.eigenvectors, want.eigenvectors)
    oracle = hamiltonians._split_system(lambda: h_a, lambda: h_b, want)
    assert np.array_equal(system.interaction_sq, oracle.interaction_sq)
    # The subsystems, rebuilt from their sorted diagonals, give the diagonal
    # back as eigenvalues and the identity as eigenvectors, bit for bit.
    for spectrum, h in ((system.spectrum_a, h_a), (system.spectrum_b, h_b)):
        assert np.array_equal(spectrum.eigenvalues, np.diagonal(h))
        assert np.array_equal(spectrum.eigenvectors, np.eye(h.shape[0]))


def test_random_system_cold_build_array_peak():
    # While eig_sym runs, a cold build holds H_T and no dense rotation or
    # H_I besides it, so its traced array peak (about four dense 512 x 512
    # arrays) stays under five; each array kept alive would add one.
    params = RandomSystemParams(
        sites_a=2, sites_b=7, sites_i=4, interaction_fraction=0.05, seed=1
    )
    tracemalloc.start()
    try:
        build_random_system(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * 512**2


def test_random_system_validation():
    with pytest.raises(ValidationError):
        RandomSystemParams(
            sites_a=0, sites_b=4, sites_i=2, interaction_fraction=0.1, seed=0
        )
    with pytest.raises(ValidationError):
        RandomSystemParams(
            sites_a=2, sites_b=4, sites_i=2, interaction_fraction=-0.5, seed=0
        )
    with pytest.raises(ValidationError):
        RandomSystemParams(
            sites_a=2, sites_b=2, sites_i=5, interaction_fraction=0.1, seed=0
        )

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
from ethlab.linalg import Spectrum, eig_sym
from oracles import dense_elements, embed

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
    # Each subsystem spectrum is bitwise the sector solve of its fragment
    # chain, eigenvalues and eigenvectors (solved on first read, which may
    # have come before: the fixtures are shared, and then kept), and the
    # dense eig_sym's within roundoff: the eigenvalues to 1e-13 of the
    # range, each eigenvector up to its sign (s and Rs tie in magnitude, so
    # the dense solve's sign rule can pick either).
    spectra = (system.spectrum_a, system.spectrum_b)
    for spectrum, h in zip(spectra, _fragments(params, cut)):
        n = int(np.log2(h.shape[0]))
        got = hamiltonians._chain_spectrum(replace(params, sites=n))
        assert np.array_equal(spectrum.eigenvalues, got.eigenvalues)
        assert np.array_equal(spectrum.eigenvectors, got.eigenvectors)
        assert spectrum.eigenvectors is spectrum.eigenvectors
        want = eig_sym(h)
        gap = np.abs(spectrum.eigenvalues - want.eigenvalues).max()
        assert gap <= 1e-13 * want.spectral_range
        overlaps = np.einsum("ij,ij->i", spectrum.rows, want.rows)
        assert np.all(np.abs(overlaps) >= 1.0 - 1e-12)


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
    # The dense chain, the tests' oracle for every sector solve, passes
    # eig_sym's symmetry and finiteness check exactly.  (The sector blocks,
    # which decompose_chain solves unchecked, are checked in the
    # sector-solve test.)
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


def test_fragment_resolve_is_bitwise_its_first_solve(monkeypatch):
    # A subsystem's eigenvectors come from its own solver run again on
    # first read: that run's eigenvalues are bitwise the ones the spectrum
    # took from the first, and its eigenvectors are the ones kept.  For a
    # chain the solver is the fragment's sector solve, for make_bipartite
    # eig_sym of the piece it was given.
    chain, dense = [], []
    real_chain, real_eig = hamiltonians._chain_spectrum, hamiltonians.eig_sym

    def chain_spy(params):
        chain.append(real_chain(params))
        return chain[-1]

    def eig_spy(matrix, **kwargs):
        dense.append(real_eig(matrix, **kwargs))
        return dense[-1]

    monkeypatch.setattr(hamiltonians, "_chain_spectrum", chain_spy)
    monkeypatch.setattr(hamiltonians, "eig_sym", eig_spy)
    params = SpinChainParams(9, coupling=0.7, field_x=0.3, field_z=-1.3)
    total = real_eig(build_spin_chain(params))
    system = decompose_chain(params, 4, spectrum_t=total)
    assert [s.dim for s in chain] == [16, 32]
    dense.clear()  # the sector solves' own eig_sym calls
    rng = np.random.default_rng(3)
    h_a, h_b = sample_goe(4, rng), sample_goe(8, rng)
    pieces = make_bipartite(h_a, h_b, 0.1 * sample_goe(32, rng))
    assert [s.dim for s in dense] == [4, 8, 32]
    for spectrum, first, solves in (
        (system.spectrum_a, chain[0], chain),
        (system.spectrum_b, chain[1], chain),
        (pieces.spectrum_a, dense[0], dense),
        (pieces.spectrum_b, dense[1], dense),
    ):
        assert spectrum.eigenvalues is first.eigenvalues
        calls = len(solves)
        vectors = spectrum.eigenvectors
        assert len(solves) == calls + 1
        again = solves[-1]
        assert np.array_equal(again.eigenvalues, spectrum.eigenvalues)
        assert np.array_equal(vectors, again.eigenvectors)


def test_decompose_chain_cut_validation():
    with pytest.raises(ValidationError):
        decompose_chain(SpinChainParams(6), 0)
    with pytest.raises(ValidationError):
        decompose_chain(SpinChainParams(6), 6)


@pytest.mark.parametrize("coupling", [1.0, 0.7])
def test_decompose_chain_reads_no_total_eigenvector(coupling):
    # H_I = J sz sz squares to J^2 times the identity and every eigenvector
    # has unit norm, so <alpha|H_I^2|alpha> is J^2 without any eigenvector.
    params = SpinChainParams(6, coupling=coupling)

    def solve():
        raise AssertionError("the chain build read the total eigenvectors")

    eigenvalues = eig_sym(build_spin_chain(params)).eigenvalues
    system = decompose_chain(params, 2, spectrum_t=Spectrum(eigenvalues, solve=solve))
    assert system.interaction_sq.shape == eigenvalues.shape
    assert np.all(system.interaction_sq == coupling**2)


SECTOR_COUPLINGS = {
    "default": {},
    "tilted": dict(coupling=0.7, field_x=0.3, field_z=-1.3),
}


@pytest.mark.parametrize("couplings", SECTOR_COUPLINGS.values(), ids=SECTOR_COUPLINGS)
@pytest.mark.parametrize("sites", [1, 2, 3, 8, 9, 10, 11])
def test_chain_sector_solve_matches_the_full_solve(sites, couplings, monkeypatch):
    # The bit-reversal reflection R maps every chain onto itself bitwise, so
    # the per-sector solve is the full solve: eigenvalues to 1e-12 of the
    # range, orthonormal rows that are each an exact R eigenstate with the
    # sign rule on the full row, the even sector first on an exact tie,
    # exactly symmetric blocks, and the full solve's eigenspaces.  The full
    # solve mixes levels closer than its roundoff resolves (the tilted
    # chains have exact cross-sector degeneracies from 8 sites on), so
    # levels within 1e-5 of the range of each other are compared as one
    # eigenspace.
    params = SpinChainParams(sites, **couplings)
    h = build_spin_chain(params)
    rev = hamiltonians._bit_reversal(sites)
    assert np.array_equal(h[rev][:, rev], h)
    blocks = []
    real_eig = hamiltonians.eig_sym

    def eig(block, **kwargs):
        blocks.append(block.copy())
        return real_eig(block, **kwargs)

    monkeypatch.setattr(hamiltonians, "eig_sym", eig)
    got = hamiltonians._chain_spectrum(params)
    want = eig_sym(h)
    assert [b.shape[0] for b in blocks] == [
        n for n in ((2**sites + 2 ** ((sites + 1) // 2)) // 2,
                    (2**sites - 2 ** ((sites + 1) // 2)) // 2) if n
    ]
    assert all(np.array_equal(b, b.T) for b in blocks)
    scale = want.spectral_range
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * scale
    rows = got.rows
    assert np.abs(rows @ rows.T - np.eye(params.dim)).max() <= 1e-12
    mirrored = rows[:, rev]
    parity = np.sign(np.einsum("ij,ij->i", mirrored, rows))
    assert np.all(np.linalg.norm(mirrored - parity[:, None] * rows, axis=1) <= 1e-12)
    ties = np.flatnonzero(np.diff(got.eigenvalues) == 0)
    assert np.all(parity[ties] >= parity[ties + 1])
    lead = np.argmax(np.abs(rows), axis=1)
    assert np.all(rows[np.arange(params.dim), lead] > 0)
    levels = want.eigenvalues
    breaks = np.flatnonzero(np.diff(levels) > 1e-5 * scale) + 1
    for space in np.split(np.arange(params.dim), breaks):
        ours, theirs = rows[space], want.rows[space]
        assert np.abs(ours - (ours @ theirs.T) @ theirs).max() <= 1e-10


def test_chain_sector_solve_gives_the_full_solve_elements():
    # Dense |O_ab|^2 of the 10-site chain at cut 3, from the sector solve
    # (decompose_chain's own) and from the full solve passed in.
    params = SpinChainParams(10)
    got = decompose_chain(params, 3)
    want = decompose_chain(params, 3, spectrum_t=eig_sym(build_spin_chain(params)))
    g = np.random.default_rng(0).standard_normal((8, 8))
    for op_a in (embed({0: pauli("x")}, 3), embed({2: pauli("z")}, 3), g + g.T):
        ours = dense_elements(got, op_a) ** 2
        theirs = dense_elements(want, op_a) ** 2
        assert np.abs(ours - theirs).max() <= 1e-10 * np.abs(theirs).max()


def test_make_bipartite_validation():
    h2 = np.eye(2)
    with pytest.raises(DimensionError):
        make_bipartite(h2, h2, np.eye(3))
    with pytest.raises(ValidationError):
        make_bipartite(np.array([[0.0, 1.0], [0.5, 0.0]]), h2, np.eye(4))


def test_make_bipartite_rejects_a_bad_interaction_before_any_solve(monkeypatch):
    # eigh reads one triangle: with h_a = h_b = diag(0, 1), an h_i whose
    # only entry is above the diagonal would be dropped, giving [0, 1, 1, 2];
    # a NaN entry would give a NaN eigenvalue.
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        raise AssertionError("reached a solver")

    monkeypatch.setattr(np.linalg, "eigh", solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    h = np.diag([0.0, 1.0])
    upper = np.zeros((4, 4))
    upper[0, 3] = 0.5
    nan = np.zeros((4, 4))
    nan[1, 1] = np.nan
    for h_i, message in ((upper, "not symmetric"), (nan, "non-finite")):
        with pytest.raises(ValidationError, match=message):
            make_bipartite(h, h, h_i)
    assert calls == []


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


def test_random_system_determinism(diagonalize_args):
    params = RandomSystemParams(
        sites_a=2, sites_b=4, sites_i=2, interaction_fraction=0.02, seed=11
    )
    s1 = build_random_system(params)
    s2 = build_random_system(params)
    assert np.array_equal(diagonalize_args[0][2], diagonalize_args[1][2])
    assert np.array_equal(s1.spectrum_t.eigenvalues, s2.spectrum_t.eigenvalues)
    assert np.array_equal(s1.spectrum_t.eigenvectors, s2.spectrum_t.eigenvectors)


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
        system=params, cut=params.sites_a, ensemble=OperatorEnsembleSpec(),
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
    oracle = hamiltonians._split_system(
        system.spectrum_a, system.spectrum_b, want, h_a, h_b
    )
    assert np.array_equal(system.interaction_sq, oracle.interaction_sq)
    # The subsystem spectra are the sorted diagonals as drawn, with the
    # identity as eigenvectors, bit for bit.
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
    # With no interaction the eigenstates do not scramble: sigma_S would be
    # roundoff, and the ladder's quadrature would fail on it.
    for fraction in (-0.5, 0.0, float("nan")):
        with pytest.raises(ValidationError, match="interaction_fraction"):
            RandomSystemParams(
                sites_a=2, sites_b=4, sites_i=2, interaction_fraction=fraction, seed=0
            )
    with pytest.raises(ValidationError):
        RandomSystemParams(
            sites_a=2, sites_b=2, sites_i=5, interaction_fraction=0.1, seed=0
        )

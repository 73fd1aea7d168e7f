"""Operator ensembles, off-diagonal binning, band detection."""

import tracemalloc

import numpy as np
import pytest

import ethlab.experiments
from ethlab.errors import (
    DimensionError,
    EmptyWindowError,
    InsufficientDataError,
    ValidationError,
)
from ethlab.experiments import (
    REFERENCE_SPECTRAL_RANGE,
    BinnedStatistics,
    BinningParams,
    OperatorEnsembleSpec,
    PairBand,
    _prominent_peaks,
    accumulate_grouped,
    band_matrix_elements,
    default_bin_width,
    detect_bands,
    omega_grid,
    operator_diagonals,
    run_ensemble,
    sample_local_operator,
    subsystem_gap_omegas,
)
from ethlab.figures import quantile_states
from ethlab.hamiltonians import (
    BipartiteSystem,
    SpinChainParams,
    decompose_chain,
    make_bipartite,
)
from ethlab.linalg import Spectrum
from oracles import dense_elements, flat_band, moments


def test_sample_local_operator_normalization():
    spec = OperatorEnsembleSpec(count=10, seed=4)
    for k in range(spec.count):
        op = sample_local_operator(spec, 8, k)
        assert np.array_equal(op, op.T)
        vals = np.linalg.eigvalsh(op)
        assert abs(vals.mean()) < 1e-12
        assert (vals**2).mean() == pytest.approx(1.0, rel=1e-12)
        assert abs(np.trace(op)) < 1e-10


@pytest.mark.parametrize("d", [4, 8])
def test_sample_local_operator_exact_second_moments(d):
    # tr O = 0, tr O^2 = d and Haar conjugation fix E O_ij^2: d / ((d - 1)
    # (d + 2)) off the diagonal and 2 / (d + 2) on it.  Each draw's mean
    # square over either set of entries is one sample; the typical-operator
    # value 1/d lies more than 20 standard errors from both.
    spec = OperatorEnsembleSpec(count=4000, seed=0)
    ops = np.stack([sample_local_operator(spec, d, k) for k in range(spec.count)])
    off = ~np.eye(d, dtype=bool)
    for entries, want in ((off, d / ((d - 1) * (d + 2))), (~off, 2 / (d + 2))):
        per_draw = (ops[:, entries] ** 2).mean(axis=1)
        se = per_draw.std(ddof=1) / np.sqrt(spec.count)
        assert abs(per_draw.mean() - want) < 4.0 * se
        assert abs(per_draw.mean() - 1.0 / d) > 20.0 * se


def test_sample_local_operator_determinism_and_streams():
    spec = OperatorEnsembleSpec(count=5, seed=1)
    a = sample_local_operator(spec, 4, 2)
    b = sample_local_operator(spec, 4, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_local_operator(spec, 4, 3))
    other_seed = OperatorEnsembleSpec(count=5, seed=2)
    assert not np.array_equal(a, sample_local_operator(other_seed, 4, 2))


def test_sample_local_operator_validation():
    spec = OperatorEnsembleSpec(count=3, seed=0)
    with pytest.raises(ValidationError):
        sample_local_operator(spec, 4, 3)
    with pytest.raises(ValidationError):
        sample_local_operator(spec, 4, -1)
    with pytest.raises(ValidationError):
        OperatorEnsembleSpec(count=0)
    with pytest.raises(ValidationError):
        sample_local_operator(spec, 1, 0)


def _whole_band(system):
    # One window, in five omega bins, that holds every pair of eigenstates.
    energies = system.spectrum_t.eigenvalues
    span = float(energies[-1] - energies[0])
    return PairBand(energies, float(energies.mean()), span, span / 8.0)


def test_matrix_elements_identity_and_invariants():
    system = decompose_chain(SpinChainParams(6), 2)
    band = _whole_band(system)
    assert band.pair_counts.sum() == 64 * 63 // 2
    # The identity on A embeds to the identity in any basis.
    ident = band_matrix_elements(system, np.eye(4), band)
    assert np.abs(ident).max() < 1e-12
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    off = band_matrix_elements(system, op, band)
    v3 = system.spectrum_t.rows.reshape(-1, 4, 16)
    diag = np.einsum("apj,pq,aqj->a", v3, op, v3)
    # Orthogonal conjugation preserves the Frobenius norm and the trace:
    # every off-diagonal element appears twice in the norm.
    norm_sq = 2.0 * (off**2).sum() + (diag**2).sum()
    assert norm_sq == pytest.approx(16.0 * (op**2).sum(), rel=1e-12)
    assert diag.sum() == pytest.approx(16.0 * np.trace(op), rel=1e-10)


def test_matrix_elements_noninteracting_selection_rule():
    # Without interaction the eigenstates are products, so an A-side operator
    # cannot connect states with different B labels.
    rng = np.random.default_rng(8)
    h_a = np.diag([0.0, 1.0, 2.5, 4.7])
    h_b = np.diag([0.0, 10.0, 20.0, 31.0])
    system = make_bipartite(h_a, h_b, np.zeros((16, 16)))
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    band = _whole_band(system)
    el = band_matrix_elements(system, op, band)
    rows, cols, _ = band.pairs()
    e_t = system.spectrum_t.eigenvalues
    # B label of each total eigenstate from its energy decade.
    b_label = np.round(e_t / 10.0 - 0.2).astype(int)
    cross = b_label[rows] != b_label[cols]
    assert cross.sum() > cross.size // 2
    assert np.abs(el[cross]).max() < 1e-12
    assert np.abs(el[~cross]).max() > 0.1


def test_default_bin_width_reference():
    assert default_bin_width(REFERENCE_SPECTRAL_RANGE) == 0.015
    assert default_bin_width(2.0 * REFERENCE_SPECTRAL_RANGE) == 0.03
    params = BinningParams()
    assert params.resolve_width(REFERENCE_SPECTRAL_RANGE) == 0.015
    assert BinningParams(omega_bin_width=0.02).resolve_width(100.0) == 0.02


def test_binning_params_validation():
    with pytest.raises(ValidationError):
        BinningParams(ebar_halfwidth=0.0)
    with pytest.raises(ValidationError):
        BinningParams(omega_bin_width=-0.015)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            BinningParams(ebar_halfwidth=bad)
        with pytest.raises(ValidationError):
            BinningParams(omega_bin_width=bad)


def _basis_system(energies, dim_a):
    # A system whose total eigenstates are the basis states, with the A
    # factor of dimension dim_a: an operator's elements are its entries
    # (tensored with the identity on B), and both engines evaluate them
    # exactly.
    n = energies.size

    def flat(dim):
        return Spectrum(eigenvalues=np.arange(float(dim)), eigenvectors=np.eye(dim))

    return BipartiteSystem(
        spectrum_a=flat(dim_a),
        spectrum_b=flat(n // dim_a),
        spectrum_t=Spectrum(eigenvalues=energies, eigenvectors=np.eye(n)),
        interaction_sq=np.zeros(n),
    )


def _both_engines(band, system, op):
    # Per-bin sums of squares and fourth powers of one operator's band
    # elements from each engine: the direct one and the grouped one.
    rows = system.spectrum_t.rows
    v3 = rows.reshape(-1, system.dim_a, system.dim_b)
    return (
        band.accumulate_from_factors(rows, op),
        band.accumulate_grouped_all(v3, op.reshape(-1, 1), _tile_buffer()),
    )


def test_bin_offdiagonal_identity_elements_are_zero():
    system = _basis_system(np.linspace(-1.0, 1.0, 32), 4)
    band = PairBand(system.spectrum_t.eigenvalues, 0.0, 0.5, 0.05)
    for sums in _both_engines(band, system, np.eye(4)):
        stats = band.statistics(*sums, 1)
        assert stats.n_samples > 0
        assert np.all(stats.mean_sq == 0.0)
        assert np.all(stats.std_err == 0.0)


def test_bin_offdiagonal_single_pair():
    system = _basis_system(np.array([-1.0, 1.0]), 2)
    op = np.array([[0.3, 0.5], [0.5, -0.2]])
    band = PairBand(system.spectrum_t.eigenvalues, 0.0, 0.5, 0.4)
    for sums in _both_engines(band, system, op):
        stats = band.statistics(*sums, 1)
        # One unordered pair at omega = 1, |O|^2 = 0.25; the diagonal is
        # excluded.
        assert stats.omega_mid.shape == (1,)
        assert stats.omega_mid[0] == pytest.approx(1.0)
        assert stats.mean_sq[0] == pytest.approx(0.25, rel=1e-14)
        assert stats.count[0] == 1
        assert stats.std_err[0] == 0.0
        assert stats.n_samples == 1


def test_bin_offdiagonal_window_is_closed():
    # The pair's mean energy 1.0 lies exactly on the window's upper edge
    # (0.5 + 0.5), then on its lower edge (1.5 - 0.5): counted both times.
    system = _basis_system(np.array([-1.0, 3.0]), 2)
    spec = OperatorEnsembleSpec(count=2, seed=0)
    params = BinningParams(ebar_halfwidth=0.5, omega_bin_width=1.0)
    for center in (0.5, 1.5):
        band = PairBand(system.spectrum_t.eigenvalues, center, 0.5, 1.0)
        assert band.pair_counts.sum() == 1
        (stats,) = run_ensemble(system, spec, [center], params)
        assert stats.n_samples == spec.count
    with pytest.raises(EmptyWindowError):
        PairBand(system.spectrum_t.eigenvalues, 10.0, 0.5, 1.0)
    with pytest.raises(EmptyWindowError):
        run_ensemble(system, spec, [10.0], params)


def test_bin_offdiagonal_matches_brute_force():
    rng = np.random.default_rng(12)
    n = 40
    e = np.sort(rng.uniform(-3.0, 3.0, n))
    system = _basis_system(e, n)
    g = rng.standard_normal((n, n))
    elements = 0.5 * (g + g.T)
    width = 0.13
    center, hw = 0.2, 0.9
    band = PairBand(e, center, hw, width)
    sums = {}
    for a in range(n):
        for b in range(a + 1, n):
            if abs(0.5 * (e[a] + e[b]) - center) <= hw:
                idx = int((e[b] - e[a]) / (2.0 * width))
                sums.setdefault(idx, []).append(elements[a, b] ** 2)
    for moments_ in _both_engines(band, system, elements):
        stats = band.statistics(*moments_, 1)
        assert stats.omega_mid.tolist() == [
            (k + 0.5) * width for k in sorted(sums)
        ]
        for mid, mean, count, se in zip(
            stats.omega_mid, stats.mean_sq, stats.count, stats.std_err
        ):
            vals = np.array(sums[int(mid / width)])
            assert count == vals.size
            assert mean == pytest.approx(vals.mean(), rel=1e-12)
            if vals.size > 1:
                expected_se = vals.std(ddof=1) / np.sqrt(vals.size)
                assert se == pytest.approx(expected_se, rel=1e-10)
            else:
                assert se == 0.0


def _center_band(system, center=0.0):
    width = BinningParams().resolve_width(system.spectrum_t.spectral_range)
    return PairBand(system.spectrum_t.eigenvalues, center, 0.5, width)


def _tile_buffer():
    # A grouped-engine tile-product buffer of the budget, as run_ensemble's.
    return np.empty(ethlab.experiments._TILE_BYTES // 8)


def _grouped_all(band, v3, ops_flat):
    # One window's grouped engine with its own tile buffer.
    return band.accumulate_grouped_all(v3, ops_flat, _tile_buffer())


def _grouped_tiles(band, dim_a):
    # The grouped engine's tiles: batches of max(4, 512 // dim_a) alphas, cut
    # into beta chunks whose full-batch product fits the current budget.
    batch = max(4, 512 // dim_a)
    width = ethlab.experiments._TILE_BYTES // (8 * dim_a * dim_a * batch)
    return band._tiles(batch, width)


def test_band_tiles_cover_the_band_in_order(chain10):
    # Whole-batch tiles in increasing alpha order: each tile's pairs lie in
    # its rectangle [a0, a1) x [b0, b1), the narrowest one, and the tiles
    # hold every pair of the band.  Only the alpha batches without pairs are
    # skipped.  (Band order: test_tile_pairs_are_the_flat_band_bitwise.)
    # Both tile kinds of one batch size: a direct tile keeps its whole
    # batch, even where the batch's edge alphas have no partners (some here
    # do), while a chunked tile starts and ends at alphas with partners in
    # its chunk (some here are trimmed).
    direct = ethlab.experiments._DIRECT_BATCH
    for center in (0.0, 0.5 * chain10.spectrum_t.eigenvalues[0]):
        band = _center_band(chain10, center)
        rows = band.pairs()[0]
        for batch in (direct, 5):
            tiles = list(band._tiles(batch))
            starts = [a0 for a0, *_ in tiles]
            assert starts == np.unique(rows // batch * batch).tolist()
            held = 0
            for a0, a1, b0, b1 in tiles:
                assert a1 == min(a0 + batch, band.energies.size)
                alphas, betas, _ = band.pairs(a0, a1)
                assert a0 <= alphas.min() and alphas.max() < a1
                assert betas.min() == b0 and betas.max() == b1 - 1
                held += alphas.size
            assert held == band.pair_counts.sum()
        ragged = 0
        for a0, a1, b0, b1 in band._tiles(direct):
            alphas = band.pairs(a0, a1, b0, b1)[0]
            ragged += alphas[0] > a0 or alphas[-1] < a1 - 1
        assert ragged > 0
        trimmed = 0
        for a0, a1, c0, c1 in band._tiles(direct, 32):
            alphas = band.pairs(a0, a1, c0, c1)[0]
            assert alphas[0] == a0 and alphas[-1] == a1 - 1
            batch_end = min(a0 - a0 % direct + direct, band.energies.size)
            trimmed += a0 % direct > 0 or a1 < batch_end
        assert trimmed > 0


def test_band_tiles_follow_the_band(chain10):
    # Tiles follow the anti-diagonal band: most computed elements are used.
    band = _center_band(chain10)
    area = sum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in
               band._tiles(ethlab.experiments._DIRECT_BATCH))
    assert band.pair_counts.sum() / area >= 0.5


def test_ensemble_engines_match_dense_oracle(chain10):
    # Both engines against the dense Kronecker-product oracle, binned over
    # the oracle's own flat band.
    system = chain10
    spec = OperatorEnsembleSpec(count=3, seed=2)
    ops = [sample_local_operator(spec, system.dim_a, k) for k in range(spec.count)]
    rows = system.spectrum_t.rows
    v3 = rows.reshape(-1, system.dim_a, system.dim_b)
    ops_flat = np.stack([op.ravel() for op in ops], axis=1)
    dense = [dense_elements(system, op) for op in ops]
    vt = system.spectrum_t.eigenvectors.reshape(system.dim_a, system.dim_b, -1)
    factored = [np.einsum("pja,pq,qjb->ab", vt, op, vt, optimize=True) for op in ops]
    energies = system.spectrum_t.eigenvalues
    width = BinningParams().resolve_width(system.spectrum_t.spectral_range)
    for center in (0.0, 0.5 * energies[0]):
        band = _center_band(system, center)
        band_rows, band_cols, bins, n_bins, _ = flat_band(
            energies, center, 0.5, width
        )
        assert n_bins == band.n_bins

        def oracle(matrices):
            parts = [moments(m[band_rows, band_cols], bins, n_bins) for m in matrices]
            return band.statistics(
                sum(s for s, _ in parts), sum(q for _, q in parts), spec.count
            )

        per_op = [band.accumulate_from_factors(rows, op) for op in ops]
        grouped = band.statistics(
            *_grouped_all(band, v3, ops_flat), spec.count
        )
        direct = band.statistics(
            sum(s for s, _ in per_op), sum(q for _, q in per_op), spec.count
        )
        # Against the Kronecker product, both engines leave roundoff of
        # about eps * sqrt(max / mean_sq) relative on a bin (3.5e-11 at
        # 1e-12 * max).  The direct engine evaluates the dot products
        # <(O (x) 1) alpha|beta>, which an einsum over the A index takes
        # too, to 4e-15 relative.
        for got, want, floor in (
            (grouped, oracle(dense), 1e-8),
            (direct, oracle(dense), 1e-8),
            (direct, oracle(factored), 1e-12),
        ):
            assert np.array_equal(got.count, want.count)
            big = want.mean_sq > floor * want.mean_sq.max()
            assert np.allclose(
                got.mean_sq[big], want.mean_sq[big], rtol=1e-12, atol=0.0
            )
            assert (
                np.abs(got.mean_sq - want.mean_sq).max()
                < 1e-12 * want.mean_sq.max()
            )
            assert np.allclose(got.std_err, want.std_err, rtol=1e-8, atol=1e-18)


def test_band_matrix_elements_match_dense(chain10):
    # The band's elements, evaluated on its direct tiles, are the dense
    # matrix's entries at the band's (rows, cols), in band order.
    spec = OperatorEnsembleSpec(count=1, seed=3)
    op = sample_local_operator(spec, chain10.dim_a, 0)
    dense = dense_elements(chain10, op)
    energies = chain10.spectrum_t.eigenvalues
    width = BinningParams().resolve_width(chain10.spectrum_t.spectral_range)
    for center in (0.0, 0.5 * energies[0]):
        band = _center_band(chain10, center)
        got = band_matrix_elements(chain10, op, band)
        rows, cols = flat_band(energies, center, 0.5, width)[:2]
        assert got.shape == (band.pair_counts.sum(),)
        assert np.abs(got - dense[rows, cols]).max() < 1e-13
    with pytest.raises(DimensionError):
        band_matrix_elements(chain10, np.eye(3), band)


@pytest.mark.parametrize("cut", [6, 7])
def test_direct_engine_bins_band_elements_bitwise(chain10, cut):
    # The direct engine's statistics are one bincount over each operator's
    # band elements, bit for bit: its bins carry across the tiles in band
    # order instead of summing per-tile partials.  Evaluating elements
    # caches nothing.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=3, seed=0)
    ops = [sample_local_operator(spec, system.dim_a, k) for k in range(spec.count)]
    energies = system.spectrum_t.eigenvalues
    width = BinningParams().resolve_width(system.spectrum_t.spectral_range)
    centers = [0.0, 0.5 * energies[0]]
    got = run_ensemble(system, spec, centers, BinningParams())
    for center, stats in zip(centers, got):
        band = _center_band(system, center)
        bins, n_bins = flat_band(energies, center, 0.5, width)[2:4]
        attributes = set(vars(band))
        sums = np.zeros(n_bins)
        sumsqs = np.zeros(n_bins)
        for op in ops:
            s, q = moments(band_matrix_elements(system, op, band), bins, n_bins)
            sums += s
            sumsqs += q
        want = band.statistics(sums, sumsqs, spec.count)
        assert set(vars(band)) == attributes
        assert np.array_equal(stats.count, want.count)
        assert np.array_equal(stats.mean_sq, want.mean_sq)
        assert np.array_equal(stats.std_err, want.std_err)


@pytest.mark.parametrize("cut", [3, 5, 7])
def test_tile_pairs_are_the_flat_band_bitwise(chain10, cut):
    # Each direct-engine tile derives its pairs on the fly; concatenated in
    # tile order they are the whole-band flat arrays, bit for bit, for
    # fig3's three windows (the grouped tiles hold each pair once, but not
    # in band order: test_grouped_tiles_hold_every_pair_once).  The
    # tile-wise direct engine equals one bincount over the band's elements,
    # bit for bit.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    energies = system.spectrum_t.eigenvalues
    width = BinningParams().resolve_width(system.spectrum_t.spectral_range)
    op = sample_local_operator(OperatorEnsembleSpec(count=1, seed=0), system.dim_a, 0)
    rows = system.spectrum_t.rows
    for fraction in (0.0, 0.25, 0.5):
        center = float(fraction * energies[0]) + 0.0
        band = PairBand(energies, center, 0.5, width)
        want = flat_band(energies, center, 0.5, width)
        assert band.n_bins == want[3]
        assert np.array_equal(band.pair_counts, want[4])
        tiles = band._tiles(ethlab.experiments._DIRECT_BATCH)
        parts = [band.pairs(*tile) for tile in tiles]
        for k in range(3):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), want[k])
        for got, whole in zip(band.pairs(), want):
            assert np.array_equal(got, whole)
        direct = band.accumulate_from_factors(rows, op)
        elements = band_matrix_elements(system, op, band)
        oracle = moments(elements, want[2], want[3])
        for got, whole in zip(direct, oracle):
            assert np.array_equal(got, whole)


def test_band_memory_is_independent_of_the_pair_count(chain10):
    # A band keeps per-eigenstate and per-bin arrays only: its bytes do not
    # grow with the pairs, which grow more than 7-fold across these widths.
    energies = chain10.spectrum_t.eigenvalues
    width = BinningParams().resolve_width(chain10.spectrum_t.spectral_range)
    pairs = []
    for halfwidth in (0.25, 0.5, 2.0):
        band = PairBand(energies, 0.0, halfwidth, width)
        held = sum(
            v.nbytes for v in vars(band).values() if isinstance(v, np.ndarray)
        )
        assert held <= 8 * (4 * (energies.size + 1) + band.n_bins)
        pairs.append(band.pair_counts.sum())
    assert pairs[-1] > 7 * pairs[0]


def test_tiny_bin_width_is_a_validation_error():
    # Too many omega bins is refused before any per-pair or per-bin array
    # is allocated; the message names the setting and the bin count.
    system = decompose_chain(SpinChainParams(8), 3)
    energies = system.spectrum_t.eigenvalues
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"binning\.omega_bin_width.*bins"):
            PairBand(energies, 0.0, 0.5, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValidationError, match=r"binning\.omega_bin_width"):
        run_ensemble(
            system,
            OperatorEnsembleSpec(count=2, seed=0),
            [0.0],
            BinningParams(omega_bin_width=1e-12),
        )


def test_a_refused_bin_count_is_the_count_of_bins():
    # At the auto width the 4-site chain at cut 2 would need more bins than
    # its 16**2 eigenvector entries.  The scans' band and predict's grid both
    # name the whole count they refuse: the band's bins 0..floor(top).
    system = decompose_chain(SpinChainParams(4), 2)
    binning = BinningParams()
    width = binning.resolve_width(system.spectrum_t.spectral_range)
    e = system.spectrum_t.eigenvalues
    i, j = np.triu_indices(e.size, 1)
    inside = np.abs(0.5 * (e[i] + e[j])) <= binning.ebar_halfwidth
    widest = (e[j] - e[i])[inside].max()
    band_bins = int(widest * (1.0 / (2.0 * width))) + 1
    grid_bins = int(np.ceil((100.0 - 0.5 * width) / width))
    for call, count in (
        (lambda: run_ensemble(system, OperatorEnsembleSpec(count=1), [0.0], binning),
         band_bins),
        (lambda: omega_grid(system, binning, 100.0), grid_bins),
    ):
        with pytest.raises(ValidationError, match=f" gives {count} omega bins, more "):
            call()


@pytest.mark.parametrize("cut", [3, 7])
def test_omega_grid_is_the_scans_bin_midpoints_bitwise(chain10, cut):
    # predict's omega axis is the scans': at every bin a scan reports, by
    # the grouped engine (cut 3) and the direct one (cut 7), omega_grid
    # holds the same midpoint bit for bit.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    binning = BinningParams()
    width = binning.resolve_width(system.spectrum_t.spectral_range)
    assert (system.dim_a <= system.dim_b) == (cut == 3)
    ens = OperatorEnsembleSpec(count=1, seed=0)
    for stats in run_ensemble(system, ens, [0.0, -4.0], binning):
        mids = stats.omega_mid
        grid = omega_grid(system, binning, mids[-1] + width)
        assert grid.size == np.rint(mids[-1] / width + 0.5)
        assert np.array_equal(grid[np.rint(mids / width - 0.5).astype(int)], mids)


def _panels(v3, tile):
    # Transfer panels of a tile as views of the (total, dim_a, dim_b) rows.
    a0, a1, c0, c1 = tile
    dim_b = v3.shape[2]
    return v3[a0:a1].reshape(-1, dim_b), v3[c0:c1].reshape(-1, dim_b).T


def _binned_moments(band, tile, r2, r4):
    # Per-bin sums of a tile's per-pair moments.
    bins = band.pairs(*tile)[2]
    return (
        np.bincount(bins, weights=r2, minlength=band.n_bins),
        np.bincount(bins, weights=r4, minlength=band.n_bins),
    )


def _tile_wide_batch(band, v3, ops_flat, tile):
    # The grouped engine before streaming: gather every transfer row of the
    # tile at once, then one product and one accumulate_grouped for all pairs.
    a0, a1, c0, c1 = tile
    dim_a = v3.shape[1]
    a_panel, b_panel = _panels(v3, tile)
    rect = (a_panel @ b_panel).reshape(a1 - a0, dim_a, c1 - c0, dim_a)
    rows, cols, _ = band.pairs(*tile)
    transfer = rect[rows - a0, :, cols - c0, :].reshape(rows.size, dim_a * dim_a)
    r2 = np.empty(rows.size)
    r4 = np.empty(rows.size)
    accumulate_grouped(transfer @ ops_flat, r2, r4)
    return _binned_moments(band, tile, r2, r4)


@pytest.mark.parametrize("cut, count", [(3, 250), (5, 4)])
def test_streamed_grouped_engine_matches_tile_wide_oracle(chain10, cut, count):
    # The streamed blocks multiply fewer rows per matrix product than the
    # oracle's one product per tile, and BLAS picks its kernels by shape, so
    # the elements agree to roundoff rather than bitwise (3.5e-15 relative
    # at 12 sites).
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=count, seed=0)
    v3 = system.spectrum_t.rows.reshape(-1, system.dim_a, system.dim_b)
    ops_flat = np.stack(
        [sample_local_operator(spec, system.dim_a, k).ravel() for k in range(count)],
        axis=1,
    )
    for center in (0.0, 0.5 * system.spectrum_t.eigenvalues[0]):
        band = _center_band(system, center)
        buf = _tile_buffer()
        want = [np.zeros(band.n_bins), np.zeros(band.n_bins)]
        got = [np.zeros(band.n_bins), np.zeros(band.n_bins)]
        for tile in _grouped_tiles(band, system.dim_a):
            for acc, part in (
                (want, _tile_wide_batch(band, v3, ops_flat, tile)),
                (got, band.accumulate_grouped_batch(v3, ops_flat, tile, buf)),
            ):
                acc[0] += part[0]
                acc[1] += part[1]
        want = band.statistics(*want, count)
        got = band.statistics(*got, count)
        assert np.array_equal(got.count, want.count)
        assert np.allclose(got.mean_sq, want.mean_sq, rtol=1e-13, atol=0.0)
        assert np.allclose(got.std_err, want.std_err, rtol=1e-13, atol=0.0)
        whole = run_ensemble(system, spec, [center], BinningParams())[0]
        assert np.array_equal(whole.mean_sq, got.mean_sq)
        assert np.array_equal(whole.std_err, got.std_err)


def _fresh_tile_batch(band, v3, ops_flat, tile):
    # The streamed grouped engine with a freshly allocated tile product and
    # fresh values per block.
    a0, a1, c0, c1 = tile
    dim_a = v3.shape[1]
    a_panel, b_panel = _panels(v3, tile)
    rect = (a_panel @ b_panel).reshape(a1 - a0, dim_a, c1 - c0, dim_a)
    rows, cols, _ = band.pairs(*tile)
    rows = rows - a0
    cols = cols - c0
    n = rows.size
    block = max(1, ethlab.experiments._STREAM_BYTES // (8 * dim_a * dim_a))
    r2 = np.empty(n)
    r4 = np.empty(n)
    for d0 in range(0, n, block):
        d1 = min(d0 + block, n)
        transfer = rect[rows[d0:d1], :, cols[d0:d1], :]
        values = transfer.reshape(d1 - d0, dim_a * dim_a) @ ops_flat
        accumulate_grouped(values, r2[d0:d1], r4[d0:d1])
    return _binned_moments(band, tile, r2, r4)


@pytest.mark.parametrize("cut", [3, 5])
def test_grouped_engine_reused_buffer_is_bitwise_fresh_products(chain10, cut):
    # Tile products written into one reused buffer equal, bit for bit, the
    # same products each allocated afresh.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=4, seed=0)
    v3 = system.spectrum_t.rows.reshape(-1, system.dim_a, system.dim_b)
    ops_flat = np.stack(
        [
            sample_local_operator(spec, system.dim_a, k).ravel()
            for k in range(spec.count)
        ],
        axis=1,
    )
    for center in (0.0, 0.5 * system.spectrum_t.eigenvalues[0]):
        band = _center_band(system, center)
        want = [np.zeros(band.n_bins), np.zeros(band.n_bins)]
        for tile in _grouped_tiles(band, system.dim_a):
            s, q = _fresh_tile_batch(band, v3, ops_flat, tile)
            want[0] += s
            want[1] += q
        got = _grouped_all(band, v3, ops_flat)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("cut", [3, 5])
def test_grouped_panels_are_views_of_the_transposed_stack(chain10, cut):
    # The panels read in place equal those of an explicit transposed copy
    # w[j, alpha * dim_a + p] = V3[alpha, p, j], and so do the tile products.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    dim_a, dim_b = system.dim_a, system.dim_b
    rows = system.spectrum_t.rows
    v3 = rows.reshape(-1, dim_a, dim_b)
    w = np.ascontiguousarray(v3.transpose(2, 0, 1)).reshape(dim_b, -1)
    for tile in _grouped_tiles(_center_band(system), dim_a):
        a0, a1, c0, c1 = tile
        a_panel, b_panel = _panels(v3, tile)
        assert np.shares_memory(a_panel, rows) and np.shares_memory(b_panel, rows)
        assert np.array_equal(a_panel, w[:, a0 * dim_a : a1 * dim_a].T)
        assert np.array_equal(b_panel, w[:, c0 * dim_a : c1 * dim_a])
        want = w[:, a0 * dim_a : a1 * dim_a].T @ w[:, c0 * dim_a : c1 * dim_a]
        assert np.allclose(a_panel @ b_panel, want, rtol=0.0, atol=1e-15)


def test_grouped_tile_budget(chain10, monkeypatch):
    # A small _TILE_BYTES narrows the beta chunks, never the alpha batch
    # (16 at cut 5): every tile's alphas lie in one batch of 16, every tile
    # product fits the budget, and the statistics agree with the default
    # tiles to 1e-13.  run_ensemble passes one buffer of the budget to every
    # tile of every window; its statistics are bitwise those of per-window
    # calls that each allocate their own buffer.
    system = decompose_chain(SpinChainParams(10), 5, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=4, seed=0)
    centers = [0.0, 0.5 * system.spectrum_t.eigenvalues[0]]
    want = run_ensemble(system, spec, centers, BinningParams())
    bands = [_center_band(system, center) for center in centers]
    default = [len(list(_grouped_tiles(band, 32))) for band in bands]
    budget = 256 << 10
    monkeypatch.setattr(ethlab.experiments, "_TILE_BYTES", budget)
    for band, n_default in zip(bands, default):
        tiles = list(_grouped_tiles(band, 32))
        assert len(tiles) > n_default
        for a0, a1, c0, c1 in tiles:
            assert a0 // 16 == (a1 - 1) // 16
            assert 8 * 32 * 32 * (a1 - a0) * (c1 - c0) <= budget
    v3 = system.spectrum_t.rows.reshape(-1, system.dim_a, system.dim_b)
    ops_flat = np.stack(
        [sample_local_operator(spec, 32, k).ravel() for k in range(spec.count)],
        axis=1,
    )
    per_window = [
        band.statistics(*_grouped_all(band, v3, ops_flat), spec.count)
        for band in bands
    ]
    buffers = []
    batch = PairBand.accumulate_grouped_batch

    def recorded(self, v3, ops_flat, tile, buf, *args):
        buffers.append(buf)
        return batch(self, v3, ops_flat, tile, buf, *args)

    monkeypatch.setattr(PairBand, "accumulate_grouped_batch", recorded)
    got = run_ensemble(system, spec, centers, BinningParams())
    assert len(buffers) == sum(len(list(_grouped_tiles(band, 32))) for band in bands)
    assert all(buf is buffers[0] for buf in buffers)
    assert buffers[0].nbytes == budget
    for g, w, alone in zip(got, want, per_window):
        assert np.array_equal(g.count, w.count)
        assert np.allclose(g.mean_sq, w.mean_sq, rtol=1e-13, atol=0.0)
        assert np.allclose(g.std_err, w.std_err, rtol=1e-13, atol=0.0)
        assert np.array_equal(g.mean_sq, alone.mean_sq)
        assert np.array_equal(g.std_err, alone.std_err)


@pytest.mark.parametrize("budget", [None, 256 << 10])
def test_grouped_tiles_hold_every_pair_once(chain10, monkeypatch, budget):
    # The grouped tiles' pairs, each tile's alphas clipped to its beta
    # chunk, are the band's (row, col, bin) triples, each exactly once, at
    # cuts 1-5, both fig2 windows and the default or a small budget.  A tile
    # starts and ends with an alpha that has partners in its chunk, and
    # its product fits the budget.
    if budget is not None:
        monkeypatch.setattr(ethlab.experiments, "_TILE_BYTES", budget)
    for cut in range(1, 6):
        system = decompose_chain(
            SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t
        )
        dim_a = system.dim_a
        for center in (0.0, 0.5 * system.spectrum_t.eigenvalues[0]):
            band = _center_band(system, center)
            parts = []
            for a0, a1, c0, c1 in _grouped_tiles(band, dim_a):
                assert 8 * dim_a * dim_a * (a1 - a0) * (c1 - c0) <= (
                    ethlab.experiments._TILE_BYTES
                )
                rows, cols, bins = band.pairs(a0, a1, c0, c1)
                assert rows[0] == a0 and rows[-1] == a1 - 1
                assert c0 <= cols.min() and cols.max() < c1
                parts.append(np.stack([rows, cols, bins]))
            got = np.concatenate(parts, axis=1)
            want = np.stack(band.pairs())
            assert got.shape == want.shape
            order = np.lexsort(got[1::-1])
            assert np.array_equal(got[:, order], want)


def test_run_ensemble_tiles_each_window_once(chain10, monkeypatch):
    # run_ensemble needs no tiling pass to size its buffer: each window is
    # tiled once, by its own accumulation, in the grouped engine's chunks.
    # A band's pair-count walk in __init__ takes whole batches (no width)
    # and is not counted.
    spec = OperatorEnsembleSpec(count=2, seed=0)
    centers = [0.0, 0.5 * chain10.spectrum_t.eigenvalues[0], 0.0]
    calls = []
    tiles = PairBand._tiles

    def counted(self, batch, width=None):
        if width is not None:
            calls.append((self, batch, width))
        return tiles(self, batch, width)

    monkeypatch.setattr(PairBand, "_tiles", counted)
    run_ensemble(chain10, spec, centers, BinningParams())
    assert len(calls) == len(centers)
    assert len(set(id(band) for band, *_ in calls)) == len(centers)
    monkeypatch.undo()
    for band, batch, width in calls:
        got = list(band._tiles(batch, width))
        assert got == list(_grouped_tiles(band, chain10.dim_a))


def test_run_ensemble_finishes_each_window_before_the_next(chain10, monkeypatch):
    # At cut 7 (dim_a > dim_b, the direct engine) every operator runs on the
    # first window before any runs on the second, and each window's
    # statistics are bitwise those of the window measured alone.
    system = decompose_chain(SpinChainParams(10), 7, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=3, seed=0)
    centers = [0.0, 0.5 * chain10.spectrum_t.eigenvalues[0]]
    alone = [run_ensemble(system, spec, [c], BinningParams())[0] for c in centers]
    calls = []
    direct = PairBand.accumulate_from_factors

    def counted(self, vecs, op_a):
        calls.append(self.ebar_center)
        return direct(self, vecs, op_a)

    monkeypatch.setattr(PairBand, "accumulate_from_factors", counted)
    got = run_ensemble(system, spec, centers, BinningParams())
    assert calls == [centers[0]] * 3 + [centers[1]] * 3
    for stats, want in zip(got, alone):
        assert stats.ebar_center == want.ebar_center
        for name in ("omega_mid", "mean_sq", "count", "std_err"):
            assert np.array_equal(getattr(stats, name), getattr(want, name)), name


def _traced_peak(fn):
    # Peak bytes traced while fn runs, after one untraced warm-up call.
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grouped_engine_copies_no_eigenvectors(chain10, monkeypatch):
    # The grouped engine reads its panels from the eigenvector rows in
    # place: its whole traced peak stays below the eigenvectors' 8.4 MB.  Its
    # tile buffer is allocated at the budget, which is set to 4 MiB here (an
    # 8 MiB buffer alone is the size of the 10-site eigenvectors); with 250
    # operators one streamed block of values is 1 MB.  Measured: 6.2 MB.
    monkeypatch.setattr(ethlab.experiments, "_TILE_BYTES", 4 << 20)
    spec = OperatorEnsembleSpec(count=250, seed=0)
    params = BinningParams()
    peak = _traced_peak(lambda: run_ensemble(chain10, spec, [0.0], params))
    assert peak < chain10.spectrum_t.eigenvectors.nbytes


def test_grouped_engine_holds_one_budget_buffer(chain10, monkeypatch):
    # At cut 5 with a 256 KiB budget the grouped engine's traced peak is its
    # tile buffer, one streamed block (its gathered transfer rows and its
    # values), the operators, the per-pair arrays of the largest tile and
    # a few arrays per eigenstate and per bin: 656 kB measured at 4
    # operators.  Sizing the buffer for a one-alpha tile (1.4 MB), as a
    # tiling that shrinks only the alpha batch must, would not fit: such a
    # tiling peaked at 2.1 MB.
    budget = 256 << 10
    monkeypatch.setattr(ethlab.experiments, "_TILE_BYTES", budget)
    system = decompose_chain(SpinChainParams(10), 5, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=4, seed=0)
    band = _center_band(system)
    largest = max(band.pairs(*tile)[0].size for tile in _grouped_tiles(band, 32))
    block = ethlab.experiments._STREAM_BYTES // (8 * 32 * 32)
    bound = (
        budget
        + ethlab.experiments._STREAM_BYTES
        + 8 * block * spec.count
        + 8 * 32 * 32 * spec.count
        + 8 * 8 * largest
        + 8 * 8 * (system.total_dim + band.n_bins)
    )
    peak = _traced_peak(lambda: run_ensemble(system, spec, [0.0], BinningParams()))
    assert peak < bound


@pytest.mark.parametrize("count", [3, 32])
def test_direct_engine_applies_one_operator_to_one_tile(chain10, count):
    # At cut 7 (dim_a > dim_b) each operator is applied to one tile of
    # _DIRECT_BATCH eigenvector rows at a time (0.5 MB).  The traced peak
    # measured 1.28 MB at both counts, under a quarter of the eigenvectors'
    # 8.4 MB.  Applying an operator to the 545 rows the centre window's
    # tiles read (4.5 MB) or to every row (8.4 MB), or drawing 32 operators
    # (131 kB each) up front, would not fit.
    system = decompose_chain(SpinChainParams(10), 7, spectrum_t=chain10.spectrum_t)
    spec = OperatorEnsembleSpec(count=count, seed=0)
    peak = _traced_peak(lambda: run_ensemble(system, spec, [0.0], BinningParams()))
    assert peak < 0.25 * system.spectrum_t.eigenvectors.nbytes


@pytest.mark.parametrize("cut", [6, 7, 8, 9])
def test_alpha_side_tiles_are_the_full_apply_bitwise(chain10, cut):
    # The direct engine evaluates <(O (x) 1) alpha|beta>: each tile's
    # elements are, bit for bit, the rows a0:a1 of the operator applied to
    # every row in one stacked matmul, times the eigenvector rows b0:b1, at
    # the band's pairs (each row is its own small product, so applying it
    # per tile changes no bit).  band_matrix_elements concatenates the
    # tiles, and the direct engine's sums are their oracle moments.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    assert system.dim_a > system.dim_b
    rows = system.spectrum_t.rows
    energies = system.spectrum_t.eigenvalues
    op = sample_local_operator(OperatorEnsembleSpec(count=1, seed=4), system.dim_a, 0)
    applied = np.matmul(
        op, rows.reshape(-1, system.dim_a, system.dim_b)
    ).reshape(rows.shape)
    for fraction in (0.0, 0.25, 0.5):
        band = _center_band(system, float(fraction * energies[0]) + 0.0)
        elements = []
        for a0, a1, b0, b1 in band._tiles(ethlab.experiments._DIRECT_BATCH):
            alphas, betas, _ = band.pairs(a0, a1)
            sub = applied[a0:a1] @ rows[b0:b1].T
            elements.append(sub[alphas - a0, betas - b0])
        got = band_matrix_elements(system, op, band)
        assert np.array_equal(got, np.concatenate(elements))
        direct = band.accumulate_from_factors(rows, op)
        for g, w in zip(direct, moments(got, band.pairs()[2], band.n_bins)):
            assert np.array_equal(g, w)


def test_run_ensemble_sum_rule_and_diagonals(monkeypatch):
    # One spec serves every cut: each operator is drawn at the dim_a of the
    # system it is applied to.  operator_diagonals takes alphas in small
    # blocks: 592 at cut 1, 37 at cut 3 (the last one ragged), 2 at cut 5
    # and 1 at cut 7, where dim_a > dim_b and run_ensemble takes the direct
    # engine.
    monkeypatch.setattr(ethlab.experiments, "_STREAM_BYTES", 37 * 8 * 64)
    spec = OperatorEnsembleSpec(count=4, seed=5)
    for cut in (1, 3, 5, 7):
        system = decompose_chain(SpinChainParams(8), cut)
        band = _center_band(system)
        stats = run_ensemble(system, spec, [0.0], BinningParams())[0]
        diagonals = operator_diagonals(system, spec)
        assert diagonals.shape == (4, 256)
        sums = sumsqs = 0.0
        for k in range(spec.count):
            op = sample_local_operator(spec, system.dim_a, k)
            el = dense_elements(system, op)
            # Global sum rule: row sums of squares equal the diagonal of O^2.
            sq_diag = np.diag(dense_elements(system, op @ op))
            assert np.abs((el**2).sum(axis=1) - sq_diag).max() < 1e-8
            assert np.abs(diagonals[k] - np.diag(el)).max() < 1e-12
            rows, cols, bins = band.pairs()
            s, q = moments(el[rows, cols], bins, band.n_bins)
            sums, sumsqs = sums + s, sumsqs + q
        want = band.statistics(sums, sumsqs, spec.count)
        assert np.array_equal(stats.count, want.count)
        assert (
            np.abs(stats.mean_sq - want.mean_sq).max() < 1e-12 * want.mean_sq.max()
        )


def test_run_ensemble_signed_means_are_unbiased():
    # The non-squared off-diagonal elements average to zero bin by bin:
    # with >= 100 pooled samples per bin, at most the expected statistical
    # tail exceeds 3 standard errors and nothing approaches 5.
    system = decompose_chain(SpinChainParams(10), 3)
    spec = OperatorEnsembleSpec(count=20, seed=0)
    params = BinningParams()
    e = system.spectrum_t.eigenvalues
    width = params.resolve_width(system.spectrum_t.spectral_range)
    ebar = 0.5 * np.add.outer(e, e)
    a_idx, b_idx = np.nonzero(np.triu(np.abs(ebar) <= 0.5, k=1))
    bins = ((e[b_idx] - e[a_idx]) / (2.0 * width)).astype(np.int64)
    nb = int(bins.max()) + 1
    ssum = np.zeros(nb)
    ssq = np.zeros(nb)
    cnt = np.zeros(nb)
    for k in range(spec.count):
        op = sample_local_operator(spec, system.dim_a, k)
        el = dense_elements(system, op)
        v = el[a_idx, b_idx]
        ssum += np.bincount(bins, weights=v, minlength=nb)
        ssq += np.bincount(bins, weights=v * v, minlength=nb)
        cnt += np.bincount(bins, minlength=nb)
    m = cnt >= 100
    mean = ssum[m] / cnt[m]
    var = np.maximum(ssq[m] / cnt[m] - mean**2, 0.0)
    se = np.sqrt(var / (cnt[m] - 1.0))
    z = np.abs(mean) / se
    assert z.max() < 5.0
    assert np.mean(z < 3.0) > 0.97


def test_run_ensemble_empty_window():
    system = decompose_chain(SpinChainParams(6), 2)
    spec = OperatorEnsembleSpec(count=2, seed=0)
    with pytest.raises(EmptyWindowError):
        run_ensemble(system, spec, [100.0], BinningParams())


def test_kernels_match_per_row_loop_oracle():
    rng = np.random.default_rng(17)

    def oracle(rows_of_values, bins, nbins):
        sums = [0.0] * nbins
        sumsqs = [0.0] * nbins
        for row, b in zip(rows_of_values, bins):
            for x in row:
                sums[b] += x**2
                sumsqs[b] += x**4
        return np.array(sums), np.array(sumsqs)

    # Both engines' binning on a band of two level clusters: omega bins 0-2
    # (pairs inside a cluster) and 12-17 (across), so bins 3-11 stay empty.
    # The total eigenstates are the basis states, so an operator's elements
    # are its entries, exactly.
    energies = np.sort(
        np.concatenate([rng.uniform(0.0, 0.5, 20), rng.uniform(3.0, 3.5, 20)])
    )
    band = PairBand(energies, 1.75, 2.0, 0.1)
    assert band.pair_counts.sum() == 780
    g = rng.standard_normal((40, 40))
    op = 0.5 * (g + g.T)
    rows, cols, bins = flat_band(energies, 1.75, 2.0, 0.1)[:3]
    want = oracle(op[rows, cols][:, None], bins, band.n_bins)
    for got in _both_engines(band, _basis_system(energies, 40), op):
        for x, w in zip(got, want):
            assert np.allclose(x, w, rtol=1e-13, atol=0.0)
            assert np.all(x[3:12] == 0.0)

    # accumulate_grouped: per-row moments, as the oracle with one bin a row.
    values = rng.standard_normal((200, 16))
    got = (np.empty(200), np.empty(200))
    accumulate_grouped(values.copy(), *got)
    want = oracle(values, np.arange(200), 200)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-13, atol=0.0)


def test_accumulate_grouped_blocks_are_bitwise_whole_chunk():
    # Per-row moments taken block by block through one reused block buffer,
    # as the grouped engine streams them (ragged blocks included), equal
    # one whole-array pass bit for bit; each block is squared in place.
    rng = np.random.default_rng(23)
    values = rng.standard_normal((1000, 250))
    want2 = np.einsum("ij,ij->i", values, values)
    v = values * values
    want4 = np.einsum("ij,ij->i", v, v)
    r2 = np.empty(1000)
    r4 = np.empty(1000)
    buf = np.empty((512, 250))
    edges = [0, 1, 33, 512, 999, 1000]
    for d0, d1 in zip(edges[:-1], edges[1:]):
        block = buf[: d1 - d0]
        block[...] = values[d0:d1]
        accumulate_grouped(block, r2[d0:d1], r4[d0:d1])
        assert np.array_equal(block, v[d0:d1])
    assert np.array_equal(r2, want2)
    assert np.array_equal(r4, want4)


def test_subsystem_gap_omegas_oracle():
    gaps = subsystem_gap_omegas(np.array([0.0, 1.0, 3.0]))
    assert np.allclose(gaps, [0.5, 1.0, 1.5])
    # Degenerate differences are deduplicated.
    gaps = subsystem_gap_omegas(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(gaps, [0.5, 1.0])
    # Bitwise the pair loop, over unsorted spectra of 1 to 300 levels.
    rng = np.random.default_rng(30)
    for n in (1, 2, 3, 17, 300):
        e = rng.standard_normal(n) * 4.0
        s = np.sort(e)
        loop = [0.5 * (s[i] - s[j]) for j in range(n) for i in range(j + 1, n)]
        want = np.unique(np.round(np.array(loop, dtype=float), 12))
        assert subsystem_gap_omegas(e).tobytes() == want.tobytes(), n


def _synthetic_binned(omega, mean_sq, std_err):
    omega = np.asarray(omega, dtype=float)
    return BinnedStatistics(
        ebar_center=0.0,
        omega_mid=omega,
        mean_sq=np.asarray(mean_sq, dtype=float),
        count=np.full(omega.size, 1000),
        std_err=np.asarray(std_err, dtype=float),
    )


def test_detect_bands_monotone_curve_has_no_peaks():
    omega = np.linspace(0.05, 3.0, 60)
    binned = _synthetic_binned(
        omega, np.exp(-omega), np.full(omega.size, 1e-4)
    )
    report = detect_bands(binned, np.array([1.0, 2.0]), 0.1)
    assert report.peak_omegas.size == 0
    assert report.matched_fraction == 0.0
    assert not report.gap_matched.any()


def test_detect_bands_injected_bump():
    omega = np.linspace(0.05, 3.0, 60)
    base = np.exp(-omega)
    bump = 0.5 * np.exp(-((omega - 1.5) ** 2) / (2 * 0.05**2))
    binned = _synthetic_binned(omega, base + bump, np.full(omega.size, 1e-4))
    # Bump at a gap: one matched peak, that gap covered.
    report = detect_bands(binned, np.array([1.5, 2.5]), 0.1)
    assert report.peak_omegas.size == 1
    assert abs(report.peak_omegas[0] - 1.5) < 0.05
    assert report.matched.all()
    assert report.matched_fraction == 1.0
    assert report.gap_coverage == 0.5
    # Bump far from every gap: detected but unmatched.
    report = detect_bands(binned, np.array([0.4, 2.5]), 0.05)
    assert report.peak_omegas.size == 1
    assert not report.matched.any()
    assert report.matched_fraction == 0.0


def test_detect_bands_ignores_noise_beyond_gap_range():
    # Structure far beyond the largest gap is out of reach of an A-side
    # operator and must not produce peaks.
    omega = np.linspace(0.05, 10.0, 200)
    base = np.exp(-0.3 * omega)
    bump = 0.5 * np.exp(-((omega - 8.0) ** 2) / (2 * 0.05**2))
    binned = _synthetic_binned(omega, base + bump, np.full(omega.size, 1e-4))
    report = detect_bands(binned, np.array([1.0]), 0.1)
    assert report.peak_omegas.size == 0


def test_prominent_peaks_match_scipy_find_peaks():
    # Oracle: scipy's find_peaks with a prominence floor, as detect_bands used
    # it, on noisy, integer-plateau and NaN-holed curves of every short length.
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    rng = np.random.default_rng(0)
    for trial in range(1500):
        n = int(rng.integers(0, 40))
        kind = trial % 3
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = rng.integers(0, 4, n).astype(float)
        else:
            x = rng.random(n)
            x[rng.random(n) < 0.15] = np.nan
        for floor in (1e-300, 0.3, 1.0, 2.0):
            expected, _ = find_peaks(x, prominence=floor)
            got = _prominent_peaks(x, floor)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (trial, floor, x)


def test_detect_bands_insufficient_data():
    omega = np.array([0.1, 0.2])
    binned = _synthetic_binned(omega, [1.0, 0.5], [0.01, 0.01])
    with pytest.raises(InsufficientDataError):
        detect_bands(binned, np.array([0.15]), 0.01)
    # A gap list that truncates the domain below three bins fails the same way.
    omega = np.linspace(0.05, 3.0, 60)
    binned = _synthetic_binned(omega, np.exp(-omega), np.full(60, 1e-4))
    with pytest.raises(InsufficientDataError):
        detect_bands(binned, np.array([0.01]), 0.001)


def test_quantile_states_spread():
    states = quantile_states(4096)
    assert states.shape == (7,)
    assert states[0] > 0 and states[-1] < 4095
    assert np.all(np.diff(states) > 0)
    # The seven quantiles k/8: on nine states, every state but the two ends.
    assert np.array_equal(quantile_states(9), np.arange(1, 8))

"""Measurement protocols.

Random local-operator ensembles, their matrix elements between interacting
eigenstates, binned off-diagonal statistics over mean-energy windows, and
band detection against subsystem spectral gaps.

The ensemble loop is the hot path at desk scale: the matrix-element
evaluation is restricted to tiles that follow the requested mean-energy band,
so the cost per operator scales with the band area rather than the full
matrix, and a band holds only per-eigenstate arrays: each tile derives its
pairs when it runs.  The grouped engine bins each tile with one
``bincount`` per moment; the direct engine applies each operator to one
tile's alpha rows at a time and adds each tile into bins carried across the
band in band order, bitwise one ``bincount`` over the whole band's
elements.  Its one level of parallelism is the BLAS library's threads under
the matrix products: windows, tiles and operators run in a fixed order on the
calling thread, so the statistics are bitwise reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyWindowError, InsufficientDataError, ValidationError, _positive
from .hamiltonians import BipartiteSystem, _check_a_operator, haar_orthogonal

__all__ = [
    "OperatorEnsembleSpec",
    "BinningParams",
    "BinnedStatistics",
    "PairBand",
    "BandReport",
    "REFERENCE_SPECTRAL_RANGE",
    "sample_local_operator",
    "band_matrix_elements",
    "omega_grid",
    "window_band",
    "run_ensemble",
    "operator_diagonals",
    "detect_bands",
    "subsystem_gap_omegas",
    "default_bin_width",
]

# Spectral range of the 12-site reference chain at the default couplings; the
# default omega bin width scales with the ratio of a system's range to this.
REFERENCE_SPECTRAL_RANGE = 35.6541


@dataclass(frozen=True)
class OperatorEnsembleSpec:
    """Random operator ensemble on the A factor.

    Each operator acts on the A factor of the system it is applied to: it
    draws ``dim_a`` eigenvalues uniformly on [-1, 1], normalizes them to
    zero mean and unit mean square, and conjugates the diagonal by a Haar
    orthogonal.  Streams derive deterministically from ``(seed, index)``.
    """

    count: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def sample_local_operator(
    spec: OperatorEnsembleSpec, dim_a: int, index: int
) -> np.ndarray:
    """Draw operator ``index`` of the ensemble, a symmetric ``dim_a x dim_a`` matrix."""
    if not 0 <= index < spec.count:
        raise ValidationError(f"index {index} outside 0..{spec.count - 1}")
    if dim_a < 2:
        raise ValidationError(
            f"dim_a must be >= 2, got {dim_a}: a single eigenvalue "
            "becomes 0 after mean subtraction and cannot have mean square 1"
        )
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    vals = rng.uniform(-1.0, 1.0, dim_a)
    vals = vals - vals.mean()
    ms = float((vals**2).mean())
    if ms == 0.0:
        raise ValidationError("degenerate draw: zero spectrum after centering")
    vals = vals / np.sqrt(ms)
    basis = haar_orthogonal(dim_a, rng)
    op = (basis * vals) @ basis.T
    return 0.5 * (op + op.T)


def _apply_a_factor(op_a: np.ndarray, rows: np.ndarray):
    # (op_a (x) identity_B) applied to each eigenvector row, without the
    # Kronecker product: row beta of the result is (op_a (x) 1)|beta>.  One
    # small product per row, so a row's result does not depend on which
    # other rows are applied with it.
    v3 = rows.reshape(len(rows), op_a.shape[0], -1)
    return np.matmul(op_a, v3).reshape(rows.shape)


def band_matrix_elements(
    system: BipartiteSystem, op_a: np.ndarray, band: PairBand
) -> np.ndarray:
    """Elements of ``op_a (x) identity`` for the pairs of ``band``, in band order.

    Entry ``p`` is ``O[rows[p], cols[p]]`` for ``rows, cols, _ =
    band.pairs()`` and a symmetric ``op_a``, evaluated on the band's tiles
    as in the direct engine (:meth:`PairBand.accumulate_from_factors`).
    """
    _check_a_operator(system, op_a)
    rows = system.spectrum_t.rows
    tiles = band._tiles(_DIRECT_BATCH)
    return np.concatenate([band._tile_elements(rows, op_a, t)[0] for t in tiles])


@dataclass(frozen=True)
class BinningParams:
    """Mean-energy window half-width and omega bin width.

    ``omega_bin_width=None`` selects the reference default 0.015 rescaled by
    the system's spectral range relative to the 12-site reference chain.
    """

    ebar_halfwidth: float = 0.5
    omega_bin_width: Optional[float] = None

    def __post_init__(self):
        _positive(ebar_halfwidth=self.ebar_halfwidth)
        if self.omega_bin_width is not None:
            _positive(omega_bin_width=self.omega_bin_width)

    def resolve_width(self, spectral_range: float) -> float:
        if self.omega_bin_width is not None:
            return self.omega_bin_width
        return default_bin_width(spectral_range)


def default_bin_width(spectral_range: float) -> float:
    """Reference bin width 0.015 scaled to the system's spectral range."""
    return 0.015 * spectral_range / REFERENCE_SPECTRAL_RANGE


@dataclass(frozen=True, eq=False)
class BinnedStatistics:
    """Binned mean squared off-diagonal elements in one mean-energy window.

    Only bins with at least one pair are reported; ``omega_mid`` is the bin
    center, ``std_err`` the standard error of the per-sample mean (zero for
    single-sample bins).
    """

    ebar_center: float
    omega_mid: np.ndarray
    mean_sq: np.ndarray
    count: np.ndarray
    std_err: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.count.sum())


# Bytes of gathered transfer rows per streamed block of the grouped engine
# and of operator_diagonals, so each block is still in cache for its product
# with the operators.
_STREAM_BYTES = 256 * 1024

# Budget of the grouped engine's one tile-product buffer: every tile product
# fits it.
_TILE_BYTES = 8 * 1024 * 1024

# Alphas per whole-batch band tile: the direct engine's and the pair counts'.
_DIRECT_BATCH = 64


def accumulate_grouped(values, r2, r4):
    """Per-pair moments of one block of ensemble samples.

    ``values`` has one row per eigenstate pair and one column per ensemble
    operator.  Writes each row's sum of squares into ``r2`` and its sum of
    fourth powers into ``r4``, squaring ``values`` in place on the way
    (three passes over the block).  Each row is reduced on its own, as a
    product summed in one pass, so a row's moments do not depend on the
    block it arrives in.
    """
    np.einsum("ij,ij->i", values, values, out=r2)
    np.multiply(values, values, out=values)
    np.einsum("ij,ij->i", values, values, out=r4)


def _bin_count(top: float, width: float, n: int) -> int:
    # Omega bins 0..top, refused before any per-bin array when they would
    # outnumber the n**2 entries of the eigenvector matrix.
    if not top < float(n) * n:
        raise ValidationError(
            f"binning.omega_bin_width = {width} gives {np.floor(top) + 1:.0f} "
            f"omega bins, more than the {n * n} entries of the eigenvector matrix"
        )
    return int(top) + 1


class PairBand:
    """Unordered-pair structure for one mean-energy window.

    For sorted eigenvalues the partners of a given ``alpha`` form a contiguous
    index range ``lo[alpha] .. lo[alpha] + lens[alpha]``, so the band keeps
    only per-eigenstate arrays (that range and each alpha's offset into the
    alpha-major pair order) plus the per-bin pair counts: its memory is
    ``O(total + n_bins)`` whatever the number of pairs.  Both evaluation
    engines walk the band in tiles of consecutive alphas times a contiguous
    beta range (:meth:`_tiles`), whose pairs are derived on the fly
    (:meth:`pairs`) and dropped with the tile.  Because the window fixes
    the mean energy, the tiles follow the anti-diagonal band instead of
    covering it with rectangles.

    - the grouped engine cuts each batch of alphas' beta range into chunks
      so that every tile product fits ``_TILE_BYTES``, and keeps per tile
      the alphas with partners in its chunk.  It forms, per tile, the
      operator-independent transfer matrices ``T[p, q] = sum_j V3[alpha,
      p, j] V3[beta, q, j]`` of all its pairs in one matrix product, then
      streams the pairs through cache in blocks of ``_STREAM_BYTES`` of
      transfer rows: one matrix product per block
      gives the elements of every ensemble operator, reduced at once to
      per-pair moments (worthwhile when ``dim_a <= dim_b``).  ``V3`` is the
      eigenvector rows reshaped to ``(total, dim_a, dim_b)``, a view of an
      eigenstate-major spectrum, and both panels of a tile are views of
      it.  Beyond the eigenvectors it holds one tile-product buffer of
      ``_TILE_BYTES``, one block of values and the indices, bins and two
      floats per pair of the current tile;
    - the direct engine evaluates one operator's elements with one matrix
      product per whole batch of ``_DIRECT_BATCH`` alphas, the operator
      applied to the tile's alpha rows times the beta rows ``c0:c1`` their
      pairs span, and adds their squares and fourth powers into the bins
      tile after tile, in band order (:meth:`accumulate_from_factors`; used
      when the A factor is the larger one).  Beyond the eigenvectors it holds
      one tile's applied rows (``_DIRECT_BATCH x total``), its product and
      the indices, bin and element of each pair of the tile.

    Tiles and blocks run in a fixed order on the calling thread, so the
    results are bit-reproducible.
    """

    def __init__(self, energies, ebar_center, ebar_halfwidth, bin_width):
        _positive(ebar_halfwidth=ebar_halfwidth, bin_width=bin_width)
        energies = np.asarray(energies, dtype=float)
        n = energies.size
        lo_sum = 2.0 * (ebar_center - ebar_halfwidth)
        hi_sum = 2.0 * (ebar_center + ebar_halfwidth)
        lo = np.searchsorted(energies, lo_sum - energies, side="left")
        hi = np.searchsorted(energies, hi_sum - energies, side="right")
        lo = np.maximum(lo, np.arange(1, n + 1))  # unordered pairs once: beta > alpha
        lens = np.maximum(hi, lo) - lo
        if not lens.any():
            raise EmptyWindowError(
                f"no eigenstate pairs with mean energy in "
                f"[{ebar_center - ebar_halfwidth}, {ebar_center + ebar_halfwidth}]"
            )
        self.energies = energies
        self.ebar_center = float(ebar_center)
        self.bin_width = float(bin_width)
        self._inv = 1.0 / (2.0 * bin_width)
        self._lo = lo
        self._lens = lens

        # An alpha's widest pair is its last partner (omega grows with beta),
        # so the largest bin is known before any per-pair array exists.
        some = lens > 0
        top = ((energies[(lo + lens - 1)[some]] - energies[some]) * self._inv).max()
        self.n_bins = _bin_count(top, bin_width, n)
        self.pair_counts = np.zeros(self.n_bins, dtype=np.int64)
        for tile in self._tiles(_DIRECT_BATCH):
            bins = self.pairs(*tile)[2]
            self.pair_counts += np.bincount(bins, minlength=self.n_bins)

    def pairs(
        self,
        a0: int = 0,
        a1: Optional[int] = None,
        c0: int = 0,
        c1: Optional[int] = None,
    ):
        """``(rows, cols, bins)`` of the pairs of alphas ``a0 .. a1``, in band order.

        ``rows`` and ``cols`` are the eigenstate indices ``alpha < beta`` and
        ``bins`` their omega bins; the default is the whole band, and
        ``c0, c1`` keep only the partners ``c0 <= beta < c1``.  Derived on
        each call, so the caller holds them only while it needs them.
        """
        n = self.energies.size
        a1 = n if a1 is None else a1
        c1 = n if c1 is None else c1
        # Alpha's pairs are one run of consecutive betas, clipped to c0..c1.
        lo = np.clip(self._lo[a0:a1], c0, c1)
        lens = np.clip(self._lo[a0:a1] + self._lens[a0:a1], c0, c1) - lo
        starts = np.cumsum(lens) - lens
        rows = np.repeat(np.arange(a0, a1), lens)
        cols = np.arange(lens.sum()) + np.repeat(lo - starts, lens)
        e = self.energies
        bins = ((e[cols] - e[rows]) * self._inv).astype(np.int64)
        return rows, cols, bins

    def _tiles(self, batch: int, width: Optional[int] = None):
        """Band tiles ``(a0, a1, c0, c1)`` whose pairs are ``pairs(a0, a1, c0, c1)``.

        With no ``width`` a tile is a whole batch of ``batch`` alphas times
        the narrowest beta range that holds the batch's pairs; a ``width``
        cuts that range into chunks of ``width`` betas, each tile keeping
        the alphas with partners in its chunk.  Tiles come one at a time, in
        increasing alpha order, and batches or chunks without pairs are
        skipped.
        """
        n = self.energies.size
        for a0 in range(0, n, batch):
            a1 = min(a0 + batch, n)
            lo = self._lo[a0:a1]
            hi = lo + self._lens[a0:a1]
            live = hi > lo
            if not live.any():
                continue
            b0, b1 = int(lo[live].min()), int(hi[live].max())
            if width is None:
                # Untrimmed: BLAS picks its kernels by product shape, so
                # trimming would move bits of the direct engine's elements,
                # as not trimming would move the grouped engine's bins.
                yield a0, a1, b0, b1
                continue
            for c0 in range(b0, b1, width):
                c1 = min(c0 + width, b1)
                inside = np.flatnonzero((lo < np.minimum(hi, c1)) & (hi > c0))
                if inside.size:
                    yield a0 + int(inside[0]), a0 + int(inside[-1]) + 1, c0, c1

    # -- grouped engine ----------------------------------------------------

    def accumulate_grouped_batch(self, v3, ops_flat, tile, buf):
        """Per-bin sums of squares and fourth powers of one band tile.

        ``v3`` holds the eigenvectors as rows reshaped to
        ``(total, dim_a, dim_b)``, ``v3[alpha, p, j] = V3[alpha, p, j]``; both
        transfer panels are views of it.  ``ops_flat`` holds one flattened
        operator per column.  One panel product of the tile ``(a0, a1, c0,
        c1)``, written into the 1-d float scratch ``buf`` (at least ``(a1 -
        a0) * (c1 - c0) * dim_a**2`` long), gives the transfer matrices of
        all its pairs.  They then stream through cache ``_STREAM_BYTES //
        (8 * dim_a**2)`` at a time: each block is gathered, multiplied by
        ``ops_flat`` into one block of values and reduced by
        :func:`accumulate_grouped` to per-pair moments (two floats per pair
        of the tile), which one ``bincount`` per moment sums into bins.
        Besides ``buf``, one block of values, the tile's pairs and those two
        per-pair arrays are all the memory it holds.
        """
        a0, a1, c0, c1 = tile
        dim_a, dim_b = v3.shape[1:]
        a_panel = v3[a0:a1].reshape(-1, dim_b)
        b_panel = v3[c0:c1].reshape(-1, dim_b).T
        rect = buf[: a_panel.shape[0] * b_panel.shape[1]].reshape(a_panel.shape[0], -1)
        np.matmul(a_panel, b_panel, out=rect)
        rect = rect.reshape(a1 - a0, dim_a, c1 - c0, dim_a)
        rows, cols, bins = self.pairs(a0, a1, c0, c1)
        rows -= a0
        cols -= c0
        n = rows.size
        block = max(1, _STREAM_BYTES // (8 * dim_a * dim_a))
        values = np.empty((min(block, n), ops_flat.shape[1]))
        r2 = np.empty(n)
        r4 = np.empty(n)
        for d0 in range(0, n, block):
            d1 = min(d0 + block, n)
            transfer = rect[rows[d0:d1], :, cols[d0:d1], :]
            out = values[: d1 - d0]
            np.matmul(transfer.reshape(d1 - d0, dim_a * dim_a), ops_flat, out=out)
            accumulate_grouped(out, r2[d0:d1], r4[d0:d1])
        return (
            np.bincount(bins, weights=r2, minlength=self.n_bins),
            np.bincount(bins, weights=r4, minlength=self.n_bins),
        )

    def accumulate_grouped_all(self, v3, ops_flat, buf):
        """Grouped-engine accumulation over the whole band.

        ``v3`` is as in :meth:`accumulate_grouped_batch`; the tiles are
        :meth:`_tiles` in batches of ``max(4, 512 // dim_a)`` alphas, cut
        into beta chunks whose full-batch product fits ``_TILE_BYTES`` (a
        beta takes at most 256 KiB, as ``dim_a <= 64`` up to
        ``MAX_CHAIN_SITES``).  Every tile product goes into the one buffer
        ``buf``, at least ``_TILE_BYTES // 8`` long, so large products do
        not each map fresh pages.  Per-tile partial sums merge in tile order.
        """
        dim_a = v3.shape[1]
        batch = max(4, 512 // dim_a)
        width = _TILE_BYTES // (8 * dim_a * dim_a * batch)
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for tile in self._tiles(batch, width):
            s, q = self.accumulate_grouped_batch(v3, ops_flat, tile, buf)
            sums += s
            sumsqs += q
        return sums, sumsqs

    # -- direct engine -----------------------------------------------------

    def _tile_elements(self, vecs, op_a, tile):
        # One operator's elements of the pairs of one direct tile, in band
        # order, and their bins.  op_a is symmetric, so the tile applies it
        # to its own alpha rows (bitwise those rows of the whole applied
        # array) and takes one product with its partners' rows c0:c1.
        a0, a1, c0, c1 = tile
        rows, cols, bins = self.pairs(*tile)
        sub = _apply_a_factor(op_a, vecs[a0:a1]) @ vecs[c0:c1].T
        return sub.ravel()[(rows - a0) * (c1 - c0) + cols - c0], bins

    def accumulate_from_factors(self, vecs, op_a):
        """Direct engine: per-bin sums of squares and fourth powers of one operator.

        ``vecs`` holds the eigenvectors as rows and ``op_a`` is the
        symmetric operator on the A factor, so ``<alpha|O|beta> = <O
        alpha|beta>``: each tile of ``_DIRECT_BATCH`` alphas is one product
        ``_apply_a_factor(op_a, vecs[a0:a1]) @ vecs[c0:c1].T``.  Its elements
        are squared in place twice and added into the bins after each
        squaring with one ``np.add.at``, carried across the tiles in band
        order: the same additions in the same order as one ``bincount`` of
        the squares, and one of the fourth powers, of
        :func:`band_matrix_elements` over the band's bins, without a
        band-length buffer.
        """
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for tile in self._tiles(_DIRECT_BATCH):
            values, bins = self._tile_elements(vecs, op_a, tile)
            np.multiply(values, values, out=values)
            np.add.at(sums, bins, values)
            np.multiply(values, values, out=values)
            np.add.at(sumsqs, bins, values)
        return sums, sumsqs

    def statistics(self, sums, sumsqs, n_ops: int) -> BinnedStatistics:
        """Pooled mean/std-err statistics from accumulated sums."""
        counts = self.pair_counts * n_ops
        keep = counts > 0
        n = counts[keep].astype(float)
        mean = sums[keep] / n
        var = np.maximum(sumsqs[keep] / n - mean**2, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            unbiased = np.where(n > 1, var * n / np.maximum(n - 1.0, 1.0), 0.0)
        std_err = np.sqrt(unbiased / n)
        mids = (np.nonzero(keep)[0] + 0.5) * self.bin_width
        return BinnedStatistics(
            ebar_center=self.ebar_center,
            omega_mid=mids,
            mean_sq=mean,
            count=counts[keep],
            std_err=std_err,
        )


def window_band(system: BipartiteSystem, center: float, binning: BinningParams):
    """The :class:`PairBand` of the window at ``center``, at ``binning``'s width."""
    width = binning.resolve_width(system.spectrum_t.spectral_range)
    energies = system.spectrum_t.eigenvalues
    return PairBand(energies, center, binning.ebar_halfwidth, width)


def omega_grid(system: BipartiteSystem, binning: BinningParams, omega_max: float):
    """The bin midpoints ``(k + 0.5) * width`` below ``omega_max``: bitwise the
    ``omega_mid`` of :meth:`PairBand.statistics`, under the band's bin cap."""
    width = binning.resolve_width(system.spectrum_t.spectral_range)
    if not omega_max > 0.5 * width:
        raise ValidationError(
            f"omega_max must exceed half the bin width "
            f"({0.5 * width:g}) to leave a grid point, got {omega_max:g}"
        )
    top = np.ceil((omega_max - 0.5 * width) / width) - 1.0  # the last such k
    return (np.arange(_bin_count(top, width, system.total_dim)) + 0.5) * width


def _operator_columns(ens: OperatorEnsembleSpec, dim_a: int) -> np.ndarray:
    # Every ensemble operator flattened into one column: (dim_a**2, count).
    ops = [sample_local_operator(ens, dim_a, k).ravel() for k in range(ens.count)]
    return np.stack(ops, axis=1)


def run_ensemble(
    system: BipartiteSystem,
    ens: OperatorEnsembleSpec,
    ebar_centers: Sequence[float],
    params: BinningParams = BinningParams(),
) -> tuple[BinnedStatistics, ...]:
    """Binned off-diagonal statistics pooled over the operator ensemble.

    Returns one :class:`BinnedStatistics` per window center, in order.

    Every window's band is made by :func:`window_band` before any engine
    runs, so an empty window or too many bins raises before any work; then
    each window is measured whole before the next, its bins reported at the
    points of :func:`omega_grid`.  Both engines walk its band in tiles.
    When ``dim_a <= dim_b`` (the usual case) the grouped engine amortizes
    the band over all operators at once, reading its panels as views of the
    eigenvector rows; otherwise each operator in turn, drawn again for each
    window, gives its elements with one matrix product per tile of alpha
    rows, added into the bins in band order.  The BLAS library's threads
    are the only parallelism: windows, tiles and operators run in a fixed
    order on the calling thread, so each window's results are bitwise
    reproducible, and bitwise those of the window measured alone.

    Memory beyond the system's eigenvectors (for an eigenstate-major
    spectrum, which :func:`ethlab.linalg.eig_sym` and the cache return):
    every window's band holds a few integers per eigenstate and per omega
    bin, not per pair.  The grouped engine holds one tile-product buffer
    of ``_TILE_BYTES``, shared by all windows and allocated without a
    tiling pass (every tile's product fits it), one streamed block of
    values (``_STREAM_BYTES // (8 * dim_a**2)`` pairs by ``count``
    operators) and the indices, bin and two floats of each pair of the
    current tile; the direct engine holds one operator (drawn when it is
    applied), its applied form on one tile's ``_DIRECT_BATCH`` rows, their
    product with the tile's partners, and the indices, bin and element of
    each pair of the current tile.  So warm 12- and 13-site runs peak in a
    grouped engine, its tile buffer and its largest tile's pairs beside the
    eigenvectors (see ``MAX_CHAIN_SITES``).
    """
    rows = system.spectrum_t.rows
    bands = [window_band(system, c, params) for c in ebar_centers]
    dim_a = system.dim_a
    grouped = dim_a <= system.dim_b
    if grouped:
        ops_flat = _operator_columns(ens, dim_a)
        v3 = rows.reshape(-1, dim_a, system.dim_b)
        buf = np.empty(_TILE_BYTES // 8)
    results = []
    for band in bands:
        if grouped:
            sums, sumsqs = band.accumulate_grouped_all(v3, ops_flat, buf)
        else:
            sums, sumsqs = np.zeros(band.n_bins), np.zeros(band.n_bins)
            for k in range(ens.count):
                # Drawn only when applied: one operator is alive at a time.
                op = sample_local_operator(ens, dim_a, k)
                s, q = band.accumulate_from_factors(rows, op)
                sums += s
                sumsqs += q
        results.append(band.statistics(sums, sumsqs, ens.count))
    return tuple(results)


def operator_diagonals(
    system: BipartiteSystem, ens: OperatorEnsembleSpec
) -> np.ndarray:
    """Diagonal of every ensemble operator in the eigenbasis, ``(count, total)``.

    ``O[alpha, alpha] = sum_pq O_pq T_alpha[p, q]`` with the transfer matrix
    ``T_alpha = V3[alpha] V3[alpha]^T`` of :class:`PairBand` at
    ``alpha = beta``, streamed ``_STREAM_BYTES`` of transfer matrices at a
    time.
    """
    dim_a, total = system.dim_a, system.total_dim
    rows = system.spectrum_t.rows
    ops_flat = _operator_columns(ens, dim_a)
    out = np.empty((ens.count, total))
    step = max(1, _STREAM_BYTES // (8 * dim_a * dim_a))
    for a0 in range(0, total, step):
        v3 = rows[a0 : a0 + step].reshape(-1, dim_a, system.dim_b)
        transfer = np.matmul(v3, v3.transpose(0, 2, 1)).reshape(-1, dim_a * dim_a)
        out[:, a0 : a0 + step] = (transfer @ ops_flat).T
    return out


def subsystem_gap_omegas(energies_a: np.ndarray) -> np.ndarray:
    """Half-differences ``(E_i - E_j) / 2`` of a subsystem spectrum, ``i > j``.

    These are the omega locations where near-diagonal banding peaks are
    expected when the scrambling width is below the subsystem gaps.
    """
    e = np.sort(np.asarray(energies_a, dtype=float))
    lower, upper = np.triu_indices(e.size, 1)
    return np.unique(np.round(0.5 * (e[upper] - e[lower]), 12))


@dataclass(frozen=True, eq=False)
class BandReport:
    """Detected off-diagonal banding peaks matched against subsystem gaps."""

    peak_omegas: np.ndarray
    matched: np.ndarray  # per peak: within 2 sigma_s of some gap
    gap_matched: np.ndarray  # per gap: some peak within 2 sigma_s

    @property
    def matched_fraction(self) -> float:
        if self.peak_omegas.size == 0:
            return 0.0
        return float(self.matched.mean())

    @property
    def gap_coverage(self) -> float:
        if self.gap_matched.size == 0:
            return 0.0
        return float(self.gap_matched.mean())


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Local maxima of ``x`` whose prominence is at least ``min_prominence``.

    The rules of ``scipy.signal.find_peaks(x, prominence=min_prominence)``:
    the end samples are never peaks; a flat top counts once, at its middle
    sample (rounded down); a peak's prominence is its height above the
    higher of the two minima reached walking out from it, on each side,
    until the first strictly higher sample (NaN counts as higher) or the end.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    peaks = []
    i = 1
    while i < n - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < n - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    keep = []
    for p in peaks:
        higher = np.flatnonzero(~(x <= x[p]))
        left = higher[higher < p]
        right = higher[higher > p]
        lo = left[-1] + 1 if left.size else 0
        hi = right[0] if right.size else n
        base = max(x[lo : p + 1].min(), x[p:hi].min())
        if x[p] - base >= min_prominence:
            keep.append(p)
    return np.array(keep, dtype=np.intp)


def detect_bands(
    binned: BinnedStatistics, gaps: np.ndarray, sigma_s: float
) -> BandReport:
    """Find banding peaks in a binned curve and match them to gaps.

    Peaks are local maxima of ``mean_sq`` with prominence at least twice the
    median bin standard error; a peak matches when some gap (as omega) lies
    within ``2 sigma_s``.

    A subsystem operator only connects eigenstates whose energies differ by
    roughly a subsystem gap, broadened by the scrambling width, so the search
    is restricted to ``omega <= max(gaps) + 2 sigma_s``.  Beyond that the
    curve is statistical noise whose tiny standard errors would otherwise
    drag the median threshold down to the noise floor.
    """
    gaps = np.asarray(gaps, dtype=float)
    omega_mid = binned.omega_mid
    mean_sq = binned.mean_sq
    std_err = binned.std_err
    if gaps.size:
        cut = float(np.max(gaps)) + 2.0 * sigma_s
        keep = omega_mid <= cut
        omega_mid = omega_mid[keep]
        mean_sq = mean_sq[keep]
        std_err = std_err[keep]
    if omega_mid.size < 3:
        raise InsufficientDataError(
            f"need at least 3 bins to detect bands, got {omega_mid.size}"
        )
    threshold = 2.0 * float(np.median(std_err))
    idx = _prominent_peaks(mean_sq, max(threshold, 1e-300))
    omegas = omega_mid[idx]
    if gaps.size and omegas.size:
        sep = np.abs(omegas[:, None] - gaps[None, :])
        matched = np.min(sep, axis=1) <= 2.0 * sigma_s
        gap_matched = np.min(sep, axis=0) <= 2.0 * sigma_s
    else:
        matched = np.zeros(omegas.size, dtype=bool)
        gap_matched = np.zeros(gaps.size, dtype=bool)
    return BandReport(
        peak_omegas=omegas,
        matched=matched,
        gap_matched=gap_matched,
    )

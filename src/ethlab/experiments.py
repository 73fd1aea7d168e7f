"""Measurement protocols.

Random local-operator ensembles, their matrix elements between interacting
eigenstates, binned off-diagonal statistics over mean-energy windows, and
band detection against subsystem spectral gaps.

The ensemble loop is the hot path at desk scale: the matrix-element
evaluation is restricted to tiles that follow the requested mean-energy band,
so the cost per operator scales with the band area rather than the full
matrix, and a band holds only per-eigenstate arrays: each tile derives its
pairs when it runs.  The grouped engine bins each tile with one
``bincount`` per moment; the direct engine adds each tile into bins carried
across the band in band order, bitwise the one ``bincount`` over the whole
band's elements that :func:`bin_offdiagonal` makes.  Its one level of
parallelism is the BLAS library's threads under the matrix products: tiles
and operators run in a fixed order on the calling thread, so the statistics
are bitwise reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptyWindowError,
    InsufficientDataError,
    ValidationError,
)
from .hamiltonians import BipartiteSystem, haar_orthogonal
from .linalg import Spectrum

__all__ = [
    "OperatorEnsembleSpec",
    "BinningParams",
    "BinnedStatistics",
    "PairBand",
    "BandReport",
    "REFERENCE_SPECTRAL_RANGE",
    "sample_local_operator",
    "matrix_elements_total_basis",
    "band_matrix_elements",
    "bin_offdiagonal",
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


def _apply_a_factor(op_a: np.ndarray, rows: np.ndarray, dim_a: int, dim_b: int):
    # (op_a (x) identity_B) applied to every eigenvector row, without the
    # Kronecker product: row beta of the result is (op_a (x) 1)|beta>.
    v3 = rows.reshape(-1, dim_a, dim_b)
    return np.matmul(op_a, v3).reshape(rows.shape)


def _applied(system: BipartiteSystem, op_a: np.ndarray):
    # The eigenvector rows and (op_a (x) 1) applied to each of them.
    if op_a.shape != (system.dim_a, system.dim_a):
        raise DimensionError(
            f"operator shape {op_a.shape} does not match dim_a={system.dim_a}"
        )
    rows = system.spectrum_t.rows
    return rows, _apply_a_factor(op_a, rows, system.dim_a, system.dim_b)


def matrix_elements_total_basis(
    system: BipartiteSystem, op_a: np.ndarray
) -> np.ndarray:
    """All matrix elements of ``op_a (x) identity`` between total eigenstates."""
    rows, applied = _applied(system, op_a)
    return rows @ applied.T


def band_matrix_elements(
    system: BipartiteSystem, op_a: np.ndarray, band: PairBand
) -> np.ndarray:
    """Elements of ``op_a (x) identity`` for the pairs of ``band``, in band order.

    Entry ``p`` is ``O[rows[p], cols[p]]`` for ``rows, cols, _ =
    band.pairs()``; only the band's tiles are evaluated, as in the direct
    engine (:meth:`PairBand.elements`).
    """
    return band.elements(*_applied(system, op_a))


@dataclass(frozen=True)
class BinningParams:
    """Mean-energy window half-width and omega bin width.

    ``omega_bin_width=None`` selects the reference default 0.015 rescaled by
    the system's spectral range relative to the 12-site reference chain.
    """

    ebar_halfwidth: float = 0.5
    omega_bin_width: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.ebar_halfwidth) and self.ebar_halfwidth > 0):
            raise ValidationError("ebar_halfwidth must be finite and positive")
        width = self.omega_bin_width
        if width is not None and not (np.isfinite(width) and width > 0):
            raise ValidationError("omega_bin_width must be finite and positive")

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

# Budget of the grouped engine's one tile-product buffer: tiles shrink until
# the band's largest fits (unless a single alpha's tile is larger).
_TILE_BYTES = 32 * 1024 * 1024

# Alphas per band tile of the direct engine.
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


def _largest_tile(tiles) -> int:
    # Most (alpha, beta) cells in one band tile (a0, a1, b0, b1, s0, s1).
    return max((a1 - a0) * (b1 - b0) for a0, a1, b0, b1, _, _ in tiles)


class PairBand:
    """Unordered-pair structure for one mean-energy window.

    For sorted eigenvalues the partners of a given ``alpha`` form a contiguous
    index range ``lo[alpha] .. lo[alpha] + lens[alpha]``, so the band keeps
    only per-eigenstate arrays (that range and each alpha's offset into the
    alpha-major pair order) plus the per-bin pair counts: its memory is
    ``O(total + n_bins)`` whatever the number of pairs.  Both evaluation
    engines walk the band in tiles: a tile is a batch of consecutive alphas
    times the contiguous beta range their pairs span, and its pairs, one
    slice ``s0:s1`` of the band order, are derived on the fly
    (:meth:`pairs`) and dropped with the tile.  Because the window fixes the
    mean energy, the tiles follow the anti-diagonal band instead of covering
    it with rectangles.

    - the grouped engine forms, per tile, the operator-independent transfer
      matrices ``T[p, q] = sum_j V3[alpha, p, j] V3[beta, q, j]`` of all its
      pairs in one matrix product, then streams the pairs through cache in
      blocks of ``_STREAM_BYTES`` of transfer rows: one matrix product per
      block gives the elements of every ensemble operator, reduced at once
      to per-pair moments (worthwhile when ``dim_a <= dim_b``).  ``V3`` is
      the eigenvector rows reshaped to ``(total, dim_a, dim_b)``, a view of
      an eigenstate-major spectrum, and both panels of a tile are views of
      it.  Beyond the eigenvectors it holds one tile-product buffer of at
      most ``_TILE_BYTES``, one block of values and the indices, bins and
      two floats per pair of the current tile;
    - the direct engine evaluates one operator's elements with one matrix
      product per tile of ``_DIRECT_BATCH`` alphas and adds their squares
      and fourth powers into the bins tile after tile, in band order
      (:meth:`accumulate_from_factors`; used when the A factor is the
      larger one).

    Tiles and blocks run in a fixed order on the calling thread, so the
    results are bit-reproducible.
    """

    def __init__(self, energies, ebar_center, ebar_halfwidth, bin_width):
        energies = np.asarray(energies, dtype=float)
        n = energies.size
        lo_sum = 2.0 * (ebar_center - ebar_halfwidth)
        hi_sum = 2.0 * (ebar_center + ebar_halfwidth)
        lo = np.searchsorted(energies, lo_sum - energies, side="left")
        hi = np.searchsorted(energies, hi_sum - energies, side="right")
        lo = np.maximum(lo, np.arange(1, n + 1))  # unordered pairs once: beta > alpha
        lens = np.maximum(hi, lo) - lo
        total_pairs = int(lens.sum())
        if total_pairs == 0:
            raise EmptyWindowError(
                f"no eigenstate pairs with mean energy in "
                f"[{ebar_center - ebar_halfwidth}, {ebar_center + ebar_halfwidth}]"
            )
        self.energies = energies
        self.ebar_center = float(ebar_center)
        self.bin_width = float(bin_width)
        self.n_pairs = total_pairs
        self._inv = 1.0 / (2.0 * bin_width)
        self._lo = lo
        self._lens = lens
        # Pair-slice boundaries per alpha, for tile scheduling.
        self._alpha_start = np.concatenate(([0], np.cumsum(lens)))

        # An alpha's widest pair is its last partner (omega grows with beta),
        # so the largest bin is known before any per-pair array exists.
        some = lens > 0
        top = float(
            ((energies[(lo + lens - 1)[some]] - energies[some]) * self._inv).max()
        )
        if not top < float(n) * n:
            raise ValidationError(
                f"binning.omega_bin_width = {bin_width} gives "
                f"{top + 1:.4g} omega bins, more than the {n * n} entries of "
                "the eigenvector matrix"
            )
        self.n_bins = int(top) + 1
        self.pair_counts = np.zeros(self.n_bins, dtype=np.int64)
        for a0, a1, *_ in self._alpha_batches(_DIRECT_BATCH):
            bins = self._partners(a0, a1)[2]
            self.pair_counts += np.bincount(bins, minlength=self.n_bins)

    def _partners(self, a0: int, a1: int):
        # Per-alpha pair counts, then the partners and omega bins of alphas
        # a0..a1 in band order: alpha's pairs are one run of consecutive betas.
        lens = self._lens[a0:a1]
        s0 = self._alpha_start[a0]
        shift = self._lo[a0:a1] - (self._alpha_start[a0:a1] - s0)
        cols = np.arange(self._alpha_start[a1] - s0) + np.repeat(shift, lens)
        e = self.energies
        bins = ((e[cols] - np.repeat(e[a0:a1], lens)) * self._inv).astype(np.int64)
        return lens, cols, bins

    def pairs(self, a0: int = 0, a1: Optional[int] = None):
        """``(rows, cols, bins)`` of the pairs of alphas ``a0 .. a1``, in band order.

        ``rows`` and ``cols`` are the eigenstate indices ``alpha < beta`` and
        ``bins`` their omega bins; the default is the whole band.  Derived on
        each call, so the caller holds them only while it needs them.
        """
        a1 = self.energies.size if a1 is None else a1
        lens, cols, bins = self._partners(a0, a1)
        return np.repeat(np.arange(a0, a1), lens), cols, bins

    def _alpha_batches(self, batch: int):
        """Band tiles ``(a0, a1, b0, b1, s0, s1)`` of ``batch`` alphas each.

        A tile's pairs are ``pairs(a0, a1)``, the slice ``s0:s1`` of the band
        order; they lie inside ``[a0, a1) x [b0, b1)``.  Tiles without pairs
        are skipped.
        """
        n = self.energies.size
        out = []
        for a0 in range(0, n, batch):
            a1 = min(a0 + batch, n)
            s0 = int(self._alpha_start[a0])
            s1 = int(self._alpha_start[a1])
            if s1 > s0:
                some = self._lens[a0:a1] > 0
                lo = self._lo[a0:a1][some]
                hi = lo + self._lens[a0:a1][some]
                out.append((a0, a1, int(lo.min()), int(hi.max()), s0, s1))
        return out

    def bin_sums(self, values, bins):
        """Per-bin sums of ``values``, one value per pair with omega bin ``bins``."""
        return np.bincount(bins, weights=values, minlength=self.n_bins)

    # -- grouped engine ----------------------------------------------------

    def _grouped_tiles(self, dim_a: int):
        """Band tiles of the grouped engine for an A factor of ``dim_a``.

        ``max(4, 512 // dim_a)`` alphas per tile so the transfer panels stay
        small, halved until the largest tile product fits ``_TILE_BYTES``
        (a one-alpha tile is used whatever its size).
        """
        batch = max(4, 512 // dim_a)
        tiles = self._alpha_batches(batch)
        while batch > 1 and 8 * dim_a * dim_a * _largest_tile(tiles) > _TILE_BYTES:
            batch //= 2
            tiles = self._alpha_batches(batch)
        return tiles

    def accumulate_grouped_batch(self, v3, ops_flat, tile, buf):
        """Per-bin sums of squares and fourth powers of one band tile.

        ``v3`` holds the eigenvectors as rows reshaped to
        ``(total, dim_a, dim_b)``, ``v3[alpha, p, j] = V3[alpha, p, j]``; both
        transfer panels are views of it.  ``ops_flat`` holds one flattened
        operator per column.  One panel product, written into the 1-d float
        scratch ``buf`` (at least ``(a1 - a0) * (b1 - b0) * dim_a**2`` long),
        gives the transfer matrices of the whole tile.  Its pairs then stream
        through cache ``_STREAM_BYTES // (8 * dim_a**2)`` at a time: each
        block is gathered, multiplied by ``ops_flat`` into one block of
        values and reduced by :func:`accumulate_grouped` to per-pair moments
        (two floats per pair of the tile), which one ``bincount`` per moment
        sums into bins.  Besides ``buf``, one block of values, the tile's
        pairs and those two per-pair arrays are all the memory it holds.
        """
        a0, a1, b0, b1, s0, s1 = tile
        dim_a, dim_b = v3.shape[1:]
        a_panel = v3[a0:a1].reshape(-1, dim_b)
        b_panel = v3[b0:b1].reshape(-1, dim_b).T
        rect = buf[: a_panel.shape[0] * b_panel.shape[1]].reshape(a_panel.shape[0], -1)
        np.matmul(a_panel, b_panel, out=rect)
        rect = rect.reshape(a1 - a0, dim_a, b1 - b0, dim_a)
        rows, cols, bins = self.pairs(a0, a1)
        rows -= a0
        cols -= b0
        n = s1 - s0
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
        return self.bin_sums(r2, bins), self.bin_sums(r4, bins)

    def accumulate_grouped_all(self, v3, ops_flat):
        """Grouped-engine accumulation over the whole band.

        ``v3`` is as in :meth:`accumulate_grouped_batch`; the tiles are
        :meth:`_grouped_tiles`.  Every tile product goes into one buffer
        sized for the largest tile, so large products do not each map fresh
        pages.  Per-tile partial sums merge in tile order.
        """
        dim_a = v3.shape[1]
        tiles = self._grouped_tiles(dim_a)
        buf = np.empty(_largest_tile(tiles) * dim_a * dim_a)
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for tile in tiles:
            s, q = self.accumulate_grouped_batch(v3, ops_flat, tile, buf)
            sums += s
            sumsqs += q
        return sums, sumsqs

    # -- direct engine -----------------------------------------------------

    def _direct_tiles(self, vecs, applied):
        # Per tile of _DIRECT_BATCH alphas: the slice s0:s1 of the band
        # order, one operator's elements of its pairs from one product
        # vecs[a0:a1] @ applied[b0:b1].T, and their bins.
        for a0, a1, b0, b1, s0, s1 in self._alpha_batches(_DIRECT_BATCH):
            lens, cols, bins = self._partners(a0, a1)
            sub = vecs[a0:a1] @ applied[b0:b1].T
            # Flat offset of pair (alpha, beta) in sub: alpha's row start,
            # then beta - b0.
            starts = np.arange(a1 - a0) * (b1 - b0) - b0
            yield s0, s1, sub.ravel()[cols + np.repeat(starts, lens)], bins

    def elements(self, vecs, applied):
        """One operator's elements for every pair of the band, in band order.

        ``vecs`` holds the eigenvectors as rows and row ``beta`` of
        ``applied`` is ``(op (x) 1)|beta>``.  Each tile of ``_DIRECT_BATCH``
        alphas is one product ``vecs[a0:a1] @ applied[b0:b1].T``, from which
        the tile's pairs fill their slice ``s0:s1`` of the result.
        """
        out = np.empty(self.n_pairs)
        for s0, s1, values, _ in self._direct_tiles(vecs, applied):
            out[s0:s1] = values
        return out

    def element_moments(self, elements):
        """Per-bin sums of squares and fourth powers of band-order elements.

        ``elements`` (one per pair, as :meth:`elements` returns) is squared
        in place twice, and binned after each squaring.
        """
        bins = self._partners(0, self.energies.size)[2]
        np.multiply(elements, elements, out=elements)
        sums = self.bin_sums(elements, bins)
        np.multiply(elements, elements, out=elements)
        return sums, self.bin_sums(elements, bins)

    def accumulate_from_factors(self, vecs, applied):
        """Direct engine: per-bin sums of squares and fourth powers of one operator.

        ``vecs`` and ``applied`` are as in :meth:`elements`.  Each tile's
        elements are squared in place twice and added into the bins after
        each squaring with one ``np.add.at``, carried across the tiles in band
        order: the same additions in the same order as one ``bincount`` over
        the whole band, so the sums are bitwise :meth:`element_moments` of
        :meth:`elements`, without a band-length buffer.
        """
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for _, _, values, bins in self._direct_tiles(vecs, applied):
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


def bin_offdiagonal(
    elements: np.ndarray,
    spectrum: Spectrum,
    ebar_center: float,
    params: BinningParams = BinningParams(),
) -> BinnedStatistics:
    """Binned mean squared off-diagonal elements of one dense matrix.

    Pairs with mean energy inside the closed window accumulate ``|O_ab|^2``
    into bins of ``|omega| = |E_a - E_b| / 2``; each unordered pair counts
    once and the diagonal is excluded.
    """
    n = spectrum.dim
    if elements.shape != (n, n):
        raise DimensionError(
            f"elements shape {elements.shape} does not match spectrum dim {n}"
        )
    width = params.resolve_width(spectrum.spectral_range)
    band = PairBand(spectrum.eigenvalues, ebar_center, params.ebar_halfwidth, width)
    rows, cols, _ = band.pairs()
    sums, sumsqs = band.element_moments(elements[rows, cols])
    return band.statistics(sums, sumsqs, 1)


def run_ensemble(
    system: BipartiteSystem,
    ens: OperatorEnsembleSpec,
    ebar_centers: Sequence[float],
    params: BinningParams = BinningParams(),
) -> tuple[BinnedStatistics, ...]:
    """Binned off-diagonal statistics pooled over the operator ensemble.

    Returns one :class:`BinnedStatistics` per window center, in order.

    Both engines walk each window's band in tiles (see :class:`PairBand`).
    When ``dim_a <= dim_b`` (the usual case) the grouped engine amortizes the
    band evaluation over all operators at once, reading its panels as views
    of the eigenvector rows; otherwise each operator's elements are
    evaluated with one matrix product per band tile and added into the bins
    tile after tile, in band order.  The BLAS library's
    threads are the only parallelism: tiles and operators run in a fixed
    order on the calling thread, so the results are bitwise reproducible.

    Memory beyond the system's eigenvectors (for an eigenstate-major
    spectrum, which :func:`ethlab.linalg.eig_sym` and the cache return):
    every window's band holds a few integers per eigenstate and per omega
    bin, not per pair.  The grouped engine holds one tile-product buffer of
    at most ``_TILE_BYTES`` (more only when one alpha's tile exceeds it),
    one streamed block of values (``_STREAM_BYTES // (8 * dim_a**2)`` pairs
    by ``count`` operators) and the indices, bin and two floats of each
    pair of the current tile; the direct engine holds one ``total x total``
    applied operator, one product of ``_DIRECT_BATCH`` eigenstates by the
    tile's partners, and the indices, bin and element of each pair of the
    current tile.
    """
    rows = system.spectrum_t.rows
    width = params.resolve_width(system.spectrum_t.spectral_range)
    bands = [
        PairBand(system.spectrum_t.eigenvalues, c, params.ebar_halfwidth, width)
        for c in ebar_centers
    ]
    ops = [sample_local_operator(ens, system.dim_a, k) for k in range(ens.count)]

    if system.dim_a <= system.dim_b:
        ops_flat = np.stack([op.ravel() for op in ops], axis=1)
        v3 = rows.reshape(-1, system.dim_a, system.dim_b)
        partials = [band.accumulate_grouped_all(v3, ops_flat) for band in bands]
    else:
        partials = [(np.zeros(band.n_bins), np.zeros(band.n_bins)) for band in bands]
        for op in ops:
            applied = _apply_a_factor(op, rows, system.dim_a, system.dim_b)
            for band, (sums, sumsqs) in zip(bands, partials):
                s, q = band.accumulate_from_factors(rows, applied)
                sums += s
                sumsqs += q
            # Dropped before the next operator's is formed, so only one
            # total x total applied operator is ever alive.
            del applied
    return tuple(
        band.statistics(sums, sumsqs, ens.count)
        for band, (sums, sumsqs) in zip(bands, partials)
    )


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
    ops_flat = np.stack(
        [sample_local_operator(ens, dim_a, k).ravel() for k in range(ens.count)],
        axis=1,
    )
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
    diffs = [0.5 * (e[i] - e[j]) for j in range(e.size) for i in range(j + 1, e.size)]
    return np.unique(np.round(diffs, 12))


@dataclass(frozen=True, eq=False)
class BandReport:
    """Detected off-diagonal banding peaks matched against subsystem gaps."""

    peak_omegas: np.ndarray
    gaps: np.ndarray
    matched: np.ndarray  # per peak: within 2 sigma_s of some gap
    gap_matched: np.ndarray  # per gap: some peak within 2 sigma_s

    @property
    def matched_fraction(self) -> float:
        if self.peak_omegas.size == 0:
            return 0.0
        return float(self.matched.mean())

    @property
    def gap_coverage(self) -> float:
        if self.gaps.size == 0:
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
        gaps=gaps,
        matched=matched,
        gap_matched=gap_matched,
    )

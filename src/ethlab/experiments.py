"""Measurement protocols.

Random local-operator ensembles, their matrix elements between interacting
eigenstates, binned off-diagonal statistics over mean-energy windows, and
band detection against subsystem spectral gaps.

The ensemble loop is the hot path at desk scale: the matrix-element
evaluation is restricted to tiles that follow the requested mean-energy band,
so the cost per operator scales with the band area rather than the full
matrix.  Its one level of parallelism is the BLAS library's threads under
the matrix products: tiles and operators run in a fixed order on the calling
thread (pairs in ascending order, per-bin sums merged in tile order), so the
statistics are bitwise reproducible run to run.
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
    "EnsembleResult",
    "BandReport",
    "REFERENCE_SPECTRAL_RANGE",
    "sample_local_operator",
    "matrix_elements_total_basis",
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

    Operators draw ``dim_a`` eigenvalues uniformly on [-1, 1], normalize to
    zero mean and unit mean square, and conjugate the diagonal by a Haar
    orthogonal.  Streams derive deterministically from ``(seed, index)``.
    """

    dim_a: int
    count: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.dim_a < 2:
            raise ValidationError(
                f"dim_a must be >= 2, got {self.dim_a}: a single eigenvalue "
                "becomes 0 after mean subtraction and cannot have mean square 1"
            )


def sample_local_operator(spec: OperatorEnsembleSpec, index: int) -> np.ndarray:
    """Draw operator ``index`` of the ensemble (a dense symmetric matrix)."""
    if not 0 <= index < spec.count:
        raise ValidationError(f"index {index} outside 0..{spec.count - 1}")
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    vals = rng.uniform(-1.0, 1.0, spec.dim_a)
    vals = vals - vals.mean()
    ms = float((vals**2).mean())
    if ms == 0.0:
        raise ValidationError("degenerate draw: zero spectrum after centering")
    vals = vals / np.sqrt(ms)
    basis = haar_orthogonal(spec.dim_a, rng)
    op = (basis * vals) @ basis.T
    return 0.5 * (op + op.T)


def _apply_a_factor(op_a: np.ndarray, vecs: np.ndarray, dim_a: int, dim_b: int):
    # (op_a (x) identity_B) @ vecs without materializing the Kronecker product.
    total = vecs.shape[1]
    v3 = vecs.reshape(dim_a, dim_b * total)
    return (op_a @ v3).reshape(dim_a * dim_b, total)


def _vector_stack(vecs: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    # w[j, alpha * dim_a + p] = vecs[p * dim_b + j, alpha], shape
    # (dim_b, total * dim_a): the grouped engine's transfer panels for any
    # alpha or beta range are column slices of this one array.
    total = vecs.shape[1]
    return np.ascontiguousarray(
        vecs.reshape(dim_a, dim_b, total).transpose(1, 2, 0)
    ).reshape(dim_b, total * dim_a)


def matrix_elements_total_basis(
    system: BipartiteSystem, op_a: np.ndarray
) -> np.ndarray:
    """All matrix elements of ``op_a (x) identity`` between total eigenstates."""
    if op_a.shape != (system.dim_a, system.dim_a):
        raise DimensionError(
            f"operator shape {op_a.shape} does not match dim_a={system.dim_a}"
        )
    vecs = system.spectrum_t.eigenvectors
    w = _apply_a_factor(op_a, vecs, system.dim_a, system.dim_b)
    return vecs.T @ w


@dataclass(frozen=True)
class BinningParams:
    """Mean-energy window half-width and omega bin width.

    ``omega_bin_width=None`` selects the reference default 0.015 rescaled by
    the system's spectral range relative to the 12-site reference chain.
    """

    ebar_halfwidth: float = 0.5
    omega_bin_width: Optional[float] = None

    def __post_init__(self):
        if self.ebar_halfwidth <= 0:
            raise ValidationError("ebar_halfwidth must be positive")
        if self.omega_bin_width is not None and self.omega_bin_width <= 0:
            raise ValidationError("omega_bin_width must be positive")

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
    ebar_halfwidth: float
    omega_bin_width: float
    omega_mid: np.ndarray
    mean_sq: np.ndarray
    count: np.ndarray
    std_err: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.count.sum())


def accumulate_pairs(block, rows, cols, bins, nbins):
    """Accumulate squared matrix elements into omega bins.

    Gathers ``block[rows[p], cols[p]]`` for every listed pair, squares it, and
    returns per-bin sums of the squares and of their squares (for standard
    errors).  Pairs accumulate in ascending ``p``.
    """
    v = block[rows, cols]
    v = v * v
    sums = np.bincount(bins, weights=v, minlength=nbins)
    sumsqs = np.bincount(bins, weights=v * v, minlength=nbins)
    return sums, sumsqs


# Rows per block of squares in accumulate_grouped: 256 rows of 250 operators
# take 0.5 MB, so the squares are still in cache when they are summed.
_BLOCK_ROWS = 256

# Bytes of gathered transfer rows per streamed block of the grouped engine,
# so each block is still in cache for its product with the operators.
_STREAM_BYTES = 256 * 1024


def accumulate_grouped(values, bins, nbins):
    """Accumulate squared samples sharing a bin index per row.

    ``values`` has one row per eigenstate pair and one column per ensemble
    operator; every entry in row ``p`` lands in ``bins[p]``.  Returns per-bin
    sums of the squares and of the fourth powers.  Each row is reduced over
    operators first, then the row totals accumulate in ascending ``p``.  The
    squares are formed ``_BLOCK_ROWS`` rows at a time so they stay in cache;
    each row's reduction does not depend on the blocking.  ``values`` is not
    written.
    """
    r2 = np.empty(values.shape[0])
    r4 = np.empty(values.shape[0])
    for d0 in range(0, values.shape[0], _BLOCK_ROWS):
        d1 = d0 + _BLOCK_ROWS
        v = values[d0:d1] * values[d0:d1]
        v.sum(axis=1, out=r2[d0:d1])
        v *= v
        v.sum(axis=1, out=r4[d0:d1])
    sums = np.bincount(bins, weights=r2, minlength=nbins)
    sumsqs = np.bincount(bins, weights=r4, minlength=nbins)
    return sums, sumsqs


class PairBand:
    """Precomputed unordered-pair structure for one mean-energy window.

    For sorted eigenvalues the partners of a given ``alpha`` form a contiguous
    index range, so the band is stored as flat (row, col, bin) arrays ordered
    alpha-major.  Both evaluation engines walk the band in tiles: a tile is a
    batch of consecutive alphas times the contiguous beta range its pairs
    span, and its pairs are exactly one slice ``s0:s1`` of the flat arrays.
    Because the window fixes the mean energy, the tiles follow the
    anti-diagonal band instead of covering it with rectangles.

    - the grouped engine forms, per tile, the operator-independent transfer
      matrices ``T[p, q] = sum_j V3[alpha, p, j] V3[beta, q, j]`` of all its
      pairs in one matrix product, then streams the pairs through cache:
      one matrix product per block gives the elements of every ensemble
      operator (worthwhile when ``dim_a <= dim_b``);
    - the direct engine evaluates elements per operator with one matrix
      product per tile (used when the A factor is the larger one).

    Tiles and blocks run in a fixed order on the calling thread, and per-bin
    sums merge in that order, so the results are bit-reproducible.
    """

    def __init__(self, energies, ebar_center, ebar_halfwidth, bin_width):
        energies = np.asarray(energies, dtype=float)
        n = energies.size
        lo_sum = 2.0 * (ebar_center - ebar_halfwidth)
        hi_sum = 2.0 * (ebar_center + ebar_halfwidth)
        lo = np.searchsorted(energies, lo_sum - energies, side="left")
        hi = np.searchsorted(energies, hi_sum - energies, side="right")
        ar = np.arange(n)
        lo = np.maximum(lo, ar + 1)  # unordered pairs once: beta > alpha
        hi = np.maximum(hi, lo)
        lens = hi - lo
        total_pairs = int(lens.sum())
        if total_pairs == 0:
            raise EmptyWindowError(
                f"no eigenstate pairs with mean energy in "
                f"[{ebar_center - ebar_halfwidth}, {ebar_center + ebar_halfwidth}]"
            )
        self.energies = energies
        self.ebar_center = float(ebar_center)
        self.ebar_halfwidth = float(ebar_halfwidth)
        self.bin_width = float(bin_width)
        self.n_pairs = total_pairs

        rows = np.repeat(ar, lens)
        base = np.repeat(lo, lens)
        within = np.arange(total_pairs) - np.repeat(np.cumsum(lens) - lens, lens)
        cols = base + within
        inv = 1.0 / (2.0 * bin_width)
        bins = ((energies[cols] - energies[rows]) * inv).astype(np.int64)
        self.rows = rows.astype(np.int32)
        self.cols = cols.astype(np.int32)
        self.bins = bins
        self.n_bins = int(bins.max()) + 1
        self.pair_counts = np.bincount(bins, minlength=self.n_bins)
        # Pair-slice boundaries per alpha, for tile scheduling.
        self._alpha_start = np.concatenate(([0], np.cumsum(lens)))
        self._direct_blocks = None

    def _alpha_batches(self, batch: int):
        """Band tiles ``(a0, a1, b0, b1, s0, s1)`` of ``batch`` alphas each.

        Tile pairs are ``rows/cols/bins[s0:s1]``; they lie inside
        ``[a0, a1) x [b0, b1)``.  Tiles without pairs are skipped.
        """
        n = self.energies.size
        out = []
        for a0 in range(0, n, batch):
            a1 = min(a0 + batch, n)
            s0 = int(self._alpha_start[a0])
            s1 = int(self._alpha_start[a1])
            if s1 > s0:
                cols = self.cols[s0:s1]
                out.append((a0, a1, int(cols.min()), int(cols.max()) + 1, s0, s1))
        return out

    # -- grouped engine ----------------------------------------------------

    def accumulate_grouped_batch(self, w, ops_flat, tile, chunk: int = 8192):
        """Accumulate one band tile of pairs for all operators at once.

        ``w`` is the transposed eigenvector stack from :func:`_vector_stack`,
        ``w[j, alpha * dim_a + p] = V3[alpha, p, j]``; both transfer panels
        are views of it.  ``ops_flat`` holds one flattened operator per
        column.  One panel product gives the transfer matrices of the whole
        tile; its pairs then stream through cache ``_STREAM_BYTES`` of
        transfer rows at a time, each block gathered and multiplied by
        ``ops_flat`` into the values of its ``chunk`` of pairs.
        """
        a0, a1, b0, b1, s0, s1 = tile
        dim_a = w.shape[1] // self.energies.size
        a_panel = w[:, a0 * dim_a : a1 * dim_a].T
        b_panel = w[:, b0 * dim_a : b1 * dim_a]
        rect = (a_panel @ b_panel).reshape(a1 - a0, dim_a, b1 - b0, dim_a)
        rows = self.rows[s0:s1] - a0
        cols = self.cols[s0:s1] - b0
        block = max(1, _STREAM_BYTES // (8 * dim_a * dim_a))
        values = np.empty((min(chunk, s1 - s0), ops_flat.shape[1]))
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for c0 in range(0, s1 - s0, chunk):
            c1 = min(c0 + chunk, s1 - s0)
            for d0 in range(c0, c1, block):
                d1 = min(d0 + block, c1)
                transfer = rect[rows[d0:d1], :, cols[d0:d1], :]
                np.matmul(transfer.reshape(d1 - d0, dim_a * dim_a), ops_flat,
                          out=values[d0 - c0 : d1 - c0])
            s, q = accumulate_grouped(
                values[: c1 - c0], self.bins[s0 + c0 : s0 + c1], self.n_bins
            )
            sums += s
            sumsqs += q
        return sums, sumsqs

    def accumulate_grouped_all(self, w, ops_flat):
        """Grouped-engine accumulation over the whole band.

        Tiles hold ``max(4, 512 // dim_a)`` alphas so the transfer panels
        stay small.  Per-tile partial sums merge in tile order.
        """
        dim_a = w.shape[1] // self.energies.size
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for tile in self._alpha_batches(max(4, 512 // dim_a)):
            s, q = self.accumulate_grouped_batch(w, ops_flat, tile)
            sums += s
            sumsqs += q
        return sums, sumsqs

    # -- direct engine -----------------------------------------------------

    def _build_direct_blocks(self, batch: int = 64):
        """Band tiles of ``batch`` alphas as ``(a0, a1, b0, b1, rows, cols, bins)``.

        ``rows`` and ``cols`` are local to the tile's ``[a0, a1) x [b0, b1)``
        rectangle.  Built once per band and cached.
        """
        if self._direct_blocks is None:
            self._direct_blocks = [
                (a0, a1, b0, b1, self.rows[s0:s1] - a0, self.cols[s0:s1] - b0,
                 self.bins[s0:s1])
                for a0, a1, b0, b1, s0, s1 in self._alpha_batches(batch)
            ]
        return self._direct_blocks

    def accumulate_from_factors(self, vecs, applied):
        """Per-bin sums of squares and fourth powers for one operator.

        ``applied`` is ``(op (x) 1) @ vecs``; elements are evaluated per band
        tile as ``vecs[:, a0:a1].T @ applied[:, b0:b1]``.
        """
        sums = np.zeros(self.n_bins)
        sumsqs = np.zeros(self.n_bins)
        for a0, a1, b0, b1, rows, cols, bins in self._build_direct_blocks():
            sub = vecs[:, a0:a1].T @ applied[:, b0:b1]
            s, q = accumulate_pairs(sub, rows, cols, bins, self.n_bins)
            sums += s
            sumsqs += q
        return sums, sumsqs

    def accumulate_dense(self, elements):
        """Same accumulation from a precomputed dense element matrix."""
        return accumulate_pairs(
            np.ascontiguousarray(elements), self.rows, self.cols, self.bins,
            self.n_bins,
        )

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
            ebar_halfwidth=self.ebar_halfwidth,
            omega_bin_width=self.bin_width,
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
    sums, sumsqs = band.accumulate_dense(elements)
    return band.statistics(sums, sumsqs, 1)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Pooled ensemble statistics: one :class:`BinnedStatistics` per window."""

    binned: tuple[BinnedStatistics, ...]


def _check_dim_a(system: BipartiteSystem, ens: OperatorEnsembleSpec) -> None:
    if ens.dim_a != system.dim_a:
        raise DimensionError(
            f"ensemble dim_a={ens.dim_a} does not match system dim_a={system.dim_a}"
        )


def run_ensemble(
    system: BipartiteSystem,
    ens: OperatorEnsembleSpec,
    ebar_centers: Sequence[float],
    params: BinningParams = BinningParams(),
) -> EnsembleResult:
    """Binned off-diagonal statistics pooled over the operator ensemble.

    Both engines walk each window's band in tiles (see :class:`PairBand`).
    When ``dim_a <= dim_b`` (the usual case) the grouped engine amortizes the
    band evaluation over all operators at once, reading its panels from one
    transposed eigenvector stack built per call; otherwise elements are
    evaluated per operator, one matrix product per band tile.  The BLAS
    library's threads are the only parallelism: tiles and operators run in a
    fixed order on the calling thread, so the results are bitwise
    reproducible.
    """
    _check_dim_a(system, ens)
    vecs = system.spectrum_t.eigenvectors
    width = params.resolve_width(system.spectrum_t.spectral_range)
    bands = [
        PairBand(system.spectrum_t.eigenvalues, c, params.ebar_halfwidth, width)
        for c in ebar_centers
    ]
    ops = [sample_local_operator(ens, k) for k in range(ens.count)]

    if system.dim_a <= system.dim_b:
        ops_flat = np.stack([op.ravel() for op in ops], axis=1)
        w = _vector_stack(vecs, system.dim_a, system.dim_b)
        partials = [band.accumulate_grouped_all(w, ops_flat) for band in bands]
    else:
        partials = [(np.zeros(band.n_bins), np.zeros(band.n_bins)) for band in bands]
        for op in ops:
            applied = _apply_a_factor(op, vecs, system.dim_a, system.dim_b)
            for band, (sums, sumsqs) in zip(bands, partials):
                s, q = band.accumulate_from_factors(vecs, applied)
                sums += s
                sumsqs += q
    return EnsembleResult(
        binned=tuple(
            band.statistics(sums, sumsqs, ens.count)
            for band, (sums, sumsqs) in zip(bands, partials)
        )
    )


# Transfer-matrix elements per alpha block of operator_diagonals (32 MB).
_DIAGONAL_BLOCK = 1 << 22


def operator_diagonals(
    system: BipartiteSystem, ens: OperatorEnsembleSpec
) -> np.ndarray:
    """Diagonal of every ensemble operator in the eigenbasis, ``(count, total)``.

    ``O[alpha, alpha] = sum_pq O_pq T_alpha[p, q]`` with the transfer matrix
    ``T_alpha = V3[alpha] V3[alpha]^T`` of :class:`PairBand` at
    ``alpha = beta``, formed for at most ``_DIAGONAL_BLOCK`` elements' worth
    of alphas at a time.
    """
    _check_dim_a(system, ens)
    dim_a, total = system.dim_a, system.total_dim
    vecs = system.spectrum_t.eigenvectors
    ops_flat = np.stack(
        [sample_local_operator(ens, k).ravel() for k in range(ens.count)], axis=1
    )
    out = np.empty((ens.count, total))
    step = max(1, _DIAGONAL_BLOCK // (dim_a * dim_a))
    for a0 in range(0, total, step):
        v3 = vecs[:, a0 : a0 + step].T.reshape(-1, dim_a, system.dim_b)
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
    sigma_s: float

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
        sigma_s=float(sigma_s),
    )

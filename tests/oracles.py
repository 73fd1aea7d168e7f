"""Test oracles that share no code with the ensemble engines.

The engines in :mod:`ethlab.experiments` apply an operator factor-wise to
eigenvector rows, walk a window's pairs in band tiles and bin them through
:class:`ethlab.experiments.PairBand`.  The oracles here read only a
system's spectra and build the rest from numpy alone: elements from an
explicit Kronecker product, a window's pairs from one whole-band search, and
per-bin moments from one ``bincount`` each.  A fault in the engines' shared
code therefore shows up against them instead of cancelling out.
"""

import numpy as np


def embed(ops_by_site, sites):
    """Kronecker product of ``sites`` qubit factors.

    Factor ``r`` (0-based, the leftmost most significant) is
    ``ops_by_site[r]`` where given and the 2x2 identity elsewhere.
    """
    m = np.ones((1, 1))
    for r in range(sites):
        m = np.kron(m, ops_by_site.get(r, np.eye(2)))
    return m


def dense_elements(system, op_a):
    """``<alpha|op_a (x) 1|beta>`` for every pair of total eigenstates.

    The explicit Kronecker product between the eigenvector matrices.
    """
    v = system.spectrum_t.eigenvectors
    return v.T @ np.kron(op_a, np.eye(system.dim_b)) @ v


def flat_band(energies, ebar_center, ebar_halfwidth, bin_width):
    """Whole-band ``(rows, cols, bins, n_bins, pair_counts)`` of one window.

    The unordered pairs ``alpha < beta`` whose mean energy lies in the closed
    window, alpha-major, each with its omega bin, all built at once from
    each alpha's range of partners.
    """
    n = energies.size
    lo_sum = 2.0 * (ebar_center - ebar_halfwidth)
    hi_sum = 2.0 * (ebar_center + ebar_halfwidth)
    lo = np.searchsorted(energies, lo_sum - energies, side="left")
    hi = np.searchsorted(energies, hi_sum - energies, side="right")
    ar = np.arange(n)
    lo = np.maximum(lo, ar + 1)
    hi = np.maximum(hi, lo)
    lens = hi - lo
    total_pairs = int(lens.sum())
    rows = np.repeat(ar, lens)
    base = np.repeat(lo, lens)
    within = np.arange(total_pairs) - np.repeat(np.cumsum(lens) - lens, lens)
    cols = base + within
    inv = 1.0 / (2.0 * bin_width)
    bins = ((energies[cols] - energies[rows]) * inv).astype(np.int64)
    n_bins = int(bins.max()) + 1
    return (
        rows.astype(np.int32),
        cols.astype(np.int32),
        bins,
        n_bins,
        np.bincount(bins, minlength=n_bins),
    )


def moments(elements, bins, n_bins):
    """Per-bin sums of squares and of fourth powers of ``elements``.

    The squares, then the squares of the squares, each summed by one
    ``bincount`` in the order given.
    """
    sq = elements * elements
    return (
        np.bincount(bins, weights=sq, minlength=n_bins),
        np.bincount(bins, weights=sq * sq, minlength=n_bins),
    )

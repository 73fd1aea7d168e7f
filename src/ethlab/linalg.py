"""Dense spectral primitives.

Symmetric eigendecompositions with a fixed sign convention, interpolated
densities of states, cross-correlations of compactly supported functions, and
adaptive quadrature that knows about kinks.  The quadrature advances many
integrals together, breadth first, with one vectorized integrand call per
subdivision level, and is bitwise equal to the depth-first recursive Simpson
rule it replaced.  Everything downstream (scrambling statistics, ansatz
predictions) is built on these four primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    QuadratureError,
    ValidationError,
    ZeroWidthSpectrumError,
)

__all__ = [
    "Spectrum",
    "GridFunction",
    "SpectralDensity",
    "eig_sym",
    "density_of_states",
    "cross_correlate",
    "integrate_adaptive",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (dim,)
        Sorted ascending.
    eigenvectors : ndarray, shape (dim, dim)
        Orthonormal columns; column ``k`` belongs to ``eigenvalues[k]``.  Each
        column is normalized so its largest-magnitude component is positive
        (first such component on ties), which makes decompositions
        reproducible across LAPACK builds.  Stored eigenstate-major:
        ``eigenvectors.T`` is C-contiguous, so each eigenvector is one
        contiguous row of it.  Spectra from :func:`eig_sym` and the cache
        already are; a matrix in another layout is copied once here.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vecs = np.ascontiguousarray(self.eigenvectors.T).T
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def rows(self) -> np.ndarray:
        """Eigenvectors as C-contiguous rows, ``rows[k]`` = column ``k`` (a view)."""
        return self.eigenvectors.T


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-linear function tabulated on an increasing grid.

    Evaluates to zero outside ``[grid[0], grid[-1]]``.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DimensionError("grid and values must be 1-d arrays of equal length")
        if grid.size < 2:
            raise DimensionError("need at least two grid points")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def __call__(self, x):
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


@dataclass(frozen=True, eq=False)
class SpectralDensity(GridFunction):
    """Interpolated density of states.

    ``values`` carries states per unit energy; the trapezoidal integral over
    ``grid`` equals ``total`` (the eigenvalue count) by construction.
    """

    total: float = 0.0

    def normalized(self) -> GridFunction:
        """The same shape rescaled to unit integral (a probability density)."""
        return GridFunction(self.grid, self.values / self.total)


# Largest asymmetry max|A - A.T| eig_sym accepts, relative to max(1, max|A|).
_SYM_TOL = 1e-12


def eig_sym(matrix: np.ndarray, *, check: bool = True) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    matrix : ndarray, shape (dim, dim)
        Real symmetric, all entries finite.
    check : bool
        Validate symmetry and finiteness first (skip only on data already
        validated upstream); the allowed asymmetry is ``_SYM_TOL``.

    Returns
    -------
    Spectrum
        Ascending eigenvalues and sign-fixed orthonormal eigenvectors, stored
        eigenstate-major (``eigenvectors.T`` is C-contiguous).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if check:
        if not np.all(np.isfinite(a)):
            raise ValidationError("matrix contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(a))))
        asym = float(np.max(np.abs(a - a.T)))
        if asym > _SYM_TOL * scale:
            raise ValidationError(
                f"matrix is not symmetric: max|A - A.T| = {asym:.3e} "
                f"exceeds {_SYM_TOL:.1e} * {scale:.3e}"
            )
    vals, vecs = np.linalg.eigh(a)
    # eigh's workspace is freed by now, so the transposed copy does not
    # raise the peak; the eigenvectors then live as contiguous rows.
    rows = np.ascontiguousarray(vecs.T)
    del vecs
    _fix_signs(rows)
    return Spectrum(eigenvalues=vals, eigenvectors=rows.T)


def _fix_signs(rows: np.ndarray) -> None:
    # Largest-magnitude component of each row (eigenvector) made positive,
    # first such component on ties, in place.
    lead = np.argmax(np.abs(rows), axis=1)
    signs = np.sign(rows[np.arange(rows.shape[0]), lead])
    signs[signs == 0] = 1.0
    rows *= signs[:, None]


def density_of_states(eigenvalues: np.ndarray, bins: int = 64) -> SpectralDensity:
    """Histogram density of states, linearly interpolated.

    The eigenvalues are histogrammed into ``bins`` equal bins spanning the
    spectrum; bin heights (counts per unit energy) are attached to bin centers
    and extended constantly into the two half-bins at the spectrum edges, so
    the trapezoidal integral of the interpolant reproduces the eigenvalue
    count exactly.  The tabulation grid refines every knot interval four-fold,
    giving at least ``4 * bins`` points.

    Parameters
    ----------
    eigenvalues : ndarray
        At least two values with nonzero spread.
    bins : int
        Number of histogram bins, at least 4.

    Returns
    -------
    SpectralDensity
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if e.size < 2:
        raise DimensionError("need at least two eigenvalues for a density")
    if not np.all(np.isfinite(e)):
        raise ValidationError("eigenvalues contain non-finite entries")
    if bins < 4:
        raise ValidationError("bins must be at least 4")
    lo, hi = float(e[0]), float(e[-1])
    if hi == lo:
        raise ZeroWidthSpectrumError("spectrum has zero width; density undefined")
    counts, edges = np.histogram(e, bins=bins, range=(lo, hi))
    width = (hi - lo) / bins
    centers = 0.5 * (edges[:-1] + edges[1:])
    knots = np.concatenate(([lo], centers, [hi]))
    knot_vals = np.concatenate(([counts[0]], counts, [counts[-1]])) / width
    # Refine each knot interval 4x; sampling a piecewise-linear function at a
    # superset of its knots keeps the trapezoidal integral exact.
    pieces = [np.linspace(knots[i], knots[i + 1], 5)[:-1] for i in range(knots.size - 1)]
    grid = np.concatenate(pieces + [knots[-1:]])
    values = np.interp(grid, knots, knot_vals)
    return SpectralDensity(
        grid=grid,
        values=values,
        total=float(e.size),
    )


def integrate_adaptive(
    f: Callable,
    a,
    b,
    *,
    tol=1e-8,
    kinks=(),
    max_depth: int = 48,
):
    """Adaptive Simpson quadrature of one integral or of many at once.

    Every interval is split at each distinct kink strictly inside ``(a, b)``
    before the adaptive subdivision starts, so integrands with isolated slope
    discontinuities converge at the smooth-integrand rate.  The subdivision
    runs breadth first over all integrals together: each level evaluates the
    integrand once, on the quarter points of every unconverged panel.  The
    subdivision tree, the tolerances and the order of every addition are
    those of the depth-first recursion (children summed as ``left + right``
    bottom-up, segments summed in kink order from ``0.0``), so the results
    are bitwise equal to it.

    Parameters
    ----------
    f : callable
        With scalar limits, ``f(x)`` maps a 1-d array of abscissae to the
        integrand values.  With array limits, ``f(x, rows)`` does the same for
        abscissae ``x`` that belong to integrals ``rows`` (an index array).
    a, b : float or 1-d array
        Integration limits, finite, ``a <= b`` elementwise.
    tol : float or 1-d array
        Absolute tolerance for each whole integral, shared across its
        segments in proportion to their width.
    kinks : sequence of float, or one such sequence per integral
        Abscissae where the integrand is continuous but not smooth; values
        outside ``(a, b)`` and repeats are ignored.
    max_depth : int
        Subdivision limit per segment; exceeding it raises
        :class:`QuadratureError` carrying the best estimates accumulated so
        far (a float, or an array for array limits).

    Returns
    -------
    float, or ndarray of the shape of ``a`` for array limits
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionError("integration limits must be 1-d arrays of equal length")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValidationError("integration limits must be finite")
    if np.any(b < a):
        raise ValidationError("integration limits must satisfy a <= b")
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    if scalar:
        totals, ok = _adaptive_simpson(
            lambda x, rows: f(x), a, b, tol, [kinks], max_depth
        )
    else:
        if len(kinks) == 0:
            kinks = [()] * a.size
        if len(kinks) != a.size:
            raise DimensionError("kinks must hold one sequence per integral")
        totals, ok = _adaptive_simpson(f, a, b, tol, kinks, max_depth)
    if not ok.all():
        raise QuadratureError(
            f"adaptive quadrature did not reach tol within depth {max_depth} "
            f"for {int((~ok).sum())} of {ok.size} integrals",
            best_estimate=float(totals[0]) if scalar else totals,
        )
    return float(totals[0]) if scalar else totals


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, b, tol, kinks, max_depth):
    # Breadth-first adaptive Simpson over every segment of every integral.
    # Returns the per-integral totals and a per-integral convergence flag.
    seg_row, seg_l, seg_r, seg_idx = [], [], [], []
    for i, (ai, bi, ki) in enumerate(zip(a.tolist(), b.tolist(), kinks)):
        if ai == bi:
            continue
        cuts = [ai] + sorted(k for k in set(float(k) for k in ki) if ai < k < bi)
        cuts.append(bi)
        seg_row.extend([i] * (len(cuts) - 1))
        seg_l.extend(cuts[:-1])
        seg_r.extend(cuts[1:])
        seg_idx.extend(range(len(cuts) - 1))
    totals = np.zeros(a.size)
    ok = np.ones(a.size, dtype=bool)
    if not seg_row:
        return totals, ok
    row = np.array(seg_row)
    lo = np.array(seg_l)
    hi = np.array(seg_r)
    width = b[row] - a[row]
    seg_tol = np.maximum(tol[row] * (hi - lo) / width, 1e-300)

    mid = 0.5 * (lo + hi)
    k = row.size
    fvals = f(np.concatenate((lo, mid, hi)), np.concatenate((row, row, row)))
    fa, fm, fb = fvals[:k], fvals[k : 2 * k], fvals[2 * k :]
    whole = _simpson(fa, fm, fb, hi - lo)

    # One entry per level: node values (leaves filled now, split nodes when
    # folding) and the mask of split nodes, whose children sit interleaved
    # (left, right) on the next level.
    levels = []
    nodes = (lo, hi, fa, fm, fb, whole, seg_tol, row)
    depth = max_depth
    while True:
        l, r, fa, fm, fb, whole, t, rw = nodes
        m = 0.5 * (l + r)
        lm = 0.5 * (l + m)
        rm = 0.5 * (m + r)
        k = rw.size
        fq = f(np.concatenate((lm, rm)), np.concatenate((rw, rw)))
        flm, frm = fq[:k], fq[k:]
        left = _simpson(fa, flm, fm, m - l)
        right = _simpson(fm, frm, fb, r - m)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * t
        values = left + right + delta / 15.0
        if depth <= 0:
            ok[rw[~done]] = False
            levels.append((values, None))
            break
        split = ~done
        levels.append((values, split))
        if not split.any():
            break
        s = np.flatnonzero(split)
        half = 0.5 * t[s]
        nodes = tuple(
            _interleave(x, y)
            for x, y in (
                (l[s], m[s]),
                (m[s], r[s]),
                (fa[s], fm[s]),
                (flm[s], frm[s]),
                (fm[s], fb[s]),
                (left[s], right[s]),
                (half, half),
                (rw[s], rw[s]),
            )
        )
        depth -= 1

    values = levels[-1][0]
    for parent, split in reversed(levels[:-1]):
        parent[split] = values[0::2] + values[1::2]
        values = parent

    # Segments in kink order per integral, summed from 0.0 as a running total.
    seg_idx = np.array(seg_idx)
    for j in range(int(seg_idx.max()) + 1):
        pick = seg_idx == j
        totals[row[pick]] += values[pick]
    return totals, ok


def _interleave(x, y):
    out = np.empty(2 * x.size, dtype=x.dtype)
    out[0::2] = x
    out[1::2] = y
    return out


def cross_correlate(
    g1,
    g2,
    *,
    tol: float = 1e-8,
    n_grid: int = 513,
    kinks1: Sequence[float] = (),
    kinks2: Sequence[float] = (),
) -> GridFunction:
    """Cross-correlation ``[g1 * g2](x) = integral dy g1(y) g2(x + y)``.

    Both inputs must be compactly supported callables exposing ``support``
    (as :class:`GridFunction` does).  The result is tabulated on ``n_grid``
    points covering the exact support ``[lo2 - hi1, hi2 - lo1]`` of the
    correlation and returned as a :class:`GridFunction`; all points are
    integrated in one batched :func:`integrate_adaptive` call.

    Parameters
    ----------
    g1, g2 : callable with ``support``
    tol : float
        Quadrature tolerance per evaluation point.
    n_grid : int
        Output tabulation size (at least 3).
    kinks1, kinks2 : sequence of float
        Kink abscissae of ``g1`` and ``g2``; the integrator splits at the
        induced ``y`` locations for every evaluation point.

    Returns
    -------
    GridFunction
    """
    lo1, hi1 = g1.support
    lo2, hi2 = g2.support
    if n_grid < 3:
        raise ValidationError("n_grid must be at least 3")
    xs = np.linspace(lo2 - hi1, hi2 - lo1, n_grid)
    ylo = np.maximum(lo1, lo2 - xs)
    yhi = np.minimum(hi1, hi2 - xs)
    live = yhi > ylo
    x = xs[live]
    k1 = np.array(sorted(set(float(k) for k in kinks1)))
    k2 = np.array(sorted(set(float(k) for k in kinks2)))
    kinks = np.column_stack(
        (np.broadcast_to(k1, (x.size, k1.size)), k2[None, :] - x[:, None])
    )

    def integrand(y, rows):
        # Clipped to the support: at y = hi2 - x the sum x + y can round
        # above hi2, where g2 reads 0 and the last panel never converges.
        return g1(y) * g2(np.clip(x[rows] + y, lo2, hi2))

    out = np.zeros_like(xs)
    out[live] = integrate_adaptive(
        integrand, ylo[live], yhi[live], tol=tol, kinks=kinks
    )
    return GridFunction(grid=xs, values=out)

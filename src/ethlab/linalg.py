"""Dense spectral primitives.

Symmetric eigendecompositions with a fixed sign convention, interpolated
densities of states, and adaptive quadrature that knows about kinks.  The
quadrature advances many integrals together, breadth first, with one
vectorized integrand call per subdivision level, and adds each panel to its
integral's total on the level where it converges.  Everything downstream
(scrambling statistics, ansatz predictions) is built on these three
primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    QuadratureError,
    ValidationError,
    ZeroWidthSpectrumError,
    _positive,
)

__all__ = [
    "Spectrum",
    "GridFunction",
    "SpectralDensity",
    "eig_sym",
    "density_of_states",
    "integrate_adaptive",
]


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
        already are; a matrix in another layout is copied once.

    A spectrum made with ``solve`` instead of ``eigenvectors`` holds only its
    eigenvalues until ``eigenvectors`` or ``rows`` is first read; that read
    takes the eigenvector matrix from ``solve()`` and keeps it, and drops
    ``solve``.  ``solve`` must give the eigenvectors of the solver that gave
    the eigenvalues.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors=None, *, solve=None):
        if (eigenvectors is None) == (solve is None):
            raise ValidationError("a spectrum takes eigenvectors or solve, exactly one")
        self.eigenvalues = eigenvalues
        self._solve = solve
        self._vectors = None if eigenvectors is None else _eigenstate_major(eigenvectors)

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is None:
            self._vectors = _eigenstate_major(self._solve())
            self._solve = None
        return self._vectors

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


def _eigenstate_major(vecs: np.ndarray) -> np.ndarray:
    # The same matrix with C-contiguous rows of its transpose (no copy when
    # it already is).
    return np.ascontiguousarray(vecs.T).T


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

    total: float

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
    vals, vecs = np.linalg.eigh(_symmetric(matrix, check))
    # eigh's workspace is freed by now, so the transposed copy does not
    # raise the peak; the eigenvectors then live as contiguous rows.
    rows = np.ascontiguousarray(vecs.T)
    del vecs
    _fix_signs(rows)
    return Spectrum(eigenvalues=vals, eigenvectors=rows.T)


def _symmetric(matrix, check: bool) -> np.ndarray:
    # The input as a square float array, validated when ``check`` is set.
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
    return a


def _fix_signs(rows: np.ndarray) -> None:
    # Largest-magnitude component of each row (eigenvector) made positive,
    # first such component on ties, in place.
    lead = np.argmax(np.abs(rows), axis=1)
    signs = np.sign(rows[np.arange(rows.shape[0]), lead])
    signs[signs == 0] = 1.0
    rows *= signs[:, None]


# Distance below an interior bin edge, relative to the spectral range, within
# which density_of_states counts a level in the bin above the edge.
_EDGE_TOL = 1e-12


def density_of_states(eigenvalues: np.ndarray, bins: int = 64) -> SpectralDensity:
    """Histogram density of states, linearly interpolated.

    The eigenvalues are histogrammed into ``bins`` equal bins spanning the
    spectrum; bin heights (counts per unit energy) are attached to bin centers
    and extended constantly into the two half-bins at the spectrum edges, so
    the trapezoidal integral of the interpolant reproduces the eigenvalue
    count exactly.  The density is tabulated on its ``bins + 2`` knots: the
    lowest level, the bin centers and the highest level.

    A level on an interior bin edge counts in the bin above it, and so does
    a level less than ``_EDGE_TOL`` times the spectral range below one: a
    level that lies on an edge in exact arithmetic (the sum of the lowest
    and highest level of two equal spectra, say) keeps its bin whatever the
    roundoff of the solver that produced it.

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
    edges = np.histogram_bin_edges(e, bins=bins, range=(lo, hi))
    # Every interior edge moves down by tol, the outer two stay: bin k holds
    # the levels from its lower edge up to, not including, its upper one
    # (the last bin closed).  With tol = 0 these are np.histogram's bins.
    shifted = edges[1:-1] - _EDGE_TOL * (hi - lo)
    counts = np.bincount(np.searchsorted(shifted, e, side="right"), minlength=bins)
    width = (hi - lo) / bins
    centers = 0.5 * (edges[:-1] + edges[1:])
    knots = np.concatenate(([lo], centers, [hi]))
    values = np.concatenate(([counts[0]], counts, [counts[-1]])) / width
    return SpectralDensity(grid=knots, values=values, total=float(e.size))


# Subdivision limit per segment of integrate_adaptive.
_MAX_DEPTH = 48


def integrate_adaptive(f: Callable, a, b, *, tol, kinks=None) -> np.ndarray:
    """Adaptive Simpson quadrature of many integrals at once.

    Every interval is split at its kinks before the adaptive subdivision
    starts, so integrands with isolated slope discontinuities converge at
    the smooth-integrand rate.  The subdivision runs breadth first over the
    segments of all integrals together: each level evaluates the integrand
    once, on the quarter points of every unconverged panel, and adds the
    panels that converge on it to their integrals' totals.  An integral's
    panels enter its total in the same order whichever other integrals
    share the call, so one call over many integrals is bitwise the calls
    over each alone.

    Parameters
    ----------
    f : callable
        ``f(x, rows)`` maps a 1-d array of abscissae ``x``, which belong to
        the integrals ``rows`` (an index array), to the integrand values.
    a, b : 1-d array
        Integration limits, finite, ``a <= b`` elementwise.
    tol : float or 1-d array
        Absolute tolerance for each whole integral, finite and positive,
        shared across its segments in proportion to their width.
    kinks : array of shape ``(n, k)``, or None
        Row ``i`` holds the abscissae where integral ``i``'s integrand is
        continuous but not smooth, all finite; values outside ``(a, b)`` and
        repeats are ignored.

    Returns
    -------
    ndarray of the shape of ``a``

    Raises
    ------
    QuadratureError
        When a segment does not converge within ``_MAX_DEPTH`` subdivisions,
        or at the first value of ``f`` that is not finite (a panel holding
        one never converges); it carries the best estimates so far.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionError("integration limits must be 1-d arrays of equal length")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValidationError("integration limits must be finite")
    if np.any(b < a):
        raise ValidationError("integration limits must satisfy a <= b")
    _positive(tol=tol)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    inner = np.empty((a.size, 0))
    if kinks is not None:
        kinks = np.asarray(kinks, dtype=float)
        if kinks.ndim != 2 or kinks.shape[0] != a.size:
            raise DimensionError("kinks must be an (n, k) array, one row per integral")
        if not np.all(np.isfinite(kinks)):
            raise ValidationError("kinks must be finite")
        inner = np.sort(np.clip(kinks, a[:, None], b[:, None]), axis=1)
    totals, ok = _adaptive_simpson(f, a, b, tol, np.column_stack((a, inner, b)))
    if not ok.all():
        raise QuadratureError(
            f"adaptive quadrature did not reach tol within depth {_MAX_DEPTH} "
            f"for {int((~ok).sum())} of {ok.size} integrals",
            best_estimate=totals,
        )
    return totals


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, b, tol, cuts):
    # Breadth-first adaptive Simpson over the nonempty segments between
    # consecutive cuts of each row.  Returns the per-integral totals and a
    # per-integral convergence flag.
    totals = np.zeros(a.size)
    ok = np.ones(a.size, dtype=bool)

    def values(x, rows):  # f, refused at its first value that is not finite
        v = f(x, rows)
        if not np.isfinite(v).all():
            raise QuadratureError("the integrand is not finite", best_estimate=totals)
        return v

    l, r = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    rw = np.repeat(np.arange(a.size), cuts.shape[1] - 1)
    keep = r > l
    l, r, rw = l[keep], r[keep], rw[keep]
    if not rw.size:
        return totals, ok
    t = np.maximum(tol[rw] * (r - l) / (b[rw] - a[rw]), 1e-300)
    k = rw.size
    fvals = values(np.concatenate((l, 0.5 * (l + r), r)), np.tile(rw, 3))
    fa, fm, fb = fvals[:k], fvals[k : 2 * k], fvals[2 * k :]
    whole = _simpson(fa, fm, fb, r - l)
    depth = _MAX_DEPTH
    while True:
        m = 0.5 * (l + r)
        k = rw.size
        fq = values(np.concatenate((0.5 * (l + m), 0.5 * (m + r))), np.tile(rw, 2))
        flm, frm = fq[:k], fq[k:]
        left = _simpson(fa, flm, fm, m - l)
        right = _simpson(fm, frm, fb, r - m)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * t
        if depth <= 0:
            # Out of depth: every panel left gives its best estimate.
            ok[rw[~done]] = False
            done[:] = True
        totals += np.bincount(rw[done], weights=(left + right + delta / 15.0)[done],
                              minlength=a.size)
        s = np.flatnonzero(~done)
        if not s.size:
            return totals, ok
        l, r, fa, fm, fb, whole, t, rw = (
            np.concatenate(halves)
            for halves in (
                (l[s], m[s]),
                (m[s], r[s]),
                (fa[s], fm[s]),
                (flm[s], frm[s]),
                (fm[s], fb[s]),
                (left[s], right[s]),
                (0.5 * t[s], 0.5 * t[s]),
                (rw[s], rw[s]),
            )
        )
        depth -= 1

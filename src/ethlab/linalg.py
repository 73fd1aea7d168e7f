"""Dense spectral primitives.

Symmetric eigendecompositions with a fixed sign convention, interpolated
densities of states, cross-correlations of compactly supported functions, and
adaptive quadrature that knows about kinks.  Everything downstream (scrambling
statistics, ansatz predictions) is built on these four primitives.
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
        reproducible across LAPACK builds.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


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
    spectral_min: float = 0.0
    spectral_max: float = 0.0

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
        Ascending eigenvalues and sign-fixed orthonormal eigenvectors.
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
    _fix_signs(vecs)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def _fix_signs(vecs: np.ndarray) -> None:
    # Largest-magnitude component of each column made positive, in place.
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs *= signs


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
        spectral_min=lo,
        spectral_max=hi,
    )


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = 1e-8,
    kinks: Sequence[float] = (),
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    The interval is split at every kink strictly inside ``(a, b)`` before the
    adaptive recursion starts, so integrands with isolated slope
    discontinuities converge at the smooth-integrand rate.

    Parameters
    ----------
    f : callable
        Scalar integrand.
    a, b : float
        Integration limits, ``a <= b``.
    tol : float
        Absolute tolerance for the whole integral, shared across segments in
        proportion to their width.
    kinks : sequence of float
        Abscissae where ``f`` is continuous but not smooth.
    max_depth : int
        Recursion limit per segment; exceeding it raises
        :class:`QuadratureError` carrying the best estimate accumulated so far.

    Returns
    -------
    float
    """
    a = float(a)
    b = float(b)
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValidationError("integration limits must be finite")
    if b < a:
        raise ValidationError("integration limits must satisfy a <= b")
    if a == b:
        return 0.0
    cuts = [a] + sorted(k for k in set(float(k) for k in kinks) if a < k < b) + [b]
    total = 0.0
    failed = False
    width = b - a
    for left, right in zip(cuts[:-1], cuts[1:]):
        seg_tol = max(tol * (right - left) / width, 1e-300)
        value, ok = _adaptive_segment(f, left, right, seg_tol, max_depth)
        total += value
        failed = failed or not ok
    if failed:
        raise QuadratureError(
            f"adaptive quadrature did not reach tol={tol:.1e} within depth {max_depth}",
            best_estimate=total,
        )
    return total


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_segment(f, a, b, tol, max_depth):
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _adaptive_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, True
    if depth <= 0:
        return left + right + delta / 15.0, False
    lval, lok = _adaptive_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rval, rok = _adaptive_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lval + rval, lok and rok


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
    correlation and returned as a :class:`GridFunction`.

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
    out = np.zeros_like(xs)
    k1 = sorted(set(float(k) for k in kinks1))
    k2 = sorted(set(float(k) for k in kinks2))
    for idx, x in enumerate(xs):
        ylo = max(lo1, lo2 - x)
        yhi = min(hi1, hi2 - x)
        if yhi <= ylo:
            continue
        kk = k1 + [k - x for k in k2]

        def integrand(y, _x=x):
            return g1(y) * g2(_x + y)

        out[idx] = integrate_adaptive(integrand, ylo, yhi, tol=tol, kinks=kk)
    return GridFunction(grid=xs, values=out)

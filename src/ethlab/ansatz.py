"""Analytic predictions for matrix-element statistics.

The approximation ladder runs from exact discrete sums over subsystem spectra
(microcanonical window counts, smooth profile sums) down to closed-form
continuum limits (narrow scrambling, small-A autocorrelation, flat-spectrum
forms).  Every rung predicts the variance of off-diagonal matrix elements of
a local operator between eigenstates at mean energy ``Ebar`` and half
splitting ``omega``; the Gibbs form predicts the diagonal.

Conventions: ``sigma_a`` is the spectral range of the subsystem Hamiltonian,
``sigma_s`` the scrambling width, ``o2bar`` the mean squared operator
spectrum.  The flat scrambling window equivalent to a width ``sigma_s`` is
``delta = 2 sqrt(3) sigma_s``.  Smooth continuum kinds return the suppressed
amplitude ``f`` with the entropic factor ``(sigma_s n_0(Ebar))**-1/2``
reported separately; exact-sum kinds absorb the suppression into their
normalization and report an entropic factor of one.

Each continuum rung has a grid form that evaluates a whole omega grid with
one batched quadrature (:func:`~ethlab.linalg.integrate_adaptive` over all
omegas); the public scalar functions (``f_narrow``, ``f_small_a``, ...) are
that grid form at a single omega.  :meth:`AnsatzModel.evaluate` calls the
grid form once per mean energy and drops the omegas outside a density's
support through a mask, where the scalar ``f_narrow`` raises
:class:`~ethlab.errors.OutOfSupportError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateWindowError,
    DimensionError,
    OutOfSupportError,
    ValidationError,
)
from .hamiltonians import BipartiteSystem
from .linalg import (
    GridFunction,
    cross_correlate,
    density_of_states,
    integrate_adaptive,
)
from .scrambling import SQRT2, SQRT3, exp_profile

__all__ = [
    "AnsatzKind",
    "AnsatzModel",
    "Prediction",
    "entropic_factor",
    "exp_autocorrelation",
    "density_autocorrelation",
    "f_microcanonical_exact",
    "f_smooth_sums",
    "f_narrow",
    "f_small_a",
    "f_flat_a",
    "f_smooth_small_a",
    "f_exp_decay",
    "f_mc_finite_width",
    "gibbs_diagonal",
    "inverse_temperature",
    "rmt_variance",
]


def entropic_factor(n_0, ebar: float, sigma_s: float) -> float:
    """Entropic suppression ``(sigma_s * n_0(Ebar))**-1/2``."""
    if sigma_s <= 0:
        raise ValidationError("sigma_s must be positive")
    lo, hi = n_0.support
    if not lo <= ebar <= hi:
        raise OutOfSupportError(f"Ebar={ebar} outside density support [{lo}, {hi}]")
    val = float(n_0(ebar))
    if val <= 0:
        raise OutOfSupportError(f"density vanishes at Ebar={ebar}")
    return float(1.0 / np.sqrt(sigma_s * val))


def rmt_variance(o2bar: float, total_dim: int) -> float:
    """Structureless random-matrix variance ``o2bar / total_dim``."""
    if total_dim < 1:
        raise ValidationError("total_dim must be >= 1")
    return float(o2bar) / float(total_dim)


def exp_autocorrelation(sigma_s: float) -> Callable:
    """Closed-form autocorrelation of the exponential scrambling profile.

    ``[h * h](E) = (sigma_s / sqrt(2) + |E|) exp(-sqrt(2) |E| / sigma_s)``.
    """
    if sigma_s <= 0:
        raise ValidationError("sigma_s must be positive")
    rate = SQRT2 / sigma_s

    def hh(energy):
        a = np.abs(energy)
        return (sigma_s / SQRT2 + a) * np.exp(-rate * a)

    return hh


@lru_cache(maxsize=32)
def density_autocorrelation(rho: GridFunction, n_grid: int = 1025) -> GridFunction:
    """Tabulated autocorrelation ``[rho * rho]`` of a compactly supported density.

    Cached by object identity: models evaluating many omega points reuse one
    tabulation.
    """
    return cross_correlate(rho, rho, n_grid=n_grid)


def _squared_elements(
    system: BipartiteSystem, op_a: Optional[np.ndarray], o2bar: float
) -> np.ndarray:
    # |O_ij|^2 in the A eigenbasis; None selects the typical-operator value.
    dim_a = system.dim_a
    if op_a is None:
        return np.full((dim_a, dim_a), float(o2bar) / dim_a)
    if op_a.shape != (dim_a, dim_a):
        raise DimensionError(
            f"operator shape {op_a.shape} does not match dim_a={dim_a}"
        )
    v_a = system.spectrum_a.eigenvectors
    rotated = v_a.T @ op_a @ v_a
    return rotated**2


def _window_counts(sorted_vals, lows, highs):
    # Sorted values inside each closed window [lows[k], highs[k]]; windows
    # with highs[k] < lows[k] count zero.
    lo_idx = np.searchsorted(sorted_vals, lows, side="left")
    hi_idx = np.searchsorted(sorted_vals, highs, side="right")
    return np.maximum(hi_idx - lo_idx, 0)


def f_microcanonical_exact(
    system: BipartiteSystem,
    op_a: Optional[np.ndarray],
    delta: float,
    e_alpha: float,
    e_beta: float,
    *,
    o2bar: float = 1.0,
) -> float:
    """Off-diagonal standard deviation from literal microcanonical counts.

    Every microcanonical window is a closed interval ``[E - delta/2,
    E + delta/2]`` and window sizes are literal eigenvalue counts.  The
    entropic suppression is carried implicitly by the discrete normalization,
    so the return value is the full predicted standard deviation.

    Parameters
    ----------
    system : BipartiteSystem
    op_a : ndarray or None
        Operator on the A factor (computational basis).  ``None`` selects the
        typical-operator substitution ``|O_ij|^2 -> o2bar / dim_a``.
    delta : float
        Scrambling window full width, positive.
    e_alpha, e_beta : float
        Total-system eigenenergies of the pair.
    o2bar : float
        Mean squared operator spectrum for the typical mode.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    sums = np.sort(system.sum_energies().ravel())
    half = 0.5 * delta
    z_a, z_b = _window_counts(
        sums,
        np.array([e_alpha - half, e_beta - half]),
        np.array([e_alpha + half, e_beta + half]),
    )
    if z_a == 0 or z_b == 0:
        raise DegenerateWindowError(
            f"empty noninteracting window at E={e_alpha if z_a == 0 else e_beta}"
            f" (delta={delta})"
        )
    # Intersection of the two B-side windows for every (i, j) pair.
    lo = np.maximum.outer(e_alpha - e_a, e_beta - e_a) - half
    hi = np.minimum.outer(e_alpha - e_a, e_beta - e_a) + half
    counts = _window_counts(e_b, lo.ravel(), hi.ravel()).reshape(lo.shape)
    m_sq = _squared_elements(system, op_a, o2bar)
    f2 = float((counts * m_sq).sum()) / (float(z_a) * float(z_b))
    return float(np.sqrt(f2))


def f_smooth_sums(
    system: BipartiteSystem,
    op_a: Optional[np.ndarray],
    h: Callable,
    e_alpha: float,
    e_beta: float,
    *,
    o2bar: float = 1.0,
) -> float:
    """Off-diagonal standard deviation from exact profile-weighted sums.

    Evaluates ``sum_ijk h(Ea - E_i - E_k) h(Eb - E_j - E_k) |O_ij|^2 /
    (Z(Ea) Z(Eb))`` with ``Z(E) = sum_ij h(E - E_i - E_j)`` over the literal
    subsystem spectra, and returns the square root.  Entropic suppression is
    implicit, as in :func:`f_microcanonical_exact`.
    """
    sums = system.sum_energies()  # (dim_a, dim_b)
    p = np.asarray(h(e_alpha - sums), dtype=float)
    q = np.asarray(h(e_beta - sums), dtype=float)
    z_a = float(p.sum())
    z_b = float(q.sum())
    if z_a <= 0.0 or z_b <= 0.0:
        raise DegenerateWindowError(
            "profile normalization underflowed to zero; energies are too far "
            "outside the spectrum for this profile"
        )
    kernel = p @ q.T  # (i, j) sums over the B factor
    m_sq = _squared_elements(system, op_a, o2bar)
    f2 = float((kernel * m_sq).sum()) / (z_a * z_b)
    return float(np.sqrt(max(f2, 0.0)))


def _scaled_tol(fn, lo, hi, tol: float) -> np.ndarray:
    # Absolute quadrature tolerance per integral, scaled to a coarse estimate
    # of the integral's magnitude, so tol acts relatively for large densities.
    # Every row needs hi > lo: np.linspace changes its formula for all rows
    # once any step is zero.
    xs = np.linspace(lo, hi, 33, axis=1)
    rows = np.repeat(np.arange(xs.shape[0]), 33)
    vals = fn(xs.ravel(), rows).reshape(xs.shape)
    scale = np.max(np.abs(vals), axis=1) * (hi - lo)
    return tol * np.maximum(scale, 1.0)


def _one(grid_form, omega, *args, **kwargs):
    # Scalar value of a grid form at one omega.
    return float(grid_form(*args, np.array([float(omega)]), **kwargs)[0])


def _narrow_grid(n_a, n_b, n_0, o2bar, sigma_s, ebar, omegas, tol=1e-8):
    # Narrow-scrambling f on an omega grid, and the mask of omegas whose pair
    # energies Ebar +/- omega lie where n_0 is positive (f is 0 elsewhere).
    e_alpha = ebar + omegas
    e_beta = ebar - omegas
    lo0, hi0 = n_0.support
    kept = np.ones(omegas.shape, dtype=bool)
    for e in (e_alpha, e_beta):
        kept &= (lo0 <= e) & (e <= hi0) & (n_0(e) > 0)
    lo_a, hi_a = n_a.support
    lo_b, hi_b = n_b.support
    w = np.abs(omegas)
    lo = np.maximum(lo_a + w, ebar - hi_b)
    hi = np.minimum(hi_a - w, ebar - lo_b)
    live = kept & (hi > lo)
    om, lo, hi = omegas[live], lo[live], hi[live]

    def integrand(e, rows):
        # Arguments clipped to the supports: at e = lo_a + |omega| the value
        # e - omega can round just below lo_a, where n_a would drop to 0.
        x = om[rows]
        return (
            n_a(np.clip(e + x, lo_a, hi_a))
            * n_a(np.clip(e - x, lo_a, hi_a))
            * n_b(np.clip(ebar - e, lo_b, hi_b))
        )

    abs_tol = _scaled_tol(integrand, lo, hi, tol)
    val = integrate_adaptive(integrand, lo, hi, tol=abs_tol)
    f2 = (
        o2bar
        / n_a.total
        * sigma_s
        * float(n_0(ebar))
        / (n_0(e_alpha[live]) * n_0(e_beta[live]))
        * val
    )
    f = np.zeros(omegas.shape)
    f[live] = np.sqrt(np.maximum(f2, 0.0))
    return f, kept


def f_narrow(
    n_a,
    n_b,
    n_0,
    o2bar: float,
    sigma_s: float,
    ebar: float,
    omega: float,
    *,
    tol: float = 1e-8,
) -> float:
    """Narrow-scrambling continuum prediction.

    ``f**2 = (o2bar / |H_A|) sigma_s n_0(Ebar) / (n_0(Ebar+w) n_0(Ebar-w)) *
    integral de n_a(e+w) n_a(e-w) n_b(Ebar-e)`` with the integral taken over
    the exact support intersection.  ``n_a`` must be a
    :class:`~ethlab.linalg.SpectralDensity` (its ``total`` supplies
    ``|H_A|``); ``n_b`` and ``n_0`` need only be callables with ``support``.
    Raises :class:`OutOfSupportError` when ``Ebar +/- omega`` leaves the
    support of ``n_0``; :meth:`AnsatzModel.evaluate` drops such omegas from
    its grid instead.
    """
    f, kept = _narrow_grid(
        n_a, n_b, n_0, o2bar, sigma_s, ebar, np.array([float(omega)]), tol=tol
    )
    if not kept[0]:
        lo0, hi0 = n_0.support
        raise OutOfSupportError(
            f"E={ebar} +/- {abs(omega)} outside the support of the sum density "
            f"[{lo0}, {hi0}]"
        )
    return float(f[0])


def _check_normalized(rho) -> None:
    total = rho.integral()
    if abs(total - 1.0) > 0.01:
        raise ValidationError(
            f"rho_a must be normalized to unit integral (got {total:.6g}); "
            "use SpectralDensity.normalized()"
        )


def _small_a_grid(rho_a, o2bar, sigma_s, autocorr, omegas, tol=1e-8):
    if autocorr is not None:
        val = autocorr(2.0 * omegas)
    else:
        _check_normalized(rho_a)
        lo, hi = rho_a.support
        x = 2.0 * omegas
        ylo = np.maximum(lo, lo - x)
        yhi = np.minimum(hi, hi - x)
        live = yhi > ylo
        x, ylo, yhi = x[live], ylo[live], yhi[live]

        def integrand(y, rows):
            return rho_a(y) * rho_a(x[rows] + y)

        abs_tol = _scaled_tol(integrand, ylo, yhi, tol)
        val = np.zeros(omegas.shape)
        val[live] = integrate_adaptive(integrand, ylo, yhi, tol=abs_tol)
    return np.sqrt(np.maximum(o2bar * sigma_s * val, 0.0))


def f_small_a(
    rho_a,
    o2bar: float,
    sigma_s: float,
    omega: float,
    *,
    autocorr=None,
    tol: float = 1e-8,
) -> float:
    """Small-subsystem narrow-scrambling form.

    ``f = sqrt(o2bar * sigma_s * [rho_a * rho_a](2 omega))`` with ``rho_a``
    the normalized subsystem density of states.  ``autocorr`` may carry a
    tabulated autocorrelation; otherwise the single required value is
    integrated directly.
    """
    return _one(_small_a_grid, omega, rho_a, o2bar, sigma_s, autocorr, tol=tol)


def _flat_a_grid(sigma_a, o2bar, sigma_s, omegas):
    if sigma_a <= 0:
        raise ValidationError("sigma_a must be positive")
    x = 1.0 - 2.0 * np.abs(omegas) / sigma_a
    inside = x > 0.0
    f = np.zeros(omegas.shape)
    f[inside] = np.sqrt(o2bar * sigma_s / sigma_a * x[inside])
    return f


def f_flat_a(sigma_a: float, o2bar: float, sigma_s: float, omega: float) -> float:
    """Closed-form small-A prediction for a flat subsystem spectrum.

    ``f**2 = o2bar (sigma_s / sigma_a) (1 - 2|omega|/sigma_a)`` inside
    ``|omega| <= sigma_a / 2`` and zero outside.
    """
    return _one(_flat_a_grid, omega, sigma_a, o2bar, sigma_s)


def _smooth_small_a_grid(rho_a, o2bar, sigma_s, autocorr, omegas, tol=1e-8):
    if autocorr is None:
        _check_normalized(rho_a)
        autocorr = density_autocorrelation(rho_a)
    hh = exp_autocorrelation(sigma_s)
    n_h = SQRT2 * sigma_s
    lo, hi = autocorr.support  # support of [rho*rho](2w') in 2w'

    def integrand(wp, rows):
        return autocorr(2.0 * wp) * hh(2.0 * (omegas[rows] - wp))

    lo_w = np.full(omegas.shape, 0.5 * lo)
    hi_w = np.full(omegas.shape, 0.5 * hi)
    abs_tol = _scaled_tol(integrand, lo_w, hi_w, tol)
    val = integrate_adaptive(
        integrand, lo_w, hi_w, tol=abs_tol, kinks=omegas[:, None]
    )
    f2 = 2.0 * o2bar * sigma_s / n_h**2 * val
    return np.sqrt(np.maximum(f2, 0.0))


def f_smooth_small_a(
    rho_a,
    o2bar: float,
    sigma_s: float,
    omega: float,
    *,
    autocorr=None,
    tol: float = 1e-8,
) -> float:
    """Small-subsystem form with the finite-width exponential profile.

    ``f**2 = 2 o2bar sigma_s / N_h**2 * integral dw' [rho_a * rho_a](2w')
    [h * h](2(omega - w'))`` with the exponential profile's closed-form
    autocorrelation.
    """
    return _one(
        _smooth_small_a_grid, omega, rho_a, o2bar, sigma_s, autocorr, tol=tol
    )


def _exp_decay_grid(sigma_a, sigma_s, o2bar, omegas, tol=1e-8):
    if sigma_a <= 0 or sigma_s <= 0:
        raise ValidationError("sigma_a and sigma_s must be positive")
    rate = SQRT2 / sigma_s

    def integrand(x, rows):
        u = np.abs(2.0 * omegas[rows] - x * sigma_a)
        return (1.0 - np.abs(x)) * (1.0 + rate * u) * np.exp(-rate * u)

    ends = np.ones(omegas.shape)
    kinks = np.column_stack((np.zeros(omegas.shape), 2.0 * omegas / sigma_a))
    val = integrate_adaptive(integrand, -ends, ends, tol=tol, kinks=kinks)
    return np.sqrt(np.maximum(o2bar / (2.0 * SQRT2) * val, 0.0))


def f_exp_decay(
    sigma_a: float,
    sigma_s: float,
    o2bar: float,
    omega: float,
    *,
    tol: float = 1e-8,
) -> float:
    """Closed-form prediction: flat subsystem spectrum, exponential profile.

    ``f**2 = o2bar / (2 sqrt(2)) * integral_{-1}^{1} dx (1 - |x|)
    (1 + sqrt(2)|2 omega - x sigma_a| / sigma_s)
    exp(-sqrt(2)|2 omega - x sigma_a| / sigma_s)``.
    """
    return _one(_exp_decay_grid, omega, sigma_a, sigma_s, o2bar, tol=tol)


def _mc_finite_width_grid(rho_a, o2bar, sigma_a, sigma_s, autocorr, omegas, tol=1e-8):
    if sigma_a <= 0 or sigma_s <= 0:
        raise ValidationError("sigma_a and sigma_s must be positive")
    if autocorr is None:
        _check_normalized(rho_a)
        autocorr = density_autocorrelation(rho_a)
    width = SQRT3 * sigma_s

    def integrand(x, rows):
        tri = np.maximum(1.0 - np.abs(omegas[rows] - x * sigma_a / 2.0) / width, 0.0)
        return autocorr(x * sigma_a) * tri

    kinks = np.column_stack((
        2.0 * omegas / sigma_a,
        2.0 * (omegas - width) / sigma_a,
        2.0 * (omegas + width) / sigma_a,
        np.zeros(omegas.shape),
    ))
    ends = np.ones(omegas.shape)
    abs_tol = _scaled_tol(integrand, -ends, ends, tol)
    val = integrate_adaptive(integrand, -ends, ends, tol=abs_tol, kinks=kinks)
    return np.sqrt(np.maximum(o2bar * sigma_a / (2.0 * SQRT3) * val, 0.0))


def f_mc_finite_width(
    rho_a,
    o2bar: float,
    sigma_a: float,
    sigma_s: float,
    omega: float,
    *,
    autocorr=None,
    tol: float = 1e-8,
) -> float:
    """Finite-width flat-window prediction with a general subsystem density.

    ``f**2 = o2bar sigma_a / (2 sqrt(3)) * integral_{-1}^{1} dx
    [rho_a * rho_a](x sigma_a) ramp(1 - |omega - x sigma_a / 2| /
    (sqrt(3) sigma_s))`` where ``ramp`` clips at zero.
    """
    return _one(
        _mc_finite_width_grid, omega, rho_a, o2bar, sigma_a, sigma_s, autocorr, tol=tol
    )


def inverse_temperature(n_b, energy: float, step: float) -> float:
    """Central finite-difference derivative of ``ln n_b`` at ``energy``."""
    if step <= 0:
        raise ValidationError("step must be positive")
    lo, hi = n_b.support
    left, right = energy - step, energy + step
    if left < lo or right > hi:
        raise OutOfSupportError(
            f"E={energy} too close to the spectrum edge for a stable "
            f"derivative (need +/-{step} inside [{lo}, {hi}])"
        )
    vl, vr = float(n_b(left)), float(n_b(right))
    if vl <= 0 or vr <= 0:
        raise OutOfSupportError("density vanishes inside the derivative stencil")
    return float((np.log(vr) - np.log(vl)) / (2.0 * step))


def gibbs_diagonal(
    system: BipartiteSystem,
    op_a: np.ndarray,
    e_alpha: float,
    *,
    n_b=None,
    bins: int = 64,
) -> float:
    """Gibbs prediction for diagonal matrix elements of a local operator.

    The inverse temperature is the slope of ``ln n_B`` at ``E_alpha -
    mean(E^A)`` (central finite difference with step ``sigma_0 / 200``,
    ``sigma_0`` the noninteracting spectral range); the prediction is the
    Gibbs average of the operator's A-eigenbasis diagonal at that
    temperature.
    """
    e_a = system.spectrum_a.eigenvalues
    if n_b is None:
        n_b = density_of_states(system.spectrum_b.eigenvalues, bins=bins)
    sigma_0 = system.spectrum_a.spectral_range + system.spectrum_b.spectral_range
    step = sigma_0 / 200.0
    beta = inverse_temperature(n_b, e_alpha - float(e_a.mean()), step)
    if beta == 0.0:
        # Infinite temperature: the Gibbs weights are uniform and the
        # basis-invariant answer is the exact trace mean.
        return float(np.trace(op_a)) / op_a.shape[0]
    v_a = system.spectrum_a.eigenvectors
    diag = np.einsum("ki,kl,li->i", v_a, op_a, v_a, optimize=True)
    x = -beta * e_a
    x -= x.max()  # common shift cancels in the ratio
    w = np.exp(x)
    return float((w * diag).sum() / w.sum())


class AnsatzKind(str, Enum):
    """Rungs of the approximation ladder."""

    MICROCANONICAL_EXACT_SUMS = "microcanonical_exact_sums"
    NARROW_SCRAMBLING = "narrow_scrambling"
    SMALL_A_NARROW = "small_A_narrow"
    FLAT_A_NARROW = "flat_A_narrow"
    SMOOTH_GENERAL_SUMS = "smooth_general_sums"
    SMOOTH_SMALL_A = "smooth_small_A"
    EXP_DECAY_FLAT_A = "exp_decay_flat_A"
    MC_FINITE_WIDTH_FLAT_A = "mc_finite_width_flat_A"


# Continuum kinds report the entropic factor separately and need n_0 for it;
# exact-sum kinds fold it into their normalization and need the system.
_EXACT_KINDS = frozenset(
    {AnsatzKind.MICROCANONICAL_EXACT_SUMS, AnsatzKind.SMOOTH_GENERAL_SUMS}
)
_NEEDS = {
    AnsatzKind.MICROCANONICAL_EXACT_SUMS: ("system",),
    AnsatzKind.SMOOTH_GENERAL_SUMS: ("system",),
    AnsatzKind.NARROW_SCRAMBLING: ("n_a", "n_b", "n_0"),
    AnsatzKind.SMALL_A_NARROW: ("n_a", "n_0"),
    AnsatzKind.FLAT_A_NARROW: ("sigma_a", "n_0"),
    AnsatzKind.SMOOTH_SMALL_A: ("n_a", "n_0"),
    AnsatzKind.EXP_DECAY_FLAT_A: ("sigma_a", "n_0"),
    AnsatzKind.MC_FINITE_WIDTH_FLAT_A: ("n_a", "sigma_a", "n_0"),
}


@dataclass(frozen=True, eq=False)
class Prediction:
    """One evaluated prediction curve at fixed ``Ebar``."""

    kind: str
    ebar: float
    omega: np.ndarray
    f: np.ndarray
    entropic_factor: float
    variance: np.ndarray


@dataclass(frozen=True, eq=False)
class AnsatzModel:
    """Data bundle for evaluating one rung of the ladder.

    Exact-sum kinds require the literal subsystem spectra (and optionally a
    concrete operator via ``sq_elements``); continuum kinds require the
    densities listed for them.  ``sigma_a`` defaults to the width of the
    ``n_a`` support, else to the A spectral range of ``system``.
    """

    kind: AnsatzKind
    sigma_s: float
    o2bar: float = 1.0
    n_a: Optional[GridFunction] = None
    n_b: Optional[GridFunction] = None
    n_0: Optional[GridFunction] = None
    sigma_a: Optional[float] = None
    system: Optional[BipartiteSystem] = None
    op_a: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.sigma_s <= 0:
            raise ValidationError("sigma_s must be positive")
        if self.o2bar <= 0:
            raise ValidationError("o2bar must be positive")
        kind = AnsatzKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.sigma_a is None:
            sigma_a = None
            if self.n_a is not None:
                lo, hi = self.n_a.support
                sigma_a = hi - lo
            elif self.system is not None:
                sigma_a = self.system.spectrum_a.spectral_range
            object.__setattr__(self, "sigma_a", sigma_a)
        for name in _NEEDS[kind]:
            if getattr(self, name) is None:
                raise ValidationError(f"{kind.value} requires {name}")

    def evaluate(self, ebar: float, omegas: np.ndarray) -> Prediction:
        """Evaluate the model on an omega grid at fixed mean energy.

        Continuum kinds integrate every omega of the grid in one batched
        quadrature.  Omegas whose pair energies ``Ebar +/- omega`` leave the
        support of ``n_0`` (where the scalar ``f_narrow`` raises
        :class:`OutOfSupportError`) are dropped from the returned grid.
        """
        omegas = np.asarray(omegas, dtype=float)
        kind = self.kind
        if kind in _EXACT_KINDS:
            ent = 1.0
        else:
            ent = entropic_factor(self.n_0, ebar, self.sigma_s)
        f_vals, kept = _GRID_FORMS[kind](self, ebar, omegas)
        f_vals = f_vals[kept]
        return Prediction(
            kind=kind.value,
            ebar=float(ebar),
            omega=omegas[kept],
            f=f_vals,
            entropic_factor=float(ent),
            variance=(float(ent) * f_vals) ** 2,
        )


def _all_kept(f):
    return f, np.ones(f.shape, dtype=bool)


def _autocorr(model):
    rho = model.n_a.normalized() if hasattr(model.n_a, "normalized") else model.n_a
    return density_autocorrelation(rho)


def _exact_sums(model, ebar, omegas):
    # The exact-sum kinds stay per omega: each value is one dense sum.
    if model.kind is AnsatzKind.MICROCANONICAL_EXACT_SUMS:
        delta = 2.0 * SQRT3 * model.sigma_s

        def one(w):
            return f_microcanonical_exact(
                model.system, model.op_a, delta, ebar + w, ebar - w,
                o2bar=model.o2bar,
            )

    else:
        h = exp_profile(model.sigma_s)

        def one(w):
            return f_smooth_sums(
                model.system, model.op_a, h, ebar + w, ebar - w, o2bar=model.o2bar
            )

    return _all_kept(np.array([one(w) for w in omegas.tolist()]))


# Kind -> grid form (model, ebar, omegas) -> (f on the whole grid, mask of
# the omegas the kind can evaluate).
_GRID_FORMS = {
    AnsatzKind.MICROCANONICAL_EXACT_SUMS: _exact_sums,
    AnsatzKind.SMOOTH_GENERAL_SUMS: _exact_sums,
    AnsatzKind.NARROW_SCRAMBLING: lambda m, ebar, w: _narrow_grid(
        m.n_a, m.n_b, m.n_0, m.o2bar, m.sigma_s, ebar, w
    ),
    AnsatzKind.SMALL_A_NARROW: lambda m, ebar, w: _all_kept(
        _small_a_grid(None, m.o2bar, m.sigma_s, _autocorr(m), w)
    ),
    AnsatzKind.FLAT_A_NARROW: lambda m, ebar, w: _all_kept(
        _flat_a_grid(m.sigma_a, m.o2bar, m.sigma_s, w)
    ),
    AnsatzKind.SMOOTH_SMALL_A: lambda m, ebar, w: _all_kept(
        _smooth_small_a_grid(None, m.o2bar, m.sigma_s, _autocorr(m), w)
    ),
    AnsatzKind.EXP_DECAY_FLAT_A: lambda m, ebar, w: _all_kept(
        _exp_decay_grid(m.sigma_a, m.sigma_s, m.o2bar, w)
    ),
    AnsatzKind.MC_FINITE_WIDTH_FLAT_A: lambda m, ebar, w: _all_kept(
        _mc_finite_width_grid(None, m.o2bar, m.sigma_a, m.sigma_s, _autocorr(m), w)
    ),
}

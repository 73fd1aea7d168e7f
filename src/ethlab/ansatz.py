"""Analytic predictions for matrix-element statistics.

The approximation ladder runs from exact discrete sums over subsystem spectra
(profile-weighted sums, of which the microcanonical window counts are the
closed flat window's) down to closed-form continuum limits (narrow
scrambling, small-A autocorrelation, flat-spectrum forms).  Every rung
predicts the variance of off-diagonal matrix elements of a local operator
between eigenstates at mean energy ``Ebar`` and half splitting ``omega``;
the Gibbs form :func:`gibbs_diagonal` predicts the diagonal at the total
spectrum's canonical temperature.

Conventions: ``sigma_a`` is the spectral range of the subsystem Hamiltonian,
``sigma_s`` the scrambling width.  Every prediction is for operators of unit
mean square ``tr O**2 / dim_a``, as the ensemble samples them; for mean
square ``O2`` the variance scales by ``O2``.  The flat scrambling window
equivalent to a width ``sigma_s`` is ``delta = 2 sqrt(3) sigma_s``.  Smooth
continuum kinds return the suppressed amplitude ``f`` with the entropic
factor ``(sigma_s n_0(Ebar))**-1/2`` reported separately; exact-sum kinds
absorb the suppression into their normalization and report an entropic
factor of one.  Every width must be finite and positive, the one rule of
``errors._positive``, and a tabulated autocorrelation, and the density it
is made from, hold finite values: else :class:`ValidationError` names it.

Each rung is one function (``f_smooth_sums``, ``f_narrow``, ...) that takes
its spectral inputs, then ``sigma_a``, ``sigma_s`` and ``ebar`` (each only
where the rung uses it), then ``omega``, a scalar or a 1-d grid, and returns
a 1-d array of ``f`` over the grid.  Both exact-sum rungs are one kernel,
:func:`f_smooth_sums`, which takes the scrambling profile as an argument: it
does its omega-independent work once per call (the level sums and
``|O_ij|^2``) and one dense sum per omega.  The microcanonical rung is that
kernel with the closed flat window ``flat_profile(delta)``, the smooth rung
with ``exp_profile(sigma_s)``.
The continuum rungs integrate the whole grid in one batched quadrature
(:func:`~ethlab.linalg.integrate_adaptive` over all omegas) whose values are
bitwise those of one-omega calls.  The small-A rungs take the tabulated
autocorrelation :func:`density_autocorrelation` of the normalized
subsystem density, itself one batched quadrature over its tabulation grid.
Every quadrature of the ladder works to the one tolerance ``_TOL``.
:class:`AnsatzModel` builds one rung from a system and its scrambling width
alone: it derives the subsystem densities and ``sigma_a`` from the spectra
the system carries.  :meth:`AnsatzModel.evaluate` runs its kind once per mean
energy: an exact-sum kind through the kernel with the profile its table
``_PROFILES`` names, every other kind through the rung its table ``_RUNGS``
names.  It drops the omegas the rung cannot evaluate: pair energies outside
the support of ``n_0`` for the narrow rung, dropped first, and, for both
exact-sum kinds, omegas whose normalizations multiply to zero, which the
kernel's one pass reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateWindowError,
    OutOfSupportError,
    ValidationError,
    ZeroWidthSpectrumError,
    _positive,
)
from .hamiltonians import BipartiteSystem, _check_a_operator
from .linalg import GridFunction, SpectralDensity, density_of_states, integrate_adaptive
from .scrambling import SQRT2, SQRT3, ScramblingProfile, exp_profile, flat_profile

__all__ = [
    "AnsatzKind",
    "AnsatzModel",
    "Prediction",
    "entropic_factor",
    "exp_autocorrelation",
    "density_autocorrelation",
    "f_smooth_sums",
    "f_narrow",
    "f_small_a",
    "f_flat_a",
    "f_smooth_small_a",
    "f_exp_decay",
    "f_mc_finite_width",
    "gibbs_diagonal",
    "rmt_variance",
]

# The ladder's one quadrature tolerance: absolute in f_exp_decay and
# density_autocorrelation, scaled by a coarse estimate of each integral
# (_scaled_tol) in the other quadrature rungs.
_TOL = 1e-8


def entropic_factor(n_0, ebar: float, sigma_s: float) -> float:
    """Entropic suppression ``(sigma_s * n_0(Ebar))**-1/2``."""
    _positive(sigma_s=sigma_s)
    lo, hi = n_0.support
    if not lo <= ebar <= hi:
        raise OutOfSupportError(f"Ebar={ebar} outside density support [{lo}, {hi}]")
    val = float(n_0(ebar))
    if val <= 0:
        raise OutOfSupportError(f"density vanishes at Ebar={ebar}")
    return float(1.0 / np.sqrt(sigma_s * val))


def rmt_variance(total_dim: int) -> float:
    """Structureless random-matrix variance ``1 / total_dim``."""
    if total_dim < 1:
        raise ValidationError("total_dim must be >= 1")
    return 1.0 / float(total_dim)


def exp_autocorrelation(sigma_s: float) -> Callable:
    """Closed-form autocorrelation of the exponential scrambling profile.

    ``[h * h](E) = (sigma_s / sqrt(2) + |E|) exp(-sqrt(2) |E| / sigma_s)``.
    """
    _positive(sigma_s=sigma_s)
    rate = SQRT2 / sigma_s

    def hh(energy):
        a = np.abs(energy)
        return (sigma_s / SQRT2 + a) * np.exp(-rate * a)

    return hh


# Tabulation points of density_autocorrelation over its support.
_AUTOCORR_POINTS = 1025


def density_autocorrelation(rho: GridFunction) -> GridFunction:
    """Tabulated autocorrelation ``[rho * rho](x) = integral dy rho(y) rho(x + y)``.

    This is the density input of the small-A rungs.  ``rho`` must have unit
    integral (to 1%); :meth:`~ethlab.linalg.SpectralDensity.normalized` gives
    one.  The result is tabulated on ``_AUTOCORR_POINTS`` points covering
    its exact support ``[lo - hi, hi - lo]``; every point is integrated over
    the overlap of the two supports in one batched
    :func:`~ethlab.linalg.integrate_adaptive` call at absolute tolerance
    ``_TOL``, split at the knots of ``rho(y)`` and ``rho(x + y)``.  Between
    knots the integrand is a quadratic, which Simpson's rule integrates
    exactly.
    """
    total = rho.integral()
    if not abs(total - 1.0) <= 0.01:  # a NaN in rho fails here too
        raise ValidationError(
            f"rho must be normalized to unit integral (got {total:.6g}); "
            "use SpectralDensity.normalized()"
        )
    lo, hi = rho.support
    xs = np.linspace(lo - hi, hi - lo, _AUTOCORR_POINTS)
    ylo = np.maximum(lo, lo - xs)
    yhi = np.minimum(hi, hi - xs)
    live = yhi > ylo
    x = xs[live]

    def integrand(y, rows):
        # Clipped to the support: at y = hi - x the sum x + y can round above
        # hi, where rho reads 0 and the last panel never converges.
        return rho(y) * rho(np.clip(x[rows] + y, lo, hi))

    knots = rho.grid
    kinks = np.concatenate(
        (np.broadcast_to(knots, (x.size, knots.size)), knots - x[:, None]), axis=1
    )
    out = np.zeros_like(xs)
    out[live] = integrate_adaptive(
        integrand, ylo[live], yhi[live], tol=_TOL, kinks=kinks
    )
    return GridFunction(grid=xs, values=out)


def _a_basis(system: BipartiteSystem, op_a: np.ndarray) -> np.ndarray:
    # An A operator, of the shape _check_a_operator allows, in the A eigenbasis.
    _check_a_operator(system, op_a)
    v_a = system.spectrum_a.eigenvectors
    return v_a.T @ op_a @ v_a


def _squared_elements(system: BipartiteSystem, op_a: Optional[np.ndarray]) -> np.ndarray:
    # |O_ij|^2 in the A eigenbasis; None selects the typical-operator value.
    if op_a is None:
        return np.full((system.dim_a, system.dim_a), 1.0 / system.dim_a)
    return _a_basis(system, op_a) ** 2


def f_smooth_sums(
    system: BipartiteSystem, op_a: Optional[np.ndarray], h: Callable, ebar: float, omega
) -> np.ndarray:
    """Off-diagonal standard deviation from exact profile-weighted sums.

    Evaluates ``sum_ijk h(Ea - E_i - E_k) h(Eb - E_j - E_k) |O_ij|^2 /
    (Z(Ea) Z(Eb))`` with ``Z(E) = sum_ij h(E - E_i - E_j)`` over the literal
    subsystem spectra at ``Ea, Eb = Ebar +/- omega`` for every omega given,
    and returns the square root.  Entropic suppression is implicit in the
    normalization.  The flat profile ``flat_profile(delta)`` gives the
    literal microcanonical counts: closed windows ``[E - delta/2, E +
    delta/2]``.

    An omega is live when ``Z(Ea) * Z(Eb) > 0``.  At any other omega (an
    empty window of a flat profile, or a smooth profile far outside the
    spectrum, where one ``Z`` or their product underflows to zero) this
    raises :class:`DegenerateWindowError`; :meth:`AnsatzModel.evaluate`
    drops such omegas from its grid instead.
    """
    omegas = _omegas(omega)
    f, live = _smooth_sums(system, op_a, h, ebar, omegas)
    if not live.all():
        raise DegenerateWindowError(
            f"product of the profile normalizations is zero at E={ebar} +/- "
            f"{abs(omegas[~live][0])}: an empty window, or energies too far "
            "outside the spectrum for this profile"
        )
    return f


def _smooth_sums(system, op_a, h, ebar, omegas):
    # f of f_smooth_sums on the grid omegas, and the mask of the live omegas,
    # those where the product of the two normalizations is positive (it can
    # underflow to 0 when both are tiny); f is 0 at the others.
    sums = system.sum_energies()  # (dim_a, dim_b)
    m_sq = _squared_elements(system, op_a)
    f = np.zeros(omegas.shape)
    live = np.zeros(omegas.shape, dtype=bool)
    for k, w in enumerate(omegas):
        # Profile weights h(E - E_i - E_j) at E = Ebar + w and Ebar - w, and
        # their normalizations Z(E) = sum_ij h(E - E_i - E_j).
        p = np.asarray(h(ebar + w - sums), dtype=float)
        q = np.asarray(h(ebar - w - sums), dtype=float)
        z_a, z_b = float(p.sum()), float(q.sum())
        z = z_a * z_b
        live[k] = z > 0.0
        if live[k]:
            kernel = p @ q.T  # (i, j) sums over the B factor
            f2 = float((kernel * m_sq).sum()) / z
            f[k] = np.sqrt(max(f2, 0.0))
    return f, live


def _check_autocorrelation(rho_rho: GridFunction) -> None:
    # A rung's tabulated [rho_a * rho_a] holds finite values: a NaN would
    # become a NaN curve, or a NaN tolerance in _scaled_tol.
    bad = ~np.isfinite(rho_rho.values)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"rho_rho must be finite, got {rho_rho.values[k]} at {rho_rho.grid[k]}"
        )


def _scaled_tol(fn, lo, hi) -> np.ndarray:
    # Absolute quadrature tolerance per integral, scaled to a coarse estimate
    # of the integral's magnitude, so _TOL acts relatively for large densities.
    # Every row needs hi > lo: np.linspace changes its formula for all rows
    # once any step is zero.
    xs = np.linspace(lo, hi, 33, axis=1)
    rows = np.repeat(np.arange(xs.shape[0]), 33)
    vals = fn(xs.ravel(), rows).reshape(xs.shape)
    scale = np.max(np.abs(vals), axis=1) * (hi - lo)
    return _TOL * np.maximum(scale, 1.0)


def _omegas(omega) -> np.ndarray:
    # Every rung computes on a 1-d grid; a scalar omega is a one-point grid.
    return np.atleast_1d(np.asarray(omega, dtype=float))


def _pair_support(n_0, ebar: float, omegas: np.ndarray) -> np.ndarray:
    # Mask of the omegas whose pair energies Ebar +/- omega lie where n_0 is
    # positive.
    lo, hi = n_0.support
    kept = np.ones(omegas.shape, dtype=bool)
    for e in (ebar + omegas, ebar - omegas):
        kept &= (lo <= e) & (e <= hi) & (n_0(e) > 0)
    return kept


def f_narrow(n_a, n_b, n_0, sigma_s: float, ebar: float, omega):
    """Narrow-scrambling continuum prediction.

    ``f**2 = (1 / |H_A|) sigma_s n_0(Ebar) / (n_0(Ebar+w) n_0(Ebar-w)) *
    integral de n_a(e+w) n_a(e-w) n_b(Ebar-e)`` with the integral taken over
    the exact support intersection; ``f`` is zero where that intersection is
    empty.  ``n_a`` must be a :class:`~ethlab.linalg.SpectralDensity` (its
    ``total`` supplies ``|H_A|``); ``n_b`` and ``n_0`` need only be callables
    with ``support``.  Raises :class:`OutOfSupportError` when ``Ebar +/-
    omega`` leaves the support of ``n_0`` for any omega given;
    :meth:`AnsatzModel.evaluate` drops such omegas from its grid first.
    """
    _positive(sigma_s=sigma_s)
    omegas = _omegas(omega)
    kept = _pair_support(n_0, ebar, omegas)
    if not kept.all():
        lo0, hi0 = n_0.support
        raise OutOfSupportError(
            f"E={ebar} +/- {abs(omegas[~kept][0])} outside the support of the "
            f"sum density [{lo0}, {hi0}]"
        )
    e_alpha = ebar + omegas
    e_beta = ebar - omegas
    lo_a, hi_a = n_a.support
    lo_b, hi_b = n_b.support
    w = np.abs(omegas)
    lo = np.maximum(lo_a + w, ebar - hi_b)
    hi = np.minimum(hi_a - w, ebar - lo_b)
    live = hi > lo
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

    val = integrate_adaptive(integrand, lo, hi, tol=_scaled_tol(integrand, lo, hi))
    f2 = (
        1.0
        / n_a.total
        * sigma_s
        * float(n_0(ebar))
        / (n_0(e_alpha[live]) * n_0(e_beta[live]))
        * val
    )
    f = np.zeros(omegas.shape)
    f[live] = np.sqrt(np.maximum(f2, 0.0))
    return f


def f_small_a(rho_rho, sigma_s: float, omega):
    """Small-subsystem narrow-scrambling form.

    ``f = sqrt(sigma_s * [rho_a * rho_a](2 omega))`` with
    ``rho_rho`` the tabulated autocorrelation of the normalized subsystem
    density of states, as :func:`density_autocorrelation` returns it.
    """
    _positive(sigma_s=sigma_s)
    _check_autocorrelation(rho_rho)
    val = rho_rho(2.0 * _omegas(omega))
    return np.sqrt(np.maximum(sigma_s * val, 0.0))


def f_flat_a(sigma_a: float, sigma_s: float, omega):
    """Closed-form small-A prediction for a flat subsystem spectrum.

    ``f**2 = (sigma_s / sigma_a) (1 - 2|omega|/sigma_a)`` inside
    ``|omega| <= sigma_a / 2`` and zero outside.
    """
    _positive(sigma_a=sigma_a, sigma_s=sigma_s)
    x = 1.0 - 2.0 * np.abs(_omegas(omega)) / sigma_a
    inside = x > 0.0
    f = np.zeros(x.shape)
    f[inside] = np.sqrt(sigma_s / sigma_a * x[inside])
    return f


def f_smooth_small_a(rho_rho, sigma_s: float, omega):
    """Small-subsystem form with the finite-width exponential profile.

    ``f**2 = 2 sigma_s / N_h**2 * integral dw' [rho_a * rho_a](2w')
    [h * h](2(omega - w'))`` with ``rho_rho`` the tabulated
    ``[rho_a * rho_a]`` (:func:`density_autocorrelation`) and the
    exponential profile's closed-form autocorrelation.
    """
    omegas = _omegas(omega)
    hh = exp_autocorrelation(sigma_s)
    _check_autocorrelation(rho_rho)
    n_h = SQRT2 * sigma_s
    lo, hi = rho_rho.support  # support of [rho*rho](2w') in 2w'

    def integrand(wp, rows):
        return rho_rho(2.0 * wp) * hh(2.0 * (omegas[rows] - wp))

    lo_w = np.full(omegas.shape, 0.5 * lo)
    hi_w = np.full(omegas.shape, 0.5 * hi)
    abs_tol = _scaled_tol(integrand, lo_w, hi_w)
    val = integrate_adaptive(
        integrand, lo_w, hi_w, tol=abs_tol, kinks=omegas[:, None]
    )
    f2 = 2.0 * sigma_s / n_h**2 * val
    return np.sqrt(np.maximum(f2, 0.0))


def f_exp_decay(sigma_a: float, sigma_s: float, omega):
    """Closed-form prediction: flat subsystem spectrum, exponential profile.

    ``f**2 = 1 / (2 sqrt(2)) * integral_{-1}^{1} dx (1 - |x|)
    (1 + sqrt(2)|2 omega - x sigma_a| / sigma_s)
    exp(-sqrt(2)|2 omega - x sigma_a| / sigma_s)``.
    """
    _positive(sigma_a=sigma_a, sigma_s=sigma_s)
    omegas = _omegas(omega)
    rate = SQRT2 / sigma_s

    def integrand(x, rows):
        u = np.abs(2.0 * omegas[rows] - x * sigma_a)
        return (1.0 - np.abs(x)) * (1.0 + rate * u) * np.exp(-rate * u)

    ends = np.ones(omegas.shape)
    kinks = np.column_stack((np.zeros(omegas.shape), 2.0 * omegas / sigma_a))
    val = integrate_adaptive(integrand, -ends, ends, tol=_TOL, kinks=kinks)
    f2 = 1.0 / (2.0 * SQRT2) * val
    return np.sqrt(np.maximum(f2, 0.0))


def f_mc_finite_width(rho_rho, sigma_a: float, sigma_s: float, omega):
    """Finite-width flat-window prediction with a general subsystem density.

    ``f**2 = sigma_a / (2 sqrt(3)) * integral_{-1}^{1} dx
    [rho_a * rho_a](x sigma_a) ramp(1 - |omega - x sigma_a / 2| /
    (sqrt(3) sigma_s))`` where ``ramp`` clips at zero and ``rho_rho`` is the
    tabulated ``[rho_a * rho_a]`` (:func:`density_autocorrelation`).
    """
    _positive(sigma_a=sigma_a, sigma_s=sigma_s)
    _check_autocorrelation(rho_rho)
    omegas = _omegas(omega)
    width = SQRT3 * sigma_s

    def integrand(x, rows):
        tri = np.maximum(1.0 - np.abs(omegas[rows] - x * sigma_a / 2.0) / width, 0.0)
        return rho_rho(x * sigma_a) * tri

    kinks = np.column_stack((
        2.0 * omegas / sigma_a,
        2.0 * (omegas - width) / sigma_a,
        2.0 * (omegas + width) / sigma_a,
        np.zeros(omegas.shape),
    ))
    ends = np.ones(omegas.shape)
    abs_tol = _scaled_tol(integrand, -ends, ends)
    val = integrate_adaptive(integrand, -ends, ends, tol=abs_tol, kinks=kinks)
    f2 = sigma_a / (2.0 * SQRT3) * val
    return np.sqrt(np.maximum(f2, 0.0))


def _canonical_beta(energies: np.ndarray, ebar: float) -> float:
    # The beta at which the canonical mean of `energies` is ebar.  <H>_beta
    # falls from E_max to E_0 as beta rises: bisect on a bracket that doubles
    # until it holds.  Weights shifted by their maximum never overflow.
    e_0, e_max = float(energies.min()), float(energies.max())
    if not e_0 < ebar < e_max:
        raise OutOfSupportError(f"Ebar={ebar} outside the spectrum ({e_0}, {e_max})")

    def excess(beta: float) -> float:
        x = -beta * energies
        w = np.exp(x - x.max())
        return float(w @ energies / w.sum()) - ebar

    sign = float(np.sign(excess(0.0)))  # the sign of beta
    lo, hi = 0.0, sign
    while sign * excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo != mid != hi:
        lo, hi = (mid, hi) if sign * excess(mid) > 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


def gibbs_diagonal(system: BipartiteSystem, op_a: np.ndarray, e_alpha: float) -> float:
    """Gibbs prediction for diagonal matrix elements of a local operator.

    The Gibbs average over the A levels of the operator's A-eigenbasis
    diagonal, at the total system's canonical inverse temperature: the beta
    at which the Gibbs mean of ``system.spectrum_t`` is ``E_alpha``, as
    subsystem ETH predicts.  At 12 sites, cut 3 and ``E_alpha = -7.85`` the
    window-mean reduced state lies 0.047 from the Gibbs state at this beta,
    against 0.179 at B's canonical beta and 0.203 at the slope of a 64-bin
    ``ln n_B`` histogram.  ``op_a`` must be ``dim_a x dim_a``
    (:class:`DimensionError`) and ``E_alpha`` inside the open interval of the
    total levels (:class:`OutOfSupportError`, NaN included).
    """
    diag = np.diag(_a_basis(system, op_a))
    beta = _canonical_beta(system.spectrum_t.eigenvalues, e_alpha)
    if beta == 0.0:  # uniform weights: exactly the basis-invariant trace mean
        return float(np.trace(op_a)) / op_a.shape[0]
    x = -beta * system.spectrum_a.eigenvalues
    w = np.exp(x - x.max())  # the common shift cancels in the ratio
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


def _ansatz_kind(name) -> AnsatzKind:
    # The one rule for a kind's name: an AnsatzKind value, else an error
    # naming the valid kinds.
    try:
        return AnsatzKind(name)
    except ValueError:
        valid = ", ".join(m.value for m in AnsatzKind)
        raise ValidationError(f"unknown ansatz kind {name!r} (valid: {valid})") from None


@dataclass(frozen=True, eq=False)
class Prediction:
    """One evaluated prediction curve at fixed ``Ebar``."""

    kind: str
    ebar: float
    omega: np.ndarray
    f: np.ndarray
    entropic_factor: float
    variance: np.ndarray


def _density(levels: np.ndarray, name: str) -> SpectralDensity:
    # Histogram density of a level set, round(sqrt(n)) bins clipped to 4..64;
    # a spectrum of one level has none, and the error names it.
    bins = max(4, min(64, int(round(np.sqrt(levels.size)))))
    try:
        return density_of_states(levels, bins=bins)
    except ZeroWidthSpectrumError:
        raise ZeroWidthSpectrumError(
            f"the {name} has zero width: its {levels.size} levels are equal"
        ) from None


def _sigma_a(system: BipartiteSystem) -> float:
    # The A spectral range, which the flat-A rungs and predict's default
    # omega_max scale by; an A spectrum of one level has none.
    sigma_a = system.spectrum_a.spectral_range
    if not sigma_a > 0:
        raise ZeroWidthSpectrumError(
            f"the A spectrum has zero width: its {system.dim_a} levels are equal"
        )
    return sigma_a


@dataclass(frozen=True, eq=False)
class AnsatzModel:
    """One rung of the ladder for one system and scrambling width.

    Every input of a rung derives from ``system`` and ``sigma_s``.  The
    exact-sum kinds read the literal subsystem spectra and use the
    typical-operator substitution ``|O_ij|^2 -> 1 / dim_a``.  The
    continuum kinds read the histogram densities ``n_a``, ``n_b`` (the A and
    B spectra) and ``n_0`` (the noninteracting sums ``E_i + E_j``), each
    with ``round(sqrt(n))`` bins for ``n`` levels, clipped to 4..64, and
    ``sigma_a``, the A spectral range; the small-A kinds also read
    ``rho_rho``, the autocorrelation of the normalized ``n_a``.  A density
    is built on first read and kept, so a model builds only those its kind
    reads, once for every window it evaluates.
    """

    kind: AnsatzKind
    system: BipartiteSystem
    sigma_s: float

    def __post_init__(self):
        _positive(sigma_s=self.sigma_s)
        object.__setattr__(self, "kind", _ansatz_kind(self.kind))

    @cached_property
    def n_a(self) -> SpectralDensity:
        return _density(self.system.spectrum_a.eigenvalues, "A spectrum")

    @cached_property
    def n_b(self) -> SpectralDensity:
        return _density(self.system.spectrum_b.eigenvalues, "B spectrum")

    @cached_property
    def n_0(self) -> SpectralDensity:
        return _density(self.system.sum_energies().ravel(),
                        "noninteracting spectrum E_i + E_j")

    @cached_property
    def rho_rho(self) -> GridFunction:
        return density_autocorrelation(self.n_a.normalized())

    @property
    def sigma_a(self) -> float:
        return _sigma_a(self.system)

    def evaluate(self, ebar: float, omegas: np.ndarray) -> Prediction:
        """Evaluate the model on an omega grid at fixed mean energy.

        Continuum kinds integrate every omega of the grid in one batched
        quadrature.  The two exact-sum kinds run the kernel of
        :func:`f_smooth_sums` with their profile (``_PROFILES``): the flat
        window of width ``ScramblingProfile(sigma_s).delta`` for the
        microcanonical kind, the exponential profile for the smooth kind.
        Three kinds drop the omegas their rung cannot evaluate: the narrow
        kind those whose pair energies ``Ebar +/- omega`` leave the support
        of ``n_0`` (where ``f_narrow`` raises :class:`OutOfSupportError`),
        and both exact-sum kinds, in the kernel's one pass, those that are
        not live, where ``Z(Ea) * Z(Eb)`` is zero (where ``f_smooth_sums``
        raises :class:`DegenerateWindowError`).
        """
        omegas = np.array(omegas, dtype=float)
        kind = self.kind
        ent = 1.0
        if kind in _PROFILES:
            h = _PROFILES[kind](self)
            f_vals, live = _smooth_sums(self.system, None, h, ebar, omegas)
            omegas, f_vals = omegas[live], f_vals[live]
        else:
            ent = entropic_factor(self.n_0, ebar, self.sigma_s)
            if kind is AnsatzKind.NARROW_SCRAMBLING:
                omegas = omegas[_pair_support(self.n_0, ebar, omegas)]
            f_vals = _RUNGS[kind](self, ebar, omegas)
        return Prediction(
            kind=kind.value,
            ebar=float(ebar),
            omega=omegas,
            f=f_vals,
            entropic_factor=float(ent),
            variance=(float(ent) * f_vals) ** 2,
        )


# Exact-sum kind -> its scrambling profile.  These rungs fold the entropic
# factor into their normalization and share the kernel _smooth_sums.
_PROFILES = {
    AnsatzKind.MICROCANONICAL_EXACT_SUMS: lambda m: flat_profile(
        ScramblingProfile(m.sigma_s).delta
    ),
    AnsatzKind.SMOOTH_GENERAL_SUMS: lambda m: exp_profile(m.sigma_s),
}

# Every other kind -> rung (model, ebar, omegas) -> f; each reports the
# entropic factor separately.
_RUNGS = {
    AnsatzKind.NARROW_SCRAMBLING: lambda m, ebar, w: f_narrow(
        m.n_a, m.n_b, m.n_0, m.sigma_s, ebar, w
    ),
    AnsatzKind.SMALL_A_NARROW: lambda m, ebar, w: f_small_a(
        m.rho_rho, m.sigma_s, w
    ),
    AnsatzKind.FLAT_A_NARROW: lambda m, ebar, w: f_flat_a(
        m.sigma_a, m.sigma_s, w
    ),
    AnsatzKind.SMOOTH_SMALL_A: lambda m, ebar, w: f_smooth_small_a(
        m.rho_rho, m.sigma_s, w
    ),
    AnsatzKind.EXP_DECAY_FLAT_A: lambda m, ebar, w: f_exp_decay(
        m.sigma_a, m.sigma_s, w
    ),
    AnsatzKind.MC_FINITE_WIDTH_FLAT_A: lambda m, ebar, w: f_mc_finite_width(
        m.rho_rho, m.sigma_a, m.sigma_s, w
    ),
}

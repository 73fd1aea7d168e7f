"""Eigenstate scrambling statistics.

The central object is the overlap tensor ``c[alpha, i, j]`` between the
interacting eigenstates of a bipartite system and the product eigenstates of
its noninteracting part.  Squared overlaps form a doubly stochastic matrix;
their spread in the energy offset ``E_alpha - E_i - E_j`` defines the
scrambling width ``sigma_S`` that parametrizes every prediction downstream.
That spread needs no tensor: since ``(E_alpha - H_0)|alpha> = H_I|alpha>``,

    sum_ij c[alpha, i, j]**2 (E_alpha - E_i - E_j)**2 = <alpha|H_I^2|alpha>,

which every :class:`~ethlab.hamiltonians.BipartiteSystem` carries as
``interaction_sq``.  The tensor itself is built only for the coefficient
datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, ValidationError
from .hamiltonians import BipartiteSystem

__all__ = [
    "ScramblingCoefficients",
    "ScramblingProfile",
    "compute_coefficients",
    "profile",
    "exp_profile",
    "flat_profile",
]

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True, eq=False)
class ScramblingCoefficients:
    """Overlaps ``c[alpha, i, j] = <E_i^A, E_j^B | E_alpha>``.

    ``tensor`` has shape ``(total_dim, dim_a, dim_b)``, or one slice per
    selected state; slices over ``alpha`` are unit-norm, and summing ``c**2``
    over all ``alpha`` gives 1 for every ``(i, j)`` as well (double
    stochasticity).
    """

    tensor: np.ndarray
    energies_total: np.ndarray

    @property
    def total_dim(self) -> int:
        return self.tensor.shape[0]


def compute_coefficients(
    system: BipartiteSystem, states=slice(None)
) -> ScramblingCoefficients:
    """Overlap tensor between interacting and product eigenstates.

    Contracts the subsystem eigenvector matrices against the total ones
    factor-by-factor, which costs ``O(dim_a * dim_b**2)`` per eigenstate
    instead of materializing the ``total x total`` Kronecker product.
    ``states`` indexes the total eigenstates to contract (all by default).
    """
    v_t = system.spectrum_t.eigenvectors[:, states]
    v_a = system.spectrum_a.eigenvectors
    v_b = system.spectrum_b.eigenvectors
    # v_t rows are product-basis indices (a-major); peel the two factors.
    vt3 = v_t.reshape(system.dim_a, system.dim_b, v_t.shape[1])
    x = np.tensordot(v_a.T, vt3, axes=(1, 0))  # (i, b_raw, alpha)
    y = np.einsum("qj,iqa->aij", v_b, x, optimize=True)
    return ScramblingCoefficients(
        tensor=np.ascontiguousarray(y),
        energies_total=system.spectrum_t.eigenvalues[states],
    )


@dataclass(frozen=True, eq=False)
class ScramblingProfile:
    """Fitted energy profile of the squared scrambling coefficients.

    ``sigma_S`` is the ``c**2``-weighted standard deviation of the energy
    offsets over the ``states_in_window`` eigenstates whose energies lie in
    the central spectral ``window``, i.e. the root of their mean
    ``<alpha|H_I^2|alpha>``.  ``fit_form`` selects the normalized
    profile shape ``h``: ``"exponential"`` for ``exp(-sqrt(2) |E| / sigma_S)``
    or ``"flat_window"`` for an indicator of half-width ``sqrt(3) sigma_S``
    (both carrying the same second moment).
    """

    sigma_s: float
    fit_form: str
    window: tuple[float, float]
    states_in_window: int

    @property
    def delta(self) -> float:
        """Full width ``2 sqrt(3) sigma_S`` of the moment-matched flat window."""
        return 2.0 * SQRT3 * self.sigma_s

    @property
    def normalization(self) -> float:
        """Integral ``N_h`` of the fitted profile."""
        if self.fit_form == "exponential":
            return SQRT2 * self.sigma_s
        return self.delta

    def h(self, energy):
        """Fitted profile, ``h(0) = 1``."""
        if self.fit_form == "exponential":
            return exp_profile(self.sigma_s)(energy)
        return flat_profile(self.delta)(energy)


def exp_profile(sigma_s: float):
    """Exponential scrambling profile ``exp(-sqrt(2)|E|/sigma_s)``."""
    if sigma_s <= 0:
        raise ValidationError("sigma_s must be positive for the exponential profile")
    rate = SQRT2 / sigma_s

    def h(energy):
        return np.exp(-rate * np.abs(energy))

    return h


def flat_profile(delta: float):
    """Indicator profile of full width ``delta`` (closed window)."""
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    half = 0.5 * delta

    def h(energy):
        return (np.abs(energy) <= half).astype(float)

    return h


def profile(
    system: BipartiteSystem,
    center_fraction: float = 0.5,
    *,
    fit_form: str = "exponential",
) -> ScramblingProfile:
    """Scrambling width of a system in its central spectral window.

    ``sigma_S**2`` is the window mean of ``system.interaction_sq``: by
    ``(E_alpha - H_0)|alpha> = H_I|alpha>``, each eigenstate's
    ``c**2``-weighted second moment of ``E_alpha - E_i - E_j`` equals
    ``<alpha|H_I^2|alpha>``, and its weights sum to 1.

    Parameters
    ----------
    system : BipartiteSystem
    center_fraction : float
        Fraction of the total spectral range (centered) whose eigenstates
        enter the statistics; in (0, 1].
    fit_form : {"exponential", "flat_window"}
    """
    if not 0 < center_fraction <= 1:
        raise ValidationError("center_fraction must be in (0, 1]")
    if fit_form not in ("exponential", "flat_window"):
        raise ValidationError(f"unknown fit_form {fit_form!r}")
    e_t = system.spectrum_t.eigenvalues
    lo_e, hi_e = float(e_t[0]), float(e_t[-1])
    margin = 0.5 * (1.0 - center_fraction) * (hi_e - lo_e)
    window = (lo_e + margin, hi_e - margin)
    sel = np.nonzero((e_t >= window[0]) & (e_t <= window[1]))[0]
    if sel.size == 0:
        raise EmptyWindowError(
            f"no eigenstates inside the central window {window}"
        )
    sigma_s = float(np.sqrt(system.interaction_sq[sel].mean()))
    return ScramblingProfile(
        sigma_s=sigma_s,
        fit_form=fit_form,
        window=window,
        states_in_window=int(sel.size),
    )

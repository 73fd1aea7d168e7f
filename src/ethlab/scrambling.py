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

from .errors import EmptyWindowError, _positive
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

# Fraction of the total spectral range, centered, whose eigenstates set sigma_S.
_CENTER_FRACTION = 0.5


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
    """Energy profile of the squared scrambling coefficients.

    ``sigma_S`` is the ``c**2``-weighted standard deviation of the energy
    offsets over the eigenstates of the central spectral window, i.e. the
    root of their mean ``<alpha|H_I^2|alpha>``.  The profile carrying that
    second moment is the exponential ``exp(-sqrt(2) |E| / sigma_S)``
    (:func:`exp_profile`); the flat window of width :attr:`delta` carries the
    same one.
    """

    sigma_s: float

    @property
    def delta(self) -> float:
        """Full width ``2 sqrt(3) sigma_S`` of the moment-matched flat window."""
        return 2.0 * SQRT3 * self.sigma_s

    @property
    def normalization(self) -> float:
        """Integral ``N_h = sqrt(2) sigma_S`` of the exponential profile."""
        return SQRT2 * self.sigma_s


def exp_profile(sigma_s: float):
    """Exponential scrambling profile ``exp(-sqrt(2)|E|/sigma_s)``."""
    _positive(sigma_s=sigma_s)
    rate = SQRT2 / sigma_s

    def h(energy):
        return np.exp(-rate * np.abs(energy))

    return h


def flat_profile(delta: float):
    """Indicator profile of full width ``delta > 0`` (closed window)."""
    _positive(delta=delta)
    half = 0.5 * delta

    def h(energy):
        return (np.abs(energy) <= half).astype(float)

    return h


def profile(system: BipartiteSystem) -> ScramblingProfile:
    """Scrambling width of a system in its central spectral window.

    The window is the central half of the total spectral range
    (``_CENTER_FRACTION``).  ``sigma_S**2`` is the window mean of
    ``system.interaction_sq``: by ``(E_alpha - H_0)|alpha> = H_I|alpha>``,
    each eigenstate's ``c**2``-weighted second moment of
    ``E_alpha - E_i - E_j`` equals ``<alpha|H_I^2|alpha>``, and its weights
    sum to 1.
    """
    e_t = system.spectrum_t.eigenvalues
    lo_e, hi_e = float(e_t[0]), float(e_t[-1])
    margin = 0.5 * (1.0 - _CENTER_FRACTION) * (hi_e - lo_e)
    window = (lo_e + margin, hi_e - margin)
    inside = (e_t >= window[0]) & (e_t <= window[1])
    if not inside.any():
        raise EmptyWindowError(f"no eigenstates inside the central window {window}")
    sigma_s = float(np.sqrt(system.interaction_sq[inside].mean()))
    return ScramblingProfile(sigma_s=sigma_s)

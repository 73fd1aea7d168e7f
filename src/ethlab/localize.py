"""Operator localizability.

A symmetric operator on a ``total_dim``-dimensional space acts on an effective
local factor of dimension ``D = total_dim / gcd(multiplicities)``: a basis
rotation brings it to ``kron(local_block, identity)`` with a ``D x D``
diagonal block.  Nondegenerate spectra give ``D = total_dim`` (no locality);
a single-site Pauli operator embedded in a qubit register gives ``D = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import eig_sym

__all__ = ["LocalizabilityReport", "localizability", "localizing_basis"]

# Degeneracy tolerance, relative to the spectral range.
_TOL = 1e-9


@dataclass(frozen=True)
class LocalizabilityReport:
    """Degeneracy classes of a spectrum and the implied local dimension."""

    classes: tuple[tuple[float, int], ...]  # (class value, multiplicity), ascending
    multiplicity_gcd: int
    local_dim: int
    total_dim: int

    @property
    def block_values(self) -> tuple[float, ...]:
        """Diagonal of the local block: each class value, multiplicity / gcd times."""
        return tuple(
            value
            for value, mult in self.classes
            for _ in range(mult // self.multiplicity_gcd)
        )


def _cluster(values: np.ndarray):
    # Group sorted values whose consecutive gaps stay within _TOL * range.
    srt = np.sort(values)
    spread = float(srt[-1] - srt[0])
    if spread == 0.0:
        return [(float(srt.mean()), srt.size)]
    threshold = _TOL * spread
    breaks = np.nonzero(np.diff(srt) > threshold)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [srt.size]))
    return [(float(srt[s:e].mean()), int(e - s)) for s, e in zip(starts, ends)]


def localizability(eigenvalues: np.ndarray) -> LocalizabilityReport:
    """Degeneracy analysis of a spectrum.

    Sorted eigenvalues whose consecutive gaps stay within ``_TOL`` times the
    spectral range form one class; the local dimension is ``total / gcd`` of
    the class multiplicities.

    Parameters
    ----------
    eigenvalues : ndarray
        Non-empty, finite.
    """
    vals = np.asarray(eigenvalues, dtype=float).ravel()
    if vals.size == 0:
        raise DimensionError("empty spectrum")
    if not np.all(np.isfinite(vals)):
        raise ValidationError("eigenvalues contain non-finite entries")
    classes = _cluster(vals)
    g = 0
    for _, mult in classes:
        g = math.gcd(g, mult)
    return LocalizabilityReport(
        classes=tuple(classes),
        multiplicity_gcd=g,
        local_dim=vals.size // g,
        total_dim=int(vals.size),
    )


def localizing_basis(operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal basis exhibiting the operator's local structure.

    Returns ``(basis, local_block)`` with ``basis.T @ operator @ basis ==
    kron(local_block, identity)`` up to the clustering tolerance, where
    ``local_block`` is ``np.diag`` of the report's
    :attr:`~LocalizabilityReport.block_values`, whose size is the
    gcd-derived local dimension.  ``operator`` is real symmetric.
    """
    spec = eig_sym(operator)
    report = localizability(spec.eigenvalues)
    # eig_sym returns ascending eigenvalues, which is exactly the column order
    # matching kron(local_block, identity_copies).
    return spec.eigenvectors, np.diag(report.block_values)

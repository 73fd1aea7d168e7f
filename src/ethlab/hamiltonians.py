"""Hamiltonian construction.

Two families are provided: an open-boundary Ising chain in mixed transverse
and longitudinal fields (nonintegrable at the default couplings), and a fully
synthetic random-matrix family with diagonal subsystem Hamiltonians coupled by
a rotated random interaction.  Both can be split across a bipartition cut into
``H_T = H_A (x) 1 + 1 (x) H_B + H_I``.

Basis convention: computational basis states are indexed by integers whose
most significant bit is site 1 (the leftmost tensor factor); a cleared bit is
the +1 eigenstate of the local sigma_z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import Spectrum, eig_sym, eigvals_sym

__all__ = [
    "MAX_CHAIN_SITES",
    "SpinChainParams",
    "RandomSystemParams",
    "BipartiteSystem",
    "build_spin_chain",
    "decompose_chain",
    "build_random_system",
    "make_bipartite",
    "sample_goe",
    "haar_orthogonal",
    "pauli",
]

# Dense diagonalization guard: 2^13 x 2^13 is the largest total dimension the
# desk-scale memory budget tolerates.  The one dim x dim array a system holds
# is its total eigenvector matrix, stored eigenstate-major (see
# linalg.Spectrum): 8 * 4^13 bytes = 512 MiB at 13 sites.  The build peaks
# inside eigh, which holds H_T, its working copy, the eigenvectors and 2 dim^2
# of workspace: measured peak RSS at 13 sites is 2.6 GB for the chain
# (2607 MB at cut 3) and 2.7 GB for the random family (2656 MB at sites_a=2,
# sites_b=11).  A chain solves its two fragments for their eigenvalues alone
# before it loads or computes the total, and a fragment's eigenvectors only
# when they are read (see decompose_chain), so a cold build holds no
# fragment eigenvectors through the total's eigh: a cold 12-site fig2 peaked
# at 684 MB.  The eigenvector rows are copied out of eigh's result only after
# its workspace is freed, below that peak.  The ensemble reads the rows in
# place; the direct engine adds one operator applied to one 64-row tile at a
# time (4 MiB at 13 sites).  Each window's pair band holds a few integers per
# eigenstate and per omega bin, and per-pair indices live only for one band
# tile.  Warm runs peak in a grouped engine, the eigenvectors plus one 8 MiB
# tile buffer and the per-pair arrays of one tile.  On 2 cores at 12 sites
# `reproduce fig3` peaks at 179 MB (cut 3) and `reproduce fig2` with 4
# operators at 183 MB (cut 1); at 13 sites fig3 measured 566 MB and 17 s, and
# fig2 571 MB (cut 1) and 57 s.  fig2's cut-1 build, the 12-site fragment's
# eigenvalue solve and then the load, took 6.3-8.8 s and reached 549 MB.
MAX_CHAIN_SITES = 13

# Real symmetric subset only; sigma_y is complex and never needed here.
PAULI = {
    "i": np.eye(2),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli(name: str) -> np.ndarray:
    """2x2 Pauli matrix (real symmetric subset: ``i``, ``x``, ``z``)."""
    key = name.lower()
    if key not in ("i", "x", "z"):
        raise ValidationError(f"unsupported Pauli label {name!r} (use i, x, z)")
    return PAULI[key].copy()


@dataclass(frozen=True)
class SpinChainParams:
    """Open-boundary Ising chain in mixed fields.

    ``H = J sum_r sz_r sz_{r+1} + h_x sum_r sx_r + h_z sum_r sz_r``.
    The defaults put the chain at the standard strongly nonintegrable point.
    """

    sites: int
    coupling: float = 1.0
    field_x: float = 1.05
    field_z: float = 0.5

    def __post_init__(self):
        if self.sites < 1:
            raise ValidationError("chain needs at least one site")
        if self.sites > MAX_CHAIN_SITES:
            raise ValidationError(
                f"sites={self.sites} exceeds the dense-diagonalization guard "
                f"({MAX_CHAIN_SITES})"
            )
        for name in ("coupling", "field_x", "field_z"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @property
    def dim(self) -> int:
        return 2**self.sites


def _sz_table(sites: int) -> np.ndarray:
    # sz eigenvalue of each site for every basis index; shape (sites, 2**sites).
    idx = np.arange(2**sites)
    bits = (idx[None, :] >> (sites - 1 - np.arange(sites)[:, None])) & 1
    return 1.0 - 2.0 * bits


def build_spin_chain(params: SpinChainParams) -> np.ndarray:
    """Dense Hamiltonian of the mixed-field Ising chain."""
    n = params.sites
    dim = params.dim
    sz = _sz_table(n)
    diag = params.field_z * sz.sum(axis=0)
    if n > 1:
        diag = diag + params.coupling * (sz[:-1] * sz[1:]).sum(axis=0)
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, diag)
    idx = np.arange(dim)
    for r in range(n):
        flipped = idx ^ (1 << (n - 1 - r))
        h[idx, flipped] += params.field_x
    return h


@dataclass(frozen=True, eq=False)
class BipartiteSystem:
    """A total Hamiltonian split across a bipartition cut.

    Holds the three spectra every measurement reads and
    ``interaction_sq[alpha] = <alpha|H_I^2|alpha>`` for every total
    eigenstate (the scrambling width's only input).  The dimensions are
    those of the spectra.  The Hamiltonians are built only to be
    diagonalized and are not kept.  Eigenvector matrices
    follow the sign convention of :func:`ethlab.linalg.eig_sym`; the
    subsystem spectra solve for theirs on first read (see
    :func:`decompose_chain`).
    """

    spectrum_a: Spectrum
    spectrum_b: Spectrum
    spectrum_t: Spectrum
    interaction_sq: np.ndarray

    @property
    def dim_a(self) -> int:
        return self.spectrum_a.dim

    @property
    def dim_b(self) -> int:
        return self.spectrum_b.dim

    @property
    def total_dim(self) -> int:
        return self.spectrum_t.dim

    def sum_energies(self) -> np.ndarray:
        """Noninteracting eigenvalues ``E_i^A + E_j^B`` as a (dim_a, dim_b) grid."""
        return np.add.outer(self.spectrum_a.eigenvalues, self.spectrum_b.eigenvalues)


def _fragment(build: Callable[[], np.ndarray], *, check: bool = True) -> Spectrum:
    # Spectrum of the fragment Hamiltonian ``build()``: eigenvalues from one
    # eigenvalue-only solve now, eigenvectors from eig_sym of a fresh build
    # on first read.  Until then it holds neither them nor the matrix.
    # ``check`` validates each build, as eig_sym does.
    return Spectrum(
        eigvals_sym(build(), check=check),
        solve=lambda: eig_sym(build(), check=check).eigenvectors,
    )


def _total_spectrum(spectrum_t, compute: Callable[[], Spectrum]) -> Spectrum:
    # A builder's ``spectrum_t``: the total spectrum itself, a function
    # ``fetch(compute)`` that returns it, or None to compute it here.
    if spectrum_t is None:
        return compute()
    return spectrum_t(compute) if callable(spectrum_t) else spectrum_t


def _split_system(
    build_a: Callable[[], np.ndarray],
    build_b: Callable[[], np.ndarray],
    spectrum_t: Spectrum,
) -> BipartiteSystem:
    # ``build_a`` and ``build_b`` return the subsystem Hamiltonians afresh.
    # <alpha|H_I^2|alpha> = |(E_alpha - H_0)|alpha>|^2 needs no H_I: H_0
    # acts factor-wise on each eigenvector row reshaped to (dim_a, dim_b),
    # 2 total^2 (dim_a + dim_b) flops instead of 2 total^3 for h_i @ V.
    # H_B (symmetric) acts on the last axis, so one product covers every
    # row; H_A acts on the middle axis, one small product per row.
    spectrum_a, spectrum_b = _fragment(build_a), _fragment(build_b)
    h_a, h_b = build_a(), build_b()
    rows = spectrum_t.rows
    v3 = rows.reshape(-1, spectrum_a.dim, spectrum_b.dim)
    applied = v3 * spectrum_t.eigenvalues[:, None, None]
    applied -= np.matmul(h_a, v3)
    applied -= (rows.reshape(-1, spectrum_b.dim) @ h_b).reshape(v3.shape)
    return BipartiteSystem(
        spectrum_a=spectrum_a,
        spectrum_b=spectrum_b,
        spectrum_t=spectrum_t,
        interaction_sq=np.einsum("nab,nab->n", applied, applied),
    )


def _diagonalize(h_a: np.ndarray, h_b: np.ndarray, h_i: np.ndarray) -> Spectrum:
    # Spectrum of H_T = kron(H_A, 1) + kron(1, H_B) + H_I, summed in place in
    # that order; an h_i passed as a temporary is freed before eig_sym, so it
    # holds no dense input but H_T.
    dim_a = h_a.shape[0]
    dim_b = h_b.shape[0]
    total = dim_a * dim_b
    if h_i.shape != (total, total):
        raise DimensionError(
            f"interaction shape {h_i.shape} does not match product dim {total}"
        )
    h_t = np.kron(h_a, np.eye(dim_b))
    h_t += np.kron(np.eye(dim_a), h_b)
    h_t += h_i
    del h_i
    spectrum_t = eig_sym(h_t, check=False)
    del h_t
    return spectrum_t


def make_bipartite(
    h_a: np.ndarray, h_b: np.ndarray, h_i: np.ndarray
) -> BipartiteSystem:
    """Diagonalize a bipartite system given as its three pieces.

    ``H_T = kron(H_A, 1) + kron(1, H_B) + H_I`` is assembled, diagonalized
    and freed.  ``<alpha|H_I^2|alpha>`` follows from the eigenvectors
    without ``H_I``.  The subsystem spectra keep ``h_a`` and ``h_b`` to
    solve for their eigenvectors on first read (see :func:`decompose_chain`).
    """
    return _split_system(lambda: h_a, lambda: h_b, _diagonalize(h_a, h_b, h_i))


def decompose_chain(
    params: SpinChainParams,
    cut: int,
    *,
    spectrum_t: Optional[Spectrum | Callable] = None,
) -> BipartiteSystem:
    """Split the chain after site ``cut`` into two fragment Hamiltonians.

    ``H_A`` and ``H_B`` are the chain Hamiltonians of the two fragments
    (bonds interior to each side, all fields); the interaction is the single
    coupling ``J sz_cut sz_{cut+1}`` across the cut.  It squares to ``J^2``
    times the identity, so ``<alpha|H_I^2|alpha>`` is ``J^2`` times each
    eigenvector's squared norm and the interaction is never built.

    Each fragment's eigenvalues come from one eigenvalue-only solve
    (:func:`ethlab.linalg.eigvals_sym`), whether or not its eigenvectors
    are ever read.  Those are solved with :func:`ethlab.linalg.eig_sym` of
    a freshly built fragment on the first read of ``eigenvectors`` or
    ``rows`` and then kept; eigenvector ``k`` belongs to eigenvalue ``k``
    up to the two solvers' roundoff (at most 3.5e-13 at 11 sites).  Only
    the scrambling coefficients and the specific-operator rungs read them.

    The cut only splits the full chain ``build_spin_chain(params)``, so the
    total spectrum is the same for every cut.  ``spectrum_t`` is that
    spectrum; or a function ``fetch(compute)`` that returns it, given the
    function that diagonalizes the full chain (a cache lookup bound to its
    key, say); or ``None`` to diagonalize the full chain here.  Both
    fragments' eigenvalues are solved first, so their solves never run
    beside a total spectrum fetched or computed here.
    """
    if not 1 <= cut <= params.sites - 1:
        raise ValidationError(f"cut={cut} outside 1..{params.sites - 1}")
    # Chains are exactly symmetric and finite: the fragments' solves skip
    # the check, as the total's does.
    spectrum_a = _fragment(
        partial(build_spin_chain, replace(params, sites=cut)), check=False
    )
    spectrum_b = _fragment(
        partial(build_spin_chain, replace(params, sites=params.sites - cut)),
        check=False,
    )

    def compute():
        return eig_sym(build_spin_chain(params), check=False)

    spectrum_t = _total_spectrum(spectrum_t, compute)
    rows = spectrum_t.rows
    return BipartiteSystem(
        spectrum_a=spectrum_a,
        spectrum_b=spectrum_b,
        spectrum_t=spectrum_t,
        interaction_sq=params.coupling**2 * np.einsum("ij,ij->i", rows, rows),
    )


@dataclass(frozen=True)
class RandomSystemParams:
    """Synthetic bipartite system with diagonal GOE-spectrum subsystems.

    ``sites_a``/``sites_b`` set the subsystem dimensions ``2**sites``; the
    interaction acts on ``sites_i`` qubits straddling the cut
    (``floor(sites_i / 2)`` of them on the A side) and is rescaled so that
    ``|H_I| / |H_0| = interaction_fraction`` in spectral norm.  ``a_scale``
    multiplies the A spectrum, widening it relative to B.  A cold build at
    the 13-site guard (``sites_a=2, sites_b=11``) peaks at 2656 MB RSS, all
    of it in the diagonalization of ``H_T`` (see ``MAX_CHAIN_SITES``).
    """

    sites_a: int
    sites_b: int
    sites_i: int
    interaction_fraction: float
    seed: int
    a_scale: float = 1.0

    def __post_init__(self):
        if min(self.sites_a, self.sites_b, self.sites_i) < 1:
            raise ValidationError("sites_a, sites_b, sites_i must all be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.sites_a + self.sites_b > MAX_CHAIN_SITES:
            raise ValidationError(
                f"total sites {self.sites_a + self.sites_b} exceeds the "
                f"dense-diagonalization guard ({MAX_CHAIN_SITES})"
            )
        if self.sites_i // 2 > self.sites_a or (self.sites_i + 1) // 2 > self.sites_b:
            raise ValidationError(
                "interaction qubits do not fit the bipartition: need "
                "floor(sites_i/2) <= sites_a and ceil(sites_i/2) <= sites_b"
            )
        if self.interaction_fraction < 0 or not np.isfinite(self.interaction_fraction):
            raise ValidationError("interaction_fraction must be finite and >= 0")
        if self.a_scale <= 0 or not np.isfinite(self.a_scale):
            raise ValidationError("a_scale must be finite and > 0")


def sample_goe(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from the Gaussian orthogonal ensemble.

    ``(G + G.T) / 2`` with ``G`` standard normal: unit variance on the
    diagonal, variance 1/2 off it.  The overall scale is arbitrary for every
    use in this package (spectra get rescaled downstream).
    """
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    g = rng.standard_normal((dim, dim))
    return 0.5 * (g + g.T)


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def build_random_system(
    params: RandomSystemParams,
    *,
    spectrum_t: Optional[Spectrum | Callable] = None,
) -> BipartiteSystem:
    """Build the random bipartite family from a single seed.

    Sampling order (fixed for reproducibility): GOE spectrum for ``H_A``, GOE
    spectrum for ``H_B``, GOE spectrum for the interaction block, then the two
    Haar rotations.  ``H_A`` and ``H_B`` are diagonal with sorted spectra; the
    interaction is a diagonal random spectrum on the straddling qubits rotated
    by independent Haar orthogonals on each side and rescaled to the requested
    relative spectral norm.  ``spectrum_t`` is the total spectrum, a function
    ``fetch(compute)`` that returns it, or ``None``, as in
    :func:`decompose_chain`.  The interaction enters only the
    diagonalization, so it is drawn and built only when ``compute`` runs.
    """
    rng = np.random.default_rng(params.seed)
    dim_a = 2**params.sites_a
    dim_b = 2**params.sites_b
    spec_a = params.a_scale * np.sort(np.linalg.eigvalsh(sample_goe(dim_a, rng)))
    spec_b = np.sort(np.linalg.eigvalsh(sample_goe(dim_b, rng)))
    # The subsystem Hamiltonians are rebuilt from their sorted diagonals,
    # whose eigenvalue-only solve gives the diagonal back bit for bit.
    build_a = partial(np.diag, spec_a)
    build_b = partial(np.diag, spec_b)

    def compute():
        # The interaction is passed on as a temporary: _diagonalize frees it
        # before the diagonalization.
        return _diagonalize(
            build_a(), build_b(), _random_interaction(params, spec_a, spec_b, rng)
        )

    return _split_system(build_a, build_b, _total_spectrum(spectrum_t, compute))


def _random_interaction(params, spec_a, spec_b, rng) -> np.ndarray:
    # H_I of the random family, drawn from ``rng`` after both subsystem
    # spectra: interaction spectrum, then the A and B Haar rotations.
    ia = params.sites_i // 2
    ib = params.sites_i - ia
    spec_i = np.sort(np.linalg.eigvalsh(sample_goe(2**params.sites_i, rng)))
    rot_a = haar_orthogonal(spec_a.size, rng)
    rot_b = haar_orthogonal(spec_b.size, rng)

    # Interaction spectrum on the straddling qubits, embedded diagonally.
    mid = np.kron(
        np.ones(2 ** (params.sites_a - ia)),
        np.kron(spec_i, np.ones(2 ** (params.sites_b - ib))),
    )
    norm_h0 = float(np.max(np.abs(np.add.outer(spec_a, spec_b))))
    norm_mid = float(np.max(np.abs(spec_i)))
    if params.interaction_fraction == 0.0 or norm_mid == 0.0:
        scale = 0.0
    else:
        scale = params.interaction_fraction * norm_h0 / norm_mid
    rot = np.kron(rot_a, rot_b)
    h_i = (rot * (scale * mid)) @ rot.T
    del rot
    return 0.5 * (h_i + h_i.T)

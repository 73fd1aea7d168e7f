"""Overlap tensor, double stochasticity, scrambling width."""

import numpy as np
import pytest

from ethlab.errors import EmptyWindowError, ValidationError
from ethlab.hamiltonians import (
    RandomSystemParams,
    SpinChainParams,
    build_random_system,
    build_spin_chain,
    decompose_chain,
    make_bipartite,
    sample_goe,
)
from ethlab.linalg import eig_sym
from ethlab.scrambling import (
    compute_coefficients,
    exp_profile,
    flat_profile,
    profile,
)

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))


def tensor_width(system, center_fraction=0.5):
    """Oracle: c**2-weighted rms energy offset from the full overlap tensor."""
    coeffs = compute_coefficients(system)
    e_t = coeffs.energies_total
    margin = 0.5 * (1.0 - center_fraction) * (e_t[-1] - e_t[0])
    sel = np.nonzero((e_t >= e_t[0] + margin) & (e_t <= e_t[-1] - margin))[0]
    offs = e_t[sel, None, None] - system.sum_energies()[None, :, :]
    weights = coeffs.tensor[sel] ** 2
    return float(np.sqrt((weights * offs**2).sum() / weights.sum()))


def test_selected_states_equal_full_tensor_slices():
    # The coefficient datasets contract only the states they print; the
    # selection must reproduce the full tensor's slices bit for bit.
    from ethlab.figures import quantile_states

    full = decompose_chain(SpinChainParams(10), 3)
    for cut in (1, 3, 5, 8):
        system = decompose_chain(SpinChainParams(10), cut, spectrum_t=full.spectrum_t)
        states = quantile_states(system.total_dim)
        whole = compute_coefficients(system)
        some = compute_coefficients(system, states)
        assert some.tensor.shape == (states.size, system.dim_a, system.dim_b)
        assert np.array_equal(some.tensor, whole.tensor[states])
        assert np.array_equal(some.energies_total, whole.energies_total[states])


def test_double_stochasticity_small_chains():
    for sites, cut in ((4, 1), (6, 3), (8, 3)):
        coeffs = compute_coefficients(decompose_chain(SpinChainParams(sites), cut))
        sq = coeffs.tensor**2
        per_alpha = sq.reshape(coeffs.tensor.shape[0], -1).sum(axis=1)
        per_pair = sq.sum(axis=0)
        assert np.abs(per_alpha - 1.0).max() < 1e-9
        assert np.abs(per_pair - 1.0).max() < 1e-9


def test_noninteracting_system_has_zero_width():
    # With H_I = 0 every eigenstate is a product state, so the width
    # vanishes.  The total and subsystem eigendecompositions round
    # independently, which leaves the estimator at the machine-noise floor
    # rather than a literal 0.0.
    rng = np.random.default_rng(14)
    h_a = sample_goe(4, rng)
    h_b = sample_goe(16, rng)
    system = make_bipartite(h_a, h_b, np.zeros((64, 64)))
    coeffs = compute_coefficients(system)
    offs = coeffs.energies_total[:, None, None] - system.sum_energies()[None]
    live = np.abs(coeffs.tensor) > 1e-12
    assert np.abs(offs[live]).max() < 1e-10
    prof = profile(system, center_fraction=1.0)
    assert prof.sigma_s < 1e-10


def test_cut_bond_width_equals_coupling():
    # The cut-bond interaction squares to J^2 times the identity, so the
    # coefficient-weighted offset width is |J| exactly, in any window.
    for sites, cut, coupling, fraction in (
        (6, 2, 1.0, 1.0),
        (6, 3, 1.0, 0.5),
        (8, 3, 0.7, 0.5),
        (8, 5, 1.3, 0.25),
        (8, 3, 2.0, 1.0),
    ):
        system = decompose_chain(SpinChainParams(sites, coupling=coupling), cut)
        prof = profile(system, center_fraction=fraction)
        assert prof.sigma_s == pytest.approx(abs(coupling), abs=1e-8)
        assert tensor_width(system, fraction) == pytest.approx(abs(coupling), abs=1e-8)


@pytest.mark.parametrize(
    "params",
    [SpinChainParams(8), SpinChainParams(10),
     SpinChainParams(8, coupling=0.7, field_x=0.3, field_z=-1.3),
     SpinChainParams(10, coupling=0.7, field_x=0.3, field_z=-1.3)],
    ids=["8", "10", "8-tilted", "10-tilted"],
)
def test_chain_width_matches_tensor_second_moment_at_every_cut(params):
    spectrum = eig_sym(build_spin_chain(params), check=False)
    for cut in range(1, params.sites):
        system = decompose_chain(params, cut, spectrum_t=spectrum)
        for fraction in (1.0, 0.5):
            assert profile(system, fraction).sigma_s == pytest.approx(
                tensor_width(system, fraction), rel=1e-12
            )


def test_general_width_matches_tensor_second_moment():
    # Dense subsystem Hamiltonians (the A5 toy) and the diagonal random family:
    # <alpha|H_I^2|alpha> from (E_alpha - H_0)|alpha> against the tensor.
    rng = np.random.default_rng(1)
    toy = make_bipartite(
        sample_goe(6, rng), sample_goe(48, rng), 0.3 * sample_goe(288, rng)
    )
    random = build_random_system(
        RandomSystemParams(
            sites_a=2, sites_b=6, sites_i=4, interaction_fraction=0.01, seed=7
        )
    )
    for system in (toy, random):
        for fraction in (1.0, 0.5):
            assert profile(system, fraction).sigma_s == pytest.approx(
                tensor_width(system, fraction), rel=1e-12
            )


def test_profile_window_bookkeeping():
    # sigma_S is the root mean of <alpha|H_I^2|alpha> over the window's
    # states.  A random system, because a chain cut has <alpha|H_I^2|alpha>
    # = J^2 for every state and no window would show.
    system = build_random_system(
        RandomSystemParams(
            sites_a=2, sites_b=4, sites_i=2, interaction_fraction=0.1, seed=0
        )
    )
    e_t = system.spectrum_t.eigenvalues
    spread = e_t[-1] - e_t[0]
    prof_full = profile(system, center_fraction=1.0)
    assert prof_full.sigma_s == pytest.approx(
        np.sqrt(system.interaction_sq.mean()), rel=1e-12
    )
    prof_half = profile(system, center_fraction=0.5)
    lo = e_t[0] + 0.25 * spread
    hi = e_t[-1] - 0.25 * spread
    inside = (e_t >= lo) & (e_t <= hi)
    assert 0 < inside.sum() < e_t.size
    assert prof_half.sigma_s == pytest.approx(
        np.sqrt(system.interaction_sq[inside].mean()), rel=1e-12
    )
    assert prof_half.sigma_s != prof_full.sigma_s


def test_profile_moment_matched_shapes():
    system = decompose_chain(SpinChainParams(6), 3)
    prof = profile(system)
    ss = prof.sigma_s
    assert prof.delta == pytest.approx(2.0 * SQRT3 * ss, rel=1e-12)
    assert prof.normalization == pytest.approx(SQRT2 * ss, rel=1e-12)


def test_profile_shapes_carry_matched_second_moment():
    # Both fitted shapes reproduce sigma_S as their own second moment.
    ss = 0.83
    xs = np.linspace(-30.0, 30.0, 600001)
    h = exp_profile(ss)(xs)
    second = np.trapezoid(xs**2 * h, xs) / np.trapezoid(h, xs)
    assert np.sqrt(second) == pytest.approx(ss, rel=1e-6)
    delta = 2.0 * SQRT3 * ss
    xs = np.linspace(-delta, delta, 400001)
    h = flat_profile(delta)(xs)
    second = np.trapezoid(xs**2 * h, xs) / np.trapezoid(h, xs)
    assert np.sqrt(second) == pytest.approx(ss, rel=1e-5)


def test_profile_validation():
    system = decompose_chain(SpinChainParams(4), 2)
    with pytest.raises(ValidationError):
        profile(system, center_fraction=0.0)
    with pytest.raises(ValidationError):
        profile(system, center_fraction=1.5)
    with pytest.raises(ValidationError):
        exp_profile(0.0)
    with pytest.raises(ValidationError):
        flat_profile(-0.1)


def test_empty_window_error():
    # A window so narrow it misses every eigenstate must say so.
    rng = np.random.default_rng(3)
    h_a = np.diag([-1.0, 1.0])
    h_b = np.diag([-10.0, 10.0])
    system = make_bipartite(h_a, h_b, 1e-3 * sample_goe(4, rng))
    with pytest.raises(EmptyWindowError):
        profile(system, center_fraction=1e-9)

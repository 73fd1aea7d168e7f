"""Overlap tensor, double stochasticity, scrambling width."""

import numpy as np
import pytest

from ethlab.errors import EmptyWindowError, ValidationError
from ethlab.hamiltonians import (
    SpinChainParams,
    decompose_chain,
    make_bipartite,
    sample_goe,
)
from ethlab.scrambling import (
    compute_coefficients,
    exp_profile,
    flat_profile,
    profile,
)

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))


def test_double_stochasticity_small_chains():
    for sites, cut in ((4, 1), (6, 3), (8, 3)):
        coeffs = compute_coefficients(decompose_chain(SpinChainParams(sites), cut))
        sq = coeffs.tensor**2
        per_alpha = sq.reshape(coeffs.total_dim, -1).sum(axis=1)
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
    offs = coeffs.offsets()
    live = np.abs(coeffs.tensor) > 1e-12
    assert np.abs(offs[live]).max() < 1e-10
    prof = profile(coeffs, center_fraction=1.0)
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
        prof = profile(compute_coefficients(system), center_fraction=fraction)
        assert prof.sigma_s == pytest.approx(abs(coupling), abs=1e-8)


def test_offsets_subset_selection():
    coeffs = compute_coefficients(decompose_chain(SpinChainParams(5), 2))
    sel = np.array([0, 7, 31])
    offs = coeffs.offsets(sel)
    assert offs.shape == (3, 4, 8)
    full = coeffs.offsets()
    assert np.array_equal(offs, full[sel])


def test_profile_window_bookkeeping():
    coeffs = compute_coefficients(decompose_chain(SpinChainParams(6), 2))
    e_t = coeffs.energies_total
    spread = e_t[-1] - e_t[0]
    prof_full = profile(coeffs, center_fraction=1.0)
    assert prof_full.states_in_window == 64
    assert prof_full.window == (e_t[0], e_t[-1])
    prof_half = profile(coeffs, center_fraction=0.5)
    lo = e_t[0] + 0.25 * spread
    hi = e_t[-1] - 0.25 * spread
    assert prof_half.window == pytest.approx((lo, hi))
    assert prof_half.states_in_window == int(
        np.count_nonzero((e_t >= lo) & (e_t <= hi))
    )


def test_profile_moment_matched_shapes():
    coeffs = compute_coefficients(decompose_chain(SpinChainParams(6), 3))
    prof = profile(coeffs)
    ss = prof.sigma_s
    assert prof.delta == pytest.approx(2.0 * SQRT3 * ss, rel=1e-12)
    assert prof.normalization == pytest.approx(SQRT2 * ss, rel=1e-12)
    assert prof.h(0.0) == 1.0
    assert prof.h(ss) == pytest.approx(np.exp(-SQRT2), rel=1e-12)
    flat = profile(coeffs, fit_form="flat_window")
    assert flat.normalization == pytest.approx(flat.delta, rel=1e-12)
    half = 0.5 * flat.delta
    assert flat.h(half - 1e-12) == 1.0
    assert flat.h(half + 1e-9) == 0.0


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
    coeffs = compute_coefficients(decompose_chain(SpinChainParams(4), 2))
    with pytest.raises(ValidationError):
        profile(coeffs, center_fraction=0.0)
    with pytest.raises(ValidationError):
        profile(coeffs, center_fraction=1.5)
    with pytest.raises(ValidationError):
        profile(coeffs, fit_form="gaussian")
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
    coeffs = compute_coefficients(system)
    with pytest.raises(EmptyWindowError):
        profile(coeffs, center_fraction=1e-9)

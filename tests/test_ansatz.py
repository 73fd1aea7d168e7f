"""Prediction ladder: exact sums, continuum forms, Gibbs diagonals."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import ethlab.ansatz
import ethlab.linalg
from ethlab.ansatz import (
    AnsatzKind,
    AnsatzModel,
    density_autocorrelation,
    entropic_factor,
    exp_autocorrelation,
    f_exp_decay,
    f_flat_a,
    f_mc_finite_width,
    f_narrow,
    f_small_a,
    f_smooth_small_a,
    f_smooth_sums,
    gibbs_diagonal,
    rmt_variance,
)
from ethlab.errors import (
    DegenerateWindowError,
    DimensionError,
    OutOfSupportError,
    QuadratureError,
    ValidationError,
)
from ethlab.experiments import BinningParams, OperatorEnsembleSpec, run_ensemble
from ethlab.hamiltonians import (
    SpinChainParams,
    build_random_system,
    decompose_chain,
    make_bipartite,
    sample_goe,
)
from ethlab.io import parse_config
from ethlab.linalg import (
    GridFunction,
    SpectralDensity,
    density_of_states,
    integrate_adaptive,
)
from ethlab.scrambling import ScramblingProfile, exp_profile, flat_profile, profile

SQRT2 = float(np.sqrt(2.0))


def toy_system(seed=0, dim_a=4, dim_b=16, strength=0.3):
    rng = np.random.default_rng(seed)
    h_a = sample_goe(dim_a, rng)
    h_b = sample_goe(dim_b, rng)
    h_i = strength * sample_goe(dim_a * dim_b, rng)
    return make_bipartite(h_a, h_b, h_i)


def flat_density(sigma_a, height=None):
    half = 0.5 * sigma_a
    h = height if height is not None else 1.0 / sigma_a
    return GridFunction(np.array([-half, half]), np.array([h, h]))


def test_exp_autocorrelation_closed_form_vs_quadrature():
    # The closed form must match direct numerical correlation of the profile.
    for sigma_s in (0.5, 1.0, 2.3):
        h = exp_profile(sigma_s)
        hh = exp_autocorrelation(sigma_s)
        cut = 30.0 * sigma_s
        for e in (0.0, 0.3 * sigma_s, sigma_s, 2.7 * sigma_s, -1.4 * sigma_s):
            (numeric,) = integrate_adaptive(
                lambda y, rows: h(y) * h(e + y),
                np.array([-cut]), np.array([cut]), tol=1e-10, kinks=[(0.0, -e)],
            )
            assert abs(hh(e) - numeric) < 1e-6


def test_f_smooth_sums_flat_profile_matches_microcanonical_counts():
    # With the closed flat window the profile-weighted sums are the literal
    # microcanonical eigenvalue counts.
    system = toy_system()
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    v_a = system.spectrum_a.eigenvectors
    m_sq = (v_a.T @ op @ v_a) ** 2
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    for delta, e_alpha, e_beta in (
        (1.0, 0.3, -0.5),
        (2.5, 1.0, 1.0),
        (0.7, -0.2, 0.4),
    ):
        half = 0.5 * delta
        num = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(16):
                    in_a = abs(e_alpha - e_a[i] - e_b[k]) <= half
                    in_b = abs(e_beta - e_a[j] - e_b[k]) <= half
                    if in_a and in_b:
                        num += m_sq[i, j]
        sums = system.sum_energies().ravel()
        z_a = np.count_nonzero(np.abs(e_alpha - sums) <= half)
        z_b = np.count_nonzero(np.abs(e_beta - sums) <= half)
        expected = np.sqrt(num / (z_a * z_b))
        ebar, omega = (e_alpha + e_beta) / 2, (e_alpha - e_beta) / 2
        (got,) = f_smooth_sums(system, op, flat_profile(delta), ebar, omega)
        assert got == pytest.approx(expected, rel=1e-12)


def test_f_smooth_sums_matches_brute_force():
    system = toy_system(seed=1)
    h = exp_profile(0.8)
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    e_alpha, e_beta = 0.6, -0.9
    # Typical-operator substitution: |O_ij|^2 -> 1 / dim_a.
    m_sq = np.full((4, 4), 1.0 / 4.0)
    num = sum(
        h(e_alpha - e_a[i] - e_b[k]) * h(e_beta - e_a[j] - e_b[k]) * m_sq[i, j]
        for i in range(4)
        for j in range(4)
        for k in range(16)
    )
    sums = system.sum_energies()
    z_a = h(e_alpha - sums).sum()
    z_b = h(e_beta - sums).sum()
    expected = np.sqrt(num / (z_a * z_b))
    ebar, omega = (e_alpha + e_beta) / 2, (e_alpha - e_beta) / 2
    (got,) = f_smooth_sums(system, None, h, ebar, omega)
    assert got == pytest.approx(expected, rel=1e-12)


def test_exact_sums_errors_name_the_empty_window():
    # Each call puts a pair energy far above the spectrum, where the flat
    # window is empty.
    system = toy_system(seed=3)
    h = flat_profile(1.5)
    # The message names the mean energy and the omega.
    with pytest.raises(DegenerateWindowError, match=r"E=100.0 \+/- 100.0"):
        f_smooth_sums(system, None, flat_profile(0.1), 100.0, 100.0)
    with pytest.raises(DegenerateWindowError, match=r"E=150.0 \+/- 150.0"):
        f_smooth_sums(system, None, flat_profile(0.5), 150.0, 150.0)
    # One such omega in a grid is enough.
    with pytest.raises(DegenerateWindowError, match=r"E=0.0 \+/- 200.0"):
        f_smooth_sums(system, None, h, 0.0, np.array([0.2, 200.0]))
    with pytest.raises(DegenerateWindowError, match=r"E=0.0 \+/- 300.0"):
        f_smooth_sums(system, None, flat_profile(0.5), 0.0, np.array([0.2, 300.0]))


def test_f_smooth_sums_rejects_an_underflowing_normalization():
    # Far outside the spectrum both exponential normalizations are positive
    # but their product underflows to zero: that omega is not live, and the
    # wrapper raises DegenerateWindowError rather than dividing by zero.
    system = toy_system(seed=3)
    h = exp_profile(1.0)
    sums = system.sum_energies()
    z_a, z_b = h(300.0 - sums).sum(), h(-300.0 - sums).sum()
    assert z_a > 0.0 and z_b > 0.0 and z_a * z_b == 0.0
    with pytest.raises(DegenerateWindowError, match=r"E=0.0 \+/- 300.0"):
        f_smooth_sums(system, None, h, 0.0, 300.0)
    model = AnsatzModel(AnsatzKind.SMOOTH_GENERAL_SUMS, system, 1.0)
    pred = model.evaluate(0.0, np.array([0.2, 300.0]))
    assert pred.omega.tolist() == [0.2]
    assert np.array_equal(pred.f, f_smooth_sums(system, None, h, 0.0, 0.2))


def test_f_small_a_flat_density_closed_form():
    # Flat subsystem density: the general small-A form reduces to the
    # closed-form triangle, f(0) = sqrt(sigma_s / sigma_a).
    sigma_a, sigma_s = 4.0, 1.0
    auto = density_autocorrelation(flat_density(sigma_a))
    assert f_small_a(auto, sigma_s, 0.0) == pytest.approx(0.5, abs=1e-9)
    for omega in np.linspace(-2.4, 2.4, 25):
        closed = f_flat_a(sigma_a, sigma_s, float(omega))
        general = f_small_a(auto, sigma_s, float(omega))
        assert general == pytest.approx(closed, abs=1e-8)


@pytest.mark.parametrize(
    "values, rel",
    [((1.0 / 3.0, 1.0 / 3.0), 1e-12), ((0.5 / 3.0, 1.5 / 3.0), 1e-5)],
    ids=["flat", "tilted"],
)
def test_f_small_a_matches_independent_quadrature(values, rel):
    # f**2 = sigma_s integral dy rho(y) rho(2 omega + y), here by scipy
    # quad on the density itself rather than on its tabulated autocorrelation.
    # The tilted density's autocorrelation is cubic, so its linear
    # interpolation between the 1025 tabulation points costs about 1e-6.
    rho = GridFunction(np.array([-1.5, 1.5]), np.array(values))
    auto = density_autocorrelation(rho)
    sigma_s = 0.7
    for omega in (0.0, 0.4, -0.9, 1.2, 1.45):
        x = 2.0 * omega
        lo, hi = max(-1.5, -1.5 - x), min(1.5, 1.5 - x)
        val, _ = quad(lambda y: rho(y) * rho(x + y), lo, hi, epsabs=0.0, epsrel=1e-13)
        expected = np.sqrt(sigma_s * val)
        assert f_small_a(auto, sigma_s, omega) == pytest.approx(
            expected, rel=rel
        )


def test_unnormalized_density_is_rejected():
    bad = GridFunction(np.array([-1.0, 1.0]), np.array([3.0, 3.0]))
    with pytest.raises(ValidationError):
        density_autocorrelation(bad)


def test_f_flat_a_support_edge():
    assert f_flat_a(2.0, 0.5, 1.0) == 0.0
    assert f_flat_a(2.0, 0.5, 5.0) == 0.0
    assert f_flat_a(2.0, 0.5, 0.999) > 0.0
    with pytest.raises(ValidationError):
        f_flat_a(0.0, 0.5, 0.1)


def test_continuum_forms_are_even_in_omega():
    sigma_a, sigma_s = 3.0, 0.4
    auto = density_autocorrelation(flat_density(sigma_a))
    for w in (0.1, 0.7, 1.3):
        assert f_exp_decay(sigma_a, sigma_s, w) == pytest.approx(
            f_exp_decay(sigma_a, sigma_s, -w), rel=1e-10
        )
        assert f_mc_finite_width(auto, sigma_a, sigma_s, w) == pytest.approx(
            f_mc_finite_width(auto, sigma_a, sigma_s, -w), rel=1e-8
        )
        assert f_smooth_small_a(auto, sigma_s, w) == pytest.approx(
            f_smooth_small_a(auto, sigma_s, -w), rel=1e-8
        )


def test_f_exp_decay_quadrature_oracle():
    # Trapezoid evaluation of the same integrand on a dense grid.
    sigma_a, sigma_s = 5.0, 0.6
    xs = np.linspace(-1.0, 1.0, 400001)
    for omega in (0.0, 0.8, 2.0, 3.1):
        u = np.abs(2.0 * omega - xs * sigma_a)
        rate = SQRT2 / sigma_s
        vals = (1.0 - np.abs(xs)) * (1.0 + rate * u) * np.exp(-rate * u)
        expected = np.sqrt(np.trapezoid(vals, xs) / (2.0 * SQRT2))
        assert f_exp_decay(sigma_a, sigma_s, omega) == pytest.approx(
            expected, rel=1e-6
        )


def test_f_exp_decay_narrow_profile_limit():
    # As sigma_s -> 0 the exponential profile collapses and the flat-A
    # triangle is recovered.
    sigma_a = 4.0
    for omega in (0.0, 0.5, 1.2):
        tight = f_exp_decay(sigma_a, sigma_a * 1e-4, omega)
        limit = f_flat_a(sigma_a, sigma_a * 1e-4, omega)
        assert tight == pytest.approx(limit, rel=1e-3)


def test_approximation_ladder_converges_to_small_a():
    # Both finite-width forms approach the narrow small-A form once the
    # scrambling width is far below the subsystem bandwidth.
    sigma_a = 4.0
    sigma_s = sigma_a / 100.0
    auto = density_autocorrelation(flat_density(sigma_a))
    for omega in np.linspace(0.0, 0.45 * sigma_a, 12):
        ref = f_small_a(auto, sigma_s, float(omega))
        assert f_exp_decay(sigma_a, sigma_s, float(omega)) == pytest.approx(
            ref, rel=0.02
        )
        assert f_mc_finite_width(
            auto, sigma_a, sigma_s, float(omega)
        ) == pytest.approx(ref, rel=0.02)


def test_f_smooth_small_a_matches_exp_decay_for_flat_density(monkeypatch):
    sigma_a, sigma_s = 4.0, 0.5
    monkeypatch.setattr(ethlab.ansatz, "_AUTOCORR_POINTS", 4097)
    auto = density_autocorrelation(flat_density(sigma_a))
    for omega in (0.0, 0.6, 1.4, 2.2):
        a = f_smooth_small_a(auto, sigma_s, omega)
        b = f_exp_decay(sigma_a, sigma_s, omega)
        assert a == pytest.approx(b, rel=1e-4)


def test_f_narrow_flat_density_oracle():
    # Flat n_a (2 states per unit on [-1, 1], 4 states), flat n_b, flat n_0:
    # f^2 = 2 sigma_s c_b (1 - |omega|) / c_0.
    n_a = SpectralDensity(
        np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0
    )
    c_b, c_0 = 12.0, 50.0
    n_b = GridFunction(np.array([-20.0, 20.0]), np.array([c_b, c_b]))
    n_0 = GridFunction(np.array([-21.0, 21.0]), np.array([c_0, c_0]))
    sigma_s = 0.3
    for omega in (0.0, 0.25, 0.6, 0.95):
        expected = np.sqrt(2.0 * sigma_s * c_b * (1.0 - omega) / c_0)
        got = f_narrow(n_a, n_b, n_0, sigma_s, 0.0, omega)
        assert got == pytest.approx(expected, rel=1e-6)
    # Support exhausted in the A factor: zero, not an error.
    assert f_narrow(n_a, n_b, n_0, sigma_s, 0.0, 1.5) == 0.0


def test_f_narrow_out_of_support():
    n_a = SpectralDensity(
        np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0
    )
    n_b = GridFunction(np.array([-2.0, 2.0]), np.array([1.0, 1.0]))
    n_0 = GridFunction(np.array([-3.0, 3.0]), np.array([1.0, 1.0]))
    with pytest.raises(OutOfSupportError):
        # E_alpha = ebar + omega leaves the sum-density support.
        f_narrow(n_a, n_b, n_0, 0.5, 2.0, 1.5)
    with pytest.raises(OutOfSupportError):
        # One such omega in a grid is enough.
        f_narrow(n_a, n_b, n_0, 0.5, 2.0, np.array([0.0, 0.5, 1.5]))


def test_entropic_factor_value_and_errors():
    n_0 = GridFunction(np.array([-2.0, 0.0, 2.0]), np.array([0.0, 8.0, 0.0]))
    assert entropic_factor(n_0, 0.0, 0.5) == pytest.approx(
        1.0 / np.sqrt(0.5 * 8.0), rel=1e-12
    )
    with pytest.raises(ValidationError):
        entropic_factor(n_0, 0.0, 0.0)
    with pytest.raises(OutOfSupportError):
        entropic_factor(n_0, 5.0, 0.5)
    with pytest.raises(OutOfSupportError):
        entropic_factor(n_0, -2.0, 0.5)  # density vanishes at the edge


def test_gibbs_diagonal_weighting_oracle():
    # Oracle: scipy's brentq solves <H_T>_beta = E_alpha over the total
    # levels, and the Gibbs average of the A-basis diagonal follows.
    system = toy_system(seed=4)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    e_t = system.spectrum_t.eigenvalues
    e_a = system.spectrum_a.eigenvalues
    v_a = system.spectrum_a.eigenvectors
    diag = np.diag(v_a.T @ op @ v_a)

    def mean_energy(beta, levels):
        x = -beta * levels
        w = np.exp(x - x.max())
        return (w * levels).sum() / w.sum()

    for e_alpha in (0.5 * e_t[0], -0.3, 0.4, 0.8 * e_t[-1]):
        beta = brentq(
            lambda b: mean_energy(b, e_t) - e_alpha, -50.0, 50.0, xtol=1e-14
        )
        w = np.exp(-beta * (e_a - e_a.min()))
        expected = float((w * diag).sum() / w.sum())
        assert gibbs_diagonal(system, op, e_alpha) == pytest.approx(
            expected, rel=1e-10
        )


def test_gibbs_diagonal_infinite_temperature_is_exact_trace_mean(monkeypatch):
    # At beta = 0 the weights are uniform, so the value is exactly the trace
    # mean, which is exactly zero for traceless operators.
    monkeypatch.setattr(ethlab.ansatz, "_canonical_beta", lambda e, ebar: 0.0)
    system = toy_system(seed=6)
    sz = np.diag([1.0, -1.0, 1.0, -1.0])
    assert gibbs_diagonal(system, sz, 0.5) == 0.0
    sx_like = np.zeros((4, 4))
    sx_like[0, 1] = sx_like[1, 0] = 1.0
    assert gibbs_diagonal(system, sx_like, -0.2) == 0.0
    assert gibbs_diagonal(system, np.eye(4), 0.1) == 1.0


@pytest.mark.parametrize("sites, cut", [(8, 3), (10, 5)])
def test_gibbs_diagonal_is_finite_across_the_spectrum(chain10, sites, cut):
    # Every one of 40 evenly spaced interior energies has a temperature; a
    # histogram slope of ln n_B had none at 30 of them on both chains.
    params = SpinChainParams(sites)
    spectrum_t = chain10.spectrum_t if sites == 10 else None
    system = decompose_chain(params, cut, spectrum_t=spectrum_t)
    e_t = system.spectrum_t.eigenvalues
    op = np.diag(np.linspace(-1.0, 1.0, system.dim_a))
    values = [
        gibbs_diagonal(system, op, e) for e in np.linspace(e_t[0], e_t[-1], 42)[1:-1]
    ]
    assert np.isfinite(values).all()


def test_gibbs_diagonal_rejects_energies_outside_the_open_spectrum():
    system = toy_system(seed=4)
    e_t = system.spectrum_t.eigenvalues
    op = np.eye(4)
    for e in (e_t[0], e_t[0] - 1.0, e_t[-1], e_t[-1] + 1.0, np.nan):
        with pytest.raises(OutOfSupportError):
            gibbs_diagonal(system, op, e)


def test_gibbs_diagonal_rejects_an_operator_of_the_wrong_shape():
    system = toy_system(seed=4)
    for op in (np.eye(3), np.eye(64), np.ones(4)):
        with pytest.raises(DimensionError, match="dim_a=4"):
            gibbs_diagonal(system, op, 0.0)


def test_rmt_variance():
    assert rmt_variance(256) == 1.0 / 256.0
    with pytest.raises(ValidationError):
        rmt_variance(0)


def test_ansatz_model_exact_kinds_carry_no_entropic_factor():
    system = toy_system(seed=8)
    omegas = np.array([0.0, 0.3, 0.8])
    for kind in (
        AnsatzKind.MICROCANONICAL_EXACT_SUMS,
        AnsatzKind.SMOOTH_GENERAL_SUMS,
    ):
        model = AnsatzModel(kind=kind, sigma_s=0.6, system=system)
        pred = model.evaluate(0.0, omegas)
        assert pred.entropic_factor == 1.0
        assert np.array_equal(pred.omega, omegas)
        assert np.all(pred.f >= 0.0)
        assert np.allclose(pred.variance, pred.f**2)


def test_every_kind_has_exactly_one_ladder_entry():
    # An exact-sum kind names its profile, every other kind its rung.
    profiles, rungs = set(ethlab.ansatz._PROFILES), set(ethlab.ansatz._RUNGS)
    assert not profiles & rungs
    assert profiles | rungs == set(AnsatzKind)


def test_every_kind_stays_finite_past_the_spectrum():
    # The 2+6-site random system, whose level sums lie in [-11.9, 11.4], on a
    # grid out to omega = 40: each kind drops what it cannot evaluate and
    # every value it keeps is finite.
    params = parse_config(
        None, text="[system]\nkind = random\nsites_a = 2\nsites_b = 6\nsites_i = 2\n"
    ).system
    system = build_random_system(params)
    sigma_s = profile(system).sigma_s
    omegas = np.linspace(0.0, 40.0, 401)
    kept = {}
    for kind in AnsatzKind:
        pred = AnsatzModel(kind, system, sigma_s).evaluate(0.0, omegas)
        assert np.isin(pred.omega, omegas).all(), kind
        assert np.isfinite(pred.entropic_factor), kind
        assert np.isfinite(pred.f).all() and np.isfinite(pred.variance).all(), kind
        kept[kind] = pred.omega.size
    assert kept[AnsatzKind.SMOOTH_GENERAL_SUMS] < omegas.size
    assert kept[AnsatzKind.MICROCANONICAL_EXACT_SUMS] < omegas.size


def test_ansatz_model_continuum_evaluation():
    # The model derives its inputs from the system: sigma_a is the A spectral
    # range, and n_0 the histogram of the 64 sums E_i + E_j in round(sqrt(64))
    # = 8 bins, which the entropic factor reads.
    system = decompose_chain(SpinChainParams(6), 2)
    sigma_s = 0.5
    model = AnsatzModel(AnsatzKind.EXP_DECAY_FLAT_A, system, sigma_s)
    sigma_a = system.spectrum_a.spectral_range
    assert model.sigma_a == sigma_a
    omegas = np.array([0.0, 1.0, 2.0])
    pred = model.evaluate(0.0, omegas)
    n_0 = density_of_states(system.sum_energies(), bins=8)
    ent = entropic_factor(n_0, 0.0, sigma_s)
    assert pred.entropic_factor == pytest.approx(ent, rel=1e-12)
    for i, w in enumerate(omegas):
        f = f_exp_decay(sigma_a, sigma_s, float(w))
        assert pred.f[i] == pytest.approx(f, rel=1e-10)
        assert pred.variance[i] == pytest.approx((ent * f) ** 2, rel=1e-10)


def test_ansatz_model_skips_out_of_support_grid_points():
    # The narrow form refuses pair energies beyond the sum-density support
    # (here [-7.48, 8.91]); the model simply drops those grid points rather
    # than failing the scan.
    system = decompose_chain(SpinChainParams(6), 2)
    model = AnsatzModel(AnsatzKind.NARROW_SCRAMBLING, system, 0.2)
    lo, hi = model.n_0.support
    assert -7.6 < lo < -7.0 and 7.6 < hi < 9.0
    pred = model.evaluate(0.0, np.array([0.0, 1.0, 5.0, 7.0, 7.6, 9.0]))
    assert pred.omega.tolist() == [0.0, 1.0, 5.0, 7.0]
    assert pred.f.shape == (4,)


def test_microcanonical_model_drops_empty_windows():
    # An omega whose window at Ebar + omega or Ebar - omega holds no level
    # (f_smooth_sums raises there) is dropped from the scan; every
    # other value is the single call's.
    system = decompose_chain(SpinChainParams(6), 2)
    sigma_s = 0.2
    h = flat_profile(2.0 * np.sqrt(3.0) * sigma_s)
    omegas = np.linspace(0.0, 9.0, 37)
    kept, vals = [], []
    for w in omegas.tolist():
        try:
            vals.append(f_smooth_sums(system, None, h, 0.0, w).item())
        except DegenerateWindowError:
            continue
        kept.append(w)
    assert 0 < len(kept) < omegas.size
    model = AnsatzModel(AnsatzKind.MICROCANONICAL_EXACT_SUMS, system, sigma_s)
    pred = model.evaluate(0.0, omegas)
    assert pred.omega.tolist() == kept
    assert np.array_equal(pred.f, vals)


def test_microcanonical_model_evaluates_each_window_once(monkeypatch):
    # evaluate finds the empty windows in the same pass that evaluates the
    # others: two profile calls per omega, dropped or kept (a separate drop
    # pass makes four per kept omega).
    calls = []

    def counted_profile(delta):
        h = flat_profile(delta)

        def counted(energy):
            calls.append(delta)
            return h(energy)

        return counted

    monkeypatch.setattr(ethlab.ansatz, "flat_profile", counted_profile)
    system = decompose_chain(SpinChainParams(6), 2)
    model = AnsatzModel(AnsatzKind.MICROCANONICAL_EXACT_SUMS, system, 0.2)
    omegas = np.linspace(0.0, 9.0, 37)
    pred = model.evaluate(0.0, omegas)
    assert 0 < pred.omega.size < omegas.size
    assert calls == [ScramblingProfile(model.sigma_s).delta] * (2 * omegas.size)


def test_microcanonical_model_keeps_a_closed_window_edge():
    # Dyadic levels make every sum exact.  With delta = 1, Ebar = 2.5 and
    # omega = 2 the windows are [4, 5] and [0, 1], and every level sum
    # E_i + E_j inside them (0, 1, 4, 5) lies on an edge.  A closed window
    # counts them: the model keeps that omega, matches the brute-force
    # counts, and no DegenerateWindowError escapes.
    e_a = np.array([0.0, 4.0])
    e_b = np.array([0.0, 1.0])
    system = make_bipartite(np.diag(e_a), np.diag(e_b), np.zeros((4, 4)))
    delta = 1.0
    model = AnsatzModel(
        AnsatzKind.MICROCANONICAL_EXACT_SUMS, system, delta / (2.0 * np.sqrt(3.0))
    )
    assert ScramblingProfile(model.sigma_s).delta == delta
    ebar, omega = 2.5, 2.0
    half = 0.5 * delta
    sums = np.add.outer(e_a, e_b)
    for e in (ebar + omega, ebar - omega):
        inside = np.abs(e - sums) <= half
        assert inside.any() and np.all(np.abs(e - sums[inside]) == half)
    pred = model.evaluate(ebar, np.array([omega, 9.0]))
    assert pred.omega.tolist() == [omega]
    e_alpha, e_beta = ebar + omega, ebar - omega
    num = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                in_a = abs(e_alpha - e_a[i] - e_b[k]) <= half
                in_b = abs(e_beta - e_a[j] - e_b[k]) <= half
                num += 0.5 * (in_a and in_b)
    z_a = np.count_nonzero(np.abs(e_alpha - sums) <= half)
    z_b = np.count_nonzero(np.abs(e_beta - sums) <= half)
    assert (num, z_a, z_b) == (1.0, 2, 2)
    assert pred.f[0] == np.sqrt(num / (z_a * z_b))


def test_ansatz_model_validation():
    system = toy_system(seed=1)
    kind = AnsatzKind.EXP_DECAY_FLAT_A
    for sigma_s in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            AnsatzModel(kind, system, sigma_s)
    with pytest.raises(ValidationError, match="no_such_rung.*exp_decay_flat_A"):
        AnsatzModel("no_such_rung", system, 0.5)


def _width_calls():
    # Every public callable that takes a width: (the width it must name, a
    # call with that width set to s).
    n_a = SpectralDensity(np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0)
    n_b = GridFunction(np.array([-2.0, 2.0]), np.array([1.0, 1.0]))
    n_0 = GridFunction(np.array([-3.0, 3.0]), np.array([1.0, 1.0]))
    rr = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    system = toy_system()
    kind = AnsatzKind.EXP_DECAY_FLAT_A
    return [
        ("sigma_s", lambda s: entropic_factor(n_0, 0.0, s)),
        ("sigma_s", exp_autocorrelation),
        ("sigma_s", lambda s: f_narrow(n_a, n_b, n_0, s, 0.0, 0.1)),
        ("sigma_s", lambda s: f_small_a(rr, s, 0.1)),
        ("sigma_a", lambda s: f_flat_a(s, 0.5, 0.1)),
        ("sigma_s", lambda s: f_flat_a(2.0, s, 0.1)),
        ("sigma_s", lambda s: f_smooth_small_a(rr, s, 0.1)),
        ("sigma_a", lambda s: f_exp_decay(s, 0.5, 0.1)),
        ("sigma_s", lambda s: f_exp_decay(2.0, s, 0.1)),
        ("sigma_a", lambda s: f_mc_finite_width(rr, s, 0.5, 0.1)),
        ("sigma_s", lambda s: f_mc_finite_width(rr, 2.0, s, 0.1)),
        ("sigma_s", exp_profile),
        ("delta", flat_profile),
        ("sigma_s", lambda s: AnsatzModel(kind, system, s)),
    ]


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_every_width_must_be_finite_and_positive(monkeypatch, width):
    # One rule for every width of the ladder: a ValidationError naming it,
    # raised before any quadrature, never a NaN curve.  The shallow depth
    # bounds the memory of a rung that would integrate a NaN width instead.
    calls = _width_calls()
    for _, call in calls:
        call(0.5)  # each call runs at a good width
    monkeypatch.setattr(ethlab.linalg, "_MAX_DEPTH", 16)
    for name, call in calls:
        with pytest.raises(ValidationError, match=f"{name} must be finite and pos"):
            call(width)


# Address-space cap of the child processes that reproduce calls which, without
# a finiteness rule, subdivide until memory runs out.
_CAP_BYTES = 1536 * 1024 * 1024


def _run_capped(setup: str, call: str) -> tuple[str, float, str]:
    """Run ``call`` after ``setup`` in a child under ``RLIMIT_AS = _CAP_BYTES``.

    Returns the name of the exception ``call`` raised (``"None"`` for none),
    the seconds it took and the exception's message.  A runaway allocation
    meets ``MemoryError`` at the cap instead of exhausting the host.
    """
    path = [str(Path(ethlab.ansatz.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    code = "\n".join([
        "import resource, time",
        f"resource.setrlimit(resource.RLIMIT_AS, ({_CAP_BYTES}, {_CAP_BYTES}))",
        "import numpy as np",
        "from ethlab.ansatz import *",
        "from ethlab.linalg import GridFunction, integrate_adaptive",
        setup,
        "start, name, message = time.perf_counter(), None, ''",
        "try:",
        f"    {call}",
        "except Exception as exc:",
        "    name, message = type(exc).__name__, exc",
        "print(name, time.perf_counter() - start, message)",
    ])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    name, seconds, message = (proc.stdout.strip() + " ").split(" ", 2)
    return name, float(seconds), message.strip()


_NAN_RHO_RHO = "rr = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([0.0, np.nan, 0.0]))"


@pytest.mark.parametrize(
    "setup, call, named",
    [
        ("", "f_exp_decay(2.0, np.nan, 0.1)", "sigma_s"),
        ("rr = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))",
         "f_smooth_small_a(rr, np.nan, 0.1)", "sigma_s"),
        ("rho = GridFunction(np.linspace(-1.0, 1.0, 5), [0.5, 0.5, np.nan, 0.5, 0.5])",
         "density_autocorrelation(rho)", "rho"),
        ("", "integrate_adaptive(lambda x, rows: np.sin(x), np.zeros(1), np.ones(1), "
             "tol=np.nan)", "tol"),
        (_NAN_RHO_RHO, "f_smooth_small_a(rr, 0.5, 0.1)", "rho_rho"),
        (_NAN_RHO_RHO, "f_mc_finite_width(rr, 2.0, 0.5, 0.1)", "rho_rho"),
    ],
    ids=["f_exp_decay-nan-sigma_s", "f_smooth_small_a-nan-sigma_s",
         "density_autocorrelation-nan-value", "integrate_adaptive-nan-tol",
         "f_smooth_small_a-nan-rho_rho", "f_mc_finite_width-nan-rho_rho"],
)
def test_nan_inputs_fail_fast_instead_of_subdividing(setup, call, named):
    # A NaN never converges: each call once subdivided breadth first, its
    # panel count doubling per level, until memory ran out.  Each now fails
    # as a ValidationError that names the input holding the NaN.
    name, seconds, message = _run_capped(setup, call)
    assert name == "ValidationError", (name, message)
    assert message.startswith(f"{named} must be"), message
    assert seconds < 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_autocorrelation_rungs_refuse_a_non_finite_table(monkeypatch, value):
    # Every rung that reads a tabulated [rho_a * rho_a] names it when it
    # holds a non-finite value: f_small_a once printed a NaN curve, the other
    # two blamed a tolerance the caller never passed.  The shallow depth
    # bounds the memory of a rung that would integrate it instead.
    monkeypatch.setattr(ethlab.linalg, "_MAX_DEPTH", 16)
    rr = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([0.0, value, 0.0]))
    for call in (
        lambda: f_small_a(rr, 0.5, 0.1),
        lambda: f_smooth_small_a(rr, 0.5, 0.1),
        lambda: f_mc_finite_width(rr, 2.0, 0.5, 0.1),
    ):
        with pytest.raises(ValidationError, match="rho_rho must be finite"):
            call()


def test_ladder_predicts_for_unit_mean_square_operators_only():
    # Operators have unit mean square: no rung, no model field and no other
    # public callable takes an operator scale, and a density must carry its
    # state count |H| (f_narrow divides by it).
    for name in ethlab.ansatz.__all__:
        obj = getattr(ethlab.ansatz, name)
        if callable(obj):
            assert "o2bar" not in inspect.signature(obj).parameters, name
    assert "o2bar" not in [f.name for f in dataclasses.fields(AnsatzModel)]
    with pytest.raises(TypeError):
        SpectralDensity(np.array([-1.0, 1.0]), np.array([2.0, 2.0]))


def _chain_model_inputs(sites, cut):
    # A chain, its scrambling width, and a model whose derived inputs
    # (n_a, n_b, n_0, sigma_a) the scalar forms take.
    system = decompose_chain(SpinChainParams(sites), cut)
    sigma_s = profile(system).sigma_s
    model = AnsatzModel(AnsatzKind.NARROW_SCRAMBLING, system, sigma_s)
    return system, sigma_s, model


def test_grid_evaluation_equals_scalar_forms_on_8_site_chain():
    # evaluate integrates the whole omega grid at once; every value must be
    # bitwise the scalar form's, and the same out-of-support omegas dropped.
    system, sigma_s, dens = _chain_model_inputs(8, 3)
    sigma_a = dens.sigma_a
    auto = density_autocorrelation(dens.n_a.normalized())
    scalar = {
        AnsatzKind.NARROW_SCRAMBLING: lambda e, w: f_narrow(
            dens.n_a, dens.n_b, dens.n_0, sigma_s, e, w
        ),
        AnsatzKind.SMALL_A_NARROW: lambda e, w: f_small_a(auto, sigma_s, w),
        AnsatzKind.FLAT_A_NARROW: lambda e, w: f_flat_a(sigma_a, sigma_s, w),
        AnsatzKind.SMOOTH_SMALL_A: lambda e, w: f_smooth_small_a(auto, sigma_s, w),
        AnsatzKind.EXP_DECAY_FLAT_A: lambda e, w: f_exp_decay(sigma_a, sigma_s, w),
        AnsatzKind.MC_FINITE_WIDTH_FLAT_A: lambda e, w: f_mc_finite_width(
            auto, sigma_a, sigma_s, w
        ),
    }
    e_min = float(system.spectrum_t.eigenvalues[0])
    omegas = np.linspace(0.0, 0.6 * abs(e_min), 41)
    dropped = 0
    for ebar in (0.0, 0.5 * e_min):
        for kind, one in scalar.items():
            pred = AnsatzModel(kind, system, sigma_s).evaluate(ebar, omegas)
            kept, vals = [], []
            for w in omegas.tolist():
                try:
                    vals.append(one(ebar, w).item())
                except OutOfSupportError:
                    continue
                kept.append(w)
            assert np.array_equal(pred.omega, kept), kind
            assert np.array_equal(pred.f, vals), kind
            dropped += omegas.size - len(kept)
    assert dropped > 0


def test_narrow_scrambling_survives_rounding_at_the_support_edge():
    # At e = lo_a + |omega| the argument e - omega of n_a can round just below
    # the support edge; the integrand then jumped to zero there and the
    # quadrature never converged (QuadratureError for a handful of omegas).
    system, sigma_s, model = _chain_model_inputs(6, 2)
    spec = OperatorEnsembleSpec(count=2, seed=0)
    e_min = float(system.spectrum_t.eigenvalues[0])
    for center in (0.0, 0.25 * e_min):
        stats = run_ensemble(system, spec, [center], BinningParams())[0]
        pred = model.evaluate(center, stats.omega_mid)
        assert pred.omega.size > 0
        assert np.all(np.isfinite(pred.f)) and np.all(pred.f >= 0.0)


def test_small_a_model_derives_its_autocorrelation_once(monkeypatch):
    # The 1025-point [rho_a * rho_a] quadrature depends only on the system,
    # so a model evaluated at two windows builds it once.
    import ethlab.ansatz

    calls = []

    def counted(rho):
        calls.append(rho)
        return density_autocorrelation(rho)

    monkeypatch.setattr(ethlab.ansatz, "density_autocorrelation", counted)
    system, sigma_s, _ = _chain_model_inputs(6, 2)
    model = AnsatzModel(AnsatzKind.SMALL_A_NARROW, system, sigma_s)
    omegas = np.linspace(0.1, 2.0, 5)
    first = model.evaluate(0.0, omegas)
    second = model.evaluate(-1.0, omegas)
    assert len(calls) == 1
    assert np.array_equal(first.f, second.f)


@pytest.mark.parametrize(
    "rung",
    ["narrow", "small_a", "flat_a", "smooth_small_a", "exp_decay", "mc_finite_width"],
)
def test_continuum_rung_on_a_grid_is_bitwise_its_scalar_calls(rung):
    # One function per rung: a grid returns an array whose every value is
    # bitwise the scalar call's, and a scalar returns a one-value array.
    system, sigma_s, dens = _chain_model_inputs(8, 3)
    sigma_a = dens.sigma_a
    auto = density_autocorrelation(dens.n_a.normalized())
    one = {
        "narrow": lambda w: f_narrow(
            dens.n_a, dens.n_b, dens.n_0, sigma_s, 0.0, w
        ),
        "small_a": lambda w: f_small_a(auto, sigma_s, w),
        "flat_a": lambda w: f_flat_a(sigma_a, sigma_s, w),
        "smooth_small_a": lambda w: f_smooth_small_a(auto, sigma_s, w),
        "exp_decay": lambda w: f_exp_decay(sigma_a, sigma_s, w),
        "mc_finite_width": lambda w: f_mc_finite_width(
            auto, sigma_a, sigma_s, w
        ),
    }[rung]
    omegas = np.linspace(-0.6 * sigma_a, 0.6 * sigma_a, 23)
    grid = one(omegas)
    scalars = [one(w) for w in omegas.tolist()]
    assert isinstance(grid, np.ndarray) and grid.shape == omegas.shape
    assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in scalars)
    assert np.array_equal(grid, np.concatenate(scalars))


def _per_omega_exact_sums(kind, system, sigma_s, ebar, omegas):
    # The exact sums one (E_alpha, E_beta) = (Ebar + w, Ebar - w) at a time,
    # omitting the omegas with an empty microcanonical window.  The
    # microcanonical counts are searchsorted counts of sorted levels in
    # closed windows, independent of the profile-weighted kernel.
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    m_sq = np.full((system.dim_a, system.dim_a), 1.0 / system.dim_a)
    delta = 2.0 * np.sqrt(3.0) * sigma_s
    half = 0.5 * delta
    h = exp_profile(sigma_s)
    kept, vals = [], []

    def window_counts(sorted_vals, lows, highs):
        # Sorted values inside each closed window [lows[k], highs[k]].
        lo_idx = np.searchsorted(sorted_vals, lows, side="left")
        hi_idx = np.searchsorted(sorted_vals, highs, side="right")
        return np.maximum(hi_idx - lo_idx, 0)

    for w in omegas.tolist():
        e_alpha, e_beta = ebar + w, ebar - w
        if kind is AnsatzKind.MICROCANONICAL_EXACT_SUMS:
            sums = np.sort(system.sum_energies().ravel())
            z_a, z_b = window_counts(
                sums,
                np.array([e_alpha - half, e_beta - half]),
                np.array([e_alpha + half, e_beta + half]),
            )
            if z_a == 0 or z_b == 0:
                continue
            lo = np.maximum.outer(e_alpha - e_a, e_beta - e_a) - half
            hi = np.minimum.outer(e_alpha - e_a, e_beta - e_a) + half
            counts = window_counts(e_b, lo.ravel(), hi.ravel()).reshape(lo.shape)
            f2 = float((counts * m_sq).sum()) / (float(z_a) * float(z_b))
            vals.append(float(np.sqrt(f2)))
        else:
            sums = system.sum_energies()
            p = np.asarray(h(e_alpha - sums), dtype=float)
            q = np.asarray(h(e_beta - sums), dtype=float)
            z_a = float(p.sum())
            z_b = float(q.sum())
            f2 = float(((p @ q.T) * m_sq).sum()) / (z_a * z_b)
            vals.append(float(np.sqrt(max(f2, 0.0))))
        kept.append(w)
    return kept, vals


@pytest.mark.parametrize("cut", [3, 7])
def test_exact_sum_grid_rungs_are_the_per_omega_sums(chain10, cut):
    # The exact-sum rungs take the whole omega grid; every value must be
    # bitwise the one-pair sum, and the same empty-window omegas dropped.
    system = decompose_chain(SpinChainParams(10), cut, spectrum_t=chain10.spectrum_t)
    sigma_s = profile(system).sigma_s
    e_min = float(system.spectrum_t.eigenvalues[0])
    omegas = np.linspace(0.0, 0.8 * abs(e_min), 61)
    dropped = 0
    for ebar in (0.0, 0.5 * e_min):
        for kind in (AnsatzKind.MICROCANONICAL_EXACT_SUMS,
                     AnsatzKind.SMOOTH_GENERAL_SUMS):
            pred = AnsatzModel(kind, system, sigma_s).evaluate(ebar, omegas)
            kept, vals = _per_omega_exact_sums(kind, system, sigma_s, ebar, omegas)
            assert np.array_equal(pred.omega, kept), kind
            assert np.array_equal(pred.f, vals), kind
            dropped += omegas.size - len(kept)
    assert dropped > 0

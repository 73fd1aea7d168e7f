"""Prediction ladder: exact sums, continuum forms, Gibbs diagonals."""

import numpy as np
import pytest
from scipy.integrate import quad

from ethlab.ansatz import (
    AnsatzKind,
    AnsatzModel,
    density_autocorrelation,
    entropic_factor,
    exp_autocorrelation,
    f_exp_decay,
    f_flat_a,
    f_mc_finite_width,
    f_microcanonical_exact,
    f_narrow,
    f_small_a,
    f_smooth_small_a,
    f_smooth_sums,
    gibbs_diagonal,
    inverse_temperature,
    rmt_variance,
)
from ethlab.errors import (
    DegenerateWindowError,
    OutOfSupportError,
    ValidationError,
)
from ethlab.experiments import BinningParams, OperatorEnsembleSpec, run_ensemble
from ethlab.figures import _Densities
from ethlab.hamiltonians import (
    SpinChainParams,
    decompose_chain,
    make_bipartite,
    sample_goe,
)
from ethlab.linalg import GridFunction, SpectralDensity, integrate_adaptive
from ethlab.scrambling import compute_coefficients, exp_profile, flat_profile, profile

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
            numeric = integrate_adaptive(
                lambda y: h(y) * h(e + y), -cut, cut, tol=1e-10,
                kinks=[0.0, -e],
            )
            assert abs(hh(e) - numeric) < 1e-6


def test_f_microcanonical_exact_matches_brute_force():
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
        got = f_microcanonical_exact(system, op, delta, e_alpha, e_beta)
        assert got == pytest.approx(expected, rel=1e-12)


def test_f_smooth_sums_matches_brute_force():
    system = toy_system(seed=1)
    h = exp_profile(0.8)
    e_a = system.spectrum_a.eigenvalues
    e_b = system.spectrum_b.eigenvalues
    e_alpha, e_beta = 0.6, -0.9
    # Typical-operator substitution: |O_ij|^2 -> o2bar / dim_a.
    m_sq = np.full((4, 4), 2.0 / 4.0)
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
    got = f_smooth_sums(system, None, h, e_alpha, e_beta, o2bar=2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_flat_profile_sums_equal_microcanonical():
    # A flat profile of width delta makes the smooth sums literally count
    # the same closed windows as the microcanonical form.
    system = toy_system(seed=2)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    delta = 1.7
    h = flat_profile(delta)
    for e_alpha, e_beta in ((0.2, -0.4), (1.1, 0.9), (-0.8, -0.8)):
        a = f_microcanonical_exact(system, op, delta, e_alpha, e_beta)
        b = f_smooth_sums(system, op, h, e_alpha, e_beta)
        assert a == pytest.approx(b, rel=1e-12)


def test_exact_sums_o2bar_scaling_and_errors():
    system = toy_system(seed=3)
    base = f_microcanonical_exact(system, None, 1.5, 0.1, -0.3)
    quad = f_microcanonical_exact(system, None, 1.5, 0.1, -0.3, o2bar=4.0)
    assert quad == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(ValidationError):
        f_microcanonical_exact(system, None, 0.0, 0.1, -0.3)
    with pytest.raises(DegenerateWindowError):
        f_microcanonical_exact(system, None, 0.1, 200.0, 0.0)
    with pytest.raises(DegenerateWindowError):
        f_smooth_sums(system, None, flat_profile(0.5), 300.0, 0.0)


def test_f_small_a_flat_density_closed_form():
    # Flat subsystem density: the general small-A form reduces to the
    # closed-form triangle, f(0) = sqrt(sigma_s / sigma_a).
    sigma_a, sigma_s = 4.0, 1.0
    auto = density_autocorrelation(flat_density(sigma_a))
    assert f_small_a(auto, 1.0, sigma_s, 0.0) == pytest.approx(0.5, abs=1e-9)
    for omega in np.linspace(-2.4, 2.4, 25):
        closed = f_flat_a(sigma_a, 1.0, sigma_s, float(omega))
        general = f_small_a(auto, 1.0, sigma_s, float(omega))
        assert general == pytest.approx(closed, abs=1e-8)


@pytest.mark.parametrize(
    "values, rel",
    [((1.0 / 3.0, 1.0 / 3.0), 1e-12), ((0.5 / 3.0, 1.5 / 3.0), 1e-5)],
    ids=["flat", "tilted"],
)
def test_f_small_a_matches_independent_quadrature(values, rel):
    # f**2 = o2bar sigma_s integral dy rho(y) rho(2 omega + y), here by scipy
    # quad on the density itself rather than on its tabulated autocorrelation.
    # The tilted density's autocorrelation is cubic, so its linear
    # interpolation between the 1025 tabulation points costs about 1e-6.
    rho = GridFunction(np.array([-1.5, 1.5]), np.array(values))
    auto = density_autocorrelation(rho)
    o2bar, sigma_s = 1.3, 0.7
    for omega in (0.0, 0.4, -0.9, 1.2, 1.45):
        x = 2.0 * omega
        lo, hi = max(-1.5, -1.5 - x), min(1.5, 1.5 - x)
        val, _ = quad(lambda y: rho(y) * rho(x + y), lo, hi, epsabs=0.0, epsrel=1e-13)
        expected = np.sqrt(o2bar * sigma_s * val)
        assert f_small_a(auto, o2bar, sigma_s, omega) == pytest.approx(
            expected, rel=rel
        )


def test_unnormalized_density_is_rejected():
    bad = GridFunction(np.array([-1.0, 1.0]), np.array([3.0, 3.0]))
    with pytest.raises(ValidationError):
        density_autocorrelation(bad)


def test_f_flat_a_support_edge():
    assert f_flat_a(2.0, 1.0, 0.5, 1.0) == 0.0
    assert f_flat_a(2.0, 1.0, 0.5, 5.0) == 0.0
    assert f_flat_a(2.0, 1.0, 0.5, 0.999) > 0.0
    with pytest.raises(ValidationError):
        f_flat_a(0.0, 1.0, 0.5, 0.1)


def test_continuum_forms_are_even_in_omega():
    sigma_a, sigma_s = 3.0, 0.4
    auto = density_autocorrelation(flat_density(sigma_a))
    for w in (0.1, 0.7, 1.3):
        assert f_exp_decay(sigma_a, sigma_s, 1.0, w) == pytest.approx(
            f_exp_decay(sigma_a, sigma_s, 1.0, -w), rel=1e-10
        )
        assert f_mc_finite_width(auto, 1.0, sigma_a, sigma_s, w) == pytest.approx(
            f_mc_finite_width(auto, 1.0, sigma_a, sigma_s, -w), rel=1e-8
        )
        assert f_smooth_small_a(auto, 1.0, sigma_s, w) == pytest.approx(
            f_smooth_small_a(auto, 1.0, sigma_s, -w), rel=1e-8
        )


def test_f_exp_decay_quadrature_oracle():
    # Trapezoid evaluation of the same integrand on a dense grid.
    sigma_a, sigma_s, o2bar = 5.0, 0.6, 1.3
    xs = np.linspace(-1.0, 1.0, 400001)
    for omega in (0.0, 0.8, 2.0, 3.1):
        u = np.abs(2.0 * omega - xs * sigma_a)
        rate = SQRT2 / sigma_s
        vals = (1.0 - np.abs(xs)) * (1.0 + rate * u) * np.exp(-rate * u)
        expected = np.sqrt(o2bar / (2.0 * SQRT2) * np.trapezoid(vals, xs))
        assert f_exp_decay(sigma_a, sigma_s, o2bar, omega) == pytest.approx(
            expected, rel=1e-6
        )


def test_f_exp_decay_narrow_profile_limit():
    # As sigma_s -> 0 the exponential profile collapses and the flat-A
    # triangle is recovered.
    sigma_a = 4.0
    for omega in (0.0, 0.5, 1.2):
        tight = f_exp_decay(sigma_a, sigma_a * 1e-4, 1.0, omega)
        limit = f_flat_a(sigma_a, 1.0, sigma_a * 1e-4, omega)
        assert tight == pytest.approx(limit, rel=1e-3)


def test_approximation_ladder_converges_to_small_a():
    # Both finite-width forms approach the narrow small-A form once the
    # scrambling width is far below the subsystem bandwidth.
    sigma_a = 4.0
    sigma_s = sigma_a / 100.0
    auto = density_autocorrelation(flat_density(sigma_a))
    for omega in np.linspace(0.0, 0.45 * sigma_a, 12):
        ref = f_small_a(auto, 1.0, sigma_s, float(omega))
        assert f_exp_decay(sigma_a, sigma_s, 1.0, float(omega)) == pytest.approx(
            ref, rel=0.02
        )
        assert f_mc_finite_width(
            auto, 1.0, sigma_a, sigma_s, float(omega)
        ) == pytest.approx(ref, rel=0.02)


def test_f_smooth_small_a_matches_exp_decay_for_flat_density():
    sigma_a, sigma_s = 4.0, 0.5
    auto = density_autocorrelation(flat_density(sigma_a), n_grid=4097)
    for omega in (0.0, 0.6, 1.4, 2.2):
        a = f_smooth_small_a(auto, 1.0, sigma_s, omega)
        b = f_exp_decay(sigma_a, sigma_s, 1.0, omega)
        assert a == pytest.approx(b, rel=1e-4)


def test_f_narrow_flat_density_oracle():
    # Flat n_a (2 states per unit on [-1, 1], 4 states), flat n_b, flat n_0:
    # f^2 = 2 o2bar sigma_s c_b (1 - |omega|) / c_0.
    n_a = SpectralDensity(
        np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0
    )
    c_b, c_0 = 12.0, 50.0
    n_b = GridFunction(np.array([-20.0, 20.0]), np.array([c_b, c_b]))
    n_0 = GridFunction(np.array([-21.0, 21.0]), np.array([c_0, c_0]))
    sigma_s, o2bar = 0.3, 1.7
    for omega in (0.0, 0.25, 0.6, 0.95):
        expected = np.sqrt(2.0 * o2bar * sigma_s * c_b * (1.0 - omega) / c_0)
        got = f_narrow(n_a, n_b, n_0, o2bar, sigma_s, 0.0, omega)
        assert got == pytest.approx(expected, rel=1e-6)
    # Support exhausted in the A factor: zero, not an error.
    assert f_narrow(n_a, n_b, n_0, o2bar, sigma_s, 0.0, 1.5) == 0.0


def test_f_narrow_out_of_support():
    n_a = SpectralDensity(
        np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0
    )
    n_b = GridFunction(np.array([-2.0, 2.0]), np.array([1.0, 1.0]))
    n_0 = GridFunction(np.array([-3.0, 3.0]), np.array([1.0, 1.0]))
    with pytest.raises(OutOfSupportError):
        # E_alpha = ebar + omega leaves the sum-density support.
        f_narrow(n_a, n_b, n_0, 1.0, 0.5, 2.0, 1.5)
    with pytest.raises(OutOfSupportError):
        # One such omega in a grid is enough.
        f_narrow(n_a, n_b, n_0, 1.0, 0.5, 2.0, np.array([0.0, 0.5, 1.5]))


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


def test_inverse_temperature_linear_log_density():
    grid = np.linspace(-10.0, 10.0, 20001)
    beta = 0.37
    n_b = GridFunction(grid, np.exp(2.0 + beta * grid))
    got = inverse_temperature(n_b, 1.3, 0.05)
    assert got == pytest.approx(beta, abs=1e-5)
    with pytest.raises(ValidationError):
        inverse_temperature(n_b, 0.0, 0.0)
    with pytest.raises(OutOfSupportError):
        inverse_temperature(n_b, 9.99, 0.05)


def test_gibbs_diagonal_weighting_oracle():
    system = toy_system(seed=4)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4))
    op = 0.5 * (g + g.T)
    grid = np.linspace(-30.0, 30.0, 4001)
    n_b = GridFunction(grid, np.exp(0.4 * grid))
    e_alpha = 1.1
    got = gibbs_diagonal(system, op, e_alpha, n_b=n_b)
    # Independent evaluation of the same statistical model.
    e_a = system.spectrum_a.eigenvalues
    v_a = system.spectrum_a.eigenvectors
    sigma_0 = (
        system.spectrum_a.spectral_range + system.spectrum_b.spectral_range
    )
    beta = inverse_temperature(n_b, e_alpha - e_a.mean(), sigma_0 / 200.0)
    w = np.exp(-beta * (e_a - e_a.min()))
    diag = np.diag(v_a.T @ op @ v_a)
    expected = float((w * diag).sum() / w.sum())
    assert got == pytest.approx(expected, rel=1e-10)
    assert beta == pytest.approx(0.4, abs=1e-3)


def test_gibbs_diagonal_infinite_temperature_is_exact_trace_mean():
    # A flat B density means beta = 0: uniform weights, so exactly the
    # trace mean, which is exactly zero for traceless operators.
    system = toy_system(seed=6)
    n_b = GridFunction(np.array([-40.0, 40.0]), np.array([7.0, 7.0]))
    sz = np.diag([1.0, -1.0, 1.0, -1.0])
    assert gibbs_diagonal(system, sz, 0.5, n_b=n_b) == 0.0
    sx_like = np.zeros((4, 4))
    sx_like[0, 1] = sx_like[1, 0] = 1.0
    assert gibbs_diagonal(system, sx_like, -0.2, n_b=n_b) == 0.0
    assert gibbs_diagonal(system, np.eye(4), 0.1, n_b=n_b) == 1.0


def test_rmt_variance():
    assert rmt_variance(1.0, 256) == 1.0 / 256.0
    assert rmt_variance(3.0, 10) == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        rmt_variance(1.0, 0)


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


def test_ansatz_model_continuum_evaluation():
    sigma_a, sigma_s = 4.0, 0.5
    n_0 = GridFunction(np.array([-6.0, 0.0, 6.0]), np.array([0.0, 10.0, 0.0]))
    model = AnsatzModel(
        kind=AnsatzKind.EXP_DECAY_FLAT_A, sigma_s=sigma_s, sigma_a=sigma_a,
        n_0=n_0,
    )
    omegas = np.array([0.0, 1.0, 2.0])
    pred = model.evaluate(0.0, omegas)
    ent = entropic_factor(n_0, 0.0, sigma_s)
    assert pred.entropic_factor == pytest.approx(ent, rel=1e-12)
    for i, w in enumerate(omegas):
        f = f_exp_decay(sigma_a, sigma_s, 1.0, float(w))
        assert pred.f[i] == pytest.approx(f, rel=1e-10)
        assert pred.variance[i] == pytest.approx((ent * f) ** 2, rel=1e-10)


def test_ansatz_model_skips_out_of_support_grid_points():
    # The narrow form refuses pair energies beyond the sum-density support;
    # the model simply drops those grid points rather than failing the scan.
    n_a = SpectralDensity(
        np.array([-1.0, 1.0]), np.array([2.0, 2.0]), total=4.0
    )
    n_b = GridFunction(np.array([-2.0, 2.0]), np.array([1.0, 1.0]))
    n_0 = GridFunction(np.array([-3.0, 3.0]), np.array([1.0, 1.0]))
    model = AnsatzModel(
        kind=AnsatzKind.NARROW_SCRAMBLING, sigma_s=0.2,
        n_a=n_a, n_b=n_b, n_0=n_0,
    )
    pred = model.evaluate(0.0, np.array([0.0, 1.0, 2.5, 3.5]))
    assert pred.omega.tolist() == [0.0, 1.0, 2.5]
    assert pred.f.shape == (3,)


def test_ansatz_model_validation():
    with pytest.raises(ValidationError):
        AnsatzModel(kind=AnsatzKind.SMOOTH_GENERAL_SUMS, sigma_s=0.5)
    with pytest.raises(ValidationError):
        AnsatzModel(kind=AnsatzKind.FLAT_A_NARROW, sigma_s=0.5, sigma_a=2.0)
    with pytest.raises(ValidationError):
        AnsatzModel(
            kind=AnsatzKind.EXP_DECAY_FLAT_A, sigma_s=-1.0, sigma_a=2.0,
            n_0=GridFunction(np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
        )
    with pytest.raises(ValueError):
        AnsatzModel(kind="no_such_rung", sigma_s=0.5)


def _chain_model_inputs(sites, cut):
    system = decompose_chain(SpinChainParams(sites), cut)
    sigma_s = profile(compute_coefficients(system)).sigma_s
    return system, sigma_s, _Densities(system)


def test_grid_evaluation_equals_scalar_forms_on_8_site_chain():
    # evaluate integrates the whole omega grid at once; every value must be
    # bitwise the scalar form's, and the same out-of-support omegas dropped.
    system, sigma_s, dens = _chain_model_inputs(8, 3)
    o2bar = 1.3
    sigma_a = dens.n_a.support[1] - dens.n_a.support[0]
    auto = density_autocorrelation(dens.n_a.normalized())
    scalar = {
        AnsatzKind.NARROW_SCRAMBLING: lambda e, w: f_narrow(
            dens.n_a, dens.n_b, dens.n_0, o2bar, sigma_s, e, w
        ),
        AnsatzKind.SMALL_A_NARROW: lambda e, w: f_small_a(auto, o2bar, sigma_s, w),
        AnsatzKind.FLAT_A_NARROW: lambda e, w: f_flat_a(sigma_a, o2bar, sigma_s, w),
        AnsatzKind.SMOOTH_SMALL_A: lambda e, w: f_smooth_small_a(
            auto, o2bar, sigma_s, w
        ),
        AnsatzKind.EXP_DECAY_FLAT_A: lambda e, w: f_exp_decay(
            sigma_a, sigma_s, o2bar, w
        ),
        AnsatzKind.MC_FINITE_WIDTH_FLAT_A: lambda e, w: f_mc_finite_width(
            auto, o2bar, sigma_a, sigma_s, w
        ),
    }
    e_min = float(system.spectrum_t.eigenvalues[0])
    omegas = np.linspace(0.0, 0.6 * abs(e_min), 41)
    dropped = 0
    for ebar in (0.0, 0.5 * e_min):
        for kind, one in scalar.items():
            pred = AnsatzModel(
                kind=kind, sigma_s=sigma_s, o2bar=o2bar, n_a=dens.n_a,
                n_b=dens.n_b, n_0=dens.n_0,
            ).evaluate(ebar, omegas)
            kept, vals = [], []
            for w in omegas.tolist():
                try:
                    vals.append(one(ebar, w))
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
    system, sigma_s, dens = _chain_model_inputs(6, 2)
    spec = OperatorEnsembleSpec(dim_a=4, count=2, seed=0)
    e_min = float(system.spectrum_t.eigenvalues[0])
    model = AnsatzModel(
        kind=AnsatzKind.NARROW_SCRAMBLING, sigma_s=sigma_s, n_a=dens.n_a,
        n_b=dens.n_b, n_0=dens.n_0,
    )
    for center in (0.0, 0.25 * e_min):
        stats = run_ensemble(system, spec, [center], BinningParams()).binned[0]
        pred = model.evaluate(center, stats.omega_mid)
        assert pred.omega.size > 0
        assert np.all(np.isfinite(pred.f)) and np.all(pred.f >= 0.0)


@pytest.mark.parametrize(
    "rung",
    ["narrow", "small_a", "flat_a", "smooth_small_a", "exp_decay", "mc_finite_width"],
)
def test_continuum_rung_on_a_grid_is_bitwise_its_scalar_calls(rung):
    # One function per rung: a grid returns an array whose every value is
    # bitwise the scalar call's, and a scalar returns a float.
    system, sigma_s, dens = _chain_model_inputs(8, 3)
    o2bar = 1.3
    sigma_a = dens.n_a.support[1] - dens.n_a.support[0]
    auto = density_autocorrelation(dens.n_a.normalized())
    one = {
        "narrow": lambda w: f_narrow(
            dens.n_a, dens.n_b, dens.n_0, o2bar, sigma_s, 0.0, w
        ),
        "small_a": lambda w: f_small_a(auto, o2bar, sigma_s, w),
        "flat_a": lambda w: f_flat_a(sigma_a, o2bar, sigma_s, w),
        "smooth_small_a": lambda w: f_smooth_small_a(auto, o2bar, sigma_s, w),
        "exp_decay": lambda w: f_exp_decay(sigma_a, sigma_s, o2bar, w),
        "mc_finite_width": lambda w: f_mc_finite_width(
            auto, o2bar, sigma_a, sigma_s, w
        ),
    }[rung]
    omegas = np.linspace(-0.6 * sigma_a, 0.6 * sigma_a, 23)
    grid = one(omegas)
    scalars = [one(w) for w in omegas.tolist()]
    assert isinstance(grid, np.ndarray) and grid.shape == omegas.shape
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(grid, scalars)

"""Dense eigensolver, tabulated densities, adaptive quadrature."""

import numpy as np
import pytest

import ethlab.ansatz
import ethlab.linalg
from ethlab.ansatz import _density, density_autocorrelation
from ethlab.errors import DimensionError, QuadratureError, ValidationError
from ethlab.hamiltonians import SpinChainParams, _chain_spectrum, build_spin_chain
from ethlab.linalg import (
    GridFunction,
    Spectrum,
    density_of_states,
    eig_sym,
    integrate_adaptive,
)


def test_eig_sym_two_by_two_analytic():
    # [[a, b], [b, -a]] has eigenvalues -r, +r with r = sqrt(a^2 + b^2).
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.uniform(-3.0, 3.0, 2)
        r = np.hypot(a, b)
        spec = eig_sym(np.array([[a, b], [b, -a]]))
        assert np.allclose(spec.eigenvalues, [-r, r], atol=1e-13)


def test_eig_sym_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 17, 64):
        g = rng.standard_normal((dim, dim))
        a = 0.5 * (g + g.T)
        spec = eig_sym(a)
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(dim)).max() < 1e-12
        recon = v @ np.diag(spec.eigenvalues) @ v.T
        assert np.abs(recon - a).max() < 1e-12 * max(1.0, np.abs(a).max())
        assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_eig_sym_sign_convention():
    # The largest-magnitude component of every column is positive, so the
    # decomposition is reproducible across LAPACK builds.
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.standard_normal((8, 8))
        spec = eig_sym(0.5 * (g + g.T))
        v = spec.eigenvectors
        lead = np.argmax(np.abs(v), axis=0)
        assert np.all(v[lead, np.arange(8)] > 0)


def _column_sign_oracle(vecs):
    # The sign rule applied column by column to eigh's own output: the
    # largest-magnitude component of each column made positive, first such
    # component on ties.
    vecs = vecs.copy()
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def test_eig_sym_is_eigenstate_major_and_bitwise_the_column_rule():
    # Exact ties: the all-ones direction of J - I, the (1, 1)/sqrt(2) and
    # (1, -1)/sqrt(2) pair of sigma_x, a reflection-symmetric chain (each
    # component k has a partner R(k) of equal magnitude), and degenerate
    # identity blocks whose eigenvectors are unit vectors.
    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 40))
    for matrix in (
        np.ones((5, 5)) - np.eye(5),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        build_spin_chain(SpinChainParams(6)),
        np.kron(np.eye(3), np.diag([2.0, -1.0])),
        0.5 * (g + g.T),
    ):
        spec = eig_sym(matrix)
        assert spec.eigenvectors.T.flags.c_contiguous
        assert np.shares_memory(spec.rows, spec.eigenvectors)
        vals, vecs = np.linalg.eigh(matrix)
        assert np.array_equal(spec.eigenvalues, vals)
        assert np.array_equal(spec.eigenvectors, _column_sign_oracle(vecs))


def test_spectrum_rows_in_any_layout():
    # A spectrum settles its layout once, at construction: eigenvectors given
    # as C-ordered columns are copied eigenstate-major there, and every
    # .rows call is then a view of that one buffer.
    vecs = np.arange(9.0).reshape(3, 3)
    spec = Spectrum(eigenvalues=np.zeros(3), eigenvectors=vecs)
    rows = spec.rows
    assert rows.flags.c_contiguous
    assert np.shares_memory(rows, spec.eigenvectors)
    assert np.array_equal(spec.eigenvectors, vecs)
    assert np.array_equal(rows, vecs.T)
    again = spec.rows
    assert again.__array_interface__["data"] == rows.__array_interface__["data"]
    # An eigenstate-major input is kept as it is, without a copy.
    fortran = np.asfortranarray(vecs)
    major = Spectrum(eigenvalues=np.zeros(3), eigenvectors=fortran)
    assert np.shares_memory(major.rows, fortran)


def test_spectrum_takes_eigenvectors_or_solve_exactly_one():
    values = np.zeros(2)
    for kwargs in ({}, {"eigenvectors": np.eye(2), "solve": lambda: np.eye(2)}):
        with pytest.raises(ValidationError, match="exactly one"):
            Spectrum(values, **kwargs)


def test_spectrum_first_read_solves_once_and_keeps_the_vectors():
    # Nothing is solved until the eigenvectors are read; the first read of
    # rows or eigenvectors calls solve once, keeps its matrix (eigenstate-
    # major) and drops solve, and every later read returns the kept matrix.
    calls = []

    def solve():
        calls.append(1)
        return np.array([[0.0, 1.0], [1.0, 0.0]])

    spec = Spectrum(np.array([-1.0, 1.0]), solve=solve)
    assert spec.dim == 2 and spec.spectral_range == 2.0
    assert calls == [] and spec._vectors is None
    rows = spec.rows
    assert calls == [1] and spec._solve is None
    assert rows.flags.c_contiguous
    assert np.array_equal(spec.eigenvectors, [[0.0, 1.0], [1.0, 0.0]])
    assert np.shares_memory(spec.rows, rows)
    assert calls == [1]


def test_eig_sym_rejects_bad_input():
    with pytest.raises(DimensionError):
        eig_sym(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_spectrum_properties():
    spec = Spectrum(
        eigenvalues=np.array([-2.0, 0.5, 3.0]), eigenvectors=np.eye(3)
    )
    assert spec.dim == 3
    assert spec.spectral_range == 5.0


def test_grid_function_interpolation_and_support():
    g = GridFunction(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
    assert g.support == (0.0, 3.0)
    assert g(0.5) == pytest.approx(1.0)
    assert g(2.0) == pytest.approx(1.0)
    assert g(1.0) == 2.0
    # Zero outside the tabulated support.
    assert g(-0.001) == 0.0
    assert g(3.001) == 0.0
    assert g.integral() == pytest.approx(3.0)
    vals = g(np.array([-1.0, 0.5, 4.0]))
    assert np.allclose(vals, [0.0, 1.0, 0.0])


def test_grid_function_validation():
    with pytest.raises(DimensionError):
        GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DimensionError):
        GridFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_density_of_states_integral_is_exact():
    rng = np.random.default_rng(5)
    for n, bins in ((100, 8), (1000, 32), (4096, 64)):
        vals = np.sort(rng.normal(0.0, 2.0, n))
        dens = density_of_states(vals, bins=bins)
        assert dens.total == n
        assert dens.integral() == pytest.approx(n, rel=1e-12)
        assert dens.normalized().integral() == pytest.approx(1.0, rel=1e-12)
        assert np.all(dens.values >= 0)


def test_density_of_states_grid_is_its_knots():
    # The lowest level, the bin centres and the highest level, nothing else.
    levels = np.array([0.0, 0.5, 3.0, 7.0, 8.0])
    dens = density_of_states(levels, bins=4)
    assert dens.grid.tolist() == [0.0, 1.0, 3.0, 5.0, 7.0, 8.0]
    assert (dens.values * 2.0).tolist() == [2, 2, 1, 0, 2, 2]


def _bin_counts(density):
    # Histogram counts behind a density: its values at the bin centres (every
    # knot but the two ends) times the bin width.
    lo, hi = density.support
    bins = density.grid.size - 2
    return np.rint(density.values[1:-1] * (hi - lo) / bins).astype(int)


def test_density_of_states_counts_a_level_on_an_edge_above_it():
    # Levels 0..8 in 4 bins put 2, 4 and 6 on the interior edges.  A level
    # moved a few ulps to either side of an edge keeps the bin above it; one
    # moved by far more than the tolerance crosses into the bin below.
    levels = np.arange(9.0)
    want = [2, 2, 2, 3]
    assert _bin_counts(density_of_states(levels, bins=4)).tolist() == want
    for ulps in (-3, -1, 1, 3):
        moved = levels.copy()
        for k in (2, 4, 6):
            for _ in range(abs(ulps)):
                moved[k] = np.nextafter(moved[k], np.sign(ulps) * np.inf)
        got = _bin_counts(density_of_states(moved, bins=4))
        assert got.tolist() == want, ulps
    moved = levels.copy()
    moved[4] -= 1e-9
    assert _bin_counts(density_of_states(moved, bins=4)).tolist() == [2, 3, 1, 3]


@pytest.mark.parametrize("sites", [8, 10, 12])
def test_equal_cut_sum_density_is_solver_independent(sites):
    # At cut = sites/2 both fragments are one chain, so E_0 + E_max lies on
    # n_0's centre edge in exact arithmetic; the sums from the sector
    # solve's energies (the lab's own), from eig_sym's of the dense chain
    # and from numpy's eigenvalue-only solve of it fill the same bins.
    params = SpinChainParams(sites // 2)
    h = build_spin_chain(params)
    counts = []
    for levels in (_chain_spectrum(params).eigenvalues, eig_sym(h).eigenvalues,
                   np.linalg.eigvalsh(h)):
        sums = np.add.outer(levels, levels).ravel()
        counts.append(_bin_counts(_density(sums, "sum spectrum")))
    assert np.array_equal(counts[0], counts[1])
    assert np.array_equal(counts[0], counts[2])


def test_density_of_states_flat_spectrum():
    # Equally spaced eigenvalues give a nearly constant density.
    vals = np.linspace(-1.0, 1.0, 401)
    dens = density_of_states(vals, bins=10)
    inner = dens(np.linspace(-0.8, 0.8, 50))
    assert np.allclose(inner, 401 / 2.0, rtol=0.03)


def _one(f, a, b, **kw):
    # One integral as a one-row array call.
    (val,) = integrate_adaptive(
        lambda x, rows: f(x), np.array([a]), np.array([b]), **kw
    )
    return val


def test_integrate_adaptive_smooth_oracles():
    assert _one(np.sin, 0.0, np.pi, tol=1e-10) == pytest.approx(2.0, abs=1e-9)
    assert _one(lambda x: x**3, -1.0, 2.0, tol=1e-8) == pytest.approx(
        15.0 / 4.0, abs=1e-8
    )
    assert _one(np.exp, 0.0, 0.0, tol=1e-8) == 0.0


def test_integrate_adaptive_kinked_integrand():
    # |x - 1/3| over [0, 1] integrates to (1/9 + 4/9) / 2 = 5/18.
    exact = 5.0 / 18.0
    val = _one(
        lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-12, kinks=[(1.0 / 3.0,)]
    )
    assert val == pytest.approx(exact, abs=1e-11)


def test_integrate_adaptive_validation(monkeypatch):
    with pytest.raises(ValidationError):
        _one(np.sin, 1.0, 0.0, tol=1e-8)
    with pytest.raises(ValidationError):
        integrate_adaptive(
            lambda x, rows: x, np.zeros(2), np.array([1.0, -1.0]), tol=1e-8
        )
    # kinks are one row per integral, all finite.
    for kinks in ([(0.5,)], np.array([0.5, 0.5]), np.zeros((2, 1, 1))):
        with pytest.raises(DimensionError):
            integrate_adaptive(
                lambda x, rows: x, np.zeros(2), np.ones(2), tol=1e-8, kinks=kinks
            )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            integrate_adaptive(
                lambda x, rows: x, np.zeros(2), np.ones(2), tol=1e-8,
                kinks=[(0.5,), (bad,)],
            )
    with pytest.raises(DimensionError):  # scalar limits are not accepted
        integrate_adaptive(lambda x, rows: x, 0.0, 1.0, tol=1e-8)
    # tol is finite and positive.  The shallow depth bounds the memory of a
    # quadrature that would subdivide under a NaN tolerance instead.
    monkeypatch.setattr(ethlab.linalg, "_MAX_DEPTH", 16)
    for tol in (0.0, -1e-8, np.nan, np.inf, [1e-8, np.nan]):
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            integrate_adaptive(lambda x, rows: x, np.zeros(2), np.ones(2), tol=tol)


def _recursive_simpson(f, a, b, tol, kinks, max_depth=48):
    # Depth-first adaptive Simpson: the oracle for the breadth-first core.
    def step(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or depth <= 0:
            return left + right + delta / 15.0, abs(delta) <= 15.0 * tol
        lval, lok = step(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        rval, rok = step(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
        return lval + rval, lok and rok

    cuts = [a] + sorted(k for k in set(kinks) if a < k < b) + [b]
    total, ok = 0.0, True
    for lo, hi in zip(cuts[:-1], cuts[1:]) if a < b else ():
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        seg_tol = max(tol * (hi - lo) / (b - a), 1e-300)
        value, seg_ok = step(lo, hi, fa, fm, fb, whole, seg_tol, max_depth)
        total += value
        ok = ok and seg_ok
    return total, ok


def _kinked(x, c):
    # Kink at c, square-root cusp at -c; only correctly rounded operations,
    # so scalar and array evaluation agree bit for bit.
    return np.abs(x - c) * (1.0 + x * x) / (1.0 + 0.5 * x * x) + np.sqrt(
        np.abs(x + c)
    )


def test_integrate_adaptive_batch_matches_the_recursion():
    # The breadth-first loop sums each level's converged panels as it goes,
    # where the recursion sums children bottom-up: the panels and the
    # converged set are the same, the totals agree to roundoff.
    rng = np.random.default_rng(17)
    n = 120
    a = rng.uniform(-2.0, 1.0, n)
    b = a + rng.uniform(0.0, 3.0, n)
    b[:8] = a[:8]  # zero-width intervals
    c = rng.uniform(-2.0, 3.0, n)
    tol = 10.0 ** rng.uniform(-12.0, -4.0, n)
    # Each row repeats its kink and adds kinks that may fall outside (a, b).
    kinks = np.column_stack((c, c, rng.uniform(-3.0, 4.0, (n, 3))))
    want = [
        _recursive_simpson(
            lambda x, ci=ci: float(_kinked(x, ci)), a[i], b[i], tol[i], list(kinks[i])
        )
        for i, ci in enumerate(c.tolist())
    ]
    values = np.array([v for v, _ in want])
    converged = np.array([ok for _, ok in want])
    assert not converged.all()  # the tightest tolerances exhaust the depth
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(
            lambda x, rows: _kinked(x, c[rows]), a, b, tol=tol, kinks=kinks
        )
    np.testing.assert_allclose(err.value.best_estimate, values, rtol=2e-15, atol=0)
    c_ok = c[converged]
    got = integrate_adaptive(
        lambda x, rows: _kinked(x, c_ok[rows]),
        a[converged], b[converged], tol=tol[converged], kinks=kinks[converged],
    )
    np.testing.assert_allclose(got, values[converged], rtol=2e-15, atol=0)


def test_integrate_adaptive_depth_exhaustion_keeps_best_estimate(monkeypatch):
    # A jump never converges: every level keeps one failing panel.
    def jump(x):
        return np.where(x < 0.3, 0.0, 1.0)

    want, ok = _recursive_simpson(lambda x: float(jump(x)), 0.0, 1.0, 1e-10, (), 12)
    assert not ok
    monkeypatch.setattr(ethlab.linalg, "_MAX_DEPTH", 12)
    with pytest.raises(QuadratureError) as err:
        _one(jump, 0.0, 1.0, tol=1e-10)
    assert np.array_equal(err.value.best_estimate, [want])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_adaptive_refuses_a_non_finite_integrand(monkeypatch, bad):
    # A panel with a non-finite value can never converge: the first such
    # value raises, with the totals accumulated so far, before any panel is
    # split.  The shallow depth bounds the memory of a quadrature that would
    # subdivide such a panel instead.
    monkeypatch.setattr(ethlab.linalg, "_MAX_DEPTH", 16)
    calls = []

    def f(x, rows):
        calls.append(x.size)
        return np.where((rows == 1) & (x > 0.5), bad, np.sin(x))

    with pytest.raises(QuadratureError, match="integrand is not finite") as err:
        integrate_adaptive(f, np.zeros(2), np.ones(2), tol=1e-10)
    assert calls == [6]  # the ends and midpoints of both integrals
    assert np.array_equal(err.value.best_estimate, [0.0, 0.0])


def test_density_autocorrelation_of_box_is_triangle():
    # A unit box on [0, 1]: its autocorrelation is the triangle 1 - |x|.
    box = GridFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    tri = density_autocorrelation(box)
    assert tri.support == (-1.0, 1.0)
    xs = np.linspace(-0.95, 0.95, 39)
    assert np.allclose(tri(xs), 1.0 - np.abs(xs), atol=1e-6)


def test_density_autocorrelation_total_mass(monkeypatch):
    # The integral of the autocorrelation is the squared integral, 1.  A ramp
    # has no interior knot, so the quadrature is exact and the check bounds
    # the tabulation.
    rho = GridFunction(np.array([-1.0, 1.0]), np.array([0.2, 0.8]))
    assert rho.integral() == pytest.approx(1.0, abs=1e-15)
    monkeypatch.setattr(ethlab.ansatz, "_AUTOCORR_POINTS", 2049)
    c = density_autocorrelation(rho)
    assert c.integral() == pytest.approx(1.0, rel=1e-5)


def test_density_autocorrelation_of_triangle_matches_quad(monkeypatch):
    # A unit triangle on [-1, 1]: split at the knots of both factors, every
    # piece of rho(y) rho(x + y) is a quadratic, so each of the 2049 points
    # matches scipy's quad, given the same knots, to roundoff of the 2/3 peak.
    quad = pytest.importorskip("scipy.integrate").quad
    knots = np.array([-1.0, 0.0, 1.0])
    rho = GridFunction(knots, np.array([0.0, 1.0, 0.0]))
    monkeypatch.setattr(ethlab.ansatz, "_AUTOCORR_POINTS", 2049)
    corr = density_autocorrelation(rho)
    want = np.zeros(corr.grid.size)
    for k, x in enumerate(corr.grid[1:-1], 1):
        a, b = max(-1.0, -1.0 - x), min(1.0, 1.0 - x)
        points = [p for p in np.concatenate((knots, knots - x)) if a < p < b]
        want[k] = quad(
            lambda y: rho(y) * rho(x + y), a, b,
            points=points or None, epsabs=1e-13, epsrel=1e-13,
        )[0]
    peak = 2.0 / 3.0
    assert corr(0.0) == pytest.approx(peak, rel=1e-12)
    assert np.abs(corr.values - want).max() < 1e-12 * peak


def test_density_autocorrelation_converges_on_ulp_moved_spectra():
    # The autocorrelation of the 3-site chain's density, its levels moved by
    # at most 8 ulp each: without clipping the shifted argument to the
    # support, x + y rounds past the edge at y = hi - x and 17 of these 40
    # spectra end in a QuadratureError.
    levels = eig_sym(build_spin_chain(SpinChainParams(3))).eigenvalues
    rng = np.random.default_rng(0)
    for _ in range(40):
        moved = levels + rng.integers(-8, 9, size=levels.size) * np.spacing(levels)
        rho = density_of_states(moved, bins=4).normalized()
        corr = density_autocorrelation(rho)
        assert corr.integral() == pytest.approx(1.0, rel=1e-3)

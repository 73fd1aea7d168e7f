"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` verdict line; run with
``pytest tests/test_acceptance.py -v -rA`` to see all of them.  One check
(A2, the closed-form off-diagonal envelope) is a known honest failure: the
measured decay is real but the flat-subsystem exponential model with a
window-center entropic weight misses the far tail by more than the allowed
factor.  The exact pair-sum model run through the same pipeline does match;
see ``test_offdiagonal_exact_sums_pipeline`` below and the README notes.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ethlab.ansatz import (
    AnsatzKind,
    AnsatzModel,
    density_autocorrelation,
    entropic_factor,
    exp_autocorrelation,
    f_exp_decay,
    f_mc_finite_width,
    f_microcanonical_exact,
    f_small_a,
    f_smooth_sums,
    gibbs_diagonal,
)
from ethlab.experiments import (
    OperatorEnsembleSpec,
    detect_bands,
    operator_diagonals,
    sample_local_operator,
    subsystem_gap_omegas,
)
from ethlab.hamiltonians import (
    SpinChainParams,
    build_spin_chain,
    decompose_chain,
    make_bipartite,
    pauli,
    sample_goe,
)
from ethlab.linalg import GridFunction, integrate_adaptive
from ethlab.localize import localizability, localizing_basis
from ethlab.scrambling import exp_profile, profile
from oracles import dense_elements, embed


def verdict(name, ok, detail):
    line = "[{}] {}: {}".format("PASS" if ok else "FAIL", name, detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def profile10(chain10):
    return profile(chain10)


@pytest.fixture(scope="module")
def appb_profile(appb_system):
    return profile(appb_system)


def test_a01_scrambling_width(profile12, profile10, chain10):
    s12 = profile12.sigma_s
    s10 = profile10.sigma_s
    free = decompose_chain(SpinChainParams(10, coupling=0.0), 3)
    s_free = profile(free).sigma_s
    ok = 0.86 <= s12 <= 1.06 and 0.5 <= s10 <= 1.5 and s_free <= 1e-10
    verdict(
        "A1 scrambling width",
        ok,
        f"sigma_S(12 sites, cut 3)={s12:.4f} (need [0.86, 1.06]); "
        f"sigma_S(10 sites)={s10:.4f} (need [0.5, 1.5]); "
        f"uncoupled sigma_S={s_free:.2e} (need <=1e-10)",
    )


def test_a02_offdiagonal_exp_decay_envelope(
    chain12, chain12_cut5, profile12, profile12_cut5, ens12_cut3, ens12_cut5
):
    # Known honest failure, kept at the pinned tolerances: the measured
    # envelope and the pipeline are validated by the exact pair-sum twin
    # below; the closed-form model itself underpredicts the far tail.
    parts = []
    ok = True
    cases = (
        (chain12, profile12, ens12_cut3, "cut3"),
        (chain12_cut5, profile12_cut5, ens12_cut5, "cut5"),
    )
    for system, prof, ens, label in cases:
        stats = ens[0]
        sigma_a = system.spectrum_a.spectral_range
        model = AnsatzModel(AnsatzKind.EXP_DECAY_FLAT_A, system, prof.sigma_s)
        ent = entropic_factor(model.n_0, 0.0, prof.sigma_s)
        x = 2.0 * stats.omega_mid / sigma_a
        band = (x >= 0.5) & (x <= 1.2)
        w = stats.omega_mid[band]
        pred = (ent * f_exp_decay(sigma_a, prof.sigma_s, 1.0, w)) ** 2
        ratio = stats.mean_sq[band] / pred
        in_band = ratio.min() >= 0.5 and ratio.max() <= 2.0
        peak = int(np.argmax(stats.mean_sq))
        inc = np.diff(stats.mean_sq[peak:])
        comb = np.sqrt(
            stats.std_err[peak:-1] ** 2 + stats.std_err[peak + 1 :] ** 2
        )
        n_viol = int((inc > 2.0 * comb).sum())
        ok = ok and in_band and n_viol <= 2
        parts.append(
            f"{label}: ratio range [{ratio.min():.3f}, {ratio.max():.3f}] "
            f"(need within [0.5, 2]), raw-bin rises >2SE: {n_viol} (need <=2)"
        )
    verdict("A2 off-diagonal exp-decay envelope", ok, "; ".join(parts))


def test_offdiagonal_exact_sums_pipeline(
    chain12, chain12_cut5, profile12, profile12_cut5, ens12_cut3, ens12_cut5
):
    # Passing twin of A2: same measured data, prediction from the exact
    # pair sums instead of the closed-form envelope, and monotonicity on
    # count-weighted coarse bins where single-pair noise has averaged out.
    cases = (
        (chain12, profile12, ens12_cut3),
        (chain12_cut5, profile12_cut5, ens12_cut5),
    )
    for system, prof, ens in cases:
        stats = ens[0]
        sigma_a = system.spectrum_a.spectral_range
        h = exp_profile(prof.sigma_s)
        x = 2.0 * stats.omega_mid / sigma_a
        sel = np.nonzero((x >= 0.5) & (x <= 1.2))[0]
        for i in sel[:: max(1, sel.size // 6)]:
            w = float(stats.omega_mid[i])
            # The window sums carry the state-density suppression
            # implicitly, so they predict the mean square directly.
            pred = f_smooth_sums(system, None, h, 0.0, w).item() ** 2
            ratio = stats.mean_sq[i] / pred
            assert 0.5 <= ratio <= 2.0, (w, ratio)
        # coarse-grain 20 bins together, weighted by pair counts
        group = 20
        n = (stats.mean_sq.size // group) * group
        weights = stats.count[:n].reshape(-1, group).astype(float)
        coarse = (stats.mean_sq[:n].reshape(-1, group) * weights).sum(
            axis=1
        ) / weights.sum(axis=1)
        var = ((stats.std_err[:n].reshape(-1, group) * weights) ** 2).sum(
            axis=1
        )
        coarse_se = np.sqrt(var) / weights.sum(axis=1)
        peak = int(np.argmax(coarse))
        inc = np.diff(coarse[peak:])
        comb = np.sqrt(coarse_se[peak:-1] ** 2 + coarse_se[peak + 1 :] ** 2)
        assert int((inc > 2.0 * comb).sum()) <= 2


def test_a03_exact_identities(coeffs12, chain10, profile12):
    sq = coeffs12.tensor**2
    per_alpha = np.abs(sq.reshape(sq.shape[0], -1).sum(axis=1) - 1.0).max()
    per_pair = np.abs(sq.reshape(sq.shape[0], -1).sum(axis=0) - 1.0).max()

    spec = OperatorEnsembleSpec(count=20, seed=0)
    sum_rule = 0.0
    for k in range(spec.count):
        op = sample_local_operator(spec, chain10.dim_a, k)
        rows = (dense_elements(chain10, op) ** 2).sum(axis=1)
        exact = np.diag(dense_elements(chain10, op @ op))
        sum_rule = max(sum_rule, np.abs(rows - exact).max())

    # kron(H_A, 1) + kron(1, H_B) + J sz_3 sz_4 against the full chain, with
    # H_A and H_B the chain fragments decompose_chain splits off at cut 3.
    reassembly = 0.0
    for sites in (12, 10):
        params = SpinChainParams(sites)
        h_a = build_spin_chain(SpinChainParams(3))
        h_b = build_spin_chain(SpinChainParams(sites - 3))
        bond = params.coupling * np.kron(
            embed({2: pauli("z")}, 3), embed({0: pauli("z")}, sites - 3)
        )
        h_0 = np.kron(h_a, np.eye(h_b.shape[0])) + np.kron(np.eye(h_a.shape[0]), h_b)
        total = h_0 + bond
        full = build_spin_chain(params)
        reassembly = max(
            reassembly, np.abs(total - full).max() / np.abs(full).max()
        )

    sigma_s = profile12.sigma_s
    h = exp_profile(sigma_s)
    hh = exp_autocorrelation(sigma_s)
    cut = 30.0 * sigma_s
    overlap = 0.0
    for e in (0.0, 0.6 * sigma_s, 2.2 * sigma_s):
        (numeric,) = integrate_adaptive(
            lambda y, rows: h(y) * h(e + y),
            np.array([-cut]), np.array([cut]), tol=1e-10, kinks=[(0.0, -e)],
        )
        overlap = max(overlap, abs(hh(e) - numeric))

    ok = (
        per_alpha <= 1e-9
        and per_pair <= 1e-9
        and sum_rule <= 1e-8
        and reassembly <= 1e-12
        and overlap <= 1e-6
    )
    verdict(
        "A3 exact identities",
        ok,
        f"stochasticity per-state {per_alpha:.2e} / per-pair {per_pair:.2e} "
        f"(need <=1e-9); operator sum rule {sum_rule:.2e} (need <=1e-8); "
        f"Hamiltonian reassembly {reassembly:.2e} (need <=1e-12); "
        f"profile overlap closed-vs-numeric {overlap:.2e} (need <=1e-6)",
    )


def test_a04_rmt_limit(goe256):
    dim = 256
    spec = OperatorEnsembleSpec(count=50, seed=3)
    off = ~np.eye(dim, dtype=bool)
    total, n = 0.0, 0
    for k in range(spec.count):
        op = sample_local_operator(spec, dim, k)
        g = goe256.eigenvectors.T @ op @ goe256.eigenvectors
        total += float((g[off] ** 2).sum())
        n += int(off.sum())
    mean_sq = total / n
    rel = abs(mean_sq * dim - 1.0)
    verdict(
        "A4 random-matrix limit",
        rel <= 0.10,
        f"mean off-diagonal square {mean_sq:.4e} vs 1/{dim}={1 / dim:.4e}, "
        f"relative deviation {rel:.4f} (need <=0.10)",
    )


def test_a05_hard_support_cutoff(chain10, profile10, appb_system, appb_profile):
    rng = np.random.default_rng(1)
    toy = make_bipartite(
        sample_goe(6, rng), sample_goe(48, rng), 0.3 * sample_goe(288, rng)
    )
    toy_prof = profile(toy)
    worst = 0.0
    for system, prof in (
        (chain10, profile10),
        (appb_system, appb_profile),
        (toy, toy_prof),
    ):
        op = sample_local_operator(
            OperatorEnsembleSpec(count=1, seed=5), system.dim_a, 0
        )
        edge = prof.delta + system.spectrum_a.spectral_range
        for extra in (1e-9, 0.5, 3.0):
            diff = edge + extra
            val = f_microcanonical_exact(system, op, prof.delta, 0.0, diff / 2.0).item()
            worst = max(worst, abs(val))
    verdict(
        "A5 hard support cutoff",
        worst == 0.0,
        f"window-sum value beyond support edge on 3 systems: {worst!r} "
        "(need exactly 0.0)",
    )


def test_a06_model_ladder_agreement():
    sigma_a = 4.0
    sigma_s = sigma_a / 100.0
    flat = GridFunction(
        np.array([-sigma_a / 2, sigma_a / 2]),
        np.array([1.0 / sigma_a, 1.0 / sigma_a]),
    )
    auto = density_autocorrelation(flat)
    w = np.linspace(0.0, 0.45 * sigma_a, 24)
    ref = f_small_a(auto, 1.0, sigma_s, w)
    fe = f_exp_decay(sigma_a, sigma_s, 1.0, w)
    fm = f_mc_finite_width(auto, 1.0, sigma_a, sigma_s, w)
    worst_exp = float(np.abs(fe / ref - 1.0).max())
    worst_mc = float(np.abs(fm / ref - 1.0).max())
    ok = worst_exp <= 0.02 and worst_mc <= 0.02
    verdict(
        "A6 narrow-profile model ladder",
        ok,
        f"max deviation from small-subsystem limit: exp-decay {worst_exp:.4f}, "
        f"finite-width {worst_mc:.4f} (need <=0.02)",
    )


def test_a07_localizability():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.diag([1.0, -1.0])
    paulis = (sx, sy, sz)
    sites = 4
    dims = []
    for site in range(sites):
        for p in paulis:
            vals = np.linalg.eigvalsh(embed({site: p}, sites))
            dims.append(localizability(vals).local_dim)
    for s1 in range(sites):
        for s2 in range(s1 + 1, sites):
            for p1 in paulis:
                for p2 in paulis:
                    op = embed({s1: p1, s2: p2}, sites)
                    vals = np.linalg.eigvalsh(op)
                    dims.append(localizability(vals).local_dim)
    all_two = all(d == 2 for d in dims)

    rng = np.random.default_rng(0)
    generic = localizability(np.sort(rng.uniform(-1.0, 1.0, 32))).local_dim

    roundtrip = 0.0
    syy = np.real(np.kron(sy, sy))
    for op in (
        embed({1: sx}, sites),
        embed({0: sz, 2: sz}, sites),
        embed({1: sx, 2: sz}, sites),
        np.kron(syy, np.eye(4)),
    ):
        basis, block = localizing_basis(op)
        copies = op.shape[0] // block.shape[0]
        recon = basis @ np.kron(block, np.eye(copies)) @ basis.T
        roundtrip = max(roundtrip, np.abs(recon - op).max())

    ok = all_two and generic == 32 and roundtrip <= 1e-9
    verdict(
        "A7 operator localizability",
        ok,
        f"{len(dims)} single/two-site spin operators all local_dim=2: "
        f"{all_two}; generic 32-level spectrum local_dim={generic} "
        f"(need 32); basis roundtrip error {roundtrip:.2e} (need <=1e-9)",
    )


def test_a08_diagonal_gibbs_match(chain12, config12):
    spec = config12.ensemble
    ops = [sample_local_operator(spec, chain12.dim_a, k) for k in range(spec.count)]
    diagonals = operator_diagonals(chain12, spec)
    e_t = chain12.spectrum_t.eigenvalues
    parts = []
    ok = True
    for ebar in (0.0, -7.85):
        win = np.abs(e_t - ebar) <= config12.binning.ebar_halfwidth
        measured = diagonals[:, win].mean(axis=1)
        predicted = np.array(
            [gibbs_diagonal(chain12, op, ebar) for op in ops]
        )
        diff = measured - predicted
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        z = abs(diff.mean()) / se
        ok = ok and z <= 5.0
        parts.append(f"Ebar={ebar:+.2f}: |mean|/SE={z:.2f}")

    # Infinite temperature: a flat environment density makes the weights
    # uniform, so exactly traceless operators must give exactly zero.
    grid = np.linspace(-40.0, 40.0, 9)
    flat_nb = GridFunction(grid, np.full(9, 7.0))
    hollow = np.zeros((8, 8))
    hollow[0, 3] = hollow[3, 0] = 1.4
    exact = []
    for op in (np.diag([1.0, -1.0] * 4), hollow):
        exact.append(gibbs_diagonal(chain12, op, 0.3, n_b=flat_nb))
    ident = gibbs_diagonal(chain12, np.eye(8), 0.3, n_b=flat_nb)
    zeros_ok = exact == [0.0, 0.0] and ident == 1.0
    ok = ok and zeros_ok
    parts.append(
        f"flat-environment traceless values {exact} (need exactly 0.0), "
        f"identity {ident} (need exactly 1.0)"
    )
    verdict(
        "A8 diagonal thermal match", ok, "; ".join(parts) + " (need z<=5)"
    )


def test_a09_band_detection(appb_system, appb_profile, appb_ensemble):
    gaps = subsystem_gap_omegas(appb_system.spectrum_a.eigenvalues)
    report = detect_bands(
        appb_ensemble[0], gaps, appb_profile.sigma_s
    )
    frac = report.matched_fraction
    ok = report.peak_omegas.size >= 1 and frac >= 0.5
    verdict(
        "A9 off-diagonal band detection",
        ok,
        f"{report.peak_omegas.size} peaks, matched fraction {frac:.2f} "
        f"(need >=0.5 with at least one peak), sigma_S="
        f"{appb_profile.sigma_s:.3f}",
    )


def test_a10_byte_identical_reproduction(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[system]\nkind = spin_chain\nsites = 8\ncut = 3\n"
        "\n[ensemble]\ncount = 8\nseed = 0\n"
    )
    blobs = []
    for threads, name in ((1, "a"), (2, "b")):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "ethlab.cli", "reproduce", "fig3",
                "--config", str(cfg), "--out", str(out),
                "--threads", str(threads),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted(p.name for p in out.glob("*.csv"))
        blobs.append({f: (out / f).read_bytes() for f in files})
    same = blobs[0] == blobs[1]
    verdict(
        "A10 byte-identical reproduction",
        same,
        f"{len(blobs[0])} CSV files from threads=1 vs threads=2 "
        f"{'identical' if same else 'DIFFER'}",
    )

"""Bundled dataset reproductions.

Each runner builds the configured system, measures scrambling and binned
off-diagonal statistics, evaluates the configured ansatz curves on the same
omega grid, and writes CSV datasets plus a JSON manifest into the output
directory.  Dataset bytes depend only on the configuration and seeds, never
on thread count, cache state, or wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .ansatz import AnsatzKind, AnsatzModel, _EXACT_KINDS
from .errors import ValidationError
from .experiments import (
    matrix_elements_total_basis,
    run_ensemble,
    sample_local_operator,
    detect_bands,
    subsystem_gap_omegas,
)
from .hamiltonians import build_random_system, decompose_chain
from .io import (
    RunConfig,
    binned_rows,
    cached_spectrum,
    config_cache_key,
    emit_dataset,
    prediction_rows,
    write_manifest,
    write_svg,
)
from .linalg import density_of_states
from .scrambling import compute_coefficients, profile

__all__ = ["FIGURES", "run_figure", "build_system", "quantile_states"]

FIGURES = ("fig1", "fig2", "fig3", "appB")

_ALIASES = {
    "fig1": "fig1",
    "fig1_coeffs": "fig1",
    "fig2": "fig2",
    "fig2_scan_la": "fig2",
    "fig3": "fig3",
    "fig3_scan_e": "fig3",
    "appb": "appB",
    "appb_banding": "appB",
}

# Curves drawn when the config leaves predict.kinds on "auto".
_AUTO_KINDS = {
    "fig2": ("smooth_general_sums", "exp_decay_flat_A"),
    "fig3": ("exp_decay_flat_A", "narrow_scrambling"),
    "appB": (),
    "run": ("smooth_general_sums", "exp_decay_flat_A"),
}


def build_system(config: RunConfig, *, cache_dir: str | Path, policy: str = "use"):
    """Construct the configured system, caching the total diagonalization."""
    key = config_cache_key(config)
    built = None

    def compute():
        nonlocal built
        if config.chain is not None:
            built = decompose_chain(config.chain, config.cut)
        else:
            built = build_random_system(config.random)
        return built.spectrum_t

    spectrum = cached_spectrum(key, cache_dir, policy, compute)
    if built is not None:
        return built
    if config.chain is not None:
        return decompose_chain(config.chain, config.cut, spectrum_t=spectrum)
    return build_random_system(config.random, spectrum_t=spectrum)


def _density_bins(n: int) -> int:
    return max(4, min(64, int(round(np.sqrt(n)))))


class _Densities:
    """Interpolated state densities for one system (shared by the models)."""

    def __init__(self, system):
        e_a = system.spectrum_a.eigenvalues
        e_b = system.spectrum_b.eigenvalues
        self.n_a = density_of_states(e_a, bins=_density_bins(e_a.size))
        self.n_b = density_of_states(e_b, bins=_density_bins(e_b.size))
        sums = system.sum_energies().ravel()
        self.n_0 = density_of_states(sums, bins=_density_bins(sums.size))


def _make_model(
    kind: str,
    system,
    sigma_s: float,
    o2bar: float,
    dens: _Densities,
) -> AnsatzModel:
    if AnsatzKind(kind) in _EXACT_KINDS:
        return AnsatzModel(kind=AnsatzKind(kind), sigma_s=sigma_s, o2bar=o2bar,
                           system=system)
    return AnsatzModel(
        kind=AnsatzKind(kind),
        sigma_s=sigma_s,
        o2bar=o2bar,
        n_a=dens.n_a,
        n_b=dens.n_b,
        n_0=dens.n_0,
        system=system,
    )


def _predictions_for(kinds, system, sigma_s, o2bar, dens, ebar, omegas):
    preds = []
    for kind in kinds:
        model = _make_model(kind, system, sigma_s, o2bar, dens)
        preds.append(model.evaluate(ebar, omegas))
    return preds


def _config_echo(config: RunConfig, kinds) -> dict:
    echo = {
        "cut": config.cut,
        "ensemble": asdict(config.ensemble),
        "binning": asdict(config.binning),
        "predict_kinds": list(kinds),
        "o2bar": config.o2bar,
    }
    if config.chain is not None:
        echo["system"] = {"kind": "spin_chain", **asdict(config.chain)}
    else:
        echo["system"] = {"kind": "random", **asdict(config.random)}
    return echo


def _plot_window(path, stats, preds, title):
    curves = [
        {
            "x": stats.omega_mid,
            "y": stats.mean_sq,
            "label": "measured",
        }
    ]
    for pred in preds:
        curves.append(
            {
                "x": pred.omega,
                "y": pred.variance,
                "label": pred.kind,
                "line": True,
            }
        )
    return write_svg(curves, path, title=title, xlabel="omega",
                     ylabel="mean squared element")


def quantile_states(total_dim: int, count: int = 7) -> np.ndarray:
    """Indices of eigenstates at evenly spaced spectral quantiles."""
    fractions = (np.arange(count) + 1.0) / (count + 1.0)
    return np.unique(np.round(fractions * (total_dim - 1)).astype(int))


def _fig1(config, system, out_dir, plot, threads, stem="fig1_coeffs"):
    coeffs = compute_coefficients(system)
    prof = profile(coeffs)
    states = quantile_states(system.total_dim)
    sums = system.sum_energies().ravel()
    e_t = coeffs.energies_total
    rows = []
    for alpha in states:
        weights = np.abs(coeffs.tensor[alpha]).ravel()
        e_alpha = e_t[alpha]
        rows.extend(
            (e_alpha, s, w) for s, w in zip(sums, weights)
        )
    files = [emit_dataset(rows, "coeffs", out_dir / f"{stem}.csv")]
    if plot:
        curves = []
        for alpha in states:
            weights = np.abs(coeffs.tensor[alpha]).ravel() ** 2
            keep = weights > 1e-12
            curves.append(
                {
                    "x": sums[keep],
                    "y": weights[keep],
                    "label": f"E_alpha={e_t[alpha]:.3g}",
                }
            )
        files.append(
            write_svg(
                curves,
                out_dir / f"{stem}.svg",
                title="eigenstate scrambling weights",
                xlabel="E_i + E_j",
                ylabel="squared coefficient",
            )
        )
    manifest = {
        "sigma_s": prof.sigma_s,
        "delta": prof.delta,
        "profile_normalization": prof.normalization,
        "states": [int(a) for a in states],
        "state_energies": [float(e_t[a]) for a in states],
    }
    return manifest, files


def _window_centers(e_min: float, fractions) -> list[float]:
    return [float(f * e_min) + 0.0 for f in fractions]


def _ensemble_windows(config, system, kinds, out_dir, stem, centers, plot, threads):
    """Shared measurement + prediction flow for the figure scans."""
    # The coefficient tensor is freed before the ensemble run.
    prof = profile(compute_coefficients(system))
    dens = _Densities(system)
    result = run_ensemble(
        system, config.ensemble, centers, config.binning, threads=threads
    )
    files = []
    all_binned = []
    all_preds = []
    for stats in result.binned:
        all_binned.extend(binned_rows(stats))
    files.append(emit_dataset(all_binned, "binned", out_dir / f"{stem}_binned.csv"))
    for center, stats in zip(centers, result.binned):
        preds = _predictions_for(
            kinds, system, prof.sigma_s, config.o2bar, dens, center,
            stats.omega_mid,
        )
        all_preds.extend(preds)
        if plot:
            tag = f"{center:.4g}".replace("-", "m")
            files.append(
                _plot_window(
                    out_dir / f"{stem}_E{tag}.svg",
                    stats,
                    preds,
                    f"{stem} at Ebar={center:.4g}",
                )
            )
    if kinds:
        files.append(
            emit_dataset(
                prediction_rows(all_preds), "prediction",
                out_dir / f"{stem}_predict.csv",
            )
        )
    info = {
        "sigma_s": prof.sigma_s,
        "delta": prof.delta,
        "window_centers": centers,
        "windows": [
            {"center": stats.ebar_center, "bins": int(stats.omega_mid.size),
             "pairs": stats.n_samples}
            for stats in result.binned
        ],
    }
    return info, files, result.binned


def _fig2(config, out_dir, plot, threads, cache_dir, policy):
    if config.chain is None:
        raise ValidationError("fig2 requires a spin-chain system")
    kinds = config.predict_kinds or _AUTO_KINDS["fig2"]
    cuts = [c for c in (1, 3, 5, 7) if c < config.chain.sites]
    manifest = {"cuts": cuts, "systems": {}}
    files = []
    spectrum_t = None
    for cut in cuts:
        sub = replace(
            config,
            cut=cut,
            ensemble=replace(config.ensemble, dim_a=2**cut),
        )
        if spectrum_t is None:
            system = build_system(sub, cache_dir=cache_dir, policy=policy)
            spectrum_t = system.spectrum_t
        else:
            # Every cut splits the same total Hamiltonian: reuse its spectrum.
            system = decompose_chain(sub.chain, cut, spectrum_t=spectrum_t)
        e_min = float(system.spectrum_t.eigenvalues[0])
        centers = _window_centers(e_min, (0.0, 0.5))
        info, new_files, _ = _ensemble_windows(
            sub, system, kinds, out_dir, f"fig2_LA{cut}", centers, plot, threads
        )
        info["e_min"] = e_min
        manifest["systems"][f"LA{cut}"] = info
        files.extend(new_files)
    return manifest, files


def _fig3(config, out_dir, plot, threads, cache_dir, policy):
    if config.chain is None:
        raise ValidationError("fig3 requires a spin-chain system")
    kinds = config.predict_kinds or _AUTO_KINDS["fig3"]
    system = build_system(config, cache_dir=cache_dir, policy=policy)
    e_min = float(system.spectrum_t.eigenvalues[0])
    centers = _window_centers(e_min, (0.0, 0.25, 0.5))
    info, files, _ = _ensemble_windows(
        config, system, kinds, out_dir, f"fig3_LA{config.cut}", centers, plot,
        threads,
    )
    info["e_min"] = e_min
    return {"systems": {f"LA{config.cut}": info}}, files


def _appb(config, out_dir, plot, threads, cache_dir, policy):
    if config.random is None:
        raise ValidationError("appB requires a random system")
    kinds = config.predict_kinds or _AUTO_KINDS["appB"]
    system = build_system(config, cache_dir=cache_dir, policy=policy)
    info, files, binned = _ensemble_windows(
        config, system, kinds, out_dir, "appB", [0.0], plot, threads
    )

    gaps = subsystem_gap_omegas(system.spectrum_a.eigenvalues)

    # Near-diagonal triplets for the first operator, restricted to the window.
    op0 = sample_local_operator(config.ensemble, 0)
    elements = matrix_elements_total_basis(system, op0)
    e_t = system.spectrum_t.eigenvalues
    ebar = 0.5 * np.add.outer(e_t, e_t)
    hw = config.binning.ebar_halfwidth
    mask = np.triu(np.abs(ebar) <= hw, k=1)
    rows_idx, cols_idx = np.nonzero(mask)
    triplets = [
        (e_t[a], e_t[b], abs(elements[a, b]))
        for a, b in zip(rows_idx, cols_idx)
    ]
    files.append(emit_dataset(triplets, "banding", out_dir / "appB_banding.csv"))

    report = detect_bands(binned[0], gaps, info["sigma_s"])
    min_gap = float(np.min(np.diff(np.sort(system.spectrum_a.eigenvalues))))
    info.update(
        {
            "gaps": [float(g) for g in gaps],
            "min_level_spacing_a": min_gap,
            "band_peaks": [float(w) for w in report.peak_omegas],
            "peaks_matched": [bool(m) for m in report.matched],
            "matched_fraction": report.matched_fraction,
            "gap_coverage": report.gap_coverage,
        }
    )
    return {"systems": {"appB": info}}, files


def run_figure(
    experiment: str,
    config: RunConfig,
    out_dir: str | Path,
    *,
    threads: int = 1,
    cache_policy: str = "use",
    cache_dir: Optional[str | Path] = None,
    plot: bool = False,
) -> dict:
    """Produce one bundled dataset; returns the manifest dictionary."""
    name = _ALIASES.get(experiment.strip().lower())
    if name is None:
        raise ValidationError(
            f"unknown experiment {experiment!r} (valid: {', '.join(FIGURES)})"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cache_dir is None:
        cache_dir = out_dir / "cache"
    start = time.perf_counter()
    if name == "fig1":
        system = build_system(config, cache_dir=cache_dir, policy=cache_policy)
        manifest, files = _fig1(config, system, out_dir, plot, threads)
        kinds = ()
    elif name == "fig2":
        kinds = config.predict_kinds or _AUTO_KINDS["fig2"]
        manifest, files = _fig2(config, out_dir, plot, threads, cache_dir,
                                cache_policy)
    elif name == "fig3":
        kinds = config.predict_kinds or _AUTO_KINDS["fig3"]
        manifest, files = _fig3(config, out_dir, plot, threads, cache_dir,
                                cache_policy)
    else:
        kinds = config.predict_kinds or _AUTO_KINDS["appB"]
        manifest, files = _appb(config, out_dir, plot, threads, cache_dir,
                                cache_policy)
    manifest["experiment"] = name
    manifest["config"] = _config_echo(config, kinds)
    manifest["files"] = sorted(str(Path(f).name) for f in files)
    manifest["timing_seconds"] = time.perf_counter() - start
    write_manifest(manifest, out_dir / f"{name}_manifest.json")
    return manifest

"""Every computing run, from one experiment table.

``run_figure`` runs one entry of ``_EXPERIMENTS`` in a :class:`_RunContext`:
the runner builds the configured system, measures and predicts, and writes
its CSV datasets (and SVG plots); ``run_figure`` then writes the JSON
manifest.  At a given BLAS build and thread count, dataset bytes depend
only on the configuration and seeds, never on ``--threads``, cache state,
or wall-clock.  Across BLAS thread counts every value agrees within 1e-8
relative plus 1e-12 times its column's peak within its mean-energy window.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .ansatz import AnsatzModel
from .errors import ValidationError
from .experiments import (
    PairBand,
    band_matrix_elements,
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
from .scrambling import compute_coefficients, profile

__all__ = ["FIGURES", "run_figure", "build_system", "quantile_states"]

FIGURES = ("fig1", "fig2", "fig3", "appB")

# Curves the scans draw when the config leaves predict.kinds on "auto".
_SCAN_KINDS = ("smooth_general_sums", "exp_decay_flat_A")


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


@dataclass(frozen=True)
class _RunContext:
    """Where one run writes, how it caches, and whether it plots."""

    out_dir: Path
    cache_dir: Path
    cache_policy: str
    plot: bool

    def system(self, config: RunConfig):
        return build_system(config, cache_dir=self.cache_dir, policy=self.cache_policy)


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


def _coefficients(config, kinds, ctx, *, stem):
    system = ctx.system(config)
    states = quantile_states(system.total_dim)
    coeffs = compute_coefficients(system, states)
    prof = profile(system)
    sums = system.sum_energies().ravel()
    e_t = coeffs.energies_total
    weights = np.abs(coeffs.tensor).reshape(states.size, -1)
    rows = [(e, s, w) for e, row in zip(e_t, weights) for s, w in zip(sums, row)]
    files = [emit_dataset(rows, "coeffs", ctx.out_dir / f"{stem}.csv")]
    if ctx.plot:
        curves = []
        for e, sq in zip(e_t, weights**2):
            keep = sq > 1e-12
            curves.append({"x": sums[keep], "y": sq[keep], "label": f"E_alpha={e:.3g}"})
        files.append(
            write_svg(
                curves,
                ctx.out_dir / f"{stem}.svg",
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
        "state_energies": [float(e) for e in e_t],
    }
    return manifest, files


def _predict(config, kinds, ctx, *, ebar=0.0, omega_max=None):
    if omega_max is not None and not omega_max > 0:
        raise ValidationError(f"omega_max must be positive, got {omega_max:g}")
    system = ctx.system(config)
    prof = profile(system)
    sigma_a = system.spectrum_a.spectral_range
    width = config.binning.resolve_width(system.spectrum_t.spectral_range)
    if omega_max is None:
        omega_max = 0.75 * sigma_a
    if not omega_max > 0.5 * width:
        raise ValidationError(
            f"omega_max must exceed half the bin width "
            f"({0.5 * width:g}) to leave a grid point, got {omega_max:g}"
        )
    omegas = np.arange(0.5 * width, omega_max, width)
    models = [AnsatzModel(kind, system, prof.sigma_s, config.o2bar) for kind in kinds]
    preds = [model.evaluate(ebar, omegas) for model in models]
    path = emit_dataset(prediction_rows(preds), "prediction",
                        ctx.out_dir / "predict.csv")
    return {"ebar": ebar, "sigma_s": prof.sigma_s, "sigma_a": sigma_a}, [path]


def _window_centers(e_min: float, fractions) -> list[float]:
    return [float(f * e_min) + 0.0 for f in fractions]


def _ensemble_windows(config, system, kinds, ctx, stem, centers):
    """Shared measurement + prediction flow for the scans."""
    prof = profile(system)
    models = [AnsatzModel(kind, system, prof.sigma_s, config.o2bar) for kind in kinds]
    binned = run_ensemble(system, config.ensemble, centers, config.binning)
    files = []
    all_binned = []
    all_preds = []
    for stats in binned:
        all_binned.extend(binned_rows(stats))
    files.append(emit_dataset(all_binned, "binned", ctx.out_dir / f"{stem}_binned.csv"))
    for center, stats in zip(centers, binned):
        preds = [model.evaluate(center, stats.omega_mid) for model in models]
        all_preds.extend(preds)
        if ctx.plot:
            tag = f"{center:.4g}".replace("-", "m")
            files.append(
                _plot_window(
                    ctx.out_dir / f"{stem}_E{tag}.svg",
                    stats,
                    preds,
                    f"{stem} at Ebar={center:.4g}",
                )
            )
    if kinds:
        files.append(
            emit_dataset(
                prediction_rows(all_preds), "prediction",
                ctx.out_dir / f"{stem}_predict.csv",
            )
        )
    info = {
        "sigma_s": prof.sigma_s,
        "delta": prof.delta,
        "window_centers": centers,
        "windows": [
            {"center": stats.ebar_center, "bins": int(stats.omega_mid.size),
             "pairs": stats.n_samples}
            for stats in binned
        ],
    }
    return info, files, binned


def _scan(config, kinds, ctx, *, centers=None):
    centers = list(centers) if centers else [0.0]
    info, files, _ = _ensemble_windows(
        config, ctx.system(config), kinds, ctx, "run", centers
    )
    return info, files


def _fig2(config, kinds, ctx):
    if config.chain is None:
        raise ValidationError("fig2 requires a spin-chain system")
    cuts = [c for c in (1, 3, 5, 7) if c < config.chain.sites]
    manifest = {"cuts": cuts, "systems": {}}
    files = []
    spectrum_t = None
    for cut in cuts:
        sub = replace(config, cut=cut)
        if spectrum_t is None:
            system = ctx.system(sub)
            spectrum_t = system.spectrum_t
        else:
            # Every cut splits the same total Hamiltonian: reuse its spectrum.
            system = decompose_chain(sub.chain, cut, spectrum_t=spectrum_t)
        e_min = float(system.spectrum_t.eigenvalues[0])
        centers = _window_centers(e_min, (0.0, 0.5))
        info, new_files, _ = _ensemble_windows(
            sub, system, kinds, ctx, f"fig2_LA{cut}", centers
        )
        info["e_min"] = e_min
        manifest["systems"][f"LA{cut}"] = info
        files.extend(new_files)
    return manifest, files


def _fig3(config, kinds, ctx):
    if config.chain is None:
        raise ValidationError("fig3 requires a spin-chain system")
    system = ctx.system(config)
    e_min = float(system.spectrum_t.eigenvalues[0])
    centers = _window_centers(e_min, (0.0, 0.25, 0.5))
    info, files, _ = _ensemble_windows(
        config, system, kinds, ctx, f"fig3_LA{config.cut}", centers
    )
    info["e_min"] = e_min
    return {"systems": {f"LA{config.cut}": info}}, files


def _appb(config, kinds, ctx):
    if config.random is None:
        raise ValidationError("appB requires a random system")
    system = ctx.system(config)
    info, files, binned = _ensemble_windows(
        config, system, kinds, ctx, "appB", [0.0]
    )

    gaps = subsystem_gap_omegas(system.spectrum_a.eigenvalues)

    # Near-diagonal triplets for the first operator over the window's pairs
    # (alpha < beta, alpha-major), evaluated on the band's tiles only.
    op0 = sample_local_operator(config.ensemble, system.dim_a, 0)
    e_t = system.spectrum_t.eigenvalues
    width = config.binning.resolve_width(system.spectrum_t.spectral_range)
    band = PairBand(e_t, 0.0, config.binning.ebar_halfwidth, width)
    elements = band_matrix_elements(system, op0, band)
    rows, cols, _ = band.pairs()
    triplets = np.column_stack(
        (e_t[rows], e_t[cols], np.abs(elements))
    ).tolist()
    files.append(emit_dataset(triplets, "banding", ctx.out_dir / "appB_banding.csv"))

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


# name: (runner, manifest stem, curves drawn when predict.kinds is "auto",
# None for an experiment that draws none).  runner(config, kinds, ctx,
# **options) returns the experiment's manifest fields and the files it wrote.
_EXPERIMENTS = {
    "spin_chain": (_scan, "run", _SCAN_KINDS),
    "random": (_scan, "run", _SCAN_KINDS),
    "coeffs": (partial(_coefficients, stem="coeffs"), "coeffs", None),
    "predict": (_predict, "predict", _SCAN_KINDS),
    "fig1": (partial(_coefficients, stem="fig1_coeffs"), "fig1", None),
    "fig2": (_fig2, "fig2", _SCAN_KINDS),
    "fig3": (_fig3, "fig3", ("exp_decay_flat_A", "narrow_scrambling")),
    "appB": (_appb, "appB", ()),
}


def _provenance() -> dict:
    """numpy and BLAS versions, core count and the BLAS thread variables set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if v in os.environ}
    return {"numpy": np.__version__, "cpu_count": os.cpu_count(),
            "blas": {"name": blas["name"], "version": blas["version"]}, **env}


def run_figure(
    experiment: str,
    config: RunConfig,
    out_dir: str | Path,
    *,
    cache_policy: str = "use",
    plot: bool = False,
    **options,
) -> dict:
    """Run one experiment and write its datasets; returns the manifest.

    Experiments and the manifest stem each writes (``<stem>_manifest.json``):

    - ``spin_chain`` / ``random`` (stem ``run``): binned statistics and
      prediction curves; keyword ``centers``, the mean-energy window centers
      (default ``[0.0]``);
    - ``coeffs``: scrambling coefficients of representative states;
    - ``predict``: prediction curves alone; keywords ``ebar`` (default 0)
      and ``omega_max`` (default 0.75 of the A spectral range);
    - ``fig1``, ``fig2``, ``fig3``, ``appB``: the bundled datasets.

    The keyword values must be finite.  The spectrum cache lives in
    ``out_dir/cache``.  The manifest holds the experiment's own fields plus
    ``experiment``, ``config``, ``files``, ``timing_seconds``,
    ``peak_rss_mb`` (the process's maximum resident set so far, from
    ``getrusage``) and ``provenance`` (numpy and BLAS versions,
    ``os.cpu_count()`` and the BLAS thread variables that are set: the BLAS
    library's threads are the only parallelism).
    """
    if experiment not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {experiment!r} (valid: {', '.join(_EXPERIMENTS)})"
        )
    for key, value in options.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValidationError(f"{key} must be finite, got {value}")
    runner, stem, auto_kinds = _EXPERIMENTS[experiment]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = _RunContext(
        out_dir=out_dir,
        cache_dir=out_dir / "cache",
        cache_policy=cache_policy,
        plot=plot,
    )
    kinds = () if auto_kinds is None else config.predict_kinds or auto_kinds
    start = time.perf_counter()
    manifest, files = runner(config, kinds, ctx, **options)
    manifest["experiment"] = experiment
    manifest["config"] = _config_echo(config, kinds)
    manifest["files"] = sorted(Path(f).name for f in files)
    manifest["timing_seconds"] = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    manifest["provenance"] = _provenance()
    write_manifest(manifest, out_dir / f"{stem}_manifest.json")
    return manifest

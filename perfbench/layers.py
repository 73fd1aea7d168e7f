"""Outside-in layer tracing for one ``ethlab`` command-line call.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/layers.py TRACE.json -- reproduce fig3 --out DIR ...

The script imports ``ethlab.cli``, replaces the public functions of each
``ethlab`` module with timing wrappers, runs the command, and writes the
collected spans and counters to ``TRACE.json``.  Nothing under ``src/`` is
changed: every wrapper is installed on the module attribute that the caller
looks up at call time (``ethlab.figures.run_ensemble``, not
``ethlab.experiments.run_ensemble``, because ``figures`` imported the name).

Each thread keeps its own span stack, so self times stay right under the
ensemble thread pool.  For every span name the trace records:

- ``total``: wall time of the outermost spans of that name (a span nested in
  one of the same name is not counted twice);
- ``self``: wall time minus the time covered by child spans on the same
  thread;
- ``calls``: number of calls.

Counters (samples, bytes, flops, pool busy time) are added where the work
happens.  A name that a later version of the program no longer has is
skipped and listed under ``missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    """Per-thread span stacks plus shared totals, guarded by one lock."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.missing = []

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``name`` is a span name or a function of the call arguments that
        returns one.  ``before()`` runs ahead of the call and
        ``after(result, duration, args, kwargs)`` once it returned.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                before()
            stack = tracer.stack()
            outermost = all(frame[0] != span for frame in stack)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.calls[span] += 1
                    tracer.self_time[span] += duration - frame[1]
                    if outermost:
                        tracer.total[span] += duration
            if after is not None:
                after(result, duration, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def report(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "missing": self.missing,
        }


def _spectrum_bytes(spectrum) -> int:
    return int(spectrum.eigenvalues.nbytes + spectrum.eigenvectors.nbytes)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured ``ethlab`` module."""
    import ethlab.ansatz
    import ethlab.cli
    import ethlab.experiments
    import ethlab.figures
    import ethlab.hamiltonians
    import ethlab.io
    import ethlab.linalg

    figures = ethlab.figures
    experiments = ethlab.experiments
    band_cls = getattr(experiments, "PairBand", None)
    local = threading.local()

    # hamiltonians: the build itself; eig_sym is a child span, so self time
    # excludes the diagonalizations.
    tracer.wrap(figures, "decompose_chain", "hamiltonians.build")
    tracer.wrap(figures, "build_random_system", "hamiltonians.build")

    # linalg
    tracer.wrap(ethlab.hamiltonians, "eig_sym", "linalg.eig_sym")
    tracer.wrap(ethlab.ansatz, "integrate_adaptive", "linalg.integrate_adaptive")
    tracer.wrap(ethlab.linalg, "integrate_adaptive", "linalg.integrate_adaptive")

    # io: cache and dataset emission
    def loaded(result, duration, args, kwargs):
        if result is None:
            return
        tracer.add("io.cache_hits", 1)
        tracer.add("io.cache_load_bytes", _spectrum_bytes(result))

    def saved(result, duration, args, kwargs):
        tracer.add("io.cache_save_bytes", _spectrum_bytes(args[0]))

    tracer.wrap(ethlab.io, "load_spectrum", "io.cache_load", after=loaded)
    tracer.wrap(ethlab.io, "save_spectrum", "io.cache_save", after=saved)

    cached = getattr(figures, "cached_spectrum", None)
    if cached is None:
        tracer.missing.append("ethlab.figures.cached_spectrum")
    else:

        @functools.wraps(cached)
        def cached_spectrum(key, cache_dir, policy, compute):
            def counted_compute():
                tracer.add("io.cache_misses", 1)
                return compute()

            return cached(key, cache_dir, policy, counted_compute)

        figures.cached_spectrum = cached_spectrum

    def emitted(result, duration, args, kwargs):
        tracer.add("io.emit_rows", len(args[0]))
        tracer.add("io.emit_bytes", os.path.getsize(result))

    tracer.wrap(figures, "emit_dataset", "io.emit", after=emitted)

    # scrambling
    tracer.wrap(figures, "compute_coefficients", "scrambling.coefficients")
    tracer.wrap(figures, "profile", "scrambling.profile")

    # experiments
    def ensemble_start():
        local.direct_inline = False
        local.pairband_before = tracer.total["experiments.pairband"]

    def ensemble_done(result, duration, args, kwargs):
        # Direct engine run without a pool: its busy time is the ensemble
        # call minus the band set-up; one worker, so efficiency is 1.
        if local.direct_inline:
            pairband = tracer.total["experiments.pairband"] - local.pairband_before
            tracer.add("experiments.direct_busy", duration - pairband)
            tracer.add("experiments.direct_capacity", duration - pairband)

    tracer.wrap(figures, "run_ensemble", "experiments.ensemble",
                before=ensemble_start, after=ensemble_done)
    tracer.wrap(figures, "matrix_elements_total_basis", "experiments.matrix_elements")
    tracer.wrap(figures, "detect_bands", "experiments.detect_bands")

    if band_cls is None:
        tracer.missing.append("ethlab.experiments.PairBand")
    else:
        tracer.wrap(band_cls, "__init__", "experiments.pairband")
        tracer.wrap(
            band_cls, "accumulate_grouped_all", "experiments.grouped",
            after=lambda r, d, a, k: tracer.add("experiments.grouped_windows", 1),
        )
        tracer.wrap(band_cls, "accumulate_grouped_batch", "experiments.transfer")

        def tiles(band):
            # Tile shapes of a band, fixed once its first direct call built them.
            n = band.energies.size
            computed = useful = 0
            for a0, a1, b0, b1, rows, *_ in band._direct_blocks:
                computed += (a1 - a0) * (b1 - b0)
                useful += rows.size
            return 2.0 * n * computed, computed, useful

        def direct_done(result, duration, args, kwargs):
            band = args[0]
            local.direct_inline = True
            with tracer._lock:
                tile = getattr(band, "_perfbench_tiles", None)
                if tile is None:
                    try:
                        tile = tiles(band)
                    except (AttributeError, TypeError, ValueError):
                        tracer.missing.append("PairBand._direct_blocks")
                        tile = (0.0, 0, 0)
                    band._perfbench_tiles = tile
                    tracer.counters["experiments.direct_windows"] += 1
                tracer.counters["experiments.direct_flop"] += tile[0]
                tracer.counters["experiments.direct_computed"] += tile[1]
                tracer.counters["experiments.direct_useful"] += tile[2]

        tracer.wrap(band_cls, "accumulate_from_factors", "experiments.direct_band",
                    after=direct_done)

    class TimedPool(ThreadPoolExecutor):
        """Thread pool that sums the busy time of its tasks."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._opened = time.perf_counter()
            self._busy = 0.0
            self._direct = False

        def map(self, fn, *iterables, **kwargs):
            def timed(*args):
                local.direct_inline = False
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    busy = time.perf_counter() - start
                    with tracer._lock:
                        self._busy += busy
                        self._direct = self._direct or local.direct_inline

            return super().map(timed, *iterables, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if self._opened is not None and self._direct:
                lifetime = time.perf_counter() - self._opened
                tracer.add("experiments.direct_busy", self._busy)
                tracer.add("experiments.direct_capacity", lifetime * self._max_workers)
            self._opened = None

    if hasattr(experiments, "ThreadPoolExecutor"):
        experiments.ThreadPoolExecutor = TimedPool
    else:
        tracer.missing.append("ethlab.experiments.ThreadPoolExecutor")

    # kernels, at the names the ensemble engines call
    tracer.wrap(
        experiments, "accumulate_grouped", "kernels.accumulate_grouped",
        after=lambda r, d, a, k: tracer.add("kernels.samples", a[0].size),
    )
    tracer.wrap(
        experiments, "accumulate_pairs", "kernels.accumulate_pairs",
        after=lambda r, d, a, k: tracer.add("kernels.samples", a[1].size),
    )

    # ansatz: one span name per kind
    def evaluate_name(args, kwargs):
        kind = args[0].kind
        return "ansatz.evaluate." + getattr(kind, "value", str(kind))

    def evaluated(result, duration, args, kwargs):
        omegas = args[2] if len(args) > 2 else kwargs["omegas"]
        tracer.add("ansatz.omega_points", len(omegas))

    model_cls = getattr(ethlab.ansatz, "AnsatzModel", None)
    if model_cls is None:
        tracer.missing.append("ethlab.ansatz.AnsatzModel")
    else:
        tracer.wrap(model_cls, "evaluate", evaluate_name, after=evaluated)

    # figures: the whole reproduce call; its self time is what no child covers
    tracer.wrap(ethlab.cli, "run_figure", "figures")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(report: dict) -> dict:
    """Per-layer metric values from a trace written by :func:`main`."""
    total, own = report["total"], report["self"]
    calls, counters = report["calls"], report["counters"]

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return counters.get(name, 0.0)

    metrics = {
        "hamiltonians.build_s": own.get("hamiltonians.build", 0.0),
        "linalg.eig_sym_s": t("linalg.eig_sym"),
        "linalg.eig_sym_calls": calls.get("linalg.eig_sym", 0),
        "linalg.integrate_adaptive_s": t("linalg.integrate_adaptive"),
        "linalg.integrate_adaptive_calls": calls.get("linalg.integrate_adaptive", 0),
        "io.cache_load_s": t("io.cache_load"),
        "io.cache_load_bytes": n("io.cache_load_bytes"),
        "io.cache_hits": n("io.cache_hits"),
        "io.cache_misses": n("io.cache_misses"),
        "io.cache_save_s": t("io.cache_save"),
        "io.cache_save_bytes": n("io.cache_save_bytes"),
        "io.emit_s": t("io.emit"),
        "io.emit_rows": n("io.emit_rows"),
        "io.emit_bytes": n("io.emit_bytes"),
        "scrambling.coefficients_s": t("scrambling.coefficients"),
        "scrambling.coefficients_calls": calls.get("scrambling.coefficients", 0),
        "scrambling.profile_s": t("scrambling.profile"),
        "experiments.ensemble_s": t("experiments.ensemble"),
        "experiments.pairband_s": t("experiments.pairband"),
        "experiments.grouped_s": t("experiments.grouped"),
        "experiments.transfer_s": own.get("experiments.transfer", 0.0),
        "experiments.direct_s": n("experiments.direct_busy"),
        "experiments.direct_gflop": n("experiments.direct_flop") / 1e9,
        "experiments.direct_useful_ratio": _ratio(
            n("experiments.direct_useful"), n("experiments.direct_computed")
        ),
        "experiments.parallel_efficiency": _ratio(
            n("experiments.direct_busy"), n("experiments.direct_capacity")
        ),
        "experiments.grouped_windows": n("experiments.grouped_windows"),
        "experiments.direct_windows": n("experiments.direct_windows"),
        "experiments.matrix_elements_s": t("experiments.matrix_elements"),
        "experiments.detect_bands_s": t("experiments.detect_bands"),
        "kernels.accumulate_grouped_s": t("kernels.accumulate_grouped"),
        "kernels.accumulate_grouped_calls": calls.get("kernels.accumulate_grouped", 0),
        "kernels.accumulate_pairs_s": t("kernels.accumulate_pairs"),
        "kernels.samples": n("kernels.samples"),
        "ansatz.omega_points": n("ansatz.omega_points"),
        "figures.self_s": own.get("figures", 0.0),
        "cli.import_s": report["import_s"],
    }
    for name, value in total.items():
        if name.startswith("ansatz.evaluate."):
            metrics["ansatz.evaluate_s." + name[len("ansatz.evaluate."):]] = value
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: layers.py TRACE.json -- <ethlab arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import ethlab.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = 1
    try:
        code = ethlab.cli.main(cli_args)
    finally:
        report = tracer.report()
        report.update(
            {"import_s": import_s, "run_s": time.perf_counter() - start,
             "exit_code": code}
        )
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

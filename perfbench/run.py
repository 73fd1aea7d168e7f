#!/usr/bin/env python3
"""End-to-end benchmark of ``ethlab reproduce``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3 --seed 0 --seconds 14 --trace 0

Every timed run is a fresh ``python3 -m ethlab.cli reproduce ...`` process,
started one at a time (a closed loop with a single client), because every
command-line call pays import and first-call costs.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes one
untraced and one traced run (``perfbench/layers.py``) and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and output checks are described in
``perfbench/README.md``.

``--record-reference`` rewrites the recorded outputs of one workload at the
reference seed (run at ``--threads 1``); use it only when a change of the
program's outputs is intended, and say so in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
# An invocation stops starting processes after this many seconds, so that
# it always exits within 180 s.
DEADLINE_S = 165.0

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402

SCHEMAS = {
    "binned": "Ebar_center,omega_mid,mean_sq,count,std_err",
    "prediction": "model,Ebar,omega,f,entropic_factor,variance",
    "banding": "E_alpha,E_beta,abs_O",
}
# Columns that do not depend on the operator ensemble: bin positions and
# sample counts follow from the system alone, and the prediction ladder never
# sees the operators.  They are seed-free unless the seed draws the system.
SEED_FREE = {
    "binned": ("Ebar_center", "omega_mid", "count"),
    "prediction": SCHEMAS["prediction"].split(","),
    "banding": (),
}


@dataclass(frozen=True)
class Workload:
    figure: str
    config: str  # INI text; {seed} and {system_seed} are filled in
    threads: int
    warm: bool  # cache filled in set-up; timed runs must hit it
    setup_samples: int  # set-ups per --trace 0 invocation; setup_s is their median
    files: tuple[str, ...]  # CSVs the run must write
    thread_check: bool = False  # traced invocation re-runs at --threads 1
    seeded_system: bool = False  # --seed also draws the system itself


def schema_of(csv_name: str) -> str:
    """Dataset schema from the file name suffix (``fig3_LA3_predict.csv``)."""
    suffix = csv_name.removesuffix(".csv").rsplit("_", 1)[1]
    return {"predict": "prediction"}.get(suffix, suffix)


WORKLOADS = {
    # Grouped ensemble engine + accumulate_grouped kernel + quadrature ladder.
    "fig3": Workload(
        figure="fig3",
        config="[ensemble]\nseed = {seed}\n",
        threads=1,
        warm=True,
        setup_samples=2,
        files=("fig3_LA3_binned.csv", "fig3_LA3_predict.csv"),
    ),
    # Direct engine at cut 7 on the thread pool, transfer build at cut 5,
    # four cache loads.  Four operators instead of 250 keep one run near 30 s.
    "fig2-lite": Workload(
        figure="fig2",
        config="[ensemble]\ncount = 4\nseed = {seed}\n",
        threads=2,
        warm=True,
        setup_samples=2,
        files=tuple(
            f"fig2_LA{cut}_{kind}.csv" for cut in (1, 3, 5, 7)
            for kind in ("binned", "predict")
        ),
        thread_check=True,
    ),
    # Build, diagonalize and write the cache on every run; 2.7 MB of CSV.
    "appB-cold": Workload(
        figure="appB",
        config="[system]\nsystem_seed = {system_seed}\n\n[ensemble]\nseed = {seed}\n",
        threads=1,
        warm=False,
        setup_samples=3,
        files=("appB_binned.csv", "appB_banding.csv"),
        seeded_system=True,
    ),
}


class Failure(Exception):
    """A run or an output check failed."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    log: str


class Session:
    """Processes and files of one benchmark invocation."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.state_dir = root / ".perfbench"
        self.work = self.state_dir / f"work-{os.getpid()}"
        self.out = self.work / "out"
        self.config = self.work / "run.ini"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.out.mkdir(parents=True)
        # appB reads system_seed too; seed 0 is the reference system (seed 7).
        self.config.write_text(
            self.workload.config.format(seed=self.seed, system_seed=7 + self.seed)
        )
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, args: list[str], log_name: str) -> Proc:
        """Run one Python process to completion; report its own peak RSS."""
        log = self.work / log_name
        timeout = max(1.0, self.time_left())
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    log.read_text(errors="replace"))

    def record(self, what: str, fn):
        """Count one attempted run; a Failure marks it failed."""
        self.attempted += 1
        try:
            return fn()
        except Failure as exc:
            self.failed += 1
            self.errors.append(f"{what}: {exc}")
            return None

    def setup(self) -> tuple[float, dict]:
        """Fresh process: import ethlab and, for warm workloads, fill the cache."""
        shutil.rmtree(self.out / "cache", ignore_errors=True)
        proc = self.run(["-c", SETUP_CODE, str(self.config), str(self.out / "cache"),
                         "fill" if self.workload.warm else "import"], "setup.log")
        if proc.code != 0:
            raise Failure(f"set-up exited {proc.code}: {proc.log[-400:]}")
        try:
            info = json.loads(proc.log.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise Failure(f"set-up printed no provenance: {proc.log[-400:]}") from None
        src = str((self.root / "src").resolve())
        if not info["ethlab_file"].startswith(src):
            raise Failure(f"imported ethlab from {info['ethlab_file']}, not {src}")
        return proc.wall_s, info

    def cli_args(self, threads: int) -> list[str]:
        return [
            "reproduce", self.workload.figure, "--config", str(self.config),
            "--out", str(self.out), "--threads", str(threads),
            "--cache", "forbid" if self.workload.warm else "recompute",
        ]

    def reproduce(self, threads: int, trace_file: Path | None = None):
        """One ``reproduce`` run; returns the process and its CSV digests."""
        manifest_path = self.out / f"{self.workload.figure}_manifest.json"
        for path in (manifest_path, *(self.out / name for name in self.workload.files)):
            path.unlink(missing_ok=True)
        if trace_file is None:
            args = ["-m", "ethlab.cli", *self.cli_args(threads)]
        else:
            args = [str(BENCH_DIR / "layers.py"), str(trace_file), "--",
                    *self.cli_args(threads)]
        proc = self.run(args, "reproduce.log")
        if proc.code != 0:
            raise Failure(f"exited {proc.code}: {proc.log[-400:]}")
        if not manifest_path.is_file():
            raise Failure(f"missing {manifest_path.name}")
        listed = set(json.loads(manifest_path.read_text())["files"])
        if listed != set(self.workload.files):
            raise Failure(f"manifest lists {sorted(listed)}")
        digests = {}
        for name in self.workload.files:
            path = self.out / name
            if not path.is_file():
                raise Failure(f"missing {name}")
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return proc, digests


SETUP_CODE = """
import ctypes, json, os, sys
mode = sys.argv[3]
import ethlab
if mode == "fill":
    config = ethlab.parse_config(sys.argv[1], force_kind="spin_chain")
    ethlab.build_system(config, cache_dir=sys.argv[2], policy="recompute")
import numpy, scipy
blas = {}
paths = set()
if os.path.exists("/proc/self/maps"):
    paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
for path in sorted(paths):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            if hasattr(lib, prefix + "_get_config" + suffix):
                config = getattr(lib, prefix + "_get_config" + suffix)
                config.restype = ctypes.c_char_p
                threads = getattr(lib, prefix + "_get_num_threads" + suffix)()
                blas[os.path.basename(path)] = {
                    "config": config().decode(), "threads": threads}
print(json.dumps({
    "ethlab_file": ethlab.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas,
    "kernel_backend": ethlab.backend(),
}))
"""


# -- output checks -----------------------------------------------------------


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def same_in_last_digit(got: str, want: str) -> bool:
    """True when two printed floats differ by less than one unit in the 8th
    significant digit, i.e. at most in the 9th and last printed digit."""
    a, b = float(got), float(want)
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    if not math.isfinite(scale) or scale == 0.0:
        return False
    return abs(a - b) < 10.0 ** (math.floor(math.log10(scale)) - 7)


def check_csv(name: str, schema: str, text: str, reference: str | None,
              columns) -> int:
    """Validate one CSV; return its binned sample count (0 for other schemas).

    Every value must be finite and squared quantities non-negative.  With a
    reference, the rows must match it: integers and labels exactly, floats
    up to the last printed digit, in the named ``columns`` only.
    """
    header, rows = read_csv(text)
    if ",".join(header) != SCHEMAS[schema]:
        raise Failure(f"{name}: header {','.join(header)!r}")
    if not rows:
        raise Failure(f"{name}: no rows")
    width = len(header)
    numeric = [i for i, col in enumerate(header) if col != "model"]
    non_negative = [i for i, col in enumerate(header)
                    if col in ("mean_sq", "count", "std_err", "variance", "abs_O")]
    samples = 0
    for lineno, row in enumerate(rows, 2):
        if len(row) != width:
            raise Failure(f"{name}:{lineno}: {len(row)} fields")
        if not all(math.isfinite(float(row[i])) for i in numeric):
            raise Failure(f"{name}:{lineno}: non-finite value")
        if any(float(row[i]) < 0 for i in non_negative):
            raise Failure(f"{name}:{lineno}: negative square or count")
        if schema == "binned":
            samples += int(row[header.index("count")])
    if reference is not None:
        _, ref_rows = read_csv(reference)
        if len(ref_rows) != len(rows):
            raise Failure(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
        idx = [header.index(col) for col in columns]
        for lineno, (row, ref) in enumerate(zip(rows, ref_rows), 2):
            for i in idx:
                got, want = row[i], ref[i]
                if header[i] in ("model", "count"):
                    ok = got == want
                else:
                    ok = same_in_last_digit(got, want)
                if not ok:
                    raise Failure(
                        f"{name}:{lineno}: {header[i]} = {got}, reference {want}"
                    )
    return samples


def check_outputs(session: Session) -> int:
    """Check the CSVs of the last run; return the binned sample count."""
    workload = session.workload
    at_reference = session.seed == REFERENCE_SEED
    samples = 0
    for name in workload.files:
        schema = schema_of(name)
        ref_path = REFERENCE_DIR / workload.figure / (name + ".xz")
        columns = SCHEMAS[schema].split(",") if at_reference else (
            () if workload.seeded_system else SEED_FREE[schema])
        reference = None
        if columns and ref_path.is_file():
            reference = lzma.decompress(ref_path.read_bytes()).decode()
        elif at_reference:
            raise Failure(f"no recorded reference {ref_path.name}")
        text = (session.out / name).read_text()
        samples += check_csv(name, schema, text, reference, columns)
    if samples <= 0:
        raise Failure("no binned samples")
    return samples


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class StateStore:
    """Values that must repeat exactly across invocations of the same source.

    CSV digests and exact trace counters are stored per (source digest,
    workload, seed) under ``.perfbench/state.json``; a later invocation at the
    same key must reproduce them, whatever its thread count.
    """

    def __init__(self, session: Session, source: str):
        self.path = session.state_dir / "state.json"
        self.prefix = f"{source}:{session.name}:{session.seed}"

    def check(self, kind: str, values: dict) -> None:
        try:
            state = json.loads(self.path.read_text())
        except (OSError, ValueError):
            state = {}
        key = f"{self.prefix}:{kind}"
        stored = state.get(key)
        if stored is not None:
            diff = sorted(k for k in set(stored) | set(values)
                          if stored.get(k) != values.get(k))
            if diff:
                raise Failure(f"{kind} differ from an earlier invocation: {diff}")
            return
        state[key] = values
        tmp = self.path.with_name(f"state.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# Per-layer metrics that count work; equal on every run at one seed.
EXACT = (
    "linalg.eig_sym_calls", "linalg.integrate_adaptive_calls",
    "io.cache_load_bytes", "io.cache_hits", "io.cache_misses",
    "io.cache_save_bytes", "io.emit_rows", "io.emit_bytes",
    "scrambling.coefficients_calls", "experiments.direct_gflop",
    "experiments.direct_useful_ratio", "experiments.grouped_windows",
    "experiments.direct_windows", "kernels.accumulate_grouped_calls",
    "kernels.samples", "ansatz.omega_points",
)


# -- the two modes -----------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(session: Session, store: StateStore, seconds: int):
    workload = session.workload
    setups, info = [], {}
    for _ in range(workload.setup_samples):
        result = session.record("set-up", session.setup)
        if result is not None:
            setups.append(result[0])
            info = result[1]
    walls, rss, rates = [], [], []
    first = None  # CSV digests and sample count of the first good run

    def timed():
        nonlocal first
        proc, digests = session.reproduce(workload.threads)
        if first is None:
            samples = check_outputs(session)
            store.check("csv_sha256", digests)
            first = (digests, samples)
        elif digests != first[0]:
            raise Failure("CSV bytes differ between repeated runs")
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        rates.append(first[1] / proc.wall_s)

    start = time.perf_counter()
    while True:
        run_start = time.perf_counter()
        session.record("reproduce", timed)
        now = time.perf_counter()
        last = now - run_start
        # Start another run only if one as long as the last still fits.
        if now - start + last > seconds or session.time_left() < 1.5 * last + 5.0:
            break
    metrics = {
        "wall_s": median(walls),
        "samples_per_s": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
    }
    counts = {"wall_s": len(walls), "samples_per_s": len(rates),
              "setup_s": len(setups), "peak_rss_mb": len(rss)}
    return metrics, counts, info


def per_layer(session: Session, store: StateStore):
    workload = session.workload
    result = session.record("set-up", session.setup)
    info = result[1] if result is not None else {}
    outputs = {}

    def untraced():
        proc, digests = session.reproduce(workload.threads)
        check_outputs(session)
        store.check("csv_sha256", digests)
        outputs["untraced"] = (proc, digests)

    def traced():
        trace_file = session.work / "trace.json"
        proc, digests = session.reproduce(workload.threads, trace_file)
        if digests != outputs.get("untraced", (None, digests))[1]:
            raise Failure("traced run wrote other CSV bytes than the untraced run")
        report = json.loads(trace_file.read_text())
        metrics = layers.layer_metrics(report)
        store.check("exact_counters", {k: v for k, v in metrics.items() if k in EXACT})
        outputs["traced"] = (proc, report, metrics)

    def one_thread():
        _, digests = session.reproduce(1)
        if digests != outputs["untraced"][1]:
            raise Failure(f"--threads 1 wrote other CSV bytes than "
                          f"--threads {workload.threads}")

    session.record("reproduce", untraced)
    session.record("reproduce traced", traced)
    if workload.thread_check and "untraced" in outputs:
        last = outputs["untraced"][0].wall_s
        if session.time_left() > 1.5 * last + 5.0:
            session.record("reproduce --threads 1", one_thread)
        else:
            print("thread-invariance run skipped: too little time left",
                  file=sys.stderr)
    metrics = {}
    if "traced" in outputs:
        proc, report, metrics = outputs["traced"]
        if report["missing"]:
            print(f"not traced (names not found): {report['missing']}",
                  file=sys.stderr)
        if "untraced" in outputs:
            metrics["trace.overhead_s"] = proc.wall_s - outputs["untraced"][0].wall_s
    return metrics, info


def provenance(session: Session, info: dict, source: str, seconds: int) -> dict:
    commit = None
    if (session.root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=session.root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    info = {k: v for k, v in info.items() if k != "ethlab_file"}
    return {
        **info,
        "nproc": os.cpu_count(),
        "ensemble_threads": session.workload.threads,
        "commit": commit,
        "source_sha256": source,
        "workload": session.name,
        "seed": session.seed,
        "system_seed": 7 + session.seed if session.workload.seeded_system else None,
        "reference_seed": REFERENCE_SEED,
        "seconds": seconds,
    }


def record_reference(root: Path, name: str) -> None:
    with Session(root, name, REFERENCE_SEED) as session:
        workload = session.workload
        session.setup()
        session.reproduce(1)
        target = REFERENCE_DIR / workload.figure
        target.mkdir(parents=True, exist_ok=True)
        for file_name in workload.files:
            data = (session.out / file_name).read_bytes()
            (target / (file_name + ".xz")).write_bytes(lzma.compress(data, preset=9))
            print(f"recorded {target / file_name}.xz")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "ethlab" / "cli.py").is_file():
        print("perfbench: run from the root of an ethlab checkout "
              "(src/ethlab/cli.py not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_reference:
        record_reference(root, args.workload)
        return 0

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = source_digest(root)
    with Session(root, args.workload, args.seed) as session:
        store = StateStore(session, source)
        if args.trace:
            values, info = per_layer(session, store)
            counts = {}
        else:
            values, counts, info = end_to_end(session, store, args.seconds)
        prov = provenance(session, info, source, args.seconds)

    for error in session.errors:
        print(f"FAILED {error}", file=sys.stderr)
    failed_frac = session.failed / max(session.attempted, 1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for metric in wanted:
        value = values.get(metric["name"], 0.0)
        n = counts.get(metric["name"])
        note = f"  (median of {n})" if n else ""
        print(f"  {metric['name']:40s} {value:14.6g} {metric['unit']}{note}")
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} "
          f"({session.failed} of {session.attempted} runs)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

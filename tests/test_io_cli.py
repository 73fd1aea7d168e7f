"""Config parsing, spectrum cache, dataset emission, CLI surface."""

import hashlib
import json
import math
import struct
import subprocess
import sys
import warnings
from collections import defaultdict
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest

from ethlab.ansatz import Prediction
from ethlab.errors import CacheMissError, ValidationError
from ethlab.hamiltonians import RandomSystemParams, sample_goe
from ethlab.io import (
    _cache_path,
    cached_spectrum,
    config_cache_key,
    default_config,
    emit_dataset,
    load_spectrum,
    parse_config,
    prediction_rows,
    resolve_out_dir,
    save_spectrum,
    write_manifest,
)
from ethlab.linalg import eig_sym


def run_cli(*argv, env=None, cwd=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ethlab.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
    )


TINY_CHAIN = """
[system]
kind = spin_chain
sites = 8
cut = 3

[ensemble]
count = 8
seed = 0
"""


# -- configuration ----------------------------------------------------------


def test_empty_config_gives_reference_defaults():
    config = parse_config(None, text="")
    assert config == default_config()
    assert config.system.sites == 12
    assert config.system.coupling == 1.0
    assert config.system.field_x == 1.05
    assert config.system.field_z == 0.5
    assert config.cut == 3
    assert config.ensemble.count == 250
    assert config.binning.ebar_halfwidth == 0.5
    assert config.binning.omega_bin_width is None


def test_config_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[system]\nsites = 10\ncut = 4\nfield_z = 0.3\n"
        "[ensemble]\ncount = 31\nseed = 9\n"
        "[binning]\nomega_bin_width = 0.02\n"
    )
    config = parse_config(path)
    assert config.system.sites == 10
    assert config.system.field_z == 0.3
    assert config.cut == 4
    assert config.ensemble.count == 31
    assert config.ensemble.seed == 9
    assert config.binning.omega_bin_width == 0.02
    assert config.with_seed(4).ensemble.seed == 4


def test_config_random_kind():
    config = parse_config(None, text="[system]\nkind = random\n")
    assert isinstance(config.system, RandomSystemParams)
    assert config.system.sites_a == 2
    assert config.system.sites_b == 9
    assert config.system.sites_i == 4
    assert config.system.interaction_fraction == 0.01
    assert config.system.seed == 7
    forced = parse_config(None, text="", force_kind="random")
    assert isinstance(forced.system, RandomSystemParams)


def test_config_validation_errors():
    with pytest.raises(ValidationError, match="sites"):
        parse_config(None, text="[system]\nsites = 20\n")
    with pytest.raises(ValidationError, match="omega_bin_width"):
        parse_config(None, text="[binning]\nomega_bin_width = -0.015\n")
    with pytest.raises(ValidationError, match="unknown config section"):
        parse_config(None, text="[nonsense]\nx = 1\n")
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(None, text="[system]\nspins = 12\n")
    with pytest.raises(ValidationError, match=r"unknown config section \[DEFAULT\]"):
        # Not a fallback: each section's own defaults would shadow its keys.
        parse_config(None, text="[DEFAULT]\nbogus = 3\nseed = 9\n")
    with pytest.raises(ValidationError, match="unknown key"):
        # Operators are always centred and scaled to unit mean square.
        parse_config(None, text="[ensemble]\nnormalize = true\n")
    with pytest.raises(ValidationError, match="not an integer"):
        parse_config(None, text="[system]\nsites = twelve\n")
    with pytest.raises(ValidationError, match="malformed config"):
        parse_config(None, text="sites = 12\n")  # key before any section
    with pytest.raises(ValidationError, match="cut"):
        parse_config(None, text="[system]\nsites = 8\ncut = 8\n")
    with pytest.raises(ValidationError, match="unknown key 'a_scale' in section"):
        parse_config(None, text="[system]\nkind = random\na_scale = 1\n")
    with pytest.raises(ValidationError, match="'exp_decay_flat_A' is listed more"):
        parse_config(
            None,
            text="[predict]\nkinds = exp_decay_flat_A, narrow_scrambling, "
            "exp_decay_flat_A\n",
        )
    with pytest.raises(
        ValidationError, match=r"predict.kinds: unknown ansatz kind 'nonsense' \(valid: "
    ):
        parse_config(None, text="[predict]\nkinds = exp_decay_flat_A, nonsense\n")
    # The parameter classes own the range of each number the reader parses.
    for text, field in (
        ("[system]\ncoupling = inf\n", "coupling"),
        ("[system]\nkind = random\ninteraction_fraction = nan\n", "interaction_fraction"),
        ("[system]\nkind = random\ninteraction_fraction = 0\n", "interaction_fraction"),
        ("[binning]\nebar_halfwidth = nan\n", "ebar_halfwidth"),
        ("[binning]\nomega_bin_width = 0\n", "omega_bin_width"),
    ):
        with pytest.raises(ValidationError, match=field):
            parse_config(None, text=text)
    for empty in ("", ","):
        # A list that names no kind is rejected, not read as auto.
        with pytest.raises(ValidationError, match="predict.kinds lists no kind"):
            parse_config(None, text=f"[predict]\nkinds = {empty}\n")
    with pytest.raises(ValidationError):
        parse_config("/no/such/file.ini")
    with pytest.raises(ValidationError, match="path or text"):
        parse_config(None)


def test_run_config_holds_one_system():
    # The family is the type of the one system field; a value of neither
    # family is rejected when the config is made, not deep in a build.
    from dataclasses import fields, replace

    from ethlab.io import RunConfig

    assert [f.name for f in fields(RunConfig)] == [
        "system", "cut", "ensemble", "binning", "predict_kinds"
    ]
    with pytest.raises(ValidationError, match="no family"):
        replace(default_config(), system=None)


def test_cache_keys_of_the_default_configs_are_pinned():
    # A key that changed would make every cache filled before it a miss.
    assert config_cache_key(default_config()) == (
        "spin_chain:12:0x1.0000000000000p+0:0x1.0cccccccccccdp+0:0x1.0000000000000p-1"
    )
    assert config_cache_key(parse_config(None, text="", force_kind="random")) == (
        "random:2:9:4:0x1.47ae147ae147bp-7:7"
    )


def test_run_config_owns_its_cut_and_kinds_rules():
    # A config made without the reader, as replace() makes one, meets the
    # same rules as a parsed one: the cut fits the family, and each kind is
    # known and listed once.
    from dataclasses import replace

    chain = default_config()
    rand = parse_config(None, text="[system]\nkind = random\n")
    for config, changes, message in (
        (chain, {"cut": 0}, r"system\.cut must be in 1\.\.11, got 0"),
        (chain, {"cut": 12}, r"system\.cut must be in 1\.\.11, got 12"),
        (rand, {"cut": 5}, r"system\.cut must be in 2\.\.2, got 5"),
        (rand, {"predict_kinds": ("exp_decay_flat_A",) * 2},
         "'exp_decay_flat_A' is listed more than once"),
        (chain, {"predict_kinds": ("nonsense",)}, "predict.kinds: unknown ansatz kind"),
    ):
        with pytest.raises(ValidationError, match=message):
            replace(config, **changes)
    assert replace(rand, predict_kinds=("exp_decay_flat_A",)).cut == 2


def test_cache_key_ignores_cut_and_tracks_parameters():
    from dataclasses import replace

    config = default_config()
    cut5 = replace(config, cut=5)
    # One total Hamiltonian serves every cut position.
    assert config_cache_key(config) == config_cache_key(cut5)
    stiff = replace(config, system=replace(config.system, coupling=1.5))
    assert config_cache_key(stiff) != config_cache_key(config)
    rand = parse_config(None, text="[system]\nkind = random\n")
    assert config_cache_key(rand) != config_cache_key(config)
    rand2 = parse_config(
        None, text="[system]\nkind = random\nsystem_seed = 8\n"
    )
    assert config_cache_key(rand2) != config_cache_key(rand)


# -- spectrum cache ----------------------------------------------------------


def _spectrum(dim=48, seed=21):
    return eig_sym(sample_goe(dim, np.random.default_rng(seed)))


def test_cache_roundtrip_is_bitwise(tmp_path):
    spec = _spectrum()
    save_spectrum(spec, "roundtrip-key", tmp_path)
    back = load_spectrum("roundtrip-key", tmp_path)
    assert spec.eigenvalues.tobytes() == back.eigenvalues.tobytes()
    assert spec.eigenvectors.tobytes() == back.eigenvectors.tobytes()


def test_cache_loads_eigenstate_major_views(tmp_path):
    # The payload holds one eigenvector after another: a load hands out the
    # eigenvectors as a transposed view of it, bitwise eig_sym's.
    spec = _spectrum()
    vals, vecs = np.linalg.eigh(sample_goe(48, np.random.default_rng(21)))
    save_spectrum(spec, "rows-key", tmp_path)
    back = load_spectrum("rows-key", tmp_path)
    assert back.eigenvectors.T.flags.c_contiguous
    assert np.array_equal(back.eigenvalues, vals)
    lead = np.argmax(np.abs(vecs), axis=0)
    assert np.array_equal(
        back.eigenvectors, vecs * np.sign(vecs[lead, np.arange(48)])
    )


def _write_v1(spec, key, cache_dir):
    # A cache file in format v1: magic ETHSPEC\x01 and the eigenvector
    # matrix stored column-major by eigenstate, i.e. as C-ordered columns.
    path = _cache_path(cache_dir, key)
    payload = (spec.eigenvalues, np.ascontiguousarray(spec.eigenvectors))
    header = (
        b"ETHSPEC\x01" + struct.pack("<I", len(key)) + key.encode()
        + struct.pack("<Q", spec.dim)
    )
    digest = hashlib.sha256()
    for array in payload:
        digest.update(array)
    path.write_bytes(header + b"".join(a.tobytes() for a in payload) + digest.digest())


def test_cache_v1_file_is_a_miss(tmp_path):
    spec = _spectrum()
    _write_v1(spec, "old-key", tmp_path)
    assert load_spectrum("old-key", tmp_path) is None
    with pytest.raises(CacheMissError):
        cached_spectrum("old-key", tmp_path, "forbid", lambda: spec)
    calls = []

    def compute():
        calls.append(1)
        return spec

    got = cached_spectrum("old-key", tmp_path, "use", compute)
    assert calls == [1]
    assert np.array_equal(got.eigenvectors, spec.eigenvectors)
    # The miss rewrote the entry in the current format.
    assert load_spectrum("old-key", tmp_path) is not None


def test_cache_detects_corruption(tmp_path):
    spec = _spectrum()
    path = save_spectrum(spec, "k", tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xFF  # flip one payload byte under the checksum
    path.write_bytes(bytes(blob))
    assert load_spectrum("k", tmp_path) is None


def test_cache_rejects_truncation_and_bad_magic(tmp_path):
    spec = _spectrum()
    path = save_spectrum(spec, "k", tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert load_spectrum("k", tmp_path) is None
    path.write_bytes(b"WRONGMAG" + blob[8:])
    assert load_spectrum("k", tmp_path) is None
    assert load_spectrum("never-written", tmp_path) is None


_SAVE_LOOP = """
import sys
import numpy as np
from ethlab.hamiltonians import sample_goe
from ethlab.io import save_spectrum
from ethlab.linalg import eig_sym

spec = eig_sym(sample_goe(16, np.random.default_rng(3)))
for _ in range(300):
    save_spectrum(spec, "shared-key", sys.argv[1])
"""


def test_cache_concurrent_writers_of_one_key(tmp_path):
    # Two processes racing on one key must both finish and leave a valid
    # entry behind (and no partial files).
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SAVE_LOOP, str(tmp_path)],
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    back = load_spectrum("shared-key", tmp_path)
    spec = eig_sym(sample_goe(16, np.random.default_rng(3)))
    assert back is not None
    assert np.array_equal(back.eigenvectors, spec.eigenvectors)
    assert [p.suffix for p in tmp_path.iterdir()] == [".eig"]


def test_cached_spectrum_policies(tmp_path):
    spec = _spectrum()
    calls = []

    def compute():
        calls.append(1)
        return spec

    with pytest.raises(CacheMissError):
        cached_spectrum("key", tmp_path, "forbid", compute)
    assert not calls
    got = cached_spectrum("key", tmp_path, "use", compute)
    assert len(calls) == 1
    again = cached_spectrum("key", tmp_path, "use", compute)
    assert len(calls) == 1  # served from cache
    assert np.array_equal(got.eigenvalues, again.eigenvalues)
    hit = cached_spectrum("key", tmp_path, "forbid", compute)
    assert len(calls) == 1
    assert np.array_equal(hit.eigenvalues, spec.eigenvalues)
    cached_spectrum("key", tmp_path, "recompute", compute)
    assert len(calls) == 2
    with pytest.raises(ValidationError):
        cached_spectrum("key", tmp_path, "maybe", compute)


def test_fig2_loads_one_spectrum_for_all_cuts(tmp_path, monkeypatch):
    # The cache key omits the cut, so the four cuts share one spectrum.
    import ethlab.figures

    config = parse_config(
        None, text="[system]\nkind = spin_chain\nsites = 8\n\n[ensemble]\ncount = 2\n"
    )
    calls = []
    real = ethlab.figures.cached_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ethlab.figures, "cached_spectrum", counted)
    with pytest.raises(CacheMissError):
        ethlab.figures.run_figure("fig2", config, tmp_path / "a", cache_policy="forbid")
    calls.clear()
    manifest = ethlab.figures.run_figure("fig2", config, tmp_path / "b")
    assert manifest["cuts"] == [1, 3, 5, 7]
    assert len(calls) == 1


TINY_RANDOM_CONFIG = "[system]\nkind = random\nsites_a = 2\nsites_b = 4\nsites_i = 2\n"


@pytest.mark.parametrize(
    "experiment, text",
    [
        ("fig1", TINY_RANDOM_CONFIG),
        ("fig2", TINY_RANDOM_CONFIG),
        ("fig3", TINY_RANDOM_CONFIG),
        ("spin_chain", TINY_RANDOM_CONFIG),
        ("appB", TINY_CHAIN),
        ("random", TINY_CHAIN),
    ],
)
def test_run_figure_rejects_the_other_family_before_any_build(
    tmp_path, monkeypatch, experiment, text
):
    import ethlab.figures

    def build(*args, **kwargs):
        raise AssertionError("built a system")

    monkeypatch.setattr(ethlab.figures, "build_system", build)
    monkeypatch.setattr(ethlab.figures, "decompose_chain", build)
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="family"):
        ethlab.figures.run_figure(experiment, parse_config(None, text=text), out)
    assert not out.exists()


def test_fig3_scans_the_configured_cut_and_counts_eigenstate_pairs(tmp_path):
    # A window's pairs times the ensemble's 8 operators is its summed count.
    # Each window records the engine it ran on and both engines' modelled
    # GFLOP, the model's own numbers for the window's band.
    import ethlab.figures
    from ethlab.experiments import _engine_costs, window_band

    config = parse_config(None, text=TINY_CHAIN)
    manifest = ethlab.figures.run_figure("fig3", config, tmp_path)
    assert manifest["cuts"] == [3]
    windows = manifest["systems"]["LA3"]["windows"]
    assert len(windows) == 3
    system = ethlab.figures.build_system(config, cache_dir=tmp_path / "cache")
    for window in windows:
        assert set(window) == {"center", "bins", "pairs", "engine",
                               "grouped_gflop", "direct_gflop"}
        assert window["engine"] in ("grouped", "direct")
        band = window_band(system, window["center"], config.binning)
        costs = _engine_costs(system, band, config.ensemble.count)
        assert window["engine"] == costs.engine
        assert window["grouped_gflop"] == costs.grouped_gflop > 0
        assert window["direct_gflop"] == costs.direct_gflop > 0
    on_disk = json.loads((tmp_path / "fig3_manifest.json").read_text())
    assert on_disk["systems"]["LA3"]["windows"] == windows
    # The CSV prints each window's center to 9 digits, windows in order.
    counts = defaultdict(int)
    for row in (tmp_path / "fig3_LA3_binned.csv").read_text().splitlines()[1:]:
        center, _, _, count, _ = row.split(",")
        counts[center] += int(count)
    assert len(counts) == 3
    for window, total in zip(windows, counts.values()):
        assert window["pairs"] > 0
        assert window["pairs"] * 8 == total


def test_cli_reproduce_fig1_reads_a_random_config_as_the_chain(tmp_path):
    import ethlab.cli

    cfg = tmp_path / "random.ini"
    cfg.write_text("[system]\nkind = random\nsites = 6\ncut = 2\n")
    out = tmp_path / "out"
    assert ethlab.cli.main(["reproduce", "fig1", "--config", str(cfg),
                            "--out", str(out)]) == 0
    system = json.loads((out / "fig1_manifest.json").read_text())["config"]["system"]
    assert system["kind"] == "spin_chain" and system["sites"] == 6


def test_every_cli_run_forces_its_experiments_family(tmp_path, monkeypatch):
    # Each compute subcommand and each reproduce target names one entry of
    # the experiment table, and the CLI reads either config as that entry's
    # family (or leaves the config's own family when the entry has none).
    import argparse

    import ethlab.cli
    from ethlab.figures import _EXPERIMENTS, FIGURES

    (subparsers,) = [a for a in ethlab.cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == {*ethlab.cli._COMPUTE, "localize", "reproduce"}
    runs = [([command], experiment) for command, experiment in ethlab.cli._COMPUTE.items()]
    runs += [(["reproduce", figure], figure) for figure in FIGURES]
    assert {experiment for _, experiment in runs} == set(_EXPERIMENTS)

    seen = []

    def record(experiment, config, out_dir, **kwargs):
        seen.append((experiment, config))
        return {"files": []}

    monkeypatch.setattr(ethlab.cli, "run_figure", record)
    for kind, text in (("spin_chain", TINY_CHAIN), ("random", TINY_RANDOM_CONFIG)):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(text)
        for argv, experiment in runs:
            seen.clear()
            assert ethlab.cli.main([*argv, "--config", str(cfg),
                                    "--out", str(tmp_path / "out")]) == 0
            ((ran, config),) = seen
            family = _EXPERIMENTS[experiment][3]
            assert ran == experiment
            assert ("random" if isinstance(config.system, RandomSystemParams)
                    else "spin_chain") == (family or kind)


# -- dataset emission ---------------------------------------------------------


def test_emit_binned_schema(tmp_path):
    path = emit_dataset(
        [(0.0, 0.0075, 0.123456789123, 42, 1.5e-7)],
        "binned",
        tmp_path / "b.csv",
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "Ebar_center,omega_mid,mean_sq,count,std_err"
    assert lines[1] == "0,0.0075,0.123456789,42,1.5e-07"


def test_emit_prediction_schema(tmp_path):
    pred = Prediction(
        kind="exp_decay_flat_A",
        ebar=0.0,
        omega=np.array([0.1]),
        f=np.array([0.25]),
        entropic_factor=0.5,
        variance=np.array([0.015625]),
    )
    path = emit_dataset(prediction_rows([pred]), "prediction", tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "model,Ebar,omega,f,entropic_factor,variance"
    assert lines[1] == "exp_decay_flat_A,0,0.1,0.25,0.5,0.015625"


def test_emit_coeffs_header_and_errors(tmp_path):
    path = emit_dataset([(-1.0, -0.5, 0.25)], "coeffs", tmp_path / "c.csv")
    assert path.read_text().splitlines()[0] == "E_alpha,E_sum_ij,abs_c"
    with pytest.raises(ValidationError, match="schema"):
        emit_dataset([], "unknown", tmp_path / "x.csv")
    with pytest.raises(ValidationError, match="columns"):
        emit_dataset([(1.0, 2.0)], "coeffs", tmp_path / "y.csv")


def test_write_manifest_sorted_json(tmp_path):
    path = write_manifest({"b": 2, "a": [1, 2]}, tmp_path / "m.json")
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1, 2], "b": 2}


def test_resolve_out_dir(monkeypatch):
    assert str(resolve_out_dir("given")) == "given"
    monkeypatch.setenv("ETHLAB_OUT", "/tmp/envdir")
    assert str(resolve_out_dir(None)) == "/tmp/envdir"
    monkeypatch.delenv("ETHLAB_OUT")
    assert str(resolve_out_dir(None)) == "ethlab-out"


# -- command-line surface ------------------------------------------------------


def test_cli_localize_pauli():
    proc = run_cli("localize", "--pauli", "zix")
    assert proc.returncode == 0
    assert "local_dim     = 2" in proc.stdout
    assert "total_dim     = 8" in proc.stdout


@pytest.mark.parametrize("letters", ["zyx", "", "  "])
def test_cli_localize_rejects_bad_letters(letters):
    # An unknown letter, or no letter at all, is a configuration error.
    proc = run_cli("localize", "--pauli", letters)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_cli_localize_takes_no_run_flags():
    # localize reads no config, seed, cache or plot setting: passing one is a
    # usage error, not a flag silently ignored.
    proc = run_cli(
        "localize", "--pauli", "zi", "--config", "/nonexistent.ini",
        "--cache", "forbid", "--seed", "3", "--plot",
    )
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_cli_localize_pauli_letters_within_the_guard(monkeypatch, capsys):
    # More letters than MAX_CHAIN_SITES exit 2 before any Kronecker product
    # (14 letters would build a 2 GiB matrix); MAX_CHAIN_SITES letters pass
    # the check and reach the first product.
    import ethlab.cli
    from ethlab.hamiltonians import MAX_CHAIN_SITES

    class Reached(Exception):
        pass

    def kron(*args):
        raise Reached

    monkeypatch.setattr(np, "kron", kron)
    assert ethlab.cli.main(["localize", "--pauli", "z" * (MAX_CHAIN_SITES + 1)]) == 2
    assert f"at most {MAX_CHAIN_SITES} letters" in capsys.readouterr().err
    with pytest.raises(Reached):
        ethlab.cli.main(["localize", "--pauli", "z" * MAX_CHAIN_SITES])


def test_cli_localize_rejects_a_matrix_above_the_guard(tmp_path, monkeypatch, capsys):
    # A matrix file above 2**MAX_CHAIN_SITES rows exits 2 before any
    # diagonalization.  The loaded matrix is a zero-stride view, so the test
    # holds no 2**13 x 2**13 array.
    import ethlab.cli
    from ethlab.hamiltonians import MAX_CHAIN_SITES

    def eig(*args, **kwargs):
        raise AssertionError("diagonalized a matrix above the guard")

    dim = 2**MAX_CHAIN_SITES + 1
    monkeypatch.setattr(np, "load", lambda path: np.broadcast_to(0.0, (dim, dim)))
    monkeypatch.setattr(ethlab.cli, "eig_sym", eig)
    path = tmp_path / "x.npy"
    path.write_bytes(b"")
    assert ethlab.cli.main(["localize", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert "dense-diagonalization guard" in err and str(dim) in err


def _npy_bytes(array) -> bytes:
    buffer = BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "name, content",
    [
        ("bad.csv", b"a,b\n1,2\n"),
        ("bad.npy", b"not an npy file\n"),
        ("empty.npy", b""),
        ("empty.csv", b""),
        ("nan.csv", b"nan,1\n1,0\n"),
        ("asym.csv", b"0,1\n0,0\n"),
        ("rect.csv", b"1,0,0\n0,1,0\n"),
        pytest.param("scalar.npy", _npy_bytes(np.float64(1.0)), id="scalar.npy"),
    ],
)
def test_cli_localize_rejects_malformed_matrix_file(tmp_path, name, content):
    # A non-numeric CSV cell, a .npy that numpy reads as pickled data, an
    # empty file, or a matrix that is not finite, symmetric and square is a
    # configuration error naming the file, not a traceback or a numpy
    # warning.
    path = tmp_path / name
    path.write_bytes(content)
    proc = run_cli("localize", "--matrix", str(path))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_cli_localize_rejects_a_complex_matrix(tmp_path, capsys):
    import ethlab.cli

    # kron(sigma_y, 1) has classes +-1, each twice; dropping its imaginary
    # part would report one class 0 (x4).  A complex dtype with a zero
    # imaginary part (here kron(sigma_x, 1)) is a real operator.
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    path = tmp_path / "sy.npy"
    np.save(path, np.kron(sigma_y, np.eye(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ethlab.cli.main(["localize", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "imaginary" in err
    np.save(path, np.kron(np.abs(sigma_y), np.eye(2)).astype(complex))
    assert ethlab.cli.main(["localize", "--matrix", str(path)]) == 0
    out = capsys.readouterr().out
    assert "local_dim     = 2" in out
    assert "classes       = -1 (x2), 1 (x2)" in out


def test_cli_localize_diagonalizes_once(tmp_path, monkeypatch):
    # The report and the manifest's local block both come from one eig_sym.
    import ethlab.cli
    import ethlab.localize
    from ethlab.hamiltonians import pauli
    from ethlab.localize import localizing_basis

    shapes = []
    real = ethlab.cli.eig_sym

    def counting(matrix, **kwargs):
        shapes.append(np.shape(matrix))
        return real(matrix, **kwargs)

    monkeypatch.setattr(ethlab.cli, "eig_sym", counting)
    monkeypatch.setattr(ethlab.localize, "eig_sym", counting)
    letters = "zxizxizxi"
    assert ethlab.cli.main(["localize", "--pauli", letters, "--out", str(tmp_path)]) == 0
    assert shapes == [(512, 512)]
    manifest = json.loads((tmp_path / "localize_manifest.json").read_text())
    op = np.array([[1.0]])
    for letter in letters:
        op = np.kron(op, pauli(letter))
    _, block = localizing_basis(op)
    assert manifest["local_block_diag"] == np.diag(block).tolist()


def _sector_dims(*sites):
    # The eig_sym calls of the sector solves of chains of these lengths, in
    # order: each chain's even bit-reversal sector, then its odd one (a
    # chain of one site has no odd sector).
    dims = []
    for n in sites:
        mirror = 2 ** ((n + 1) // 2)  # palindromes, all in the even sector
        dims += [d for d in ((2**n + mirror) // 2, (2**n - mirror) // 2) if d]
    return dims


def test_cli_chain_build_diagonalizes_fragments_before_the_total(tmp_path, monkeypatch):
    # A chain build solves both fragments (3 and 5 sites at cut 3) before
    # it reads the total spectrum from the cache, so a fragment's solve
    # never runs beside the loaded eigenvectors.  Each is a sector solve,
    # one eig_sym per bit-reversal sector; a cold build then runs the
    # total's, the even (136 states at 8 sites) before the odd (120).  A
    # forbidden miss still exits 4 before any dataset is written.
    import ethlab.cli
    import ethlab.hamiltonians
    import ethlab.io

    events = []
    real_eig, real_load = ethlab.hamiltonians.eig_sym, ethlab.io.load_spectrum

    def eig(matrix, **kwargs):
        events.append(("eig", np.shape(matrix)[0]))
        return real_eig(matrix, **kwargs)

    def load(*args):
        hit = real_load(*args)
        events.append(("load", hit is not None))
        return hit

    monkeypatch.setattr(ethlab.hamiltonians, "eig_sym", eig)
    monkeypatch.setattr(ethlab.io, "load_spectrum", load)
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    out = tmp_path / "out"

    def run(policy):
        events.clear()
        argv = ["spin-chain", "--config", str(cfg), "--out", str(out), "--cache", policy]
        return ethlab.cli.main(argv)

    fragments = [("eig", d) for d in _sector_dims(3, 5)]
    assert fragments == [("eig", 6), ("eig", 2), ("eig", 20), ("eig", 12)]
    assert run("forbid") == 4
    assert events == [*fragments, ("load", False)]
    assert not list(out.glob("*.csv"))
    assert run("use") == 0
    assert events == [*fragments, ("load", False), ("eig", 136), ("eig", 120)]
    assert run("use") == 0
    assert events == [*fragments, ("load", True)]


def test_fragment_eigenvectors_are_solved_only_where_read(tmp_path, monkeypatch):
    # Warm runs that read the subsystem spectra only through their levels
    # solve each chain fragment once, for those levels, and keep no
    # subsystem eigenvectors (the random family solves nothing); the
    # coefficient runs solve each fragment a second time, on the first
    # read of its eigenvectors.
    import ethlab.hamiltonians
    from ethlab.cli import main

    eig_dims, systems = [], []
    real_eig = ethlab.hamiltonians.eig_sym
    real_system = ethlab.hamiltonians.BipartiteSystem

    def eig(matrix, **kwargs):
        eig_dims.append(np.shape(matrix)[0])
        return real_eig(matrix, **kwargs)

    def system(**kwargs):
        systems.append(real_system(**kwargs))
        return systems[-1]

    monkeypatch.setattr(ethlab.hamiltonians, "eig_sym", eig)
    monkeypatch.setattr(ethlab.hamiltonians, "BipartiteSystem", system)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nsites = 8\nsites_b = 6\n\n[ensemble]\ncount = 2\n")
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    for argv in (["predict"], ["reproduce", "appB"]):
        assert main([*argv, *common]) == 0, argv  # fills the cache
    fig2 = [n for cut in (1, 3, 5, 7) for n in (cut, 8 - cut)]
    runs = ((["reproduce", "fig2"], fig2), (["reproduce", "fig3"], [3, 5]),
            (["spin-chain"], [3, 5]), (["predict"], [3, 5]), (["reproduce", "appB"], []))
    for argv, fragments in runs:
        eig_dims.clear()
        systems.clear()
        assert main([*argv, *common]) == 0, argv
        assert eig_dims == _sector_dims(*fragments), argv
        assert len(systems) == (4 if argv[-1] == "fig2" else 1), argv
        assert all(s.spectrum_a._vectors is None and s.spectrum_b._vectors is None
                   for s in systems), argv
    for argv in (["coeffs"], ["reproduce", "fig1"]):
        eig_dims.clear()
        systems.clear()
        assert main([*argv, *common]) == 0, argv
        assert eig_dims == _sector_dims(3, 5, 3, 5), argv
        [built] = systems
        assert (built.spectrum_a._vectors.shape[0],
                built.spectrum_b._vectors.shape[0]) == (8, 32)


def test_no_run_builds_the_dense_chain(tmp_path, monkeypatch):
    # Every chain spectrum, fragments and total, is a sector solve: with
    # build_spin_chain raising, a cold fig3 and warm fig2, fig3 and fig1
    # still succeed.
    import ethlab.hamiltonians
    from ethlab.cli import main

    def build(params):
        raise AssertionError("built the dense chain")

    monkeypatch.setattr(ethlab.hamiltonians, "build_spin_chain", build)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nsites = 8\n\n[ensemble]\ncount = 2\n")
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    for figure, policy in (("fig3", "use"), ("fig2", "forbid"), ("fig3", "forbid"),
                           ("fig1", "forbid")):
        assert main(["reproduce", figure, "--cache", policy, *common]) == 0, figure


@pytest.mark.parametrize("command", ["spin-chain", "predict"])
def test_cli_one_site_chain_has_no_cut(tmp_path, command, capsys):
    from ethlab.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nsites = 1\ncut = 1\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: system.sites: a 1-site chain has no cut" in err


# With no fields a 1-site A fragment is H_A = 0: one level, twice over.
ONE_LEVEL_A = """
[system]
sites = 6
cut = 1
field_x = 0
field_z = 0

[ensemble]
count = 4

[binning]
omega_bin_width = 0.5
"""


@pytest.mark.parametrize(
    "command, experiment, kinds",
    [("spin-chain", "spin_chain", None), ("predict", "predict", None),
     ("spin-chain", "spin_chain", "narrow_scrambling")],
    ids=["spin-chain-spin_chain", "predict-predict", "spin-chain-narrow_scrambling"],
)
def test_one_level_a_spectrum_is_a_zero_width_error(tmp_path, command, experiment,
                                                   kinds, capsys):
    # sigma_a, the A spectral range, is zero: both commands name the A
    # spectrum with exit 3, and blame neither an omega_max nor a sigma_a
    # the user never set.  The narrow kind reads the A density instead of
    # sigma_a, and its error names the A spectrum too.
    import ethlab.figures
    from ethlab.cli import main
    from ethlab.errors import ZeroWidthSpectrumError

    cfg = tmp_path / "run.ini"
    predict = "" if kinds is None else f"\n[predict]\nkinds = {kinds}\n"
    cfg.write_text(ONE_LEVEL_A + predict)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "compute error: the A spectrum has zero width: its 2 levels are equal" in err
    assert "omega_max" not in err and "sigma_a" not in err
    with pytest.raises(ZeroWidthSpectrumError, match="the A spectrum"):
        ethlab.figures.run_figure(experiment, parse_config(cfg), out)
    assert not list(out.glob("*.csv"))


NEGATIVE_SYSTEM_SEED = """
[system]
kind = random
sites_a = 2
sites_b = 4
sites_i = 2
system_seed = -3
"""
NO_INTERACTION = TINY_RANDOM_CONFIG + "interaction_fraction = 0\n"
TINY_WIDTH = TINY_CHAIN + "\n[binning]\nomega_bin_width = 0.1\n"


@pytest.mark.parametrize(
    "argv, config",
    [
        (("spin-chain", "--seed", "-1"), TINY_CHAIN),
        (("spin-chain",), TINY_CHAIN.replace("seed = 0", "seed = -1")),
        (("random-system",), NEGATIVE_SYSTEM_SEED),
        # No interaction leaves a roundoff sigma_S that no rung can integrate.
        (("random-system",), NO_INTERACTION),
        (("predict",), NO_INTERACTION),
        (("reproduce", "appB"), NO_INTERACTION),
        (("predict", "--omega-max", "0"), TINY_WIDTH),
        (("predict", "--omega-max", "-1"), TINY_WIDTH),
        (("predict", "--omega-max", "0.05"), TINY_WIDTH),
        (("predict", "--omega-max", "nan"), TINY_WIDTH),
        # Checked before the system is asked for: no cache, and forbidden.
        (("predict", "--omega-max", "0", "--cache", "forbid"), TINY_WIDTH),
        (("predict", "--omega-max", "nan", "--cache", "forbid"), TINY_WIDTH),
        (("spin-chain",), TINY_CHAIN + "[binning]\nomega_bin_width = nan\n"),
        (("spin-chain",), TINY_CHAIN + "[binning]\nomega_bin_width = inf\n"),
        (("spin-chain",), TINY_CHAIN + "[binning]\nebar_halfwidth = nan\n"),
        (("spin-chain",), TINY_CHAIN + "[binning]\nebar_halfwidth = inf\n"),
        (("spin-chain", "--ebar", "nan"), TINY_CHAIN),
        (("predict", "--ebar", "nan"), TINY_CHAIN),
        # More omega points than the 256**2 eigenvector entries.
        (("predict",), TINY_CHAIN + "[binning]\nomega_bin_width = 1e-12\n"),
        (("predict", "--omega-max", "1e13"), TINY_CHAIN),
    ],
    ids=["seed-flag", "seed-key", "system-seed", "no-interaction-random",
         "no-interaction-predict", "no-interaction-appB", "omega-max-0",
         "omega-max-neg", "omega-max-half-bin", "omega-max-nan", "omega-max-0-forbid",
         "omega-max-nan-forbid", "bin-width-nan", "bin-width-inf", "halfwidth-nan",
         "halfwidth-inf", "spin-chain-ebar-nan", "predict-ebar-nan",
         "predict-bin-width-tiny", "predict-omega-max-huge"],
)
def test_cli_rejects_bad_numeric_inputs(tmp_path, argv, config):
    # A negative seed, a random system with no interaction, an omega_max
    # that leaves an empty or undefined grid (0.05 is half the 0.1 bin
    # width), or a number that is not finite (NaN passes a "<= 0" test) is a
    # configuration error.
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(out.glob("*.csv"))


def test_cli_random_microcanonical_scan_drops_empty_windows(tmp_path):
    # On the default random system two bins of the window at 0 have an
    # empty noninteracting window (omega >= 32.19); they are dropped instead
    # of failing the scan.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[predict]\nkinds = microcanonical_exact_sums\n")
    out = tmp_path / "out"
    proc = run_cli("random-system", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    binned = (out / "run_binned.csv").read_text().splitlines()[1:]
    rows = (out / "run_predict.csv").read_text().splitlines()[1:]
    assert len(binned) == 1172
    assert len(rows) == 1170
    assert all(r.startswith("microcanonical_exact_sums,") for r in rows)


def test_cli_predict_drops_underflowing_smooth_windows(tmp_path):
    # Far outside the spectrum the two exponential normalizations of the
    # smooth exact sums can each be positive while their product underflows
    # to zero; the scan drops those omegas instead of dividing by zero.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nkind = random\nsites_a = 2\nsites_b = 6\nsites_i = 2\n")
    out = tmp_path / "out"
    proc = run_cli(
        "predict", "--omega-max", "40", "--config", str(cfg), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / "predict.csv").read_text().splitlines()
    header = rows[0].split(",")
    models = defaultdict(int)
    for row in rows[1:]:
        record = dict(zip(header, row.split(",")))
        models[record["model"]] += 1
        for key in ("f", "variance", "entropic_factor"):
            assert math.isfinite(float(record[key])), row
    assert models["smooth_general_sums"] < models["exp_decay_flat_A"]


def test_cli_predict_fails_when_a_kind_keeps_no_omega(tmp_path):
    # At Ebar = 1000, far above the 8-site chain's spectrum, the smooth exact
    # sums drop every omega: a compute error naming the kind and Ebar, and
    # no header-only CSV.
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_CHAIN + "[predict]\nkinds = smooth_general_sums\n")
    out = tmp_path / "out"
    proc = run_cli("predict", "--ebar", "1000", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "smooth_general_sums" in proc.stderr and "Ebar=1000" in proc.stderr
    assert not (out / "predict.csv").exists()


def test_cli_scan_rejects_window_centers_that_collide(tmp_path, capsys):
    # A center given twice would repeat its window's rows; under --plot two
    # centers with one 4-digit name would write one plot over the other.
    # Both exit 2 before the build, naming the centers, and write no dataset.
    import ethlab.cli
    import ethlab.figures

    def build(*args, **kwargs):
        raise AssertionError("built the system")

    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ethlab.figures, "build_system", build)
        assert ethlab.cli.main(["spin-chain", "--ebar", "0", "--ebar", "0", *common]) == 2
        assert "window center 0.0 is given twice" in capsys.readouterr().err
        argv = ["spin-chain", "--ebar", "1.00001", "--ebar", "1.00002", *common]
        assert ethlab.cli.main([*argv, "--plot"]) == 2
        err = capsys.readouterr().err
        assert "1.00001 and 1.00002" in err and "run_E1.svg" in err
    assert not list(out.glob("*.csv"))
    # Without --plot the two windows have rows of their own.
    assert ethlab.cli.main(argv) == 0
    centers = {line.split(",")[0]
               for line in (out / "run_binned.csv").read_text().splitlines()[1:]}
    assert centers == {"1.00001", "1.00002"}


def test_cli_scan_reads_minus_zero_as_the_window_at_zero(tmp_path):
    # -0 and 0 name one window: the same rows, byte for byte, and the same
    # plot name.
    import ethlab.cli

    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    written = {}
    for ebar in ("0", "-0"):
        out = tmp_path / f"out{ebar}"
        argv = ["spin-chain", "--ebar", ebar, "--plot", "--config", str(cfg)]
        assert ethlab.cli.main([*argv, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.svg")) == ["run_E0.svg"]
        written[ebar] = [(out / name).read_bytes()
                         for name in ("run_binned.csv", "run_predict.csv")]
    assert written["-0"] == written["0"]


def test_too_many_bins_is_one_error_for_scans_and_predict(tmp_path):
    # A scan's band and predict's grid count their bins by one rule, so a
    # bin width too fine for the 8-site chain is one message on both paths.
    from dataclasses import replace

    import ethlab.figures
    from ethlab.experiments import BinningParams

    config = parse_config(None, text=TINY_CHAIN)
    config = replace(config, binning=BinningParams(omega_bin_width=1e-12))
    message = (r"^binning\.omega_bin_width = 1e-12 gives \S+ omega bins, more than "
               r"the 65536 entries of the eigenvector matrix$")
    for experiment in ("spin_chain", "predict"):
        with pytest.raises(ValidationError, match=message):
            ethlab.figures.run_figure(experiment, config, tmp_path)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\nspins = 12\n")
    proc = run_cli(
        "spin-chain", "--config", str(bad), "--out", str(tmp_path / "out")
    )
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr



def test_cli_unusable_out_dir_is_a_config_error(tmp_path):
    # A file standing where the output directory, or its cache directory,
    # must go exits 2 with a message that names the path, not a traceback.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    (out / "cache").write_text("")
    for target, named in ((blocker / "out", blocker / "out"), (out, out / "cache")):
        proc = run_cli("spin-chain", "--config", str(cfg), "--out", str(target))
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert str(named) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_unusable_cache_dir_fails_before_the_solve(tmp_path, monkeypatch):
    # A file standing where the cache directory must go exits 2 before the
    # total spectrum is computed, under both policies that compute: only
    # the fragments' sector solves (3 and 5 sites at cut 3) have run.
    import ethlab.cli
    import ethlab.hamiltonians

    calls = []
    real = ethlab.hamiltonians.eig_sym

    def eig(matrix, **kwargs):
        calls.append(np.shape(matrix)[0])
        return real(matrix, **kwargs)

    monkeypatch.setattr(ethlab.hamiltonians, "eig_sym", eig)
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    out = tmp_path / "out"
    out.mkdir()
    (out / "cache").write_text("")
    for policy in ("use", "recompute"):
        calls.clear()
        argv = ["spin-chain", "--config", str(cfg), "--out", str(out), "--cache", policy]
        assert ethlab.cli.main(argv) == 2, policy
        assert calls == _sector_dims(3, 5), policy


def test_cli_tiny_bin_width_is_a_config_error(tmp_path):
    # A bin width that would need more omega bins than the eigenvector
    # matrix has entries exits 2 with a message, not a numpy traceback.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN + "\n[binning]\nomega_bin_width = 1e-12\n")
    proc = run_cli(
        "spin-chain", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "binning.omega_bin_width" in proc.stderr
    assert "Traceback" not in proc.stderr

def test_cli_cache_forbid_exit_code(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    proc = run_cli(
        "spin-chain",
        "--config", str(cfg),
        "--out", str(tmp_path / "out"),
        "--cache", "forbid",
    )
    assert proc.returncode == 4
    assert "cache policy failure" in proc.stderr


def test_cli_compute_error_exit_code(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    proc = run_cli(
        "predict",
        "--config", str(cfg),
        "--out", str(tmp_path / "out"),
        "--ebar", "1000.0",
    )
    assert proc.returncode == 3
    assert "compute error" in proc.stderr


def test_cli_spin_chain_outputs(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    out = tmp_path / "out"
    proc = run_cli("spin-chain", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "sigma_S" in proc.stdout
    binned = out / "run_binned.csv"
    assert binned.is_file()
    header = binned.read_text().splitlines()[0]
    assert header == "Ebar_center,omega_mid,mean_sq,count,std_err"
    assert (out / "run_predict.csv").is_file()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["system"]["sites"] == 8
    assert (out / "cache").is_dir()


TINY_RANDOM = """
[system]
kind = random
sites_a = 2
sites_b = 4
sites_i = 2

[ensemble]
count = 4
seed = 0
"""


@pytest.mark.parametrize(
    "argv, config, stem, plot",
    [
        (("spin-chain",), TINY_CHAIN, "run", "run_E0.svg"),
        (("random-system",), TINY_RANDOM, "run", "run_E0.svg"),
        (("coeffs",), TINY_CHAIN, "coeffs", "coeffs.svg"),
        (("predict",), TINY_CHAIN, "predict", "predict.svg"),
        (("reproduce", "fig1"), TINY_CHAIN, "fig1", "fig1_coeffs.svg"),
    ],
    ids=["spin-chain", "random-system", "coeffs", "predict", "reproduce-fig1"],
)
def test_cli_compute_subcommand_manifest_lists_its_files(
    tmp_path, argv, config, stem, plot
):
    # The manifest's `files` is the contract readers use to find the datasets;
    # --plot writes each subcommand's plot beside them.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", str(cfg), "--out", str(out), "--plot")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / f"{stem}_manifest.json").read_text())
    assert "experiment" in manifest
    assert "config" in manifest
    assert manifest["peak_rss_mb"] > 0
    written = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".svg"))
    assert plot in written
    assert manifest["files"] == written


def test_cli_reproduce_thread_determinism(tmp_path):
    # Two fresh runs write the same bytes; the BLAS thread count is held
    # fixed here and varied in test_reproduce_across_blas_thread_counts.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_cli("reproduce", "fig1", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "fig1_coeffs.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_manifest_records_what_sets_the_parallelism(tmp_path):
    # --threads is ignored; the manifest names the BLAS build, the cores and
    # the BLAS thread variables that are set.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    out = tmp_path / "out"
    proc = run_cli("spin-chain", "--config", str(cfg), "--out", str(out),
                   "--threads", "3", env={"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    prov = json.loads((out / "run_manifest.json").read_text())["provenance"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert prov["numpy"] == np.__version__
    assert prov["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert isinstance(prov["cpu_count"], int) and prov["cpu_count"] >= 1
    assert prov["OPENBLAS_NUM_THREADS"] == "1"


def test_cli_env_output_dir(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[system]\nkind = spin_chain\nsites = 6\ncut = 2\n"
        "[ensemble]\ncount = 4\nseed = 0\n"
    )
    out = tmp_path / "from-env"
    proc = run_cli(
        "coeffs", "--config", str(cfg), env={"ETHLAB_OUT": str(out)}
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "coeffs.csv").is_file()
    assert (out / "coeffs_manifest.json").is_file()


def test_cli_seed_override_changes_dataset(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CHAIN)
    blobs = []
    for seed, name in ((0, "s0"), (5, "s5")):
        out = tmp_path / name
        proc = run_cli(
            "spin-chain",
            "--config", str(cfg),
            "--out", str(out),
            "--seed", str(seed),
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "run_binned.csv").read_bytes())
    assert blobs[0] != blobs[1]


def test_runtime_dependency_is_numpy():
    import re
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
             for dep in project["dependencies"]}
    assert names == {"numpy"}
    # np.trapezoid (every density integral) arrived in numpy 2.0.
    (numpy,) = project["dependencies"]
    floor = re.search(r">=\s*(\d+)\.(\d+)", numpy)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0), numpy


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ethlab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scans_and_predict_never_build_the_coefficient_tensor(tmp_path, monkeypatch):
    # sigma_S comes from <alpha|H_I^2|alpha>; only fig1/coeffs need the
    # overlap tensor, for their coefficient datasets.
    import ethlab.figures
    from ethlab.cli import main

    calls = []
    real = ethlab.figures.compute_coefficients

    def spy(system, states=None):
        calls.append(system.total_dim)
        assert states is not None and states.size == 7
        return real(system, states)

    monkeypatch.setattr(ethlab.figures, "compute_coefficients", spy)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nsites = 8\nsites_b = 6\n\n[ensemble]\ncount = 2\n")
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    for argv in (["reproduce", "fig2"], ["reproduce", "fig3"],
                 ["reproduce", "appB"], ["predict"]):
        assert main([*argv, *common]) == 0, argv
    assert calls == []
    assert main(["coeffs", *common]) == 0
    assert calls == [256]


def test_every_public_name_resolves():
    import importlib

    modules = [importlib.import_module("ethlab")] + [
        importlib.import_module(f"ethlab.{name}")
        for name in ("ansatz", "cli", "experiments", "figures", "hamiltonians",
                     "io", "linalg", "localize", "scrambling")
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


# -- printed output of the ladder and across BLAS thread counts ---------------

DATA = Path(__file__).resolve().parent / "data"

ALL_KINDS = """
[system]
kind = spin_chain
sites = 8
cut = 3

[binning]
omega_bin_width = 0.1

[predict]
kinds = microcanonical_exact_sums, narrow_scrambling, small_A_narrow,
    flat_A_narrow, smooth_general_sums, smooth_small_A, exp_decay_flat_A,
    mc_finite_width_flat_A
"""


def _read_rows(text):
    header, *rows = (line.split(",") for line in text.splitlines())
    return header, rows


def _same_in_last_digit(a, b):
    # Less than one unit apart in the 8th significant digit of the larger.
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) < 10.0 ** (math.floor(math.log10(scale)) - 7)


def test_predict_all_kinds_matches_recorded_output(tmp_path):
    """``ethlab predict`` prints every rung of the ladder as recorded.

    The record is ``tests/data/predict_8site_cut3_all_kinds.csv``: all eight
    kinds on the 8-site chain at cut 3, 0.1-wide bins, seed 0.  Labels and
    the row count must match exactly, and every float to within one unit of
    its 8th significant digit.  To re-record it on purpose, run ``ethlab
    predict --config RUN.ini --out DIR`` with ``ALL_KINDS`` as ``RUN.ini``
    and copy ``DIR/predict.csv`` over the record; CHANGES.md must then state
    the largest relative change of each column.
    """
    cfg = tmp_path / "run.ini"
    cfg.write_text(ALL_KINDS)
    out = tmp_path / "out"
    proc = run_cli("predict", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, rows = _read_rows((out / "predict.csv").read_text())
    want_header, want = _read_rows(
        (DATA / "predict_8site_cut3_all_kinds.csv").read_text()
    )
    assert header == want_header
    assert len(rows) == len(want)
    label = header.index("model")
    moved = [
        (n, header[j], row[j], ref[j])
        for n, (row, ref) in enumerate(zip(rows, want), 2)
        for j in range(len(header))
        if j != label and not _same_in_last_digit(float(row[j]), float(ref[j]))
    ]
    assert [row[label] for row in rows] == [ref[label] for ref in want]
    assert moved == []


def _close_across_threads(text_a, text_b, window):
    # Cells of two CSVs that differ by more than 1e-8 relative plus 1e-12 of
    # the column's peak within its window (rows sharing the `window` labels);
    # labels and counts must match exactly.
    header, rows_a = _read_rows(text_a)
    header_b, rows_b = _read_rows(text_b)
    assert header == header_b and len(rows_a) == len(rows_b)
    exact = [j for j, col in enumerate(header) if col in ("model", "count")]
    floats = [j for j in range(len(header)) if j not in exact]
    keys = [tuple(row[header.index(c)] for c in window) for row in rows_a]
    peak = defaultdict(float)
    for key, ra, rb in zip(keys, rows_a, rows_b):
        for j in floats:
            peak[key, j] = max(peak[key, j], abs(float(ra[j])), abs(float(rb[j])))
    bad = []
    for n, (key, ra, rb) in enumerate(zip(keys, rows_a, rows_b), 2):
        assert [ra[j] for j in exact] == [rb[j] for j in exact], n
        for j in floats:
            a, b = float(ra[j]), float(rb[j])
            if abs(a - b) > 1e-8 * max(abs(a), abs(b)) + 1e-12 * peak[key, j]:
                bad.append((n, header[j], ra[j], rb[j]))
    return bad


def test_reproduce_across_blas_thread_counts(tmp_path):
    # The BLAS library's threads are the only parallelism.  At one thread
    # count a rerun writes the same bytes; across counts the last bits may
    # move, bounded by 1e-8 relative plus 1e-12 of the column's peak within
    # its mean-energy window.  Each run here has its own cache, so it
    # diagonalizes cold, and the difference enters through eigh, not through
    # the ensemble's summation order: warm runs that share one cache write
    # the same bytes at 1 and 2 threads.  With OpenBLAS the 10-site binned
    # CSV differs between 1 and 2 threads (75 mean_sq cells, all under
    # 1e-18 of the window peak), so the bound is exercised, not vacuous.
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[system]\nkind = spin_chain\nsites = 10\ncut = 3\n"
        "[ensemble]\ncount = 8\n"
    )
    files = ("fig3_LA3_binned.csv", "fig3_LA3_predict.csv")
    texts = {}
    for threads in ("1", "2"):
        runs = []
        for repeat in range(2):
            out = tmp_path / f"t{threads}-{repeat}"
            proc = run_cli(
                "reproduce", "fig3", "--config", str(cfg), "--out", str(out),
                env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            runs.append([(out / name).read_bytes() for name in files])
        assert runs[0] == runs[1], f"reruns at {threads} BLAS threads differ"
        texts[threads] = [blob.decode() for blob in runs[0]]
    binned = _close_across_threads(texts["1"][0], texts["2"][0], ["Ebar_center"])
    predict = _close_across_threads(texts["1"][1], texts["2"][1], ["model", "Ebar"])
    assert binned == []
    assert predict == []

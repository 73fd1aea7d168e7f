"""Configuration, eigendecomposition cache, and dataset emission.

Config files are INI-style with sections [system], [ensemble], [binning] and
[predict]; unknown sections or keys are errors so typos fail loudly before
any heavy compute, and so are the values the parameter classes reject.  The
cache stores eigendecompositions in a small binary format (versioned magic,
key echo, little-endian float64 payload, SHA-256 checksum); anything that
fails validation is treated as absent.
Format v2 stores the eigenvectors eigenstate-major (one eigenvector after
another, as ``Spectrum.rows``), so a load hands them out without a copy; a
v1 file (eigenvector columns) fails the magic check and reads as a miss.
Datasets are CSV with fixed headers and 9-significant-digit floats, plus a
JSON manifest per run.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import struct
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ansatz import Prediction, _ansatz_kind
from .errors import CacheMissError, ValidationError
from .experiments import BinnedStatistics, BinningParams, OperatorEnsembleSpec
from .hamiltonians import RandomSystemParams, SpinChainParams
from .linalg import Spectrum

__all__ = [
    "RunConfig",
    "parse_config",
    "default_config",
    "config_cache_key",
    "save_spectrum",
    "load_spectrum",
    "cached_spectrum",
    "emit_dataset",
    "write_manifest",
    "write_svg",
    "resolve_out_dir",
]

# Output directory fallback when --out is not given; documented in README.
OUT_DIR_ENV = "ETHLAB_OUT"

_CACHE_MAGIC = b"ETHSPEC\x02"


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one run.

    ``system`` is the system, and its type is the family.  ``cut`` is the
    number of sites in the A factor: the chain's cut in ``1..sites-1``, or a
    random system's ``sites_a``.  ``predict_kinds`` are the ansatz variants
    evaluated alongside measured curves, each named once.
    """

    system: SpinChainParams | RandomSystemParams
    cut: int
    ensemble: OperatorEnsembleSpec
    binning: BinningParams
    predict_kinds: tuple[str, ...]

    def __post_init__(self):
        system = self.system
        if isinstance(system, SpinChainParams):
            cuts = range(1, system.sites)
        elif isinstance(system, RandomSystemParams):
            cuts = range(system.sites_a, system.sites_a + 1)  # its sites_a alone
        else:
            raise ValidationError(f"system is of no family: {system!r}")
        if self.cut not in cuts:
            raise ValidationError(
                f"system.cut must be in {cuts[0]}..{cuts[-1]}, got {self.cut}"
            )
        for k in self.predict_kinds:
            try:
                _ansatz_kind(k)
            except ValidationError as exc:
                raise ValidationError(f"predict.kinds: {exc}") from None
            if self.predict_kinds.count(k) > 1:
                raise ValidationError(f"predict.kinds: {k!r} is listed more than once")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, ensemble=replace(self.ensemble, seed=seed))


_DEFAULTS = {
    "system": {
        "kind": "spin_chain",
        "sites": "12",
        "cut": "3",
        "coupling": "1",
        "field_x": "1.05",
        "field_z": "0.5",
        "sites_a": "2",
        "sites_b": "9",
        "sites_i": "4",
        "interaction_fraction": "0.01",
        "system_seed": "7",
    },
    "ensemble": {"count": "250", "seed": "0"},
    "binning": {"ebar_halfwidth": "0.5", "omega_bin_width": "auto"},
    "predict": {"kinds": "auto"},
}


def _get_float(section, key) -> float:
    # Parses only: the parameter class that takes the value checks its range.
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{section.name}.{key}: not a number: {raw!r}") from None


def _get_int(section, key) -> int:
    raw = section[key]
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{section.name}.{key}: not an integer: {raw!r}") from None


def parse_config(
    path: Optional[str | Path],
    *,
    text: Optional[str] = None,
    force_kind: Optional[str] = None,
) -> RunConfig:
    """Parse an INI config into a validated :class:`RunConfig`.

    Missing keys take the reference-chain defaults (J=1, h_x=1.05, h_z=0.5,
    12 sites, 250 operators, half-width 0.5, auto bin width).  It raises on
    unknown sections (``[DEFAULT]`` among them) or keys, numbers that do not
    parse, an unknown family and a kinds list that names no kind; the
    parameter classes and :class:`RunConfig` reject every other bad value,
    naming the field or kind.
    ``force_kind`` overrides ``system.kind`` (used by the CLI subcommands
    that imply a system family).
    """
    if text is None:
        if path is None:
            raise ValidationError("parse_config needs a config path or text")
        path = Path(path)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        text = path.read_text()
    # With no default section, a [DEFAULT] header is one more unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.read_dict(_DEFAULTS)
    try:
        parser.read_string(text, source=str(path) if path else "<config>")
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from exc

    for name in parser.sections():
        if name not in _DEFAULTS:
            raise ValidationError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in _DEFAULTS[name]:
                raise ValidationError(f"unknown key {key!r} in section [{name}]")

    section = parser["system"]
    kind = (force_kind or section["kind"]).strip().lower().replace("-", "_")
    if kind == "spin_chain":
        system = SpinChainParams(
            sites=_get_int(section, "sites"),
            coupling=_get_float(section, "coupling"),
            field_x=_get_float(section, "field_x"),
            field_z=_get_float(section, "field_z"),
        )
        cut = _get_int(section, "cut")
    elif kind == "random":
        system = RandomSystemParams(
            sites_a=_get_int(section, "sites_a"),
            sites_b=_get_int(section, "sites_b"),
            sites_i=_get_int(section, "sites_i"),
            interaction_fraction=_get_float(section, "interaction_fraction"),
            seed=_get_int(section, "system_seed"),
        )
        cut = system.sites_a
    else:
        raise ValidationError(f"system.kind must be spin_chain or random, got {kind!r}")

    ens_section = parser["ensemble"]
    ensemble = OperatorEnsembleSpec(
        count=_get_int(ens_section, "count"),
        seed=_get_int(ens_section, "seed"),
    )

    binning_section = parser["binning"]
    raw_width = binning_section["omega_bin_width"].strip().lower()
    binning = BinningParams(
        ebar_halfwidth=_get_float(binning_section, "ebar_halfwidth"),
        omega_bin_width=(
            None if raw_width == "auto"
            else _get_float(binning_section, "omega_bin_width")
        ),
    )

    raw_kinds = parser["predict"]["kinds"].strip()
    if raw_kinds.lower() == "auto":
        # Empty tuple means "let each experiment pick its usual curves".
        kinds = ()
    else:
        kinds = tuple(k.strip() for k in raw_kinds.split(",") if k.strip())
        if not kinds:
            raise ValidationError(
                "predict.kinds lists no kind; use auto or name at least one"
            )

    return RunConfig(
        system=system,
        cut=cut,
        ensemble=ensemble,
        binning=binning,
        predict_kinds=kinds,
    )


def default_config() -> RunConfig:
    """The all-defaults configuration (reference chain, 250 operators)."""
    return parse_config(None, text="")


def config_cache_key(config: RunConfig) -> str:
    """Stable cache key from the exact numeric system parameters.

    Chain keys deliberately omit the cut: on a miss the full chain
    Hamiltonian is diagonalized whatever the cut, so one eigendecomposition
    serves all of them.
    """
    p = config.system
    if isinstance(p, SpinChainParams):
        fields = (
            "spin_chain",
            p.sites,
            float(p.coupling).hex(),
            float(p.field_x).hex(),
            float(p.field_z).hex(),
        )
    else:
        fields = (
            "random",
            p.sites_a,
            p.sites_b,
            p.sites_i,
            float(p.interaction_fraction).hex(),
            p.seed,
        )
    return ":".join(str(f) for f in fields)


def _cache_path(cache_dir: Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return Path(cache_dir) / f"{digest}.eig"


def _key_header(key: str) -> bytes:
    # Everything before the dimension field: magic, key length, key.
    key_bytes = key.encode()
    return _CACHE_MAGIC + struct.pack("<I", len(key_bytes)) + key_bytes


def save_spectrum(spectrum: Spectrum, key: str, cache_dir: str | Path) -> Path:
    """Write a spectrum to the cache; atomic via rename of a private temp file.

    Each call writes its own temp file, so concurrent writers of one key
    never touch each other's partial file; the last rename wins.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, key)
    header = _key_header(key) + struct.pack("<Q", spectrum.dim)
    payload = (
        np.ascontiguousarray(spectrum.eigenvalues, dtype="<f8"),
        np.ascontiguousarray(spectrum.rows, dtype="<f8"),
    )
    checksum = hashlib.sha256()
    tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header)
            for array in payload:
                checksum.update(array)
                fh.write(array)
            fh.write(checksum.digest())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_spectrum(key: str, cache_dir: str | Path) -> Optional[Spectrum]:
    """Read a spectrum back; any validation failure reads as a miss.

    The eigenvectors come back eigenstate-major, as a transposed view of the
    payload.
    """
    path = _cache_path(Path(cache_dir), key)
    expected = _key_header(key)
    header_len = len(expected) + 8
    try:
        with open(path, "rb") as fh:
            header = fh.read(header_len)
            if len(header) != header_len or header[:-8] != expected:
                return None
            (dim,) = struct.unpack("<Q", header[-8:])
            # Checked before reading so a corrupt dim cannot size an allocation.
            n_payload = dim + dim * dim
            if os.fstat(fh.fileno()).st_size != header_len + 8 * n_payload + 32:
                return None
            payload = np.fromfile(fh, dtype="<f8", count=n_payload)
            checksum = fh.read(32)
    except OSError:
        return None
    if payload.size != n_payload or hashlib.sha256(payload).digest() != checksum:
        return None
    payload = payload.astype(float, copy=False)
    return Spectrum(
        eigenvalues=payload[:dim], eigenvectors=payload[dim:].reshape(dim, dim).T
    )


def cached_spectrum(key: str, cache_dir: str | Path, policy: str, compute):
    """Fetch a spectrum under a cache policy.

    ``use`` reads the cache and computes (then stores) on a miss;
    ``recompute`` ignores any cached entry and overwrites it; ``forbid``
    never computes and raises :class:`CacheMissError` on a miss.  Before
    computing, ``cache_dir`` is made, so a cache that cannot be written
    fails before the solve, not after it.
    """
    if policy not in ("use", "recompute", "forbid"):
        raise ValidationError(f"unknown cache policy {policy!r}")
    if policy != "recompute":
        hit = load_spectrum(key, cache_dir)
        if hit is not None:
            return hit
        if policy == "forbid":
            raise CacheMissError(
                f"no cached eigendecomposition for key {key!r} in {cache_dir} "
                "and --cache forbid disallows computing one; rerun with "
                "--cache use or --cache recompute"
            )
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    spectrum = compute()
    save_spectrum(spectrum, key, cache_dir)
    return spectrum


# Header and row template of each dataset schema: floats print with 9
# significant digits, counts as integers.
_SCHEMAS = {
    "binned": ("Ebar_center,omega_mid,mean_sq,count,std_err",
               "%.9g,%.9g,%.9g,%d,%.9g\n"),
    "prediction": ("model,Ebar,omega,f,entropic_factor,variance",
                   "%s,%.9g,%.9g,%.9g,%.9g,%.9g\n"),
    "coeffs": ("E_alpha,E_sum_ij,abs_c", "%.9g,%.9g,%.9g\n"),
    "banding": ("E_alpha,E_beta,abs_O", "%.9g,%.9g,%.9g\n"),
}


def emit_dataset(rows, schema: str, path: str | Path) -> Path:
    """Write rows as CSV under a named schema.

    Row order is preserved; floats print with 9 significant digits; lines end
    with a bare newline on every platform.
    """
    if schema not in _SCHEMAS:
        raise ValidationError(
            f"unknown dataset schema {schema!r} (valid: {', '.join(_SCHEMAS)})"
        )
    path = Path(path)
    header, template = _SCHEMAS[schema]
    n_cols = header.count(",") + 1
    try:
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                if len(row) != n_cols:
                    raise ValidationError(
                        f"schema {schema!r} expects {n_cols} columns, "
                        f"got row of length {len(row)}"
                    )
                fh.write(template % tuple(row))
    except OSError as exc:
        raise ValidationError(f"cannot write dataset {path}: {exc}") from exc
    return path


def binned_rows(stats: BinnedStatistics):
    """Rows for the ``binned`` schema from one window's statistics."""
    return [
        (stats.ebar_center, o, m, int(c), s)
        for o, m, c, s in zip(
            stats.omega_mid, stats.mean_sq, stats.count, stats.std_err
        )
    ]


def prediction_rows(predictions: Sequence[Prediction]):
    """Rows for the ``prediction`` schema."""
    rows = []
    for pred in predictions:
        for k in range(pred.omega.size):
            rows.append(
                (
                    pred.kind,
                    pred.ebar,
                    pred.omega[k],
                    pred.f[k],
                    pred.entropic_factor,
                    pred.variance[k],
                )
            )
    return rows


def write_manifest(data: dict, path: str | Path) -> Path:
    """Write the JSON run manifest (sorted keys, trailing newline)."""
    path = Path(path)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def resolve_out_dir(arg: Optional[str]) -> Path:
    """Output directory from --out, else $ETHLAB_OUT, else ./ethlab-out."""
    if arg:
        return Path(arg)
    env = os.environ.get(OUT_DIR_ENV, "").strip()
    if env:
        return Path(env)
    return Path("ethlab-out")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(
    curves,
    path: str | Path,
    *,
    title: str = "",
    xlabel: str = "omega",
    ylabel: str = "mean squared element",
) -> Path:
    """Minimal deterministic SVG scatter/line plot.

    ``curves`` is a sequence of dicts with keys ``x``, ``y``, ``label`` and
    optional ``line`` (bool, default scatter).  The y axis is logarithmic and
    non-positive y values are dropped.  Output contains no timestamps so identical data
    gives identical bytes.
    """
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    pw, ph = width - ml - mr, height - mt - mb

    xs, ys = [], []
    cleaned = []
    for curve in curves:
        x = np.asarray(curve["x"], dtype=float)
        y = np.asarray(curve["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y) & (y > 0)
        x, y = x[keep], np.log10(y[keep])
        if x.size:
            xs.append(x)
            ys.append(y)
        cleaned.append((x, y, curve.get("label", ""), curve.get("line", False)))
    if xs:
        x_lo = min(a.min() for a in xs)
        x_hi = max(a.max() for a in xs)
        y_lo = min(a.min() for a in ys)
        y_hi = max(a.max() for a in ys)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<g font-family="monospace" font-size="12">',
        f'<text x="{ml:.1f}" y="{mt - 10:.1f}">{title}</text>',
    ]
    axis = (
        f'<path d="M {ml:.1f} {mt:.1f} L {ml:.1f} {mt + ph:.1f} '
        f'L {ml + pw:.1f} {mt + ph:.1f}" stroke="black" fill="none"/>'
    )
    parts.append(axis)
    for tx in np.linspace(x_lo, x_hi, 5):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.1f}" y1="{mt + ph:.1f}" x2="{px:.1f}" '
            f'y2="{mt + ph + 5:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{mt + ph + 18:.1f}" '
            f'text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in np.linspace(y_lo, y_hi, 5):
        py = sy(ty)
        label = f"1e{ty:.2g}"
        parts.append(
            f'<line x1="{ml - 5:.1f}" y1="{py:.1f}" x2="{ml:.1f}" '
            f'y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.1f}" y="{py + 4:.1f}" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for k, (x, y, label, line) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        if line and x.size > 1:
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        else:
            for a, b in zip(x, y):
                parts.append(
                    f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2" '
                    f'fill="{color}"/>'
                )
        if label:
            ly = mt + 16 + 16 * k
            parts.append(
                f'<rect x="{ml + pw - 180:.1f}" y="{ly - 9:.1f}" width="10" '
                f'height="10" fill="{color}"/>'
            )
            parts.append(f'<text x="{ml + pw - 165:.1f}" y="{ly:.1f}">{label}</text>')
    parts.append("</g></svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path

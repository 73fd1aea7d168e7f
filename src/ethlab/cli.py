"""Command-line interface.

Subcommands map one-to-one onto the package's artifact surfaces:

- ``spin-chain`` / ``random-system``: measure binned off-diagonal statistics
  plus configured prediction curves for one system.
- ``coeffs``: eigenstate scrambling coefficients for representative states.
- ``predict``: evaluate ansatz curves alone on an omega grid.
- ``localize``: operator localizability report.
- ``reproduce {fig1,fig2,fig3,appB}``: the bundled datasets.

Every subcommand but ``localize`` is one :func:`ethlab.figures.run_figure`
call, which builds the system, writes the datasets and
``<stem>_manifest.json``; this module parses the arguments, prints the
summary lines and maps errors to exit codes.

Exit codes: 0 success, 2 configuration error, 3 compute error, 4 cache
policy failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CacheMissError, EthlabError, ValidationError
from .figures import _EXPERIMENTS, FIGURES, run_figure
from .io import RunConfig, parse_config, resolve_out_dir, write_manifest
from .hamiltonians import MAX_CHAIN_SITES, pauli
from .localize import localizability
from .linalg import eig_sym

__all__ = ["main", "entry", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    # localize takes only --out; every other subcommand also takes the rest.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR",
                     help="output directory (default $ETHLAB_OUT or ./ethlab-out)")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, help="override the ensemble seed")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: the BLAS library's threads "
                             "are the only parallelism")
    common.add_argument("--cache", choices=("use", "recompute", "forbid"),
                        default="use", help="eigendecomposition cache policy")
    common.add_argument("--plot", action="store_true",
                        help="emit SVG plots alongside the CSV datasets")

    parser = argparse.ArgumentParser(
        prog="ethlab",
        description="eigenstate-thermalization statistics laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    spin = sub.add_parser("spin-chain", parents=[common],
                          help="binned statistics for the configured chain")
    spin.add_argument("--ebar", dest="centers", metavar="EBAR", type=float,
                      action="append", help="mean-energy window center (repeatable; default 0)")

    rand = sub.add_parser("random-system", parents=[common],
                          help="binned statistics for the random family")
    rand.add_argument("--ebar", dest="centers", metavar="EBAR", type=float,
                      action="append", help="mean-energy window center (repeatable; default 0)")

    sub.add_parser("coeffs", parents=[common],
                   help="scrambling coefficients for representative states")

    pred = sub.add_parser("predict", parents=[common],
                          help="evaluate ansatz prediction curves")
    pred.add_argument("--ebar", type=float, default=0.0,
                      help="mean energy of the curves (default 0)")
    pred.add_argument("--omega-max", type=float, default=None,
                      help="grid upper edge (default 0.75 of the A range)")

    loc = sub.add_parser("localize", parents=[out],
                         help="operator localizability report")
    spec_group = loc.add_mutually_exclusive_group(required=True)
    spec_group.add_argument(
        "--pauli", metavar="LETTERS",
        help="operator as per-site Pauli letters, e.g. zix for sz(1) sx(3)",
    )
    spec_group.add_argument(
        "--matrix", metavar="PATH", help="operator from a .npy or .csv file"
    )

    rep = sub.add_parser("reproduce", parents=[common],
                         help="produce one bundled dataset")
    rep.add_argument("figure", choices=FIGURES)
    return parser


def _load_config(args, force_kind=None) -> RunConfig:
    if args.config:
        config = parse_config(args.config, force_kind=force_kind)
    else:
        config = parse_config(None, text="", force_kind=force_kind)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _operator_from_args(args) -> np.ndarray:
    # The checks that need the arguments or the file, all before any
    # Kronecker product or solve; pauli and eig_sym check the rest.
    if args.pauli is not None:
        letters = args.pauli.strip().lower()
        if not letters:
            raise ValidationError("--pauli needs at least one letter of i, x, z")
        if len(letters) > MAX_CHAIN_SITES:
            raise ValidationError(
                f"--pauli takes at most {MAX_CHAIN_SITES} letters, the "
                f"dense-diagonalization guard; got {len(letters)}"
            )
        return reduce(np.kron, [pauli(letter) for letter in letters])
    path = Path(args.matrix)
    if not path.is_file():
        raise ValidationError(f"operator file not found: {path}")
    try:
        if path.suffix == ".npy":
            op = np.load(path)
        else:
            with warnings.catch_warnings():
                # A file with no data is rejected below, without numpy's warning.
                warnings.simplefilter("ignore", UserWarning)
                op = np.loadtxt(path, delimiter=",", ndmin=2)
        real = np.asarray(np.real(op), dtype=float)
    except (ValueError, EOFError) as exc:
        raise ValidationError(f"cannot read operator file {path}: {exc}") from None
    if real.size == 0:
        raise ValidationError(f"operator file {path} holds no data")
    if np.iscomplexobj(op) and np.any(op.imag):
        raise ValidationError(f"operator in {path} has a nonzero imaginary part")
    if max(real.shape, default=0) > 2**MAX_CHAIN_SITES:
        raise ValidationError(
            f"--matrix takes at most dimension 2**{MAX_CHAIN_SITES}, the "
            f"dense-diagonalization guard; got shape {real.shape}"
        )
    return real


def _run_localize(args) -> int:
    op = _operator_from_args(args)
    try:
        spectrum = eig_sym(op)
    except ValidationError as exc:
        # Only a --matrix operator can be non-square, non-finite or asymmetric.
        raise ValidationError(f"operator in {args.matrix}: {exc}") from None
    report = localizability(spectrum.eigenvalues)
    print(f"total_dim     = {report.total_dim}")
    print(f"local_dim     = {report.local_dim}")
    print(f"gcd           = {report.multiplicity_gcd}")
    print("classes       = " + ", ".join(
        f"{value:.9g} (x{mult})" for value, mult in report.classes
    ))
    if args.out:
        out_dir = resolve_out_dir(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "experiment": "localize",
            "total_dim": report.total_dim,
            "local_dim": report.local_dim,
            "gcd": report.multiplicity_gcd,
            "classes": [[float(v), int(m)] for v, m in report.classes],
            # The diagonal of localizing_basis(op)'s block, from the one
            # diagonalization above.
            "local_block_diag": report.block_values,
        }
        write_manifest(manifest, out_dir / "localize_manifest.json")
        print(f"wrote {out_dir / 'localize_manifest.json'}")
    return 0


# Compute subcommand -> run_figure experiment; reproduce runs its figure.
_COMPUTE = {"spin-chain": "spin_chain", "random-system": "random",
            "coeffs": "coeffs", "predict": "predict"}


def _run(args) -> int:
    experiment = args.figure if args.command == "reproduce" else _COMPUTE[args.command]
    # The config is read as the family the experiment runs on, if it has one.
    config = _load_config(args, force_kind=_EXPERIMENTS[experiment][3])
    out_dir = resolve_out_dir(args.out)
    # The subcommand's own flags are run_figure's per-experiment keywords.
    options = {key: getattr(args, key) for key in ("centers", "ebar", "omega_max")
               if hasattr(args, key)}
    manifest = run_figure(
        experiment,
        config,
        out_dir,
        cache_policy=args.cache,
        plot=args.plot,
        **options,
    )
    print(f"wrote {len(manifest['files'])} dataset file(s) to {out_dir}")
    if "sigma_s" in manifest:
        print(f"sigma_S = {manifest['sigma_s']:.6g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "localize":
            return _run_localize(args)
        return _run(args)
    except ValidationError as exc:
        print(f"ethlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An output or cache path that cannot be written, such as a file
        # standing where a directory must be; the message names the path.
        print(f"ethlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except CacheMissError as exc:
        print(f"ethlab: cache policy failure: {exc}", file=sys.stderr)
        return 4
    except EthlabError as exc:
        print(f"ethlab: compute error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

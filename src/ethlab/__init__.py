"""Numerical laboratory for eigenstate-thermalization statistics.

The package studies how eigenstates of an interacting bipartite Hamiltonian
scramble over product states, and how that scrambling shapes the statistics
of local-operator matrix elements: spin-chain and random bipartite builders,
scrambling coefficients and their width, a ladder of off-diagonal variance
predictions, operator localizability, and seeded ensemble experiments with
CSV dataset emission.
"""

from .ansatz import (
    AnsatzKind,
    AnsatzModel,
    Prediction,
    density_autocorrelation,
    entropic_factor,
    exp_autocorrelation,
    f_exp_decay,
    f_flat_a,
    f_mc_finite_width,
    f_narrow,
    f_small_a,
    f_smooth_small_a,
    f_smooth_sums,
    gibbs_diagonal,
    rmt_variance,
)
from .errors import (
    CacheMissError,
    DegenerateWindowError,
    DimensionError,
    EmptyWindowError,
    EthlabError,
    InsufficientDataError,
    OutOfSupportError,
    QuadratureError,
    ValidationError,
    ZeroWidthSpectrumError,
)
from .experiments import (
    BandReport,
    BinnedStatistics,
    BinningParams,
    OperatorEnsembleSpec,
    default_bin_width,
    detect_bands,
    operator_diagonals,
    run_ensemble,
    sample_local_operator,
    subsystem_gap_omegas,
)
from .figures import FIGURES, build_system, run_figure
from .hamiltonians import (
    BipartiteSystem,
    RandomSystemParams,
    SpinChainParams,
    build_random_system,
    build_spin_chain,
    decompose_chain,
    haar_orthogonal,
    make_bipartite,
    pauli,
    sample_goe,
)
from .io import (
    RunConfig,
    cached_spectrum,
    config_cache_key,
    default_config,
    emit_dataset,
    load_spectrum,
    parse_config,
    save_spectrum,
    write_manifest,
    write_svg,
)
from .linalg import (
    GridFunction,
    SpectralDensity,
    Spectrum,
    density_of_states,
    eig_sym,
    integrate_adaptive,
)
from .localize import LocalizabilityReport, localizability, localizing_basis
from .scrambling import (
    ScramblingCoefficients,
    ScramblingProfile,
    compute_coefficients,
    exp_profile,
    flat_profile,
    profile,
)

__version__ = "0.1.0"


def backend() -> str:
    """Name of the kernel backend: the ensemble kernels are plain numpy."""
    return "numpy"


__all__ = [
    "__version__",
    "backend",
    # errors
    "EthlabError",
    "ValidationError",
    "DimensionError",
    "ZeroWidthSpectrumError",
    "QuadratureError",
    "OutOfSupportError",
    "DegenerateWindowError",
    "EmptyWindowError",
    "InsufficientDataError",
    "CacheMissError",
    # linear algebra
    "Spectrum",
    "GridFunction",
    "SpectralDensity",
    "eig_sym",
    "density_of_states",
    "integrate_adaptive",
    # systems
    "SpinChainParams",
    "RandomSystemParams",
    "BipartiteSystem",
    "build_spin_chain",
    "decompose_chain",
    "make_bipartite",
    "build_random_system",
    "pauli",
    "sample_goe",
    "haar_orthogonal",
    # localizability
    "LocalizabilityReport",
    "localizability",
    "localizing_basis",
    # scrambling
    "ScramblingCoefficients",
    "ScramblingProfile",
    "compute_coefficients",
    "profile",
    "exp_profile",
    "flat_profile",
    # ansatz ladder
    "AnsatzKind",
    "AnsatzModel",
    "Prediction",
    "entropic_factor",
    "rmt_variance",
    "exp_autocorrelation",
    "density_autocorrelation",
    "f_smooth_sums",
    "f_narrow",
    "f_small_a",
    "f_flat_a",
    "f_smooth_small_a",
    "f_exp_decay",
    "f_mc_finite_width",
    "gibbs_diagonal",
    # experiments
    "OperatorEnsembleSpec",
    "BinningParams",
    "BinnedStatistics",
    "BandReport",
    "sample_local_operator",
    "run_ensemble",
    "operator_diagonals",
    "detect_bands",
    "subsystem_gap_omegas",
    "default_bin_width",
    # figures and io
    "FIGURES",
    "run_figure",
    "build_system",
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
]

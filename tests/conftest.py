"""Shared fixtures: reference systems and pooled ensemble runs.

Heavy objects (the 12-site chain eigendecomposition, 250-operator ensemble
sweeps) are session-scoped and lazy, so running a single light module never
pays for them.  Both 12-site cuts share one cached eigendecomposition of the
total Hamiltonian through the spectrum cache.
"""

from dataclasses import replace

import numpy as np
import pytest

from ethlab.experiments import BinningParams, OperatorEnsembleSpec, run_ensemble
from ethlab.figures import build_system
from ethlab.hamiltonians import (
    RandomSystemParams,
    SpinChainParams,
    build_random_system,
    decompose_chain,
    sample_goe,
)
from ethlab.io import default_config
from ethlab.linalg import eig_sym
from ethlab.scrambling import compute_coefficients, profile


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("eigcache")


@pytest.fixture(scope="session")
def config12():
    """Default run configuration: 12-site chain, cut 3, 250 operators."""
    return default_config()


@pytest.fixture(scope="session")
def chain12(config12, cache_dir):
    """12-site chain split after site 3 (dim_a = 8)."""
    return build_system(config12, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def config12_cut5(config12):
    return replace(config12, cut=5)


@pytest.fixture(scope="session")
def chain12_cut5(config12_cut5, cache_dir):
    """Same 12-site chain split after site 5; reuses the cached spectrum."""
    return build_system(config12_cut5, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def coeffs12(chain12):
    return compute_coefficients(chain12)


@pytest.fixture(scope="session")
def profile12(chain12):
    return profile(chain12)


@pytest.fixture(scope="session")
def profile12_cut5(chain12_cut5):
    return profile(chain12_cut5)


@pytest.fixture(scope="session")
def ens12_cut3(chain12, config12):
    """Pooled statistics for the default ensemble in the central window."""
    return run_ensemble(chain12, config12.ensemble, [0.0], config12.binning)


@pytest.fixture(scope="session")
def ens12_cut5(chain12_cut5, config12_cut5):
    return run_ensemble(
        chain12_cut5, config12_cut5.ensemble, [0.0], config12_cut5.binning
    )


@pytest.fixture(scope="session")
def chain10():
    """CI-scale surrogate: 10-site chain, cut 3."""
    return decompose_chain(SpinChainParams(10), 3)


@pytest.fixture(scope="session")
def appb_system():
    """Random bipartite system with a sparse weak interaction (banding)."""
    return build_random_system(
        RandomSystemParams(
            sites_a=2, sites_b=9, sites_i=4, interaction_fraction=0.01, seed=7
        )
    )


@pytest.fixture(scope="session")
def appb_ensemble(appb_system):
    spec = OperatorEnsembleSpec(count=250, seed=0)
    return run_ensemble(appb_system, spec, [0.0], BinningParams())


@pytest.fixture(scope="session")
def goe256():
    """Eigendecomposition of one 256-dimensional GOE sample."""
    return eig_sym(sample_goe(256, np.random.default_rng(11)))

"""The attributes the benchmark's tracer wraps still resolve.

``perfbench/layers.py`` replaces these names by timed wrappers, and its
set-up process calls the three ``ethlab`` functions.  A name it cannot find
only lands in the tracer's ``missing`` list, so renaming one silently zeroes
a per-layer metric; this test makes the rename fail instead.  It goes when
the tracer is replaced by spans the package records itself.
"""

import ethlab
import ethlab.ansatz
import ethlab.cli
import ethlab.experiments
import ethlab.figures
import ethlab.hamiltonians
import ethlab.io
import ethlab.linalg

HOOKS = [
    (ethlab.figures, name)
    for name in (
        "run_ensemble",
        "decompose_chain",
        "build_random_system",
        "cached_spectrum",
        "emit_dataset",
        "compute_coefficients",
        "profile",
        "detect_bands",
    )
] + [
    (ethlab.hamiltonians, "eig_sym"),
    (ethlab.ansatz, "integrate_adaptive"),
    (ethlab.linalg, "integrate_adaptive"),
    (ethlab.io, "load_spectrum"),
    (ethlab.io, "save_spectrum"),
    (ethlab.experiments, "accumulate_grouped"),
    (ethlab.cli, "run_figure"),
] + [
    (ethlab.experiments.PairBand, name)
    for name in (
        "__init__",
        "accumulate_grouped_all",
        "accumulate_grouped_batch",
        "accumulate_from_factors",
        "_tiles",
    )
] + [
    (ethlab.ansatz.AnsatzModel, "evaluate"),
    (ethlab, "backend"),
    (ethlab, "build_system"),
    (ethlab, "parse_config"),
]


def test_every_perfbench_hook_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in HOOKS
        if not callable(getattr(owner, name, None))
    ]
    assert missing == []

"""idtlab: simulation and statistical verification of processes whose law
divides over time at a power exponent.

The package generates sample-path ensembles for the constructible
families (stable lines and power lines, scaling Gaussian processes,
clock-deformed Levy processes, subordinated processes, weighted blends)
and verifies their distributional identities with calibrated empirical
characteristic function tests.
"""

import os as _os
import sys as _sys

# idtlab runs its parallel work on its own ``--threads`` workers, and its
# BLAS calls are small, so a second OpenBLAS thread would only busy-wait.
# OpenBLAS reads its thread count once, while numpy loads it: load numpy
# with one thread unless it is already loaded or the user set a count,
# then restore the environment that the host process and its children see.
# Other BLAS builds (MKL, Accelerate) keep their own defaults; results
# never depend on the BLAS thread count.
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .kernels import (
    FBmKernel,
    SpectralKernel,
    SpectralMeasure,
    check_scaling,
    cov_matrix,
    fbm_cov,
    lamperti_cov,
    psd_check,
    spectral_cov,
)
from .processes import (
    AdditiveTimeChange,
    Brownian,
    CompoundPoisson,
    ContractViolation,
    FactorizationError,
    GammaSubordinator,
    GaussianKernel,
    Mixture,
    PathEnsemble,
    PowerLine,
    StableLine,
    StableMotion,
    Subordinated,
    TimeGrid,
    WeightedSubordinator,
    gaussian_paths,
    generate,
    levy_increments,
    sample_blocks,
    spec_label,
)
from .randkit import RngState, StableParams, next_uniform, sample_gamma, sample_normal, sample_stable
from .report import TestReport
from .statlab import (
    association_test,
    calibrate,
    default_theta_groups,
    ecf,
    idt_test,
    ks_one_sample,
    ks_two_sample,
    selfsimilarity_test,
    stability_test,
    stationarity_test,
    temporal_sd_test,
)
from .thresholds import ThresholdTable, entry_key
from .transforms import lamperti_apply, scale_paths, sum_independent

__version__ = "0.1.0"

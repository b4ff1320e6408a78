"""idtlab: simulation and statistical verification of processes whose law
divides over time at a power exponent.

The package generates sample-path ensembles for the constructible
families (stable lines and power lines, scaling Gaussian processes,
clock-deformed Levy processes, subordinated processes, weighted blends)
and verifies their distributional identities with calibrated empirical
characteristic function tests.
"""

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
    EcfEvaluation,
    association_test,
    calibrate,
    cov_estimate,
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
from .transforms import dilate_grid, lamperti_apply, lamperti_invert, scale_paths, sum_independent

__version__ = "0.1.0"

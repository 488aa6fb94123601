"""Hierarchical mixtures of Gaussians.

Joint dimensionality reduction and clustering in one probabilistic model:
a linear Gaussian likelihood (probabilistic PCA or factor analysis) over a
Gaussian-mixture feature prior, with closed-form densities and
expectation-maximization built on conjugated exponential-family structure.
"""

__version__ = "0.1.0"

from .families import Categorical, DomainError, MultivariateNormal, Structure
from .harmonium import (
    ConjugationParams,
    Harmonium,
    check_conjugation,
    conjugated_log_partition,
    em_iteration,
    joint_log_density,
    observable_log_density,
    posterior_natural_params,
)
from .hierarchical import (
    Hmog,
    HmogEmDiagnostics,
    assemble_hmog,
    disassemble_hmog,
    hmog_classify_batch,
    hmog_em_iteration,
    hmog_forward,
    hmog_joint_log_density,
    hmog_log_densities,
    hmog_mean_log_likelihood,
    hmog_project_batch,
    hmog_sample,
)
from .linear_gaussian import (
    LinearGaussianModel,
    lgm_conjugation_parameters,
    lgm_em_step,
    lgm_forward,
    lgm_from_standard,
    lgm_log_densities,
    lgm_project_batch,
    lgm_sample,
    lgm_to_standard,
)
from .mixture import (
    MixtureModel,
    mixture_conjugation_parameters,
    mixture_forward,
    mixture_weights,
    mog_em_step,
    mog_from_standard,
    mog_log_densities,
    mog_sample,
    mog_to_standard,
)
from .optim import AdamConfig, AdamState, OptimizationError, adam_optimize, adam_step
from .pipeline import (
    CvReport,
    Dataset,
    FitConfig,
    FitReport,
    cross_validate,
    default_synthetic_hmog,
    export_report,
    fit_hmog,
    fit_model,
    fit_two_stage,
    gen_synthetic,
    init_lgm,
    init_mog,
    load_csv,
    load_model,
    save_model,
    score_classification,
)

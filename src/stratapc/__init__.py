"""Identifiable stratified age-period-cohort models for event-count surfaces."""

from ._threads import pin_blas_threads
from .core import (
    APCEffects,
    BaselineSpec,
    CanonicalParams,
    GridSpec,
    GroupElement,
    apply_group,
    build_design_matrix,
    canonical_from_effects,
    cohort_index,
    default_baseline_spec,
    log_rates,
    middle_index,
    second_differences,
)
from .covariance import (
    AdjacencyGraph,
    CrossStrataStructure,
    MatrixNormalParams,
    bym2_corr,
    exchangeable_corr,
    icar_precision,
    matrix_normal_logpdf,
    scaled_generalized_inverse,
)
from .data import GridWindow, aggregate, load_graph, read_series_csv, simulate_dataset
from .diagnostics import cross_strata_rr, hindcast, pit
from .inference import (
    HyperParameters,
    LatentModel,
    MortalityDataset,
    PosteriorFit,
    SharingPattern,
    assemble_model,
    conditional_mode,
    fit_model,
    laplace_log_marginal,
    optimize_hyperparameters,
    poisson_loglik,
    sample_posterior,
)
from .mcmc import mcmc_oracle
from .priors import (
    BaselineMeanPrior,
    PrecisionElicitation,
    PriorConfig,
    sample_prior_predictive,
)
from .selection import GridConfig, fit_grid, waic

# After the imports above, so that scipy's OpenBLAS (loaded with
# ``scipy.linalg`` by ``inference``) is mapped and gets pinned too.
pin_blas_threads()

__version__ = "0.1.0"

"""Fair decision-making via latent desert decisions.

Estimates the decision rule individuals deserve - a latent target the observed
decision only proxies, possibly after discrimination or preferential treatment
distorted it - together with the degree of unfairness f(Y != Y*), from data
(S, Z, X, Y) where an auxiliary binary variable shifts the deserved decision
without entering the distortion mechanism.
"""

__version__ = "0.1.0"

from .basis import BasisConfig, SeriesFunction, expand_matrix
from .data import (
    CsvSchema,
    Dataset,
    load_csv,
    scale_covariates,
    stratum_counts,
    write_csv,
)
from .errors import FairdesertError
from .identify import (
    PointwiseMu,
    PointwiseParams,
    bias_linearization,
    check_testable_implications,
    forward_mu,
    invert_tau,
    recover_mechanism,
)
from .modelio import ModelArtifact, load_model, save_model
from .regress import (
    MuModel,
    PropensityModel,
    fit_mu_models,
    fit_multinomial,
    fit_propensity,
    fit_series_logit,
)
from .sensitivity import SweepSpec, SweepTable, flip_rate, run_sweep
from .sievemle import (
    FitOptions,
    NuisanceEstimates,
    SensitivityParams,
    fit,
    predict_tau,
    predict_tau_sz,
)
from .simulate import (
    DgpConfig,
    MonteCarloSettings,
    MonteCarloSummary,
    auc,
    fit_ftu,
    fit_ld,
    fit_mlc,
    fit_uml,
    gen_dataset,
    monte_carlo,
    oracle_theta,
    run_replication,
)
from .theta import (
    ThetaEstimate,
    influence_coefficients,
    theta_bootstrap,
    theta_onestep,
    theta_onestep_crossfit,
    theta_plugin,
)

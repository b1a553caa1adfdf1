"""Graph-neighbor averaging regression on latent position graphs.

The package samples latent-position random graphs, evaluates the
graph-neighbor label average and its classical kernel-weighted counterpart,
computes every closed-form quantity the estimator's theory provides
(expectation, variance envelopes, concentration and bias bounds, risk
bounds, admissible bandwidth windows), and verifies them against Monte
Carlo replication and an exhaustive small-n enumeration oracle.

Note on noise: the exponential deviation envelope requires almost-surely
bounded noise.  With unbounded noise (e.g. Gaussian) only the second-moment
machinery applies -- the variance bounds hold, the tail envelope does not.
"""

from .errors import ConfigError, InvalidInputError, QuadratureError, ResourceBudgetError
from .estimators import Prediction, gnw_predict, nw_predict
from .graph import (
    FullGraph,
    NeighborhoodSampler,
    QueryNeighborhood,
    decoupling_selftest,
    r_subset,
    sample_full_graph,
    sample_neighborhood,
)
from .model import (
    BoundedUniformNoise,
    ConstantFunction,
    CuspFunction,
    GaussianDensity,
    GaussianNoise,
    HalfPlateauKernel,
    IndicatorKernel,
    KernelSpec,
    LinearFunction,
    MixtureDensity,
    NoNoise,
    RademacherNoise,
    SinusoidFunction,
    TriangleKernel,
    UniformBall,
    UniformCube,
    assumption_audit,
    unit_ball_volume,
)
from .montecarlo import (
    MCReport,
    OracleResult,
    PredictionBatch,
    edge_resample_mean,
    estimate_integrated_risk,
    estimate_moments,
    estimate_pointwise_risk,
    estimate_tail,
    exact_small_n_oracle,
    oracle_mean_over_latents,
    run_replications,
)
from .scenario import QuerySpec, ScenarioConfig, ScenarioConstants, parse_config
from .theory import (
    BandwidthRange,
    RiskBoundReport,
    WindowMoments,
    bandwidth_admissible_range,
    bias_uniform_bound,
    concentration_envelope,
    degree_concentration_bound,
    degree_lower_bound,
    degree_ratio_check,
    expectation_gnw,
    holder_density_risk_bound,
    local_connection,
    measure_retaining_estimate,
    pointwise_risk_bound,
    proxy_gap,
    smoothed_value,
    uniform_density_risk_bound,
    variance_lower_bound,
    variance_upper_bound,
    window_moments,
)

__version__ = "0.1.0"

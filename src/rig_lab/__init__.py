"""Random intersection graph laboratory.

Seeded samplers for intersection-graph and hypergraph models, closed-form
threshold statistics with their inversions, coupling constructions with
per-trial certificates, exact graph property checkers, and a reproducible
Monte Carlo sweep harness.
"""

__version__ = "0.1.0"  # set before the submodules load: experiments reads it

from .errors import (
    DimensionMismatch,
    OutOfRangeError,
    PlanningError,
    UnsupportedArity,
    ValidationError,
)
from .graphs import (
    RigInstance,
    SimpleGraph,
    UniformHypergraph,
    graph_from_text,
    graph_to_text,
    hypergraph_from_text,
    hypergraph_to_text,
    project_hypergraph,
    project_rig,
)
from .sampling import (
    FeatureProbabilities,
    Seed,
    sample_g_star,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from .thresholds import (
    CouplingParameters,
    ThresholdStats,
    coupling_parameters,
    default_omega,
    homogeneous_p_for_target,
    limit_probability,
    per_feature_mass,
    refined_threshold_rhs,
    summary_stats,
)
from .properties import (
    AuditParams,
    AuditReport,
    HamiltonicityVerdict,
    edge_connectivity,
    hamiltonicity,
    has_perfect_matching,
    is_biconnected,
    is_connected,
    is_k_connected,
    maximum_matching,
    min_degree,
    structure_audit,
    vertex_connectivity,
)
from .coupling import (
    CollectorReport,
    CouplingReport,
    FeatureDecomposition,
    PoissonizationReport,
    coupon_collector_trial,
    couple_feature,
    decompose_features,
    decompose_sizes,
    poissonization_test,
    run_coupling_trial,
)
from .experiments import (
    ExperimentConfig,
    PlannedPoint,
    SweepAborted,
    SweepResult,
    TrialRecord,
    compare_to_limit,
    emit_outputs,
    plan_point,
    run_sweep,
    wilson_interval,
)


"""Total treatment effect estimation under bipartite network interference.

Three estimators against a common synthetic oracle: a SUTVA-based
difference-in-differences baseline, a graph-exposure outcome model, and
causal message passing over temporal outcome summaries (no graph needed).
"""

from .core import (
    AllocationScenario,
    BipartiteGraph,
    BootstrapConfig,
    EffectEstimate,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    datasets_equal,
    validate_dataset,
)
from .dataio import DataFormatError, load_dataset, save_dataset
from .est_basic import estimate_basic
from .est_cmp import (
    CmpConfig,
    StateEvolutionModel,
    StateFeatures,
    build_features,
    counterfactual_evolution,
    estimate_tte_cmp,
    fit_state_evolution,
    network_bootstrap,
)
from .est_network import (
    OutcomeModel,
    direct_exposure,
    estimate_network,
    estimate_ptte,
    fit_psi,
    indirect_exposure,
)
from .regress import (
    DegenerateDesignError,
    KernelRidgeModel,
    LearnerConfig,
    RidgeModel,
    cross_validate,
    kernel_ridge_fit,
    predict,
    ridge_fit,
)
from .sim import (
    DgpParams,
    GraphParams,
    RolloutParams,
    assign_staggered_rollout,
    generate_graph,
    ground_truth_tte,
    simulate_experiment,
    simulate_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationScenario",
    "BipartiteGraph",
    "BootstrapConfig",
    "CmpConfig",
    "DataFormatError",
    "DegenerateDesignError",
    "DgpParams",
    "EffectEstimate",
    "ExperimentDataset",
    "GraphParams",
    "KernelRidgeModel",
    "LearnerConfig",
    "OutcomeModel",
    "OutcomePanel",
    "RidgeModel",
    "RolloutParams",
    "StateEvolutionModel",
    "StateFeatures",
    "TreatmentPanel",
    "UnitCovariates",
    "assign_staggered_rollout",
    "build_features",
    "counterfactual_evolution",
    "cross_validate",
    "datasets_equal",
    "direct_exposure",
    "estimate_basic",
    "estimate_network",
    "estimate_ptte",
    "estimate_tte_cmp",
    "fit_psi",
    "fit_state_evolution",
    "generate_graph",
    "ground_truth_tte",
    "indirect_exposure",
    "kernel_ridge_fit",
    "load_dataset",
    "network_bootstrap",
    "predict",
    "ridge_fit",
    "save_dataset",
    "simulate_experiment",
    "simulate_outcomes",
    "validate_dataset",
]

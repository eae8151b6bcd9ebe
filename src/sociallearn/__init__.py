"""Social learning over networks under inferential (likelihood-poisoning) attacks.

A simulator and analysis library for log-linear non-Bayesian social
learning with a subset of protocol-following adversaries that corrupt only
the likelihood models used in their Bayesian update. Provides:

* the belief dynamics as the exact log-ratio recursion, for one seed or a batch;
* the closed-form deception threshold (normal sub-network divergence
  versus centrality-weighted adversary contributions) and its verdicts;
* both constructive attack strategies (known and unknown network
  divergences), an exact face-enumeration optimality oracle, separability
  certificates, and a random baseline;
* Monte Carlo experiment orchestration with parameter sweeps, phase
  transition detection, and reproducible result files.
"""

from .errors import SocialLearnError
from .probability import (
    Hypothesis,
    LikelihoodModel,
    Pmf,
    bsc_model,
    expected_log_ratio,
    is_informative,
    kl_divergence,
    make_model,
    make_pmf,
    sample,
)
from .network import (
    Network,
    Role,
    Violation,
    adversary_centrality,
    complete_adjacency,
    edge_list_adjacency,
    erdos_renyi_adjacency,
    make_network,
    path_adjacency,
    perron_vector,
    ring_adjacency,
    star_adjacency,
    trust_weighted_complete,
    uniform_combination,
    validate_network,
)
from .learning import (
    AgentConfig,
    Trajectory,
    run,
    run_finals,
)
from .attacks import (
    AttackPlan,
    AttackPlanEntry,
    ConfidencePartition,
    DistortionRegion,
    SeparabilityReport,
    confidence_partition,
    distortion_region,
    known_divergence_attack,
    multi_adversary_known,
    one_variable_feasibility,
    oracle_optimal_attack,
    random_attack,
    select_support_pair,
    separability,
    unknown_divergence_attack,
    unknown_divergence_objective,
)
from .analysis import (
    DeceptionReport,
    Verdict,
    adversary_contribution,
    critical_parameter,
    deception_verdict,
    normal_divergence,
)
from .config import ExperimentConfig, Scenario, build_scenario, load_config
from .simulator import (
    ExperimentResult,
    SweepResult,
    emit_results,
    emit_sweep_results,
    run_experiment,
    run_sweep,
)

__version__ = "0.1.0"

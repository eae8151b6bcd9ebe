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

Every name below is exported lazily (PEP 562): ``import sociallearn`` loads no
submodule, and a name's home module is imported on its first access. So
``sociallearn.load_config`` costs only ``config``, ``probability``, ``errors``
and PyYAML; numpy loads with the first network, attack or kernel use.
"""

import importlib

__version__ = "0.1.0"

#: the exported names of each submodule; the submodules are exported too
_MODULES = {
    "errors": ("SocialLearnError",),
    "probability": (
        "Hypothesis", "LikelihoodModel", "Pmf", "bsc_model", "expected_log_ratio",
        "is_informative", "kl_divergence", "make_model", "make_pmf", "sample",
    ),
    "network": (
        "Network", "Role", "Violation", "adversary_centrality", "complete_adjacency",
        "edge_list_adjacency", "erdos_renyi_adjacency", "make_network", "perron_vector",
        "ring_adjacency", "star_adjacency", "trust_weighted_complete", "uniform_combination",
        "validate_network",
    ),
    "learning": ("AgentConfig", "Trajectory", "run", "run_finals"),
    "attacks": (
        "AttackPlan", "AttackPlanEntry", "ConfidencePartition", "DistortionRegion",
        "SeparabilityReport", "confidence_partition", "distortion_region",
        "known_divergence_attack", "multi_adversary_known", "one_variable_feasibility",
        "oracle_optimal_attack", "random_attack", "select_support_pair", "separability",
        "unknown_divergence_attack", "unknown_divergence_objective",
    ),
    "analysis": (
        "DeceptionReport", "Verdict", "adversary_contribution", "critical_parameter",
        "deception_verdict", "normal_divergence",
    ),
    "config": ("ExperimentConfig", "Scenario", "build_scenario", "load_config"),
    "simulator": (
        "ExperimentResult", "SweepResult", "emit_results", "emit_sweep_results",
        "run_experiment", "run_sweep",
    ),
}
#: home module of each exported name
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_EXPORTS, *_MODULES]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

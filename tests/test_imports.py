"""What importing the package loads: lazy exports, and config work without numpy."""

import json
import os
import subprocess
import sys

import pytest

import sociallearn

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIGS = sorted(
    os.path.join(CONFIG_DIR, name) for name in os.listdir(CONFIG_DIR) if name.endswith(".yaml")
)
#: modules that parsing, validating or refusing a config must not load
HEAVY = ["numpy"] + [
    f"sociallearn.{m}" for m in ("network", "learning", "attacks", "analysis", "simulator")
]

#: every name the package exported when its imports were eager, by home module
EXPORTED = {
    "errors": ["SocialLearnError"],
    "probability": [
        "Hypothesis", "LikelihoodModel", "Pmf", "bsc_model", "expected_log_ratio",
        "is_informative", "kl_divergence", "make_model", "make_pmf", "sample",
    ],
    "network": [
        "Network", "Role", "Violation", "adversary_centrality", "complete_adjacency",
        "edge_list_adjacency", "erdos_renyi_adjacency", "make_network", "perron_vector",
        "ring_adjacency", "star_adjacency", "trust_weighted_complete", "uniform_combination",
        "validate_network",
    ],
    "learning": ["AgentConfig", "Trajectory", "run", "run_finals"],
    "attacks": [
        "AttackPlan", "AttackPlanEntry", "ConfidencePartition", "DistortionRegion",
        "SeparabilityReport", "confidence_partition", "distortion_region",
        "known_divergence_attack", "multi_adversary_known", "one_variable_feasibility",
        "oracle_optimal_attack", "random_attack", "select_support_pair", "separability",
        "unknown_divergence_attack", "unknown_divergence_objective",
    ],
    "analysis": [
        "DeceptionReport", "Verdict", "adversary_contribution", "critical_parameter",
        "deception_verdict", "normal_divergence",
    ],
    "config": ["ExperimentConfig", "Scenario", "build_scenario", "load_config"],
    "simulator": [
        "ExperimentResult", "SweepResult", "emit_results", "emit_sweep_results",
        "run_experiment", "run_sweep",
    ],
}


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; the JSON value it prints last is returned."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(modules=HEAVY) -> str:
    """Code that prints which of ``modules`` the interpreter has imported."""
    return f"print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))\n"


def test_loading_every_bundled_config_imports_no_numpy():
    code = (
        "import json, sys\n"
        "import sociallearn\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        cfg = sociallearn.load_config(fh.read())\n"
        "    cfg.echo()\n" + loaded()
    )
    assert fresh(code, *CONFIGS) == []


@pytest.mark.parametrize("edit", [
    ("stop: 0.24", "stop: 1.0e+300"),  # a grid too large to expand
    ("stride: 0", "stride: 0\n  oops: 1"),  # an unknown key
    ("n_agents: 15", "n_agents: fifteen"),  # a type
    ("n_malicious: 4", "n_malicious: 40"),  # a range
])
def test_refused_config_exits_without_numpy(tmp_path, edit):
    with open(os.path.join(CONFIG_DIR, "sweep_centrality.yaml"), encoding="utf-8") as fh:
        text = fh.read()
    assert edit[0] in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(*edit))
    code = (
        "import json, sys\n"
        "from sociallearn import cli\n"
        "assert cli.main(['validate', '--config', sys.argv[1]]) == 1\n" + loaded()
    )
    assert fresh(code, str(bad)) == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["validate"],  # no --config
    ["run", "--config", "x.yaml", "--jobs", "0"],
])
def test_help_and_usage_errors_exit_without_numpy(argv):
    code = (
        "import json, sys\n"
        "from sociallearn import cli\n"
        "try:\n"
        "    cli.main(json.loads(sys.argv[1]))\n"
        "except SystemExit:\n"
        "    pass\n" + loaded()
    )
    assert fresh(code, json.dumps(argv)) == []


def test_import_loads_no_submodule():
    submodules = [f"sociallearn.{m}" for m in EXPORTED]
    assert fresh("import json, sys\nimport sociallearn\n" + loaded(submodules)) == []


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_export_is_its_home_modules_object(module, name):
    home = __import__(f"sociallearn.{module}", fromlist=[name])
    assert getattr(sociallearn, name) is getattr(home, name)
    assert name in dir(sociallearn)
    assert name in sociallearn.__all__


def test_submodules_resolve_as_attributes():
    for module in EXPORTED:
        assert getattr(sociallearn, module) is sys.modules[f"sociallearn.{module}"]
        assert module in dir(sociallearn)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        sociallearn.not_a_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from sociallearn import *", namespace)
    for module, names in EXPORTED.items():
        assert namespace[module] is sys.modules[f"sociallearn.{module}"]
        for name in names:
            assert namespace[name] is getattr(sys.modules[f"sociallearn.{module}"], name)

"""Config loading, experiment orchestration, sweeps, and result files."""

import glob
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from sociallearn import (
    Verdict,
    build_scenario,
    load_config,
    run,
    run_experiment,
    run_finals,
    run_sweep,
)
from sociallearn import analysis, attacks, cli, config, learning, network, simulator
from sociallearn.analysis import (
    DeceptionReport,
    critical_parameter,
    deception_verdict,
    normal_divergence,
)
from sociallearn.config import apply_sweep_value, build_plan, sweep_scenarios
from sociallearn.errors import ConfigParseError, ConfigValidationError, InfiniteDivergenceError
from sociallearn.learning import log_ratio_table, network_average_true_belief
from sociallearn.simulator import (
    SweepPoint,
    attack_document,
    emit_results,
    emit_sweep_results,
    predict_document,
    render_json,
)

from helpers import (
    homogeneous_centrality_margin,
    reference_known_plan,
    reference_trajectories_csv,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def read_config(name):
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


MINIMAL = """
topology: {kind: complete, n_agents: 2}
agents:
  n_malicious: 0
  model: {kind: bsc, p: 0.8}
"""


TABULAR = "output: {format: tabular}\n"


class TestLoadConfig:
    def test_minimal_defaults(self):
        cfg = load_config(MINIMAL)
        assert cfg.experiment.horizon == 2000
        assert cfg.experiment.seeds == (0,)
        assert cfg.experiment.initial_belief_theta1 == 0.5
        assert cfg.attack.strategy == "none"
        assert cfg.output.format == "structured"

    def test_epsilon_violates_support_floor(self):
        text = MINIMAL + (
            "attack: {strategy: unknown_divergences, epsilon: 0.6}\n"
        )
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert any("epsilon" in v for v in err.value.violations)

    def test_parse_error(self):
        with pytest.raises(ConfigParseError):
            load_config("topology: [unclosed")

    def test_all_violations_reported(self):
        text = """
topology: {kind: nosuch, n_agents: 1}
agents: {n_malicious: 5}
experiment: {theta_true: theta9, horizon: 0}
output: {format: parquet}
"""
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert len(err.value.violations) >= 5

    def test_repeated_seeds_listed_with_other_violations(self):
        text = MINIMAL.replace("n_agents: 2", "n_agents: 1") + (
            "experiment: {horizon: 0, seeds: [4, 1, 4, 2, 1, 4]}\n"
        )
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert err.value.violations == [
            "topology.n_agents must be >= 2, got 1",
            "experiment.horizon must be >= 1, got 0",
            "experiment.seeds must be distinct, got [4, 1] more than once",
        ]

    @pytest.mark.parametrize(
        "value, violations",
        [
            ("[1.5, 0.0]", [
                "experiment.initial_belief_theta1[0] must lie strictly inside (0, 1), got 1.5",
                "experiment.initial_belief_theta1[1] must lie strictly inside (0, 1), got 0.0",
            ]),
            ("[0.5, 1.0, 0.2]", [
                "experiment.initial_belief_theta1 list must have one entry per agent (2), got 3",
                "experiment.initial_belief_theta1[1] must lie strictly inside (0, 1), got 1.0",
            ]),
            ("1", ["experiment.initial_belief_theta1 must lie strictly inside (0, 1), got 1.0"]),
            ("-0.25", [
                "experiment.initial_belief_theta1 must lie strictly inside (0, 1), got -0.25",
            ]),
        ],
    )
    def test_bad_initial_beliefs_named_by_path_and_value(self, value, violations):
        text = MINIMAL + f"experiment: {{initial_belief_theta1: {value}}}\n"
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert err.value.violations == violations

    @pytest.mark.parametrize("values, k, got", [
        ("[0.95, 0.6, 0.9, 0.7, 0.6]", 2, "0.9 after 0.6"),
        ("[0.6, 0.7, 0.7]", 2, "0.7 after 0.7"),
        ("[0.6, 0.6]", 1, "0.6 after 0.6"),
    ])
    def test_sweep_values_must_be_strictly_monotone(self, values, k, got):
        # the empirical crossing interpolates between adjacent listed values
        text = MINIMAL + f"sweep: {{parameter: bsc_p, values: {values}}}\n"
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert err.value.violations == [
            f"sweep.values[{k}] must keep the list strictly increasing or strictly "
            f"decreasing, got {got}"
        ]

    @pytest.mark.parametrize("sweep", [
        "values: [0.9, 0.7, 0.6]",
        "grid: {start: 0.95, stop: 0.55, step: -0.01}",
    ])
    def test_decreasing_sweep_values_accepted(self, sweep):
        load_config(MINIMAL + f"sweep: {{parameter: bsc_p, {sweep}}}\n")

    def test_order_checked_once_every_value_is_in_range(self):
        text = MINIMAL + "sweep: {parameter: bsc_p, values: [0.9, 2.0, 0.95]}\n"
        with pytest.raises(ConfigValidationError) as err:
            load_config(text)
        assert err.value.violations == [
            "sweep.values[1] must lie in (0.5, 1) for bsc_p, got 2.0"
        ]

    @pytest.mark.parametrize("stop, last, count", [
        (0.956, 0.95, 41),  # rounding the point count up would add 0.96
        (0.996, 0.99, 45),  # ... and 1.0, outside (0.5, 1)
    ])
    def test_grid_never_passes_stop(self, stop, last, count):
        grid = f"{{start: 0.55, stop: {stop}, step: 0.01}}"
        values = load_config(MINIMAL + f"sweep: {{parameter: bsc_p, grid: {grid}}}\n").sweep.values
        assert (values[-1], len(values)) == (last, count)

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_round_trip_identity(self, name):
        cfg = load_config(read_config(name))
        again = load_config(cfg.echo())
        assert again.to_dict() == cfg.to_dict()
        assert again.echo() == cfg.echo()

    @pytest.mark.parametrize(
        "sections, paths",
        [
            pytest.param({"topology": {"n_agents": "three"}}, ["topology.n_agents"], id="int-text"),
            pytest.param({"experiment": {"seeds": 5}}, ["experiment.seeds"], id="list-scalar"),
            pytest.param(
                {"topology": {"kind": "edge_list", "edges": [[0]]}},
                ["topology.edges[0]"],
                id="edge-one-end",
            ),
            pytest.param({"experiment": {"seeds": [-1]}}, ["experiment.seeds"], id="seed-negative"),
            pytest.param(
                {"experiment": {"horizon": 10.7, "stride": 2.5}},
                ["experiment.horizon", "experiment.stride"],
                id="int-fraction",
            ),
            pytest.param(
                {"attack": {"strategy": "known_divergences", "aggregate_centrality": "no"}},
                ["attack.aggregate_centrality"],
                id="bool-text",
            ),
            pytest.param(
                {
                    "agents": {"n_malicious": 1},
                    "attack": {"strategy": "unknown_divergences", "epsilon": 0.01},
                    "sweep": {"parameter": "epsilon", "values": [0.01, 0.7]},
                },
                ["sweep.values[1]"],
                id="epsilon-sweep-range",
            ),
            pytest.param({"topology": {"n_agent": 15}}, ["topology.n_agent"], id="unknown-key"),
        ],
    )
    def test_bad_value_is_a_named_violation(self, sections, paths):
        doc = yaml.safe_load(MINIMAL)
        for section, fields in sections.items():
            doc.setdefault(section, {}).update(fields)
        with pytest.raises(ConfigValidationError) as err:
            load_config(yaml.safe_dump(doc))
        violations = err.value.violations
        assert len(violations) == len(paths)
        for path in paths:
            assert any(v.startswith(path + " ") for v in violations), (path, violations)

    def test_echo_completeness(self):
        # flipping any knob that affects results must change the echo; a knob
        # that only some kinds read is flipped on a section of such a kind
        doc = yaml.safe_load(read_config("deceived_random_bsc08.yaml"))
        star = {"kind": "star", "n_agents": 15}
        edge_list = {"kind": "edge_list", "n_agents": 15}
        trust = {"kind": "trust_weighted_complete", "n_agents": 15}
        known = {"strategy": "known_divergences", "epsilon": 5e-3}
        random = {"strategy": "random", "epsilon": 5e-3}
        mutations = [
            (None, "topology", "seed", 29),
            (None, "topology", "edge_prob", 0.35),
            (None, "topology", "n_agents", 14),
            (star, "topology", "hub", 3),
            (edge_list, "topology", "edges", [[0, 2]]),
            (trust, "topology", "trust_weight", 0.1),
            (None, "agents", "n_malicious", 3),
            (None, "agents", "model", {"kind": "bsc", "p": 0.85}),
            (None, "attack", "strategy", "random"),
            (None, "attack", "epsilon", 1e-4),
            (known, "attack", "aggregate_centrality", True),
            (known, "attack", "s1", 0.2),
            (known, "attack", "s2", 0.2),
            (random, "attack", "seed", 3),
            (None, "experiment", "theta_true", "theta2"),
            (None, "experiment", "horizon", 777),
            (None, "experiment", "seeds", [5]),
            (None, "experiment", "stride", 17),
            (None, "experiment", "initial_belief_theta1", 0.4),
            (None, "output", "directory", "elsewhere"),
            (None, "output", "format", "tabular"),
        ]
        for base_section, section, key, value in mutations:
            base = yaml.safe_load(yaml.safe_dump(doc))
            if base_section is not None:
                base[section] = dict(base_section)
            base_echo = load_config(yaml.safe_dump(base)).echo()
            base.setdefault(section, {})[key] = value
            echo = load_config(yaml.safe_dump(base)).echo()
            assert echo != base_echo, f"{section}.{key} missing from echo"

    def test_echo_holds_only_the_keys_each_kind_reads(self):
        echo = yaml.safe_load(load_config(read_config("deceived_random_bsc08.yaml")).echo())
        assert sorted(echo["topology"]) == ["edge_prob", "kind", "n_agents", "seed"]
        assert sorted(echo["attack"]) == ["epsilon", "strategy"]
        assert sorted(echo["agents"]["model"]) == ["kind", "p"]


@pytest.mark.parametrize("topology, adjacency", [
    ("{kind: erdos_renyi, n_agents: 6, edge_prob: 0.5, seed: 3}",
     lambda: network.erdos_renyi_adjacency(6, 0.5, 3)),
    ("{kind: star, n_agents: 6, hub: 2}", lambda: network.star_adjacency(6, 2)),
    ("{kind: complete, n_agents: 6}", lambda: network.complete_adjacency(6)),
    ("{kind: ring, n_agents: 6}", lambda: network.ring_adjacency(6)),
    ("{kind: edge_list, n_agents: 3, edges: [[0, 1], [2, 1]]}",
     lambda: network.edge_list_adjacency(3, [(0, 1), (2, 1)])),
])
def test_each_topology_kind_builds_from_the_keys_it_reads(topology, adjacency):
    cfg = load_config(f"topology: {topology}\nagents: {{model: {{kind: bsc, p: 0.8}}}}\n")
    want = network.uniform_combination(adjacency())
    np.testing.assert_array_equal(config.build_network(cfg).combination, want)


PURE_YAML = (yaml.SafeLoader, yaml.SafeDumper)
LIBYAML = (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None))
needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)


def under_backend(backend, fn):
    """``fn()`` with ``config`` parsing and echoing through one YAML backend."""
    loader, dumper = backend
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "_LOADER", loader)
        mp.setattr(config, "_DUMPER", dumper)
        return fn()


class TestYamlBackends:
    @needs_libyaml
    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_same_data_and_echo_bytes(self, name):
        text = read_config(name)
        pure = under_backend(PURE_YAML, lambda: load_config(text))
        fast = under_backend(LIBYAML, lambda: load_config(text))
        assert fast.to_dict() == pure.to_dict()
        assert under_backend(LIBYAML, fast.echo) == under_backend(PURE_YAML, fast.echo)

    @pytest.mark.parametrize(
        "backend",
        [pytest.param(PURE_YAML, id="pure"), pytest.param(LIBYAML, id="libyaml", marks=needs_libyaml)],
    )
    def test_parse_error_gives_the_line(self, backend):
        with pytest.raises(ConfigParseError) as err:
            under_backend(backend, lambda: load_config("topology: [unclosed"))
        assert "line" in str(err.value)


EPSILON_SWEEP = """
topology: {{kind: erdos_renyi, n_agents: 8, edge_prob: 0.4, seed: 5}}
agents:
  n_malicious: 2
  model: {{kind: rows, theta1: [0.6, 0.3, 0.1], theta2: [0.3, 0.4, 0.3]}}
attack: {{strategy: {attack}}}
experiment: {{theta_true: theta1, horizon: 60, seeds: [0, 3], stride: 0}}
sweep: {{parameter: epsilon, values: {values}}}
"""


def _count_topology_builds(monkeypatch) -> dict[str, int]:
    """Count the network builds and Perron solves of scenario assembly.

    ``config`` imports ``perron_vector`` when it builds a topology, so the
    network module's binding is the one its calls go through."""
    counts = {"build_network": 0, "perron_vector": 0}
    for module, name in ((config, "build_network"), (network, "perron_vector")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def _rebuilt_per_value(cfg):
    """``run_sweep`` with the whole scenario rebuilt at every grid and root value."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "sweep_scenarios",
                   lambda cfg: lambda value: build_scenario(apply_sweep_value(cfg, value)))
        return run_sweep(cfg)


class TestSweepTopology:
    @pytest.mark.parametrize("attack, values, crosses", [
        ("unknown_divergences", [1.0e-4, 1.0e-2, 0.1, 0.3], True),
        # with the divergences it computes, the forgery deceives at every feasible epsilon
        ("known_divergences, aggregate_centrality: true", [1.0e-6, 1.0e-4, 1.0e-3], False),
        ("known_divergences, s1: 0.05, s2: 0.05", [1.0e-5, 1.0e-3, 1.0e-2, 3.0e-2], True),
    ])
    def test_epsilon_sweep_builds_one_topology(self, attack, values, crosses, monkeypatch):
        cfg = load_config(EPSILON_SWEEP.format(attack=attack, values=values))
        want = _rebuilt_per_value(cfg)
        counts = _count_topology_builds(monkeypatch)
        result = run_sweep(cfg)
        assert counts == {"build_network": 1, "perron_vector": 1}
        assert result.points == want.points
        assert result.theory_root == want.theory_root
        assert (result.theory_root is not None) == crosses

    def test_bsc_p_sweep_builds_one_topology(self, monkeypatch):
        cfg = _with(load_config(read_config("sweep_bsc_p.yaml")), horizon=60, seeds=(0, 1))
        cfg = _with_sweep_values(cfg, [0.6, 0.7, 0.8, 0.9])
        want = _rebuilt_per_value(cfg)
        counts = _count_topology_builds(monkeypatch)
        result = run_sweep(cfg)
        assert counts == {"build_network": 1, "perron_vector": 1}
        assert result.points == want.points
        assert result.theory_root == want.theory_root is not None

    def test_centrality_sweep_builds_one_topology_per_value(self, monkeypatch):
        cfg = _with(load_config(read_config("sweep_centrality.yaml")), horizon=60, seeds=(0, 1))
        cfg = _with_sweep_values(cfg, [0.02, 0.1, 0.18, 0.24])
        want = _rebuilt_per_value(cfg)
        counts = _count_topology_builds(monkeypatch)
        evals = []

        def counted_root(margin_of, bracket):
            return critical_parameter(lambda x: evals.append(x) or margin_of(x), bracket)

        monkeypatch.setattr(simulator, "critical_parameter", counted_root)
        result = run_sweep(cfg)
        # every grid point, every bisection step and the root's centrality
        builds = len(cfg.sweep.values) + len(evals) + 1
        assert len(evals) > 2
        assert counts == {"build_network": builds, "perron_vector": builds}
        assert result.points == want.points
        assert result.theory_root == want.theory_root is not None

    @pytest.mark.parametrize("attack, forgeries", [
        ("strategy: unknown_divergences\n  epsilon: 5.0e-3", 1),
        ("strategy: random\n  epsilon: 5.0e-3\n  seed: 3", 0),
        ("strategy: none", 0),
    ])
    def test_centrality_sweep_assembles_the_models_once(self, attack, forgeries, monkeypatch):
        # only a known_divergences plan reads the Perron vector, so under any other
        # strategy the 45 grid points, the bisection steps and the root share one
        # plan, where a per-value rebuild forges at each of the 77
        text = read_config("sweep_centrality.yaml").replace(
            "strategy: unknown_divergences\n  epsilon: 5.0e-3", attack
        )
        cfg = _with(load_config(text), horizon=20, seeds=(0,))
        want = _rebuilt_per_value(cfg)
        calls = _count_forgeries(monkeypatch)
        plans = []
        monkeypatch.setattr(config, "build_plan", lambda *a: plans.append(1) or build_plan(*a))
        result = run_sweep(cfg)
        assert len(calls) == forgeries and len(plans) == 1
        assert result.points == want.points
        assert result.theory_root == want.theory_root


def _count_forgeries(monkeypatch) -> list:
    """The models ``build_plan`` hands to ``unknown_divergence_attack``, in call order."""
    calls = []
    forge = attacks.unknown_divergence_attack

    def counted(model, eps):
        calls.append(model)
        return forge(model, eps)

    # build_plan imports the forgery from attacks at each call
    monkeypatch.setattr(attacks, "unknown_divergence_attack", counted)
    return calls


class TestBuildPlan:
    RANDOM = """
topology: {kind: complete, n_agents: 4}
agents:
  n_malicious: 2
  model: {kind: rows, theta1: [0.5, 0.3, 0.2], theta2: [0.2, 0.3, 0.5]}
attack: {strategy: random, epsilon: 1.0e-2, seed: 7}
"""

    def test_shared_model_is_forged_once(self, monkeypatch):
        cfg = load_config(read_config("deceived_random_bsc08.yaml"))
        calls = _count_forgeries(monkeypatch)
        scenario = build_scenario(cfg)
        assert len(calls) == 1
        assert len(scenario.plan.entries) == cfg.agents.n_malicious == 4
        for k, entry in zip(scenario.net.malicious_indices, scenario.plan.entries):
            model = scenario.agents[k].true_model
            assert entry.forged == attacks.unknown_divergence_attack(model, cfg.attack.epsilon)
            assert scenario.agents[k].forged_model is entry.forged

    def test_equal_per_agent_models_are_forged_once(self, monkeypatch):
        models = "  models:\n" + "".join(
            f"    - {{kind: bsc, p: {0.9 if k % 2 else 0.8}}}\n" for k in range(15)
        )
        text = read_config("deceived_random_bsc08.yaml").replace(
            "  model: {kind: bsc, p: 0.8}\n", models
        )
        cfg = load_config(text)
        calls = _count_forgeries(monkeypatch)
        scenario = build_scenario(cfg)
        assert len(calls) == 2  # bsc 0.8 and bsc 0.9, over four adversaries
        for k, entry in zip(scenario.net.malicious_indices, scenario.plan.entries):
            model = scenario.agents[k].true_model
            assert entry.forged == attacks.unknown_divergence_attack(model, cfg.attack.epsilon)

    def test_known_divergence_documents_match_per_adversary_plan(self, monkeypatch):
        # aggregate centrality: the 12 adversaries hold two distinct models
        models = "".join(
            f"    - {{kind: bsc, p: {0.9 if k < 12 and k % 2 else 0.8}}}\n" for k in range(60)
        )
        cfg = load_config(
            "topology: {kind: erdos_renyi, n_agents: 60, edge_prob: 0.15, seed: 5}\n"
            "agents:\n  n_malicious: 12\n  models:\n" + models
            + "attack: {strategy: known_divergences, epsilon: 1.0e-3, aggregate_centrality: true}\n"
        )
        calls = []
        construct = attacks.known_divergence_attack
        monkeypatch.setattr(
            attacks, "known_divergence_attack", lambda *args: calls.append(args) or construct(*args)
        )
        scenario = build_scenario(cfg)
        assert len(calls) == 2
        net, u = scenario.net, scenario.perron
        models = [a.true_model for a in scenario.agents]
        s1, s2 = (normal_divergence(net, models, j, u) for j in (1, 2))
        mal = net.malicious_indices
        plan = reference_known_plan(
            [scenario.agents[k].true_model for k in mal], [u[k] for k in mal],
            s1, s2, cfg.attack.epsilon, aggregate_centrality=True,
        )
        forged = dict(zip(mal, (e.forged for e in plan.entries)))
        agents = tuple(
            replace(a, forged_model=forged.get(k)) for k, a in enumerate(scenario.agents)
        )
        reference = replace(scenario, agents=agents, plan=plan)
        assert all(e.params["floor_satisfied"] for e in plan.entries)
        assert render_json(attack_document(cfg, scenario)) == render_json(
            attack_document(cfg, reference)
        )
        assert render_json(predict_document(cfg, scenario, scenario.report())) == render_json(
            predict_document(cfg, reference, reference.report())
        )

    def test_random_forgeries_stay_per_adversary(self):
        # one stream drawn in adversary order, so a shared model still gets two forgeries
        cfg = load_config(self.RANDOM)
        scenario = build_scenario(cfg)
        models = [a.true_model for a in scenario.agents]
        plan = build_plan(cfg, scenario.net, models, scenario.perron)
        pinned = [
            ((0.3082266399196018, 0.44212764319420766, 0.24964571688619064),
             (0.20357912408567228, 0.05466538828757557, 0.7417554876267521)),
            ((0.01278732341495662, 0.8127980930751342, 0.17441458350990927),
             (0.26265563465722347, 0.46492698686466316, 0.2724173784781133)),
        ]
        for entry, (theta1, theta2) in zip(plan.entries, pinned, strict=True):
            assert entry.forged.given_theta1.mass == theta1
            assert entry.forged.given_theta2.mass == theta2
            assert entry.params == {"seed": 7}
        assert scenario.plan == plan


class TestRunExperiment:
    def test_high_centrality_attack_misleads(self):
        cfg = load_config(read_config("deceived_random_bsc08.yaml"))
        cfg = _with(cfg, horizon=400, seeds=(0, 1, 2))
        result = run_experiment(cfg)
        assert result.report.verdict1 is Verdict.MISLED
        for final in result.final_true_beliefs():
            assert final < 0.01

    def test_low_centrality_sharp_models_learn(self):
        cfg = load_config(read_config("learns_truth_random_bsc09.yaml"))
        cfg = _with(cfg, horizon=400, seeds=(0, 1, 2))
        result = run_experiment(cfg)
        assert result.report.verdict1 is Verdict.LEARNS_TRUTH
        for final in result.final_true_beliefs():
            assert final > 0.99

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_arrays_are_the_runs(self, jobs):
        # records (S, R, n) and finals (S, n): row s is seed s's run, bit for bit
        cfg = load_config(read_config("deceived_random_bsc08.yaml"))
        cfg = _with(cfg, horizon=60, stride=1)
        result = run_experiment(cfg, jobs=jobs)
        e, s = cfg.experiment, result.scenario
        assert result.records.shape == (len(e.seeds), 60, s.net.n_agents)
        assert result.finals.shape == (len(e.seeds), s.net.n_agents)
        beliefs = result.final_true_beliefs()
        for k, seed in enumerate(e.seeds):
            traj = run(s.net, s.agents, s.theta_true, e.horizon, seed=seed, stride=e.stride)
            assert np.array_equal(result.steps, traj.steps)
            assert np.array_equal(result.records[k], traj.log_ratio)
            assert np.array_equal(result.finals[k], traj.final_log_ratio)
            assert beliefs[k] == traj.final_network_average_true_belief()

    def test_no_adversary_agreement(self):
        cfg = load_config(read_config("minimal_no_attack.yaml"))
        result = run_experiment(cfg)
        assert result.report.verdict1 is Verdict.LEARNS_TRUTH
        assert all(row["agrees"] for row in result.prediction_table())

    def test_bundled_configs_verdicts_match_simulation(self):
        # every bundled experiment config with a decisive margin must agree
        # with its own Monte Carlo majority
        for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml"))):
            with open(path, "r", encoding="utf-8") as fh:
                cfg = load_config(fh.read())
            if cfg.sweep is not None:
                continue
            cfg = _with(cfg, horizon=min(cfg.experiment.horizon, 600))
            result = run_experiment(cfg)
            theta = result.scenario.theta_true
            if abs(result.report.margin(theta)) <= 0.05:
                continue
            rows = result.prediction_table()
            agreeing = sum(1 for r in rows if r["agrees"])
            assert agreeing > len(rows) / 2, f"{os.path.basename(path)} disagrees"


class TestEmitResults:
    def test_row_count_formula(self, tmp_path):
        cfg = load_config(
            MINIMAL + "experiment: {horizon: 60, seeds: [0, 1], stride: 10}\n" + TABULAR
        )
        result = run_experiment(cfg)
        paths = emit_results(result, str(tmp_path))
        csv = next(p for p in paths if p.endswith(".csv"))
        with open(csv, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # horizon/stride x n_agents x n_seeds + header
        assert len(lines) == (60 // 10) * 2 * 2 + 1
        assert lines[0] == "step,agent_id,role,belief_theta1,log_ratio,seed"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(read_config("misled_star_bsc09.yaml") + TABULAR)
        cfg = _with(cfg, horizon=50, seeds=(0, 1))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            emit_results(run_experiment(cfg), str(out))
        for name in ("trajectories.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_stride_zero_summary_only(self, tmp_path):
        cfg = load_config(MINIMAL + "experiment: {horizon: 40, stride: 0}\n" + TABULAR)
        result = run_experiment(cfg)
        paths = emit_results(result, str(tmp_path))
        csv = next(p for p in paths if p.endswith(".csv"))
        with open(csv, "r", encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 1  # header only
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["per_seed"][0]["final_true_belief"] > 0.9

    def test_structured_embeds_config_echo(self, tmp_path):
        cfg = load_config(MINIMAL)
        result = run_experiment(cfg)
        emit_results(result, str(tmp_path))
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"] == cfg.to_dict()
        assert "deception_report" in doc

    def test_unwritable_destination(self, tmp_path):
        from sociallearn.errors import OutputIOError

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = load_config(MINIMAL)
        result = run_experiment(cfg)
        with pytest.raises(OutputIOError):
            emit_results(result, str(blocker / "nested"))


class TestTrajectoryCsv:
    """The chunked writer's bytes equal the per-row reference writer's."""

    @staticmethod
    def assert_matches_reference(result, out_dir):
        emit_results(result, str(out_dir))
        written = (out_dir / "trajectories.csv").read_bytes()
        assert written == reference_trajectories_csv(result).encode("utf-8")

    @pytest.mark.parametrize(
        "name, theta, stride",
        [
            ("misled_star_bsc09.yaml", "theta1", 1),
            ("nonseparable_askd.yaml", "theta2", 3),
            ("misled_star_bsc09.yaml", "theta1", 0),  # header only
        ],
    )
    def test_bundled_config_matches_reference(self, name, theta, stride, tmp_path):
        cfg = load_config(read_config(name) + TABULAR)
        assert cfg.experiment.theta_true == theta
        result = run_experiment(_with(cfg, horizon=60, seeds=(0, 1), stride=stride))
        assert len({role.value for role in result.scenario.net.roles}) == 2  # both roles
        self.assert_matches_reference(result, tmp_path)

    @pytest.mark.parametrize("rows", [1, 7, simulator._CSV_ROWS])
    def test_chunk_boundaries(self, rows, tmp_path, monkeypatch):
        # 4099 steps at n = 2: one step per chunk (a step alone is more than
        # one row), or chunks of 3 or _CSV_ROWS // 2 steps, the last one shorter
        monkeypatch.setattr(simulator, "_CSV_ROWS", rows)
        cfg = load_config(
            MINIMAL + "experiment: {horizon: 4099, seeds: [0, 1], stride: 1}\n" + TABULAR
        )
        self.assert_matches_reference(run_experiment(cfg), tmp_path)

    def test_extreme_log_ratios(self, tmp_path):
        import dataclasses

        result = run_experiment(load_config(MINIMAL + "experiment: {horizon: 6}\n" + TABULAR))
        lam = np.array(
            [0.0, -0.0, 40.0, -40.0, 800.0, -800.0,
             1e-300, 1e308, -1e308, -740.0, 5e-324, -5e-324]
        ).reshape(6, 2)
        assert result.config.experiment.seeds == (0,)
        result = dataclasses.replace(result, steps=np.arange(1, 7), records=lam[None])
        beliefs = learning._sigmoid(result.records[0])
        assert 0.0 in beliefs and 1.0 in beliefs
        assert np.any((beliefs > 0.0) & (beliefs < np.finfo(float).tiny))  # subnormal
        self.assert_matches_reference(result, tmp_path)

    def test_band_edge_log_ratios(self, tmp_path):
        # both columns on, inside and just outside each edge of the band that
        # _render_floats hands to repr: |x| in [1e-9, 1e-4) and |x| >= 1e16
        import dataclasses

        result = run_experiment(load_config(MINIMAL + "experiment: {horizon: 9}\n" + TABULAR))
        logit = [np.log(edge / (1.0 - edge)) + d for edge in (1e-9, 1e-4) for d in (-1e-6, 1e-6)]
        lam = np.array(
            [1e16, -1e16, np.nextafter(1e16, 0.0), -np.nextafter(1e16, 0.0),
             1e-5, -1e-5, -1e-7, 1e-9, np.nextafter(1e-9, 0.0), -1e-4,
             np.nextafter(1e-4, 0.0), 1e-10, *logit, -23.03, -9.21]
        ).reshape(9, 2)
        assert result.config.experiment.seeds == (0,)
        result = dataclasses.replace(result, steps=np.arange(1, 10), records=lam[None])
        beliefs = learning._sigmoid(result.records[0])
        for edge in (1e-9, 1e-4):
            near = beliefs[np.abs(beliefs / edge - 1.0) < 1e-5]
            assert near.min() < edge <= near.max()
        self.assert_matches_reference(result, tmp_path)

    def test_memory_flat_in_horizon(self, tmp_path):
        import tracemalloc

        cfg = load_config(read_config("deceived_random_bsc08.yaml") + TABULAR)
        # a first emit imports orjson, which would count in the first peak
        emit_results(run_experiment(_with(cfg, horizon=10, seeds=(0,))), str(tmp_path / "warm"))
        peaks = []
        for horizon in (1000, 4000):
            result = run_experiment(_with(cfg, horizon=horizon, seeds=(0, 1), stride=1))
            tracemalloc.start()
            try:
                emit_results(result, str(tmp_path / str(horizon)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.25 * min(peaks)

    def test_memory_flat_in_seed_count(self, tmp_path):
        # nothing is kept from one seed's rows to the next
        import tracemalloc

        cfg = load_config(read_config("deceived_random_bsc08.yaml") + TABULAR)
        # a first emit imports orjson, which would count in the first peak
        emit_results(run_experiment(_with(cfg, horizon=10, seeds=(0,))), str(tmp_path / "warm"))
        peaks = []
        for n_seeds in (2, 8):
            result = run_experiment(_with(cfg, horizon=1000, seeds=range(n_seeds), stride=1))
            tracemalloc.start()
            try:
                emit_results(result, str(tmp_path / str(n_seeds)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.25 * min(peaks)


class TestRenderFloats:
    def test_tokens_are_repr_bytes(self):
        # over a million seeded doubles, dense at every layout change of repr
        rng = np.random.default_rng(2018)
        bits = rng.integers(0, 2**64, size=750_000, dtype=np.uint64).view(np.float64)
        magnitudes = 10.0 ** rng.uniform(-320.0, 3.0, size=300_000)
        signs = rng.choice([-1.0, 1.0], size=magnitudes.size)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        neighbours = np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
        )
        finfo = np.finfo(float)
        special = [0.0, -0.0, 5e-324, finfo.tiny, finfo.max, np.inf, -np.inf, np.nan]
        x = np.concatenate(
            [bits[np.isfinite(bits)], signs * magnitudes, neighbours, -neighbours, special]
        )
        assert x.size >= 1_000_000
        assert simulator._render_floats(x) == list(map(repr, x.tolist()))


class TestRunSweep:
    def test_config_without_sweep_section_refused(self):
        with pytest.raises(ConfigValidationError) as err:
            run_sweep(load_config(MINIMAL))
        assert err.value.violations == ["sweep must be given to run a sweep"]

    def test_single_point_grid(self):
        text = read_config("sweep_bsc_p.yaml").replace(
            "grid: {start: 0.55, stop: 0.95, step: 0.01}", "values: [0.8]"
        )
        cfg = load_config(text)
        cfg = _with(cfg, horizon=200, seeds=(0,))
        result = run_sweep(cfg)
        assert len(result.points) == 1
        assert len(result.points[0].per_seed_final) == 1

    def test_coarse_phase_curve(self, tmp_path):
        text = read_config("sweep_bsc_p.yaml").replace(
            "grid: {start: 0.55, stop: 0.95, step: 0.01}",
            "grid: {start: 0.6, stop: 0.95, step: 0.05}",
        )
        cfg = load_config(text)
        cfg = _with(cfg, horizon=1500, seeds=tuple(range(5)))
        result = run_sweep(cfg)
        means = [p.mean_final for p in result.points]
        assert means[0] < 0.05 and means[-1] > 0.95
        above = [m > 0.5 for m in means]
        assert sum(a != b for a, b in zip(above, above[1:])) == 1  # one crossing
        assert result.empirical_crossing is not None
        assert result.theory_root is not None
        assert abs(result.empirical_crossing - result.theory_root) <= 0.05
        paths = emit_sweep_results(result, str(tmp_path))
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert len(doc["points"]) == len(result.points)
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + len(result.points) * len(cfg.experiment.seeds)

    def test_sweep_csv_renders_numpy_scalars_as_floats(self, tmp_path):
        import dataclasses

        cfg = _with(load_config(read_config("sweep_bsc_p.yaml")), horizon=50, seeds=(0, 1))
        result = run_sweep(_with_sweep_values(cfg, [0.7, 0.9]))
        as_numpy = dataclasses.replace(result, points=tuple(
            SweepPoint(
                *map(np.float64, (p.value, p.adversary_centrality, p.margin_true)),
                tuple(map(np.float64, p.per_seed_final)),
            )
            for p in result.points
        ))
        for name, res in (("floats", result), ("numpy", as_numpy)):
            emit_sweep_results(res, str(tmp_path / name))
        csv = (tmp_path / "numpy" / "sweep.csv").read_bytes()
        assert csv == (tmp_path / "floats" / "sweep.csv").read_bytes()
        assert b"np." not in csv

    def test_centrality_sweep_family(self):
        cfg = load_config(read_config("sweep_centrality.yaml"))
        text_values = tuple(np.round(np.arange(0.02, 0.241, 0.02), 6))
        cfg = _with(cfg, horizon=800, seeds=(0, 1, 2))
        cfg = _with_sweep_values(cfg, text_values)
        result = run_sweep(cfg)
        # centrality increases with trust weight; beliefs flip truth -> deceived
        cents = [p.adversary_centrality for p in result.points]
        assert all(b > a for a, b in zip(cents, cents[1:]))
        means = [p.mean_final for p in result.points]
        assert means[0] > 0.95 and means[-1] < 0.05
        # the root is in centrality units, where the shared-model margin is linear
        adversary = build_scenario(apply_sweep_value(cfg, cfg.sweep.values[0])).agents[0]
        margin = homogeneous_centrality_margin(adversary.true_model, adversary.forged_model, 1)
        assert abs(margin(result.theory_root)) < 1e-8

    def test_centrality_root_with_per_agent_models(self):
        # adversaries at bsc 0.9, normals at bsc 0.6: the margin stays positive
        # over the whole grid, so there is no root to report
        models = "  models:\n" + "".join(
            f"    - {{kind: bsc, p: {0.9 if k < 4 else 0.6}}}\n" for k in range(15)
        )
        text = read_config("sweep_centrality.yaml").replace(
            "  model: {kind: bsc, p: 0.9}\n", models
        )
        cfg = _with(load_config(text), horizon=50, seeds=(0,))
        result = run_sweep(cfg)
        assert all(p.margin_true > 0.0 for p in result.points)
        assert result.theory_root is None

    def test_stacked_sweep_matches_per_point_run_finals(self):
        # per-agent models of 2, 3 and 4 symbols, one forgery per grid point
        text = """
topology: {kind: erdos_renyi, n_agents: 6, edge_prob: 0.5, seed: 3}
agents:
  n_malicious: 2
  models:
    - {kind: rows, theta1: [0.5, 0.3, 0.2], theta2: [0.2, 0.3, 0.5]}
    - {kind: bsc, p: 0.7}
    - {kind: rows, theta1: [0.4, 0.3, 0.2, 0.1], theta2: [0.1, 0.2, 0.3, 0.4]}
    - {kind: bsc, p: 0.6}
    - {kind: rows, theta1: [0.6, 0.4], theta2: [0.3, 0.7]}
    - {kind: rows, theta1: [0.25, 0.25, 0.5], theta2: [0.5, 0.25, 0.25]}
attack: {strategy: unknown_divergences, epsilon: 1.0e-3}
experiment: {theta_true: theta1, horizon: 400, seeds: [0, 4, 9], stride: 0}
sweep: {parameter: epsilon, values: [1.0e-3, 1.0e-2, 5.0e-2]}
"""
        cfg = load_config(text)
        result = run_sweep(cfg)
        e = cfg.experiment
        for point in result.points:
            scenario = build_scenario(apply_sweep_value(cfg, point.value))
            lam = run_finals(scenario.net, scenario.agents, scenario.theta_true,
                             horizon=e.horizon, seeds=e.seeds)
            want = network_average_true_belief(lam, scenario.theta_true)
            assert point.per_seed_final == tuple(float(x) for x in want)

    @pytest.mark.parametrize(
        "name, tables", [("sweep_bsc_p.yaml", 33), ("sweep_centrality.yaml", 32)]
    )
    def test_one_table_for_the_grid(self, name, tables, monkeypatch):
        # one table steps the grid and gives every point's margin; each theory-root
        # bisection step builds its own (31 or 32 of them)
        calls = []

        def recorder(agent_lists):
            calls.append(len(agent_lists))
            return log_ratio_table(agent_lists)

        monkeypatch.setattr(learning, "log_ratio_table", recorder)
        monkeypatch.setattr(analysis, "log_ratio_table", recorder)
        cfg = _with(load_config(read_config(name)), horizon=20)
        run_sweep(cfg, jobs=1)
        assert len(calls) == tables
        assert calls[0] == len(cfg.sweep.values) and set(calls[1:]) == {1}

    @pytest.mark.parametrize(
        "name, jobs",
        [("sweep_bsc_p.yaml", 1), ("sweep_centrality.yaml", 1), ("sweep_bsc_p.yaml", 2)],
    )
    def test_margins_are_the_verdict_margins(self, name, jobs, tmp_path):
        cfg = _with(load_config(read_config(name)), horizon=20, seeds=(0,))
        emit_sweep_results(run_sweep(cfg, jobs=jobs), str(tmp_path))
        points = json.loads((tmp_path / "sweep.json").read_text())["points"]
        assert len(points) == len(cfg.sweep.values)
        for value, point in zip(cfg.sweep.values, points):
            scenario = build_scenario(apply_sweep_value(cfg, value))
            report = deception_verdict(scenario.net, scenario.agents, scenario.perron)
            assert point["margin_true"] == report.margin(scenario.theta_true)

    @pytest.mark.parametrize("name", ["sweep_bsc_p.yaml", "sweep_centrality.yaml"])
    def test_stacked_reports_are_the_verdicts(self, name):
        # the grid's one table, read by the stacked reader, gives each point the
        # report its deception_verdict gives, every float the same bits
        cfg = load_config(read_config(name))
        scenario_at = sweep_scenarios(cfg)
        scenarios = [scenario_at(value) for value in cfg.sweep.values]
        table = log_ratio_table([s.agents for s in scenarios])
        u = np.stack([s.perron for s in scenarios])
        reports = analysis._reports([s.net for s in scenarios], table, u)
        assert len(reports) == len(scenarios)
        for scenario, report in zip(scenarios, reports):
            want = deception_verdict(scenario.net, scenario.agents, scenario.perron)
            for field in fields(DeceptionReport):
                assert getattr(report, field.name) == getattr(want, field.name), field.name

    def test_infinite_other_state_drift_refused(self):
        # theta2 puts no mass on symbol 1, so under theta2 no drift is infinite and
        # the kernel runs; theta1's honest drift is infinite, so no verdict exists
        cfg = load_config("""
topology: {kind: complete, n_agents: 4}
agents:
  n_malicious: 1
  model: {kind: rows, theta1: [0.5, 0.5], theta2: [1.0, 0.0]}
attack: {strategy: unknown_divergences, epsilon: 1.0e-3}
experiment: {theta_true: theta2, horizon: 20, seeds: [0, 1], stride: 0}
sweep: {parameter: epsilon, values: [1.0e-3, 2.0e-3]}
""")
        scenario = build_scenario(apply_sweep_value(cfg, 2.0e-3))
        run_finals(scenario.net, scenario.agents, scenario.theta_true, 20, seeds=[0, 1])
        with pytest.raises(InfiniteDivergenceError, match="infinite"):
            run_sweep(cfg)

    def test_memory_flat_in_grid_size(self):
        import tracemalloc

        # 400 bsc_p points on one n = 200 network: the kernel holds its matrix
        # once, not one (n, n) copy per point (400 n^2 8 bytes = 128 MB)
        cfg = load_config("""
topology: {kind: erdos_renyi, n_agents: 200, edge_prob: 0.05, seed: 7}
agents: {n_malicious: 20, model: {kind: bsc, p: 0.8}}
attack: {strategy: unknown_divergences, epsilon: 5.0e-3}
experiment: {horizon: 5, seeds: [0, 1], stride: 0}
sweep: {parameter: bsc_p, grid: {start: 0.55, stop: 0.949, step: 0.001}}
""")
        points = len(cfg.sweep.values)
        assert points == 400
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points * 200 * 200 * 8 / 3, peak

    def test_theta2_finals_match_run_bitwise(self):
        import dataclasses

        # at horizon 100 beliefs are not yet saturated, so the order in which
        # the agents are summed shows in the last bit
        cfg = load_config(read_config("sweep_bsc_p.yaml"))
        cfg = _with_sweep_values(_with(cfg, horizon=100, seeds=(0, 1, 2)), (0.6, 0.9))
        cfg = dataclasses.replace(
            cfg, experiment=dataclasses.replace(cfg.experiment, theta_true="theta2")
        )
        result = run_sweep(cfg)
        assert result.points[0].mean_final < 0.5  # deceived: true-state belief vanishes
        for point in result.points:
            scenario = build_scenario(apply_sweep_value(cfg, point.value))
            for seed, final in zip(cfg.experiment.seeds, point.per_seed_final):
                traj = run(scenario.net, scenario.agents, scenario.theta_true,
                           horizon=100, seed=seed, stride=0)
                assert final == traj.final_network_average_true_belief()
                assert final > 0.0


class TestTracedReport:
    """Every report but a sweep grid's is a call of the module attribute
    ``analysis.deception_verdict``, the entry a tracer that wraps it sees."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        verdict = analysis.deception_verdict
        monkeypatch.setattr(
            analysis, "deception_verdict", lambda *args: calls.append(args) or verdict(*args)
        )
        return calls

    def test_one_per_run_experiment(self, calls):
        run_experiment(_with(load_config(read_config("deceived_random_bsc08.yaml")), horizon=20))
        assert len(calls) == 1

    def test_one_per_predict(self, calls, capsys):
        path = os.path.join(CONFIG_DIR, "deceived_random_bsc08.yaml")
        assert cli.main(["predict", "--config", path]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, evals", [("sweep_bsc_p.yaml", 32), ("sweep_centrality.yaml", 31)]
    )
    def test_one_per_theory_root_evaluation(self, name, evals, calls, monkeypatch):
        values = []
        bisect = simulator.critical_parameter

        def counting(margin_fn, bracket):
            return bisect(lambda value: values.append(value) or margin_fn(value), bracket)

        monkeypatch.setattr(simulator, "critical_parameter", counting)
        run_sweep(_with(load_config(read_config(name)), horizon=20), jobs=1)
        assert len(calls) == len(values) == evals


def _with(cfg, horizon=None, seeds=None, stride=None):
    import dataclasses

    e = cfg.experiment
    if horizon is not None:
        e = dataclasses.replace(e, horizon=horizon)
    if seeds is not None:
        e = dataclasses.replace(e, seeds=tuple(seeds))
    if stride is not None:
        e = dataclasses.replace(e, stride=stride)
    return dataclasses.replace(cfg, experiment=e)


def _with_sweep_values(cfg, values):
    import dataclasses

    return dataclasses.replace(
        cfg, sweep=dataclasses.replace(cfg.sweep, values=tuple(values))
    )

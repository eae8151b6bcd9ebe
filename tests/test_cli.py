"""Command-line surface: all five subcommands, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from sociallearn.cli import _config, build_parser, main
from sociallearn.config import _GRID_POINTS, _VIOLATIONS_PER_FIELD, load_config
from sociallearn.errors import ConfigValidationError, InfiniteDivergenceError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".yaml"))


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def _env():
    """This environment, with the source tree first on the import path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return str(p)


REPEATED_SEEDS = """
topology: {kind: complete, n_agents: 2}
agents: {n_malicious: 0, model: {kind: bsc, p: 0.8}}
experiment: {seeds: [1, 1]}
"""


THREE_SEEDS = """
topology: {kind: erdos_renyi, n_agents: 15, edge_prob: 0.25, seed: 28}
agents: {n_malicious: 4, model: {kind: bsc, p: 0.8}}
attack: {strategy: unknown_divergences, epsilon: 5.0e-3}
experiment: {horizon: 120, seeds: [4, 0, 9], stride: 7}
"""



class TestValidate:
    def test_valid_config(self, capsys):
        assert main(["validate", "--config", cfg_path("minimal_no_attack.yaml")]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("ok")
        assert "horizon: 500" in out  # echoed with defaults materialized

    def test_invalid_config(self, tmp_path, capsys):
        path = write(tmp_path, "topology: {kind: complete, n_agents: 1}\n")
        assert main(["validate", "--config", path]) == 1
        assert "n_agents" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, violations",
        [
            pytest.param(
                "topology: {kind: edge_list, n_agents: 3, edges: [[0, 1], [1, 7], [2, 0]]}\n"
                "agents: {model: {kind: bsc, p: 0.8}}\n",
                ["topology.edges[1] must join two of the 3 agents, got [1, 7]"],
                id="edge",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 3}\n"
                "agents: {model: {kind: bsc, p: 0.8}}\n"
                "sweep: {parameter: bsc_p, values: [0.6, 1.2]}\n",
                ["sweep.values[1] must lie in (0.5, 1) for bsc_p, got 1.2"],
                id="bsc_p",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 2}\n"
                "agents: {models: [{kind: rows, theta1: [0.9, 0.1], theta2: [0.2, 0.8]},"
                " {kind: bsc, p: 0.8}]}\n"
                "sweep: {parameter: bsc_p, values: []}\n",
                ["sweep.parameter bsc_p sets agents.model.p, but agents.model is not given",
                 "sweep.values must be non-empty"],
                id="bsc_p-needs",
            ),
            pytest.param(
                "topology: {kind: ring, n_agents: 4}\n"
                "agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}\n"
                "sweep: {parameter: adversary_centrality, values: [0.1]}\n",
                ["sweep.parameter adversary_centrality sets topology.trust_weight, "
                 "which topology.kind 'ring' does not read"],
                id="centrality-needs",
            ),
            pytest.param(
                "topology: {kind: trust_weighted_complete, n_agents: 4, trust_weight: 0.1}\n"
                "agents: {n_malicious: 2, model: {kind: bsc, p: 0.8}}\n"
                "sweep: {parameter: adversary_centrality, values: [0.7, 0.2]}\n",
                ["sweep.values[0] must lie in (0, 1/n_malicious), with n_malicious >= 1 "
                 "(here 2), got 0.7"],
                id="trust-weight",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 3, edge_prob: 0.3}\n"
                "agents: {model: {kind: bsc, p: 0.8}}\n",
                ["topology.edge_prob is not a known key; known: kind, n_agents"],
                id="unread-topology-key",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 3}\n"
                "agents: {model: {kind: bsc, p: 0.8}}\n"
                "attack: {strategy: none, epsilon: 0.01}\n",
                ["attack.epsilon is not a known key; known: strategy"],
                id="unread-attack-key",
            ),
            pytest.param(
                # with no attack, every point of an epsilon sweep is the same experiment
                "topology: {kind: complete, n_agents: 3}\n"
                "agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}\n"
                "sweep: {parameter: epsilon, values: [0.01, 0.02, 0.03]}\n",
                ["sweep.parameter epsilon sets attack.epsilon, "
                 "which attack.strategy 'none' does not read"],
                id="epsilon-needs-attack",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 3}\n"
                "agents: {n_malicious: 0, model: {kind: bsc, p: 0.8}}\n"
                "attack: {strategy: unknown_divergences}\n"
                "sweep: {parameter: epsilon, values: [0.01, 0.02, 0.03]}\n",
                ["sweep.parameter epsilon sets attack.epsilon, "
                 "which no adversary reads: agents.n_malicious is 0"],
                id="epsilon-needs-adversaries",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 2}\n"
                "agents: {model: {kind: rows, theta1: [0.9, 0.1], theta2: [0.2, 0.8]}}\n"
                "sweep: {parameter: bsc_p, values: [0.6, 0.7]}\n",
                ["sweep.parameter bsc_p sets agents.model.p, "
                 "which agents.model.kind 'rows' does not read"],
                id="bsc_p-needs-bsc",
            ),
            pytest.param(
                # every kind gives each agent a self-loop, so no key selects them
                "topology: {kind: trust_weighted_complete, n_agents: 5, trust_weight: 0.1,"
                " self_loops: false}\n"
                "agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}\n",
                ["topology.self_loops is not a known key; known: kind, n_agents, trust_weight"],
                id="trust-weighted-self-loops",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 5, self_loops: true}\n"
                "agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}\n",
                ["topology.self_loops is not a known key; known: kind, n_agents"],
                id="uniform-self-loops",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 2}\n"
                "agents: {model: {kind: bsc, p: 1.5}}\n",
                ["agents.model: BSC probability must lie in (0, 1), got 1.5"],
                id="shared-model",
            ),
            pytest.param(
                "topology: {kind: complete, n_agents: 3}\n"
                "agents:\n"
                "  models: [{kind: bsc, p: 0.8}, {kind: bsc, p: 1.3}, {kind: dice}]\n",
                ["agents.models[2].kind must be one of ('bsc', 'rows'), got 'dice'"],
                id="model-kind",
            ),
            pytest.param(
                # a bsc_p sweep would move the shared model, which no agent reads
                "topology: {kind: complete, n_agents: 2}\n"
                "agents: {model: {kind: bsc, p: 0.6}, models: [{kind: bsc, p: 0.9},"
                " {kind: bsc, p: 0.9}]}\n",
                ["agents takes either a shared 'model' or a per-agent 'models' list, not both"],
                id="model-and-models",
            ),
            pytest.param(
                "topology: {kind: star, n_agents: 1, hub: 4}\n"
                "agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}\n",
                ["topology.n_agents must be >= 2, got 1",
                 "topology.hub must index one of the 1 agents, got 4",
                 "agents.n_malicious must satisfy 0 <= n_malicious < n_agents (1), got 1"],
                id="scalars",
            ),
        ],
    )
    def test_violation_names_its_path_and_value(self, tmp_path, capsys, text, violations):
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert [line.strip() for line in err.splitlines()[1:]] == violations

    @pytest.mark.parametrize("spelling, got", [
        pytest.param("theta_1", "theta_1", id="underscore"),
        pytest.param("THETA1", "THETA1", id="upper-case"),
        pytest.param('" theta1"', " theta1", id="space"),
        pytest.param('"1"', "1", id="digit"),
    ])
    def test_theta_true_takes_one_spelling(self, tmp_path, capsys, spelling, got):
        # one experiment, one echo: no alias of theta1 is accepted
        text = (
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            f"experiment: {{theta_true: {spelling}}}\n"
        )
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert [line.strip() for line in err.splitlines()[1:]] == [
            f"experiment.theta_true must be theta1 or theta2, got {got!r}"
        ]

    @pytest.mark.parametrize("stop, count", [("1.0e+3", "199997"), ("1.0e+308", "inf")])
    def test_oversized_grid_refused_before_expanding(self, tmp_path, capsys, stop, count):
        # 1e+308 overflows the point count to inf
        with open(cfg_path("sweep_centrality.yaml"), encoding="utf-8") as fh:
            text = fh.read().replace("stop: 0.24", f"stop: {stop}")
        t0 = time.perf_counter()
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"  sweep.grid gives {count} points, more than the {_GRID_POINTS} allowed"
        ]

    def test_grid_of_the_most_points_expands(self):
        text = (
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            "sweep: {parameter: bsc_p, grid: {start: 0.55, stop: 0.95, step: %r}}\n"
        )
        step = 0.4 / (_GRID_POINTS - 1)
        assert len(load_config(text % step).sweep.values) == _GRID_POINTS
        with pytest.raises(ConfigValidationError, match="more than the"):
            load_config(text % (0.4 / _GRID_POINTS))

    @pytest.mark.parametrize("text, n, field, line", [
        pytest.param(
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            "sweep: {parameter: bsc_p, values: [0.7%s]}\n" % (", 2.0" * 100_000),
            100_000, "sweep.values", "sweep.values[{k}] must lie in (0.5, 1) for bsc_p, got 2.0",
            id="range",
        ),
        pytest.param(
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            "sweep: {parameter: bsc_p, values: [0.7%s]}\n" % (", x" * 100_000),
            100_000, "sweep.values", "sweep.values[{k}] must be float, got 'x'",
            id="type",
        ),
        pytest.param(
            "topology: {kind: edge_list, n_agents: 2, edges: [[0, 1]%s]}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n" % (", [0, 5]" * 300),
            300, "topology.edges", "topology.edges[{k}] must join two of the 2 agents, got [0, 5]",
            id="edges",
        ),
        pytest.param(
            "topology: {kind: complete, n_agents: 40}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            "experiment: {initial_belief_theta1: [0.5%s]}\n" % (", 1.5" * 39),
            39, "experiment.initial_belief_theta1",
            "experiment.initial_belief_theta1[{k}] must lie strictly inside (0, 1), got 1.5",
            id="beliefs",
        ),
    ])
    def test_violations_capped_per_field(self, tmp_path, capsys, text, n, field, line):
        # entry 0 is valid; entries 1 .. n each violate
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert len(err.encode()) < 4096
        lines = [x.strip() for x in err.splitlines()[1:]]
        assert lines == [line.format(k=k) for k in range(1, _VIOLATIONS_PER_FIELD + 1)] + [
            f"{field}: ... and {n - _VIOLATIONS_PER_FIELD} more"
        ]

    def test_violations_of_a_field_at_the_cap_all_listed(self, tmp_path, capsys):
        values = ", ".join(["2.0"] * _VIOLATIONS_PER_FIELD)
        text = (
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            f"sweep: {{parameter: bsc_p, values: [{values}]}}\n"
        )
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        lines = capsys.readouterr().err.splitlines()[1:]
        assert len(lines) == _VIOLATIONS_PER_FIELD
        assert "more" not in lines[-1]

    @pytest.mark.parametrize("seeds, line", [
        pytest.param(
            [-1 - k for k in range(100_000)],
            f"experiment.seeds must be >= 0, got {list(range(-1, -11, -1))} (and 99990 more)",
            id="negative",
        ),
        pytest.param(
            list(range(50_000)) * 2,
            f"experiment.seeds must be distinct, got {list(range(10))} (and 49990 more) "
            "more than once",
            id="repeated",
        ),
        pytest.param(
            list(range(10)) * 2,
            f"experiment.seeds must be distinct, got {list(range(10))} more than once",
            id="repeated-at-the-cap",
        ),
    ])
    def test_seed_values_capped(self, tmp_path, capsys, seeds, line):
        text = (
            "topology: {kind: complete, n_agents: 2}\n"
            "agents: {model: {kind: bsc, p: 0.8}}\n"
            f"experiment: {{seeds: {seeds}}}\n"
        )
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert len(err.encode()) < 4096
        assert [x.strip() for x in err.splitlines()[1:]] == [line]

    def test_wrong_type_exits_1_without_traceback(self, tmp_path):
        path = write(tmp_path, "topology: {kind: complete, n_agents: three}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sociallearn.cli", "validate", "--config", path],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 1
        assert "topology.n_agents must be int, got 'three'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exits_1_in_one_line(self, tmp_path, case):
        path = {"missing": tmp_path / "missing.yaml", "directory": tmp_path,
                "not_utf8": tmp_path / "utf16.yaml"}[case]
        if case == "not_utf8":
            path.write_bytes(b"\xff\xfe")
        proc = subprocess.run(
            [sys.executable, "-m", "sociallearn.cli", "predict", "--config", str(path)],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: cannot read config {path}: ")

    def test_invalid_override_refused(self, capsys):
        argv = ["validate", "--config", cfg_path("misled_star_bsc09.yaml"), "--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "experiment.seeds must be >= 0" in captured.err
        assert "ok" not in captured.out

    def test_repeated_seeds_refused(self, tmp_path, capsys):
        assert main(["validate", "--config", write(tmp_path, REPEATED_SEEDS)]) == 1
        captured = capsys.readouterr()
        assert "experiment.seeds must be distinct, got [1] more than once" in captured.err
        assert "ok" not in captured.out


class TestRun:
    def test_writes_files_and_prints_verdict(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config", cfg_path("misled_star_bsc09.yaml"),
                "--horizon", "60",
                "--out", str(tmp_path),
                "--format", "tabular",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict[theta1]: misled" in out
        assert (tmp_path / "trajectories.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_seed_override(self, tmp_path):
        code = main(
            [
                "run",
                "--config", cfg_path("minimal_no_attack.yaml"),
                "--seed", "17",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert [row["seed"] for row in doc["per_seed"]] == [17]

    def test_invalid_override_refused(self, tmp_path, capsys):
        argv = ["run", "--config", cfg_path("minimal_no_attack.yaml"), "--out", str(tmp_path)]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "experiment.seeds must be >= 0" in capsys.readouterr().err

    def test_repeated_seeds_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", write(tmp_path, REPEATED_SEEDS), "--out", str(out),
                "--format", "tabular"]
        assert main(argv) == 1
        assert "experiment.seeds must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_across_invocations(self, tmp_path):
        argv = [
            "run",
            "--config", cfg_path("deceived_random_bsc08.yaml"),
            "--horizon", "40",
            "--out", str(tmp_path),
            "--format", "tabular",
        ]
        main(argv)
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("trajectories.csv", "summary.json")
        }
        main(argv)
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob


class TestJobs:
    @pytest.mark.parametrize(
        "command, config, names",
        [
            ("run", "deceived_random_bsc08.yaml", ("trajectories.csv", "summary.json")),
            ("sweep", "sweep_centrality.yaml", ("sweep.csv", "sweep.json")),
        ],
    )
    def test_two_workers_write_the_same_bytes(self, tmp_path, command, config, names):
        # one --out for both, since the echoed config names the directory
        argv = [command, "--config", cfg_path(config), "--horizon", "60", "--out", str(tmp_path)]
        if command == "run":
            argv += ["--format", "tabular"]
        blobs = []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            blobs.append({name: (tmp_path / name).read_bytes() for name in names})
        assert blobs[0] == blobs[1]

    def test_one_seed_per_worker_writes_the_same_bytes(self, tmp_path):
        # each worker steps its lone seed beside a zero column
        cfg = write(tmp_path, THREE_SEEDS)
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "out"), "--format", "tabular"]
        names = ("trajectories.csv", "summary.json")
        blobs = []
        for jobs in ("1", "3"):
            assert main(argv + ["--jobs", jobs]) == 0
            blobs.append({name: (tmp_path / "out" / name).read_bytes() for name in names})
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_refused(self, tmp_path, command, jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "sociallearn.cli", command,
             "--config", cfg_path("sweep_centrality.yaml"), "--out", str(tmp_path),
             "--jobs", jobs],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [f"error: --jobs must be >= 1, got {jobs}"]
        assert proc.stdout == "" and not any(tmp_path.iterdir())


class TestPredict:
    def test_closed_form_report(self, capsys):
        assert main(["predict", "--config", cfg_path("nonseparable_asud.yaml")]) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = doc["deception_report"]
        assert {rep["verdict1"], rep["verdict2"]} == {"misled", "learns_truth"}
        assert rep["cost1"] == pytest.approx(-rep["margin1"])

    def test_scenario_holds_centrality_and_perron(self, capsys):
        assert main(["predict", "--config", cfg_path("deceived_random_bsc08.yaml")]) == 0
        scenario = json.loads(capsys.readouterr().out)["scenario"]
        assert sorted(scenario) == ["adversary_centrality", "perron"]


class TestAttack:
    def test_optimal_forgery_bit_pattern(self, tmp_path, capsys):
        path = write(
            tmp_path,
            """
topology: {kind: star, n_agents: 3, hub: 0}
agents:
  n_malicious: 1
  model: {kind: bsc, p: 0.9}
attack: {strategy: unknown_divergences, epsilon: 1.0e-3}
""",
        )
        assert main(["attack", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["forged"][0]
        eps = 1e-3
        assert entry["theta1"] == [eps, 1.0 - eps]
        assert entry["theta2"] == [1.0 - eps, eps]

    def test_forgery_with_a_floored_free_symbol(self, tmp_path):
        # theta2's proportional share of symbol 1 would be 0.114 < epsilon
        path = write(
            tmp_path,
            """
topology: {kind: star, n_agents: 3, hub: 0}
agents:
  n_malicious: 1
  model: {kind: rows, theta1: [0.5, 0.35, 0.15], theta2: [0.2, 0.3, 0.5]}
attack: {strategy: unknown_divergences, epsilon: 0.2}
""",
        )
        for command in ("predict", "attack"):
            proc = subprocess.run(
                [sys.executable, "-m", "sociallearn.cli", command, "--config", path],
                capture_output=True, text=True, env=_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
        entry = json.loads(proc.stdout)["forged"][0]
        assert entry["theta1"] == [0.2, 0.2, 0.6]
        assert entry["theta2"] == [0.6, 0.2, 0.2]

    def test_output_file_with_provenance(self, tmp_path):
        main(
            [
                "attack",
                "--config", cfg_path("nonseparable_askd.yaml"),
                "--out", str(tmp_path),
            ]
        )
        doc = json.loads((tmp_path / "attack.json").read_text())
        assert doc["strategy"] == "known_divergences"
        entry = doc["forged"][0]
        for key in ("x1", "x2", "beta", "p1", "p2", "support_pair"):
            assert key in entry["params"]

    def test_unwritable_out_exits_1_without_traceback(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "sociallearn.cli", "attack",
             "--config", cfg_path("nonseparable_askd.yaml"), "--out", str(blocker / "sub")],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 1
        assert "error: cannot write results" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_attack_configured(self, capsys):
        assert main(["attack", "--config", cfg_path("minimal_no_attack.yaml")]) == 1


class TestNetworkOutsideTheory:
    # two components: the verdict's Perron vector would be meaningless
    DISCONNECTED = """
topology: {kind: edge_list, n_agents: 4, edges: [[0, 1], [2, 3]]}
agents: {n_malicious: 1, model: {kind: bsc, p: 0.8}}
attack: {strategy: unknown_divergences, epsilon: 1.0e-2}
experiment: {horizon: 50}
"""

    def test_disconnected_network_refused(self, tmp_path, capsys):
        path = write(tmp_path, self.DISCONNECTED)
        out = tmp_path / "out"
        for command in ("run", "predict", "attack"):
            assert main([command, "--config", path, "--out", str(out)]) == 1
            assert "NotStronglyConnected" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_refuses_disconnected_network(self, tmp_path):
        path = write(tmp_path, self.DISCONNECTED)
        proc = subprocess.run(
            [sys.executable, "-m", "sociallearn.cli", "validate", "--config", path],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 1
        assert "NotStronglyConnected" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestInfiniteDivergence:
    # the honest agents' D(L(theta1) || L(theta2)) is infinite: theta2 puts no
    # mass on a symbol theta1 emits, so the closed-form verdict does not exist
    INFINITE = """
topology: {kind: complete, n_agents: 4}
agents:
  n_malicious: 1
  model: {kind: rows, theta1: [0.5, 0.5], theta2: [1.0, 0.0]}
attack: {strategy: unknown_divergences, epsilon: 1.0e-3}
experiment: {horizon: 20}
"""

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_verdict_refused(self, tmp_path, capsys, command):
        argv = [command, "--config", write(tmp_path, self.INFINITE), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "infinite" in err
        args = build_parser().parse_args(argv)
        with pytest.raises(InfiniteDivergenceError, match="infinite"):
            args.fn(_config(args), args)

    @pytest.mark.parametrize("command", ["validate", "attack"])
    def test_no_verdict_needed(self, tmp_path, capsys, command):
        assert main([command, "--config", write(tmp_path, self.INFINITE)]) == 0
        assert capsys.readouterr().err == ""


class TestOutOfMemory:
    # a complete network of 100,000 agents asks numpy for a 9.31 GiB matrix; the
    # builder raises here instead, since a huge allocation may succeed under
    # overcommit and get the process killed later
    HUGE = "topology: {kind: complete, n_agents: 100000}\n" + (
        "agents: {n_malicious: 0, model: {kind: bsc, p: 0.8}}\n"
    )

    @pytest.mark.parametrize(
        "command, prefix, message",
        [
            ("validate", "", "Unable to allocate 9.31 GiB"),
            ("predict", "error: ", "Unable to allocate 9.31 GiB"),
            ("predict", "error: ", ""),
        ],
    )
    def test_one_line(self, tmp_path, capsys, monkeypatch, command, prefix, message):
        from sociallearn import network

        def refuse(n_agents):
            raise MemoryError(message)

        monkeypatch.setattr(network, "complete_adjacency", refuse)
        assert main([command, "--config", write(tmp_path, self.HUGE)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"{prefix}{message or 'out of memory'}\n"


class TestSweep:
    def test_tiny_sweep(self, tmp_path, capsys):
        path = write(
            tmp_path,
            """
topology: {kind: erdos_renyi, n_agents: 15, edge_prob: 0.25, seed: 28}
agents:
  n_malicious: 4
  model: {kind: bsc, p: 0.8}
attack: {strategy: unknown_divergences, epsilon: 5.0e-3}
experiment: {theta_true: theta1, horizon: 300, seeds: [0, 1], stride: 0}
sweep: {parameter: bsc_p, values: [0.7, 0.95]}
""",
        )
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "empirical crossing" in out
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(doc["points"]) == 2

    def test_config_without_sweep_section_refused(self, tmp_path, capsys):
        argv = ["sweep", "--config", cfg_path("minimal_no_attack.yaml"), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid configuration:", "  sweep must be given to run a sweep"]
        assert not any(tmp_path.iterdir())


class TestSharedDocuments:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_predict_is_the_summary_head(self, tmp_path, capsys, name):
        overrides = ["--horizon", "30", "--out", str(tmp_path)]
        assert main(["predict", "--config", cfg_path(name), *overrides]) == 0
        predicted = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", cfg_path(name), *overrides]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        del summary["per_seed"]
        assert predicted == summary

    @pytest.mark.parametrize("name", [n for n in CONFIGS if n != "minimal_no_attack.yaml"])
    def test_attack_stdout_is_attack_json(self, tmp_path, capsys, name):
        assert main(["attack", "--config", cfg_path(name)]) == 0
        printed = capsys.readouterr().out
        assert main(["attack", "--config", cfg_path(name), "--out", str(tmp_path)]) == 0
        assert printed.encode() == (tmp_path / "attack.json").read_bytes()


class TestRepeatedCalls:
    def test_no_override_leaks_into_the_next_call(self, tmp_path):
        path = cfg_path("deceived_random_bsc08.yaml")
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--config", path, "--horizon", "20"]
        assert main(argv + ["--seed", "3", "--format", "tabular", "--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert (first / "trajectories.csv").exists()
        assert not (second / "trajectories.csv").exists()
        doc = json.loads((second / "summary.json").read_text())
        with open(path, encoding="utf-8") as fh:
            seeds = load_config(fh.read()).experiment.seeds
        assert [row["seed"] for row in doc["per_seed"]] == list(seeds)

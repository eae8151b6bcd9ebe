"""Workload inputs, generated from the workload seed and written as YAML configs.

The seed chooses the Monte Carlo seed lists, the Erdos-Renyi topology seeds,
the path labelling and the models of the oracle cases. It never changes an
input's size, so a pass does the same amount of work at every seed.
"""

from __future__ import annotations

import json
import os

import numpy as np
import yaml

# listed rather than globbed, so that adding a config does not change the workload
BUNDLED = (
    "deceived_random_bsc08.yaml",
    "learns_truth_random_bsc09.yaml",
    "minimal_no_attack.yaml",
    "misled_star_bsc09.yaml",
    "nonseparable_askd.yaml",
    "nonseparable_asud.yaml",
    "random_baseline.yaml",
    "sweep_bsc_p.yaml",
    "sweep_centrality.yaml",
)

#: oracle cases: alphabet sizes cycled over this many models, each at both floors
ORACLE_MODELS = 6
ORACLE_EPSILONS = (1e-3, 1e-2)


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _seed_list(rng: np.random.Generator, count: int) -> list[int]:
    return sorted(int(s) for s in rng.choice(1_000_000, size=count, replace=False))


def generate(workload: str, seed: int, root: str, out_dir: str) -> dict:
    """Write the workload's configs under ``out_dir``; returns the input manifest."""
    rng = np.random.default_rng([seed, 0x50C1A1])
    configs = os.path.join(root, "configs")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "sweep":
        return {"sweeps": [_with_seeds(configs, name, rng, out_dir) for name in
                           ("sweep_bsc_p.yaml", "sweep_centrality.yaml")]}
    if workload == "trajectories":
        er = {
            "topology": {"kind": "erdos_renyi", "n_agents": 200, "edge_prob": 0.05,
                         "seed": int(rng.integers(2**31))},
            "agents": {"n_malicious": 20, "model": {"kind": "bsc", "p": 0.8}},
            "attack": {"strategy": "unknown_divergences", "epsilon": 5.0e-3},
            "experiment": {"theta_true": "theta1", "horizon": 1000,
                           "seeds": _seed_list(rng, 4), "stride": 10},
        }
        return {"runs": [
            {"config": _with_seeds(configs, "deceived_random_bsc08.yaml", rng, out_dir),
             "args": ["--stride", "1"]},
            {"config": _write(os.path.join(out_dir, "er200.yaml"), er), "args": []},
        ]}
    if workload == "design":
        generated = [
            _write(os.path.join(out_dir, "path200.yaml"), _path200(rng)),
            _write(os.path.join(out_dir, "er300_known.yaml"), _known_er(
                rng, n=300, edge_prob=0.05, n_malicious=30, model={"kind": "bsc", "p": 0.8})),
            _write(os.path.join(out_dir, "er100_nonseparable_known.yaml"), _known_er(
                rng, n=100, edge_prob=0.1, n_malicious=10, model=_nonseparable_model(rng))),
        ]
        oracle = []
        for m in range(ORACLE_MODELS):
            theta1, theta2 = _random_model(rng, 2 + m % 3)
            for eps in ORACLE_EPSILONS:
                oracle.append({"theta1": theta1, "theta2": theta2, "epsilon": eps})
        oracle_path = os.path.join(out_dir, "oracle_cases.json")
        with open(oracle_path, "w", encoding="utf-8") as fh:
            json.dump(oracle, fh, indent=1)
        return {
            "configs": [os.path.join(configs, name) for name in BUNDLED] + generated,
            "oracle_cases": oracle_path,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _with_seeds(configs: str, name: str, rng: np.random.Generator, out_dir: str) -> str:
    """Copy of a bundled config with a seeded Monte Carlo seed list of the same length."""
    doc = _read(os.path.join(configs, name))
    doc["experiment"]["seeds"] = _seed_list(rng, len(doc["experiment"]["seeds"]))
    return _write(os.path.join(out_dir, name), doc)


def _path200(rng: np.random.Generator) -> dict:
    """200-agent path under a seeded labelling, so adversaries sit at seeded places."""
    order = rng.permutation(200)
    return {
        "topology": {"kind": "edge_list", "n_agents": 200,
                     "edges": [[int(a), int(b)] for a, b in zip(order, order[1:])]},
        "agents": {"n_malicious": 10, "model": {"kind": "bsc", "p": 0.8}},
        "attack": {"strategy": "unknown_divergences", "epsilon": 5.0e-3},
    }


def _nonseparable_model(rng: np.random.Generator) -> dict:
    """Binary model where symbol 0 is the majority under both states (non-separable)."""
    a = float(rng.uniform(0.75, 0.85))
    b = float(rng.uniform(0.52, 0.60))
    return {"kind": "rows", "theta1": [a, 1.0 - a], "theta2": [b, 1.0 - b]}


def _known_er(rng, n: int, edge_prob: float, n_malicious: int, model: dict) -> dict:
    """Known-divergence ER scenario, aggregate centrality, epsilon at half its bound.

    The bound depends on the drawn topology, so it is read from the library's
    own construction at a far smaller probe epsilon.
    """
    from sociallearn.config import build_scenario, load_config

    doc = {
        "topology": {"kind": "erdos_renyi", "n_agents": n, "edge_prob": edge_prob,
                     "seed": int(rng.integers(2**31))},
        "agents": {"n_malicious": n_malicious, "model": model},
        "attack": {"strategy": "known_divergences", "epsilon": 1.0e-12,
                   "aggregate_centrality": True},
    }
    probe = build_scenario(load_config(yaml.safe_dump(doc)))
    doc["attack"]["epsilon"] = 0.5 * float(probe.plan.entries[0].params["epsilon_bound"])
    return doc


def _random_model(rng: np.random.Generator, alphabet: int) -> tuple[list[float], list[float]]:
    """Informative model with every mass at least 0.02 and rows at least 1e-3 apart."""
    while True:
        rows = [0.02 + (1.0 - alphabet * 0.02) * rng.dirichlet(np.ones(alphabet)) for _ in range(2)]
        if np.max(np.abs(rows[0] - rows[1])) >= 1e-3:
            return [float(x) for x in rows[0]], [float(x) for x in rows[1]]

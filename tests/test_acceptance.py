"""Acceptance suite: one test per acceptance criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime. Every tolerance below is fixed here, not
calibrated after the fact.
"""

import json
import os
import time

import numpy as np

from sociallearn import (
    Hypothesis,
    Verdict,
    adversary_contribution,
    bsc_model,
    critical_parameter,
    deception_verdict,
    distortion_region,
    known_divergence_attack,
    load_config,
    make_model,
    make_network,
    multi_adversary_known,
    one_variable_feasibility,
    oracle_optimal_attack,
    perron_vector,
    run_finals,
    run_sweep,
    separability,
    star_adjacency,
    uniform_combination,
    unknown_divergence_attack,
    unknown_divergence_objective,
)
from sociallearn.attacks import select_support_pair
from sociallearn.cli import main as cli_main
from sociallearn.errors import AllUninformativeError
from sociallearn.learning import network_average_true_belief, run
from sociallearn.network import adversary_centrality

from helpers import (
    BeliefState,
    agents_for,
    draw_symbols,
    homogeneous_centrality_margin,
    random_model,
    random_network,
    random_uninformative_model,
    step,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(number: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {status} {description} ({elapsed:.1f}s)")
    assert ok, f"acceptance criterion {number} failed: {description}"


def read_config(name: str) -> str:
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_01_known_divergence_property_suite():
    """Randomized deception guarantee of the two-parameter construction."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    successes = 0
    total = 1000
    done = 0
    while done < total:
        alphabet = int(rng.integers(2, 6))
        model = random_model(rng, alphabet)
        u_k = float(rng.uniform(0.05, 0.5))
        s1, s2 = (float(x) for x in rng.uniform(0.0, 2.0, 2))
        pair = select_support_pair(model)
        geometry = distortion_region(model, u_k, s1, s2, 1e-9, pair)
        if geometry.epsilon_bound <= 1e-280:
            continue  # representable-epsilon guard; draw another scenario
        eps = geometry.epsilon_bound / 2.0
        done += 1
        entry = known_divergence_attack(model, u_k, s1, s2, eps)
        r1 = adversary_contribution(u_k, model, entry.forged, 1)
        r2 = adversary_contribution(u_k, model, entry.forged, 2)
        if r1 > s1 + 1e-9 and r2 > s2 + 1e-9:
            successes += 1
    elapsed = time.time() - t0
    _report(
        1,
        f"known-divergence construction misleads both states in {successes}/{total} "
        f"scenarios at eps = bound/2 (margin > 1e-9), runtime < 10 s",
        successes == total and elapsed < 10.0,
        elapsed,
    )


def test_02_unknown_divergence_oracle_equivalence():
    """Water-filled closed form vs the face-enumeration oracle, |gap| <= 1e-6."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    below_floor = 0
    compared = 0
    for _ in range(200):
        alphabet = int(rng.integers(2, 5))
        model = random_model(rng, alphabet, floor=0.0)
        for eps in (1e-3, 1e-2):
            forged = unknown_divergence_attack(model, eps)
            masses = forged.given_theta1.mass + forged.given_theta2.mass
            below_floor += min(masses) < eps
            closed = unknown_divergence_objective(model, forged)
            _, oracle_value = oracle_optimal_attack(model, eps)
            worst = max(worst, abs(closed - oracle_value))
            compared += 1
    elapsed = time.time() - t0
    _report(
        2,
        f"closed form within 1e-6 of the exact optimum on {compared} cases "
        f"(worst gap {worst:.2e}, {below_floor} forgeries below the floor), runtime < 5 min",
        worst <= 1e-6 and below_floor == 0 and compared > 0 and elapsed < 300.0,
        elapsed,
    )


def test_03_optimal_forgery_bit_pattern(tmp_path, capsys):
    """The emitted optimal forgery for the sharp binary channel, bitwise."""
    t0 = time.time()
    cfg = tmp_path / "attack.yaml"
    cfg.write_text(
        """
topology: {kind: star, n_agents: 3, hub: 0}
agents:
  n_malicious: 1
  model: {kind: bsc, p: 0.9}
attack: {strategy: unknown_divergences, epsilon: 1.0e-3}
"""
    )
    code = cli_main(["attack", "--config", str(cfg)])
    doc = json.loads(capsys.readouterr().out)
    entry = doc["forged"][0]
    eps = 1e-3
    ok = (
        code == 0
        and entry["theta1"] == [eps, 1.0 - eps]
        and entry["theta2"] == [1.0 - eps, eps]
    )
    with capsys.disabled():
        _report(3, "attack subcommand emits exactly ([eps, 1-eps]; [1-eps, eps])",
                ok, time.time() - t0)


def test_04_separability_classification_and_verdicts():
    """Separability certificates plus the one-state/two-state deception split."""
    t0 = time.time()
    sep_ok = all(
        separability(bsc_model(p)).separable
        for p in np.arange(0.55, 0.951, 0.05)
    )
    nonsep_model = make_model([0.8, 0.2], [0.55, 0.45])
    nonsep_ok = not separability(nonsep_model).separable

    asud_cfg = load_config(read_config("nonseparable_asud.yaml"))
    from sociallearn import build_scenario

    sc = build_scenario(asud_cfg)
    report_asud = sc.report()
    asud_verdicts = (report_asud.verdict1, report_asud.verdict2)
    asud_ok = asud_verdicts.count(Verdict.MISLED) == 1

    askd_cfg = load_config(read_config("nonseparable_askd.yaml"))
    sc2 = build_scenario(askd_cfg)
    report_askd = sc2.report()
    askd_ok = (
        report_askd.verdict1 is Verdict.MISLED
        and report_askd.verdict2 is Verdict.MISLED
    )
    _report(
        4,
        "binary channels separable on the whole grid; the asymmetric benchmark "
        "non-separable; agnostic attack misleads exactly one state, "
        "known-divergence attack both",
        sep_ok and nonsep_ok and asud_ok and askd_ok,
        time.time() - t0,
    )


def test_05_phase_transition_cross_check():
    """Monte Carlo crossing vs closed-form root, within one grid step (0.01)."""
    t0 = time.time()
    cfg = load_config(read_config("sweep_bsc_p.yaml"))
    result = run_sweep(cfg)
    crossing = result.empirical_crossing
    root = result.theory_root
    above = [p.mean_final > 0.5 for p in result.points]
    ok = (
        crossing is not None
        and root is not None
        and abs(crossing - root) <= 0.01 + 1e-9
        and sum(a != b for a, b in zip(above, above[1:])) == 1  # one crossing
    )
    elapsed = time.time() - t0
    _report(
        5,
        f"empirical crossing {crossing:.4f} vs theory root {root:.4f} "
        f"(|diff| <= 0.01) on the 0.55..0.95 grid, runtime < 10 min",
        ok and elapsed < 600.0,
        elapsed,
    )


def test_06_asymptotic_rate():
    """Adversary-free empirical log-ratio rate within 5% of the prediction."""
    t0 = time.time()
    rng = np.random.default_rng(64)
    net = random_network(rng, 5)
    agents = agents_for(net, [bsc_model(0.8)] * 5)
    horizon = 5000
    finals = run_finals(net, agents, Hypothesis.THETA1, horizon, seeds=range(20))
    # log-ratio of the wrong state over the true one, per agent and seed
    empirical = float(np.mean(-finals / horizon))
    predicted = -0.8317766166719344
    rel_err = abs(empirical - predicted) / abs(predicted)
    elapsed = time.time() - t0
    _report(
        6,
        f"mean empirical rate {empirical:.5f} vs predicted {predicted:.5f} "
        f"(relative error {rel_err:.3%} <= 5%), runtime < 1 min",
        rel_err <= 0.05 and elapsed < 60.0,
        elapsed,
    )


def test_07_dual_representation_consistency():
    """Belief-domain and log-domain trajectories agree to 1e-9 over 100 steps."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for scenario_index in range(10):
        n = int(rng.integers(3, 7))
        n_mal = int(rng.integers(0, 2))
        net = random_network(rng, n, n_malicious=n_mal)
        models = [random_model(rng, int(rng.integers(2, 5)), floor=0.05) for _ in range(n)]
        forged = {}
        if n_mal:
            forged[0] = unknown_divergence_attack(models[0], 1e-2)
        agents = agents_for(net, models, forged)
        horizon = 100
        seed = 1000 + scenario_index
        traj = run(net, agents, Hypothesis.THETA1, horizon, seed=seed)
        blocks = draw_symbols(agents, Hypothesis.THETA1, horizon, seed)
        state = BeliefState.uniform(n)
        for i in range(horizon):
            state = step(state, net, agents, [int(b[i]) for b in blocks])
        worst = max(worst, float(np.max(np.abs(state.log_ratio - traj.final_log_ratio))))
    _report(
        7,
        f"max |log-ratio| gap between representations {worst:.2e} <= 1e-9 "
        "over 10 scenarios x 100 steps",
        worst <= 1e-9,
        time.time() - t0,
    )


def test_08_structural_invariants():
    """Antisymmetry, the all-uninformative error, and one-variable infeasibility."""
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10**4):
        n = int(rng.integers(2, 6))
        true_model = random_uninformative_model(rng, n)
        forged = random_model(rng, n, floor=0.01, min_gap=0.0)
        r1 = adversary_contribution(0.3, true_model, forged, 1)
        r2 = adversary_contribution(0.3, true_model, forged, 2)
        worst = max(worst, abs(r1 + r2))
    antisym_ok = worst <= 1e-10

    try:
        multi_adversary_known([bsc_model(0.5), bsc_model(0.5)], [0.1, 0.2], 0.3, 0.3, 1e-3)
        raises_ok = False
    except AllUninformativeError:
        raises_ok = True

    # negative-determinant pair whose first symbol dominates under theta1:
    # the anti-diagonal line misses the admissible wedge entirely
    slope_model = make_model([0.6, 0.3, 0.1], [0.7, 0.1, 0.2])
    one_var_ok = not one_variable_feasibility(slope_model, 0.3, 0.5, 0.5, 1e-3, pair=(0, 1))

    _report(
        8,
        f"uninformative-adversary antisymmetry (worst |r1 + r2| = {worst:.1e} "
        "<= 1e-10 over 10^4 models); all-uninformative plan raises; "
        "single-parameter forgery infeasible on the slope-violation instance",
        antisym_ok and raises_ok and one_var_ok,
        time.time() - t0,
    )


def test_09_topology_regime_reproduction():
    """Star (malicious hub) vs low-centrality random topology straddle the
    critical centrality; verdicts differ and 10-seed runs agree with both."""
    t0 = time.time()
    model = bsc_model(0.9)
    eps = 5e-3
    forged = unknown_divergence_attack(model, eps)

    margin_fn = homogeneous_centrality_margin(model, forged, 1)
    critical = critical_parameter(margin_fn, (0.01, 0.99))

    star = make_network(uniform_combination(star_adjacency(15, 0)), 1)
    star_u = adversary_centrality(perron_vector(star), star.roles)
    er_cfg = load_config(read_config("learns_truth_random_bsc09.yaml"))
    from sociallearn import build_scenario

    er_sc = build_scenario(er_cfg)
    er_u = er_sc.adversary_centrality
    straddle = er_u < critical < star_u

    star_agents = agents_for(star, [model] * 15, {0: forged})
    star_report = deception_verdict(star, star_agents, perron_vector(star))
    er_report = er_sc.report()
    verdicts_ok = (
        star_report.verdict1 is Verdict.MISLED
        and er_report.verdict1 is Verdict.LEARNS_TRUTH
    )

    horizon = 800
    star_finals = network_average_true_belief(
        run_finals(star, star_agents, Hypothesis.THETA1, horizon, seeds=range(10)),
        Hypothesis.THETA1,
    )
    er_finals = network_average_true_belief(
        run_finals(er_sc.net, er_sc.agents, Hypothesis.THETA1, horizon, seeds=range(10)),
        Hypothesis.THETA1,
    )
    sims_ok = bool(np.all(np.asarray(star_finals) < 0.5)) and bool(
        np.all(np.asarray(er_finals) > 0.5)
    )
    _report(
        9,
        f"adversary centralities {er_u:.3f} < {critical:.3f} < {star_u:.3f} straddle "
        "the critical value; verdicts misled-vs-learns and all 10-seed runs agree",
        straddle and verdicts_ok and sims_ok,
        time.time() - t0,
    )

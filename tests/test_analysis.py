"""Closed-form predictions: divergences, contributions, verdicts, roots."""

import math
import os
import sys

import numpy as np
import pytest

from sociallearn import (
    AgentConfig,
    Hypothesis,
    Network,
    Role,
    Verdict,
    adversary_contribution,
    bsc_model,
    build_scenario,
    critical_parameter,
    deception_verdict,
    erdos_renyi_adjacency,
    kl_divergence,
    load_config,
    make_model,
    make_network,
    multi_adversary_known,
    normal_divergence,
    perron_vector,
    run_finals,
    star_adjacency,
    uniform_combination,
    unknown_divergence_attack,
)
from sociallearn.analysis import _weighted_drifts
from sociallearn.errors import InfiniteDivergenceError, NoSignChangeError
from sociallearn.learning import _symbol_tables, log_ratio_table, network_average_true_belief
from sociallearn.network import adversary_centrality

from helpers import (
    agents_for,
    homogeneous_centrality_margin,
    random_model,
    random_network,
    random_uninformative_model,
    state_pmfs,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".yaml"))
BSC08_KL = 0.8317766166719344  # 0.6 ln 4
NONSEP = make_model([0.8, 0.2], [0.55, 0.45])


def er_network(n, edge_prob, seed, n_malicious):
    adj = erdos_renyi_adjacency(n, edge_prob, seed)
    return make_network(uniform_combination(adj), n_malicious)


def unknown_forged(models, eps):
    """Agent index -> network-agnostic forgery, for adversaries 0 .. len(models)-1."""
    return {k: unknown_divergence_attack(m, eps) for k, m in enumerate(models)}


class TestNormalDivergence:
    def test_two_agent_doubly_stochastic(self):
        net = make_network(np.full((2, 2), 0.5), 0)
        models, u = [bsc_model(0.8)] * 2, perron_vector(net)
        assert normal_divergence(net, models, 1, u) == pytest.approx(BSC08_KL, abs=1e-12)
        assert normal_divergence(net, models, 2, u) == pytest.approx(BSC08_KL, abs=1e-12)

    def test_uninformative_normal_agent_contributes_zero(self):
        net = make_network(np.full((3, 3), 1.0 / 3.0), 2)
        models = [bsc_model(0.9), bsc_model(0.9), bsc_model(0.5)]
        u = perron_vector(net)
        assert normal_divergence(net, models, 1, u) == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_normal_centrality(self):
        net = er_network(15, 0.25, 28, 4)
        models = [bsc_model(0.8)] * 15
        u = perron_vector(net)
        normal_mass = 1.0 - adversary_centrality(u, net.roles)
        assert normal_divergence(net, models, 1, u) == pytest.approx(
            normal_mass * BSC08_KL, abs=1e-12
        )


def kl_form(u_k, true_model, forged_model, j):
    """The contribution as u_k [ D(L_j || forged_j) - D(L_j || forged_j') ]."""
    weights, _ = state_pmfs(true_model, j)
    f_j, f_other = state_pmfs(forged_model, j)
    return u_k * (kl_divergence(weights, f_j) - kl_divergence(weights, f_other))


class TestAdversaryContribution:
    @staticmethod
    def assert_kl_form(net, u, agents):
        for k in net.malicious_indices:
            agent = agents[k]
            for j in (1, 2):
                args = (float(u[k]), agent.true_model, agent.inference_model, j)
                val, alt = adversary_contribution(*args), kl_form(*args)
                assert abs(val - alt) <= 1e-10 * abs(val), (k, j, val, alt)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_kl_form_on_bundled_configs(self, name):
        with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
            scenario = build_scenario(load_config(fh.read()))
        self.assert_kl_form(scenario.net, scenario.perron, scenario.agents)

    def test_kl_form_on_random_scenarios(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            n_mal = int(rng.integers(1, n))
            net = random_network(rng, n, n_malicious=n_mal)
            models = [random_model(rng, int(rng.integers(2, 6))) for _ in range(n)]
            eps = float(rng.uniform(1e-6, 0.5 / max(m.alphabet_size for m in models)))
            # odd adversaries forge the agnostic optimum, even ones a random model
            forged = {
                k: unknown_divergence_attack(models[k], eps)
                if k % 2
                else random_model(rng, models[k].alphabet_size)
                for k in range(n_mal)
            }
            self.assert_kl_form(net, perron_vector(net), agents_for(net, models, forged))

    def test_uninformative_true_model_antisymmetry(self):
        rng = np.random.default_rng(2)
        m = random_uninformative_model(rng, 4)
        forged = random_model(rng, 4)
        r1 = adversary_contribution(0.3, m, forged, 1)
        r2 = adversary_contribution(0.3, m, forged, 2)
        assert r1 == pytest.approx(-r2, abs=1e-12)

    def test_identical_forged_columns_zero(self):
        m = bsc_model(0.8)
        flat = make_model([0.6, 0.4], [0.6, 0.4])
        assert adversary_contribution(0.4, m, flat, 1) == 0.0
        assert adversary_contribution(0.4, m, flat, 2) == 0.0

    def test_reference_value(self):
        # u = 1/4, optimal forged pair at eps = 1e-3: 0.25 * 0.8 * ln(999)
        m = bsc_model(0.9)
        forged = unknown_divergence_attack(m, 1e-3)
        expected = 0.2 * math.log(999.0)
        assert expected == pytest.approx(1.3813509557297107, abs=1e-13)
        assert adversary_contribution(0.25, m, forged, 1) == pytest.approx(
            expected, abs=1e-12
        )


class TestDeceptionVerdict:
    def test_no_adversaries_learns_truth(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 5)
        agents = agents_for(net, [bsc_model(0.7)] * 5)
        report = deception_verdict(net, agents, perron_vector(net))
        assert report.verdict1 is Verdict.LEARNS_TRUTH
        assert report.verdict2 is Verdict.LEARNS_TRUTH
        assert report.margin1 == pytest.approx(-report.s1)

    def test_adversaries_are_the_network_roles(self):
        # the same agents on the same weights: the roles alone split s_j from r_j
        m = bsc_model(0.8)
        forged = unknown_divergence_attack(m, 1e-3)
        agents = (AgentConfig(m, forged), AgentConfig(m), AgentConfig(m))
        comb = np.full((3, 3), 1.0 / 3.0)
        n, a = Role.NORMAL, Role.MALICIOUS
        reports = {}
        for roles in ((a, n, n), (n, n, a), (n, n, n)):
            net = Network(comb, roles)
            reports[roles] = deception_verdict(net, agents, perron_vector(net))
            assert reports[roles].adversary_indices == net.malicious_indices
        first, last, honest = reports[(a, n, n)], reports[(n, n, a)], reports[(n, n, n)]
        assert first.s1 == pytest.approx(2.0 / 3.0 * BSC08_KL, abs=1e-12)
        assert first.r1 == pytest.approx((adversary_contribution(1.0 / 3.0, m, forged, 1),))
        assert last.r1 == pytest.approx((-BSC08_KL / 3.0,), abs=1e-12)
        assert honest.r1 == () and honest.s1 == pytest.approx(-honest.margin1, abs=1e-12)
        for report in reports.values():  # the margin sums every agent whatever its role
            assert report.margin1 == pytest.approx(first.margin1, abs=1e-12)
            assert report.margin1 == pytest.approx(math.fsum(report.r1) - report.s1, abs=1e-12)

    def test_infinite_divergence_refused(self):
        # theta2 puts no mass on a symbol theta1 emits: D(L(theta1) || L(theta2)) is infinite
        m = make_model([0.5, 0.5], [1.0, 0.0])
        net = make_network(np.full((4, 4), 0.25), 1)
        agents = agents_for(net, [m] * 4, unknown_forged([m], 1e-3))
        with pytest.raises(InfiniteDivergenceError, match="infinite"):
            deception_verdict(net, agents, perron_vector(net))

    def test_nonseparable_unknown_attack_misleads_one_state(self):
        net = er_network(15, 0.25, 28, 4)
        models = [NONSEP] * 15
        agents = agents_for(net, models, unknown_forged([NONSEP] * 4, 1e-5))
        report = deception_verdict(net, agents, perron_vector(net))
        verdicts = (report.verdict1, report.verdict2)
        assert verdicts.count(Verdict.MISLED) == 1
        assert verdicts.count(Verdict.LEARNS_TRUTH) == 1

    def test_nonseparable_known_attack_misleads_both(self):
        net = er_network(15, 0.25, 28, 4)
        u = perron_vector(net)
        s1 = normal_divergence(net, [NONSEP] * 15, 1, u)
        s2 = normal_divergence(net, [NONSEP] * 15, 2, u)
        plan = multi_adversary_known(
            [NONSEP] * 4, [u[k] for k in range(4)], s1, s2, 1e-5,
            aggregate_centrality=True,
        )
        forged = {k: entry.forged for k, entry in enumerate(plan.entries)}
        report = deception_verdict(net, agents_for(net, [NONSEP] * 15, forged), u)
        assert report.verdict1 is Verdict.MISLED
        assert report.verdict2 is Verdict.MISLED

    def test_cost_margin_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            net = random_network(rng, int(rng.integers(3, 8)), n_malicious=1)
            models = [random_model(rng, 3) for _ in range(net.n_agents)]
            forged = unknown_forged([models[0]], 1e-3)
            agents = agents_for(net, models, forged)
            report = deception_verdict(net, agents, perron_vector(net))
            assert report.cost1 == pytest.approx(-report.margin1, abs=1e-12)
            assert report.cost2 == pytest.approx(-report.margin2, abs=1e-12)

    def test_symbol_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 4, n_malicious=1)
        base = random_model(rng, 4)
        models = [base] * 4
        forged = unknown_forged([base], 1e-3)
        u = perron_vector(net)
        report = deception_verdict(net, agents_for(net, models, forged), u)

        perm = [2, 0, 3, 1]

        def permute(m):
            return make_model(
                [m.given_theta1[s] for s in perm], [m.given_theta2[s] for s in perm]
            )

        models_p = [permute(m) for m in models]
        forged_p = {0: permute(forged[0])}
        report_p = deception_verdict(net, agents_for(net, models_p, forged_p), u)
        assert report_p.s1 == pytest.approx(report.s1, abs=1e-12)
        assert report_p.s2 == pytest.approx(report.s2, abs=1e-12)
        assert report_p.margin1 == pytest.approx(report.margin1, abs=1e-12)
        assert report_p.verdict2 is report.verdict2

    def test_verdict_simulation_agreement(self):
        # decisive closed-form margins must match Monte Carlo majorities
        rng = np.random.default_rng(40)
        agree = 0
        total = 0
        while total < 50:
            n = int(rng.integers(4, 9))
            n_mal = int(rng.integers(1, max(2, n // 3) + 1))
            net = random_network(rng, n, n_malicious=n_mal)
            shared = random_model(rng, int(rng.integers(2, 5)), floor=0.05)
            models = [shared] * n
            forged = unknown_forged([shared] * n_mal, 5e-3)
            agents = agents_for(net, models, forged)
            report = deception_verdict(net, agents, perron_vector(net))
            if abs(report.margin1) <= 0.05:
                continue
            total += 1
            lam = run_finals(net, agents, Hypothesis.THETA1, 5000, seeds=range(10))
            finals = network_average_true_belief(lam, Hypothesis.THETA1)
            majority_true = float(np.mean(np.asarray(finals) > 0.5)) > 0.5
            predicted_true = report.verdict1 is Verdict.LEARNS_TRUTH
            if majority_true == predicted_true:
                agree += 1
        assert agree >= 48


class TestAsymptoticRate:
    def test_no_adversaries_bsc08(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 5)
        agents = agents_for(net, [bsc_model(0.8)] * 5)
        rate = deception_verdict(net, agents, perron_vector(net)).margin(Hypothesis.THETA1)
        assert rate == pytest.approx(-BSC08_KL, abs=1e-12)

    def test_sign_matches_verdict(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = random_network(rng, 5, n_malicious=1)
            models = [random_model(rng, 3) for _ in range(5)]
            agents = agents_for(net, models, unknown_forged([models[0]], 1e-3))
            report = deception_verdict(net, agents, perron_vector(net))
            rate = report.margin(Hypothesis.THETA1)
            if report.verdict1 is Verdict.MISLED:
                assert rate > 0
            elif report.verdict1 is Verdict.LEARNS_TRUTH:
                assert rate < 0

    def test_adversarial_star_positive_rate(self):
        net = make_network(uniform_combination(star_adjacency(15, 0)), 1)
        m = bsc_model(0.9)
        agents = agents_for(net, [m] * 15, unknown_forged([m], 5e-3))
        report = deception_verdict(net, agents, perron_vector(net))
        rate = report.margin(Hypothesis.THETA1)
        assert report.verdict1 is Verdict.MISLED and rate > 0


class TestOneTable:
    def test_no_separate_divergence_formula(self, tmp_path, monkeypatch):
        # every s_j, r_kj and margin comes from the kernel's log-ratio table
        import sociallearn.simulator  # noqa: F401  (loads every module the commands use)
        from sociallearn.cli import main

        def refuse(*args):
            raise AssertionError("a closed form read a formula other than the table")

        for module in [m for key, m in sys.modules.items() if key.startswith("sociallearn")]:
            for formula in ("kl_divergence", "expected_log_ratio"):
                if formula in vars(module):
                    monkeypatch.setattr(module, formula, refuse)
        for name in CONFIGS:
            path = os.path.join(CONFIG_DIR, name)
            commands = ["predict", "run"] + (["sweep"] if name.startswith("sweep_") else [])
            for command in commands:
                argv = [command, "--config", path, "--horizon", "20", "--out", str(tmp_path)]
                assert main(argv) == 0, (name, command)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_margin_is_the_expected_step_of_the_walk(self, name):
        # Z_t = u^T lam_t steps by u^T llr_t, whose mean over the kernel's own
        # tables is the margin toward the wrong state
        with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
            scenario = build_scenario(load_config(fh.read()))
        theta = scenario.theta_true
        cum, llr, _ = _symbol_tables(log_ratio_table([scenario.agents]), theta, 1)
        cum, llr = np.where(np.isinf(cum), 1.0, cum)[:, 0, 0, :, 0], llr[:, 0, 0, :, 0]
        ones = np.ones((1, cum.shape[1]))
        pmf = np.diff(np.concatenate([0.0 * ones, cum, ones]), axis=0)
        step = float(scenario.perron @ (pmf * llr).sum(axis=0))
        toward_wrong = -step if theta is Hypothesis.THETA1 else step
        assert toward_wrong == pytest.approx(scenario.report().margin(theta), rel=1e-12, abs=1e-15)

    def test_stack_table_reads_as_one_row_tables(self):
        # the 3-row table numbers its pairs in first appearance over all rows,
        # each one-row table over its own row: the weighted drifts are the same bits
        rng = np.random.default_rng(50)
        models = [random_model(rng, int(rng.integers(2, 5))) for _ in range(4)]
        forged = {0: unknown_divergence_attack(models[3], 1e-2)}
        net = random_network(rng, 5, n_malicious=1)
        agent_lists = [
            agents_for(net, [models[i] for i in order], forged if order[0] == 3 else {})
            for order in ([0, 1, 2, 1, 0], [2, 0, 3, 3, 1], [3, 2, 1, 0, 2])
        ]
        u = rng.uniform(0.05, 1.0, size=(3, 5))
        table = log_ratio_table(agent_lists)
        assert table.index.shape == (3, 5)
        for theta in (None, Hypothesis.THETA1, Hypothesis.THETA2):
            stacked = _weighted_drifts(table, u, theta)
            for g, agents in enumerate(agent_lists):
                one = _weighted_drifts(log_ratio_table([agents]), u[g], theta)
                assert np.array_equal(stacked[..., g, :], one[..., 0, :])


class TestCriticalParameter:
    def test_centrality_root_closed_form(self):
        # margin(U) = U r - (1-U) kl crosses zero at kl / (kl + r)
        m = bsc_model(0.9)
        forged = unknown_divergence_attack(m, 5e-3)
        margin = homogeneous_centrality_margin(m, forged, 1)
        kl = kl_divergence(m.given_theta1, m.given_theta2)
        r_unit = adversary_contribution(1.0, m, forged, 1)
        expected = kl / (kl + r_unit)
        root = critical_parameter(margin, (0.01, 0.99))
        assert root == pytest.approx(expected, abs=1e-9)
        assert margin(0.01) < 0  # tiny adversary mass cannot win

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            critical_parameter(lambda x: 1.0 + x * x, (0.0, 1.0))

    @pytest.mark.parametrize("bracket", [(0.25, 1.0), (-1.0, 0.25)])
    def test_end_within_tolerance_is_the_root(self, bracket):
        # the margin touches zero at 0.25 without changing sign: an end whose
        # |margin| is below 1e-10 is the root, read from the two end evaluations
        calls = []

        def margin(x):
            calls.append(x)
            return (x - 0.25) ** 2 + 5e-11

        assert critical_parameter(margin, bracket) == 0.25
        assert calls == list(bracket)

    def test_margin_at_zero_centrality(self):
        m = bsc_model(0.8)
        forged = unknown_divergence_attack(m, 1e-3)
        margin = homogeneous_centrality_margin(m, forged, 1)
        assert margin(1e-12) == pytest.approx(-BSC08_KL, abs=1e-9)

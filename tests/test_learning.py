"""Belief dynamics: the belief-domain reference, runs, the kernel, dual representation."""

import math

import numpy as np
import pytest

from sociallearn import (
    AgentConfig,
    Hypothesis,
    Role,
    bsc_model,
    erdos_renyi_adjacency,
    make_model,
    make_network,
    run,
    run_finals,
    sample,
    star_adjacency,
    uniform_combination,
    unknown_divergence_attack,
)
from sociallearn import learning
from sociallearn.errors import ZeroLikelihoodError
from sociallearn.learning import (
    _BLOCK_STEPS,
    _block_lengths,
    _simulate,
    _symbol_tables,
    log_ratio_table,
    network_average_true_belief,
)

from helpers import (
    BeliefState,
    adapt,
    agents_for,
    combine,
    draw_symbols,
    random_model,
    random_network,
    reference_run,
    step,
)


class TestAdapt:
    def test_uniform_prior_returns_normalized_row(self):
        assert adapt([0.5, 0.5], [0.9, 0.1]) == pytest.approx([0.9, 0.1])

    def test_uninformative_row_no_update(self):
        assert adapt([0.5, 0.5], [0.3, 0.3]) == pytest.approx([0.5, 0.5])

    def test_symmetric_product(self):
        # 0.8*0.2 in both components -> uniform
        assert adapt([0.8, 0.2], [0.2, 0.8]) == pytest.approx([0.5, 0.5])

    def test_zero_row(self):
        with pytest.raises(ZeroLikelihoodError):
            adapt([0.5, 0.5], [0.0, 0.0])


class TestCombine:
    def test_single_neighbor_identity(self):
        assert combine([[0.7, 0.3]], [1.0]) == pytest.approx([0.7, 0.3])

    def test_symmetric_pair(self):
        assert combine([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]) == pytest.approx([0.5, 0.5])

    def test_weighted_geometric_mean(self):
        # ratio (0.8/0.2)^0.75 * (0.5/0.5)^0.25 = 4^0.75 evaluated directly
        mu = combine([[0.8, 0.2], [0.5, 0.5]], [0.75, 0.25])
        ratio = 4.0**0.75
        assert mu == pytest.approx([ratio / (1 + ratio), 1 / (1 + ratio)], abs=1e-12)


class TestLogRatioRecursion:
    def test_matches_belief_domain_composition(self):
        rng = np.random.default_rng(77)
        net = random_network(rng, 3)
        models = [random_model(rng, int(rng.integers(2, 5))) for _ in range(3)]
        agents = agents_for(net, models)
        horizon = 50
        traj = run(net, agents, Hypothesis.THETA1, horizon, seed=5, stride=1)
        blocks = draw_symbols(agents, Hypothesis.THETA1, horizon, seed=5)
        state = BeliefState.uniform(3)
        for i in range(horizon):
            state = step(state, net, agents, [int(blocks[k][i]) for k in range(3)])
            assert np.max(np.abs(state.log_ratio - traj.log_ratio[i])) < 1e-9


class TestStep:
    def test_uninformative_models_freeze_state(self):
        # no update from evidence, and combining identical priors is a no-op
        rng = np.random.default_rng(1)
        net = random_network(rng, 4)
        third = 1.0 / 3.0
        m = make_model([third] * 3, [third] * 3)
        agents = agents_for(net, [m] * 4)
        state = BeliefState.from_belief_theta1([0.3, 0.3, 0.3, 0.3])
        new = step(state, net, agents, [0, 1, 2, 0])
        assert np.allclose(new.log_ratio, state.log_ratio, atol=1e-12)

    def test_single_agent_drift_matches_kl(self):
        # lone agent with a self-loop: E[log-ratio increment] = D(row1 || row2)
        net = make_network(np.array([[1.0]]), 0)
        m = bsc_model(0.9)
        agents = (AgentConfig(m),)
        traj = run(net, agents, Hypothesis.THETA1, horizon=20000, seed=3)
        mean_inc = float(traj.final_log_ratio[0]) / 20000.0
        expected = 0.8 * math.log(9.0)
        assert mean_inc == pytest.approx(expected, abs=0.05)

    def test_beliefs_stay_in_open_simplex(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, 4, n_malicious=1)
        models = [random_model(rng, 3, floor=0.05) for _ in range(4)]
        forged = {0: unknown_divergence_attack(models[0], 0.01)}
        agents = agents_for(net, models, forged)
        state = BeliefState.uniform(4)
        blocks = draw_symbols(agents, Hypothesis.THETA1, 100, seed=2)
        for i in range(100):
            state = step(state, net, agents, [int(b[i]) for b in blocks])
            beliefs = state.beliefs()
            assert np.all(beliefs > 0.0) and np.all(beliefs < 1.0)


class TestRun:
    def test_no_adversaries_learns_truth(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, 6)
        agents = agents_for(net, [bsc_model(0.8)] * 6)
        traj = run(net, agents, Hypothesis.THETA1, horizon=2000, seed=0)
        assert traj.final_network_average_true_belief() > 0.99

    def test_uninformative_models_keep_initial_beliefs(self):
        rng = np.random.default_rng(13)
        net = random_network(rng, 3)
        agents = agents_for(net, [bsc_model(0.5)] * 3)
        traj = run(net, agents, Hypothesis.THETA2, horizon=50, seed=1)
        assert np.allclose(traj.final_log_ratio, 0.0, atol=1e-12)

    def test_high_centrality_attack_misleads_fast(self):
        # star with a malicious hub: distorted updates dominate by step 100
        net = make_network(uniform_combination(star_adjacency(15, 0)), 1)
        m = bsc_model(0.8)
        forged = {0: unknown_divergence_attack(m, 5e-3)}
        agents = agents_for(net, [m] * 15, forged)
        traj = run(net, agents, Hypothesis.THETA1, horizon=100, seed=4)
        assert traj.final_network_average_true_belief() < 0.01

    def test_determinism(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, 5, n_malicious=1)
        models = [random_model(rng, 3) for _ in range(5)]
        forged = {0: unknown_divergence_attack(models[0], 1e-2)}
        agents = agents_for(net, models, forged)
        t1 = run(net, agents, Hypothesis.THETA1, horizon=200, seed=9, stride=10)
        t2 = run(net, agents, Hypothesis.THETA1, horizon=200, seed=9, stride=10)
        assert np.array_equal(t1.log_ratio, t2.log_ratio)
        assert np.array_equal(t1.final_log_ratio, t2.final_log_ratio)

    def test_run_finals_matches_run(self):
        rng = np.random.default_rng(15)
        net = random_network(rng, 4)
        agents = agents_for(net, [bsc_model(0.7)] * 4)
        for seeds in ([3], [3, 8, 11, 20]):
            finals = run_finals(net, agents, Hypothesis.THETA1, horizon=150, seeds=seeds)
            # the kernel's (S, n) layout: row s is seed s's final state
            assert finals.shape == (len(seeds), 4) and finals.flags.c_contiguous
            for s, seed in enumerate(seeds):
                for stride in (0, 1):
                    traj = run(net, agents, Hypothesis.THETA1, 150, seed=seed, stride=stride)
                    assert np.array_equal(finals[s], traj.final_log_ratio)

    def test_lone_seed_finals_match_a_ten_seed_column(self):
        # a lone seed is stepped beside a zero column, ten seeds as ten columns
        rng = np.random.default_rng(19)
        net = random_network(rng, 15, n_malicious=3)
        models = [random_model(rng, 3) for _ in range(15)]
        forged = {k: unknown_divergence_attack(models[k], 1e-2) for k in range(3)}
        agents = agents_for(net, models, forged)
        seeds = list(range(10))
        finals = run_finals(net, agents, Hypothesis.THETA2, horizon=200, seeds=seeds)
        for s, seed in enumerate(seeds):
            lone = run_finals(net, agents, Hypothesis.THETA2, horizon=200, seeds=[seed])
            assert np.array_equal(lone[0], finals[s])

    def test_blocks_match_per_step_loop(self):
        # a horizon over several symbol blocks, and a stride that does not divide a block
        rng = np.random.default_rng(18)
        net = random_network(rng, 5, n_malicious=1)
        models = [random_model(rng, 3) for _ in range(5)]
        agents = agents_for(net, models, {0: unknown_divergence_attack(models[0], 1e-2)})
        horizon = 2 * _BLOCK_STEPS + 7
        traj = run(net, agents, Hypothesis.THETA1, horizon, seed=21, stride=5)
        records, final = reference_run(net, agents, Hypothesis.THETA1, horizon, 21, stride=5)
        assert list(traj.steps) == list(range(5, horizon + 1, 5))
        assert np.array_equal(traj.log_ratio, records)
        assert np.array_equal(traj.final_log_ratio, final)

    def test_zero_likelihood_for_drawn_symbol_raises(self):
        # the forged model rules out symbol 1, which the true model draws half the time
        net = make_network(np.array([[1.0]]), 1)
        forged = make_model([1.0, 0.0], [0.5, 0.5])
        agents = (AgentConfig(bsc_model(0.5), forged),)
        with pytest.raises(ZeroLikelihoodError):
            run(net, agents, Hypothesis.THETA1, horizon=50, seed=0)

    def test_stride_and_steps(self):
        rng = np.random.default_rng(16)
        net = random_network(rng, 3)
        agents = agents_for(net, [bsc_model(0.7)] * 3)
        traj = run(net, agents, Hypothesis.THETA1, horizon=100, seed=0, stride=30)
        assert list(traj.steps) == [30, 60, 90]
        empty = run(net, agents, Hypothesis.THETA1, horizon=100, seed=0, stride=0)
        assert empty.log_ratio.shape == (0, 3)

    def test_empirical_rate_adversarial(self):
        # star + distorted hub: (1/i) log-ratio growth matches the margin
        from sociallearn import deception_verdict, perron_vector

        net = make_network(uniform_combination(star_adjacency(15, 0)), 1)
        m = bsc_model(0.9)
        forged = {0: unknown_divergence_attack(m, 5e-3)}
        agents = agents_for(net, [m] * 15, forged)
        report = deception_verdict(net, agents, perron_vector(net))
        predicted = report.margin1  # theta_true = theta1
        finals = run_finals(net, agents, Hypothesis.THETA1, 5000, seeds=range(20))
        empirical = float(np.mean(-finals / 5000.0))
        assert abs(empirical - predicted) <= 0.05 * abs(predicted)


@pytest.mark.parametrize("n", [2, 5, 15, 50, 64, 100, 200, 300])
def test_blas_computes_each_column_on_its_own(n):
    # the kernel's cross-seed bits rest on this: each seed is a column of one
    # dgemm of at most _SEED_COLUMNS columns, and a lone seed is one column
    # beside a zero column
    rng = np.random.default_rng(n)
    at = random_network(rng, n).combination.T
    x = rng.standard_normal((n, learning._SEED_COLUMNS))
    lone = np.empty_like(x)
    for col in range(x.shape[1]):
        beside_zero = np.zeros((n, 2))
        beside_zero[:, 0] = x[:, col]
        lone[:, col] = (at @ beside_zero)[:, 0]
    for width in range(2, x.shape[1] + 1):
        full = at @ np.ascontiguousarray(x[:, :width])
        differ = np.flatnonzero(np.any(full != lone[:, :width], axis=0))
        assert differ.size == 0, (
            f"columns {differ.tolist()} of {width} at n = {n} differ from the same columns "
            "beside a zero column: the kernel needs a BLAS dgemm that computes each output "
            "column independently of the others, or its seeds' bits depend on which seeds "
            "share a run"
        )


def er_scenario(n, edge_prob, n_malicious):
    """ER network (seed 7), shared BSC 0.8, unknown-divergence forgeries at 5e-3."""
    adj = erdos_renyi_adjacency(n, edge_prob, 7)
    net = make_network(uniform_combination(adj), n_malicious)
    m = bsc_model(0.8)
    forged = {k: unknown_divergence_attack(m, 5e-3) for k in range(n_malicious)}
    return net, agents_for(net, [m] * n, forged)


def test_many_seeds_match_the_same_seeds_in_halves():
    # 410 seeds are stepped _SEED_COLUMNS at a time: past about 192 columns at
    # n >= 100 the BLAS no longer computes each column on its own
    net, agents = er_scenario(100, 0.05, 10)
    seeds = list(range(410))

    def finals(part):
        return run_finals(net, agents, Hypothesis.THETA1, 5, part)

    whole = finals(seeds)
    halves = np.vstack([finals(seeds[:205]), finals(seeds[205:])])
    differ = np.flatnonzero(np.any(whole != halves, axis=1))
    assert differ.size == 0, f"seed rows {differ.tolist()} differ"
    # 65 = 64 + 1: the last seed steps beside a zero column
    assert np.array_equal(finals(seeds[:65]), whole[:65])


def test_blocks_sized_by_the_seed_group(monkeypatch):
    # each group of at most _SEED_COLUMNS seeds draws its own blocks, so the
    # generator calls per stream do not grow with the seed count
    net, agents = er_scenario(100, 0.08, 10)
    per_step = []

    def recorder(n_tables, step, horizon):
        per_step.append(step)
        return _block_lengths(n_tables, step, horizon)

    monkeypatch.setattr(learning, "_block_lengths", recorder)
    run_finals(net, agents, Hypothesis.THETA1, 3, seeds=range(410))
    assert per_step and max(per_step) <= learning._SEED_COLUMNS * 100


def test_table_built_once_per_call(monkeypatch):
    # run_finals builds its scenario's table once; the kernel's seed groups share it
    net, agents = er_scenario(20, 0.3, 2)
    calls = []

    def recorder(agent_lists):
        calls.append(len(agent_lists))
        return log_ratio_table(agent_lists)

    monkeypatch.setattr(learning, "log_ratio_table", recorder)
    run_finals(net, agents, Hypothesis.THETA1, 3, seeds=range(130))
    assert calls == [1]


def test_memory_flat_in_seed_count():
    import tracemalloc

    net, agents = er_scenario(20, 0.3, 2)
    run_finals(net, agents, Hypothesis.THETA1, 20, seeds=range(2))  # warm-up
    peaks = []
    for n_seeds in (192, 640):
        tracemalloc.start()
        try:
            finals = run_finals(net, agents, Hypothesis.THETA1, 20, seeds=range(n_seeds))
            peaks.append(tracemalloc.get_traced_memory()[1] - finals.nbytes)
        finally:
            tracemalloc.stop()
    # one group's generators, blocks and state, whatever the seed count
    assert max(peaks) <= 1.1 * min(peaks), peaks


def test_empty_seed_list_refused():
    net, agents = er_scenario(5, 0.5, 1)
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        run_finals(net, agents, Hypothesis.THETA1, 10, seeds=[])
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        _simulate([net], log_ratio_table([agents]), Hypothesis.THETA1, 10, [], 0, 0.5)


def lone_agent(model):
    """A one-agent network: each step adds the agent's own log-likelihood ratio."""
    return make_network(np.array([[1.0]]), 0), [AgentConfig(model)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("k", [0, 1, 199])
def test_stream_entropy_draws_as_the_seed_tuple(seed, k):
    # agent k draws from default_rng((seed, k)), multi-word ints included; with
    # the identity combination each agent sums its own log-likelihood ratios
    model = bsc_model(0.7)
    net = make_network(np.eye(k + 1), 0)
    agents = [AgentConfig(model)] * (k + 1)
    traj = run(net, agents, Hypothesis.THETA1, 16, seed=seed)
    symbols = sample(model.given_theta1, np.random.default_rng((seed, k)), 16)
    llr = np.log(model.given_theta1.as_array()) - np.log(model.given_theta2.as_array())
    assert np.array_equal(traj.log_ratio[:, k], np.cumsum(llr[symbols]))


def test_negative_stream_seed_refused():
    net, agents = lone_agent(bsc_model(0.7))
    with pytest.raises(ValueError, match="non-negative"):
        run(net, agents, Hypothesis.THETA1, 5, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        run_finals(net, agents, Hypothesis.THETA1, 5, seeds=[-1])


def mixed_grid(seed: int, n: int = 5, points: int = 4):
    """Sweep-like stack: one network and per-agent models per grid point.

    Point 0 is all binary; the others mix alphabets of 2 to 4 symbols, and
    every point has one adversary with its own forgery.
    """
    rng = np.random.default_rng(seed)
    nets, agent_lists = [], []
    for g in range(points):
        net = random_network(rng, n, n_malicious=1)
        models = [random_model(rng, 2 if g == 0 else int(rng.integers(2, 5))) for _ in range(n)]
        forged = {0: unknown_divergence_attack(models[0], 1e-2 * (g + 1))}
        nets.append(net)
        agent_lists.append(agents_for(net, models, forged))
    return nets, agent_lists


class TestStack:
    def test_stacked_grid_matches_per_point_run_finals(self):
        nets, agent_lists = mixed_grid(41)
        seeds = [0, 3, 7]
        _, _, finals = _simulate(
            nets, log_ratio_table(agent_lists), Hypothesis.THETA1, 300, seeds, 0, 0.5
        )
        assert finals.shape == (len(nets), len(seeds), 5)
        for g, (net, agents) in enumerate(zip(nets, agent_lists)):
            lone = run_finals(net, agents, Hypothesis.THETA1, horizon=300, seeds=seeds)
            assert np.array_equal(finals[g], lone)

    def test_stacked_records_match_reference(self):
        nets, agent_lists = mixed_grid(42, points=3)
        steps, records, finals = _simulate(
            nets, log_ratio_table(agent_lists), Hypothesis.THETA2, 120, [5, 9], 7, 0.5
        )
        for g, (net, agents) in enumerate(zip(nets, agent_lists)):
            for s, seed in enumerate([5, 9]):
                want_records, want_final = reference_run(
                    net, agents, Hypothesis.THETA2, 120, seed, stride=7
                )
                assert np.array_equal(records[g, s], want_records)
                assert np.array_equal(finals[g, s], want_final)

    def test_block_sizes_do_not_change_bits(self, monkeypatch):
        nets, agent_lists = mixed_grid(43, points=3)
        args = (nets, log_ratio_table(agent_lists), Hypothesis.THETA1, 60, [1, 2], 4, 0.3)
        _, records, finals = _simulate(*args)
        monkeypatch.setattr(learning, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(learning, "_BLOCK_STEPS", 1)
        _, records_1, finals_1 = _simulate(*args)
        assert np.array_equal(records, records_1)
        assert np.array_equal(finals, finals_1)

    def test_element_budget_bounds_the_block(self, monkeypatch):
        # a budget below one step's ratios still steps, one step per block
        nets, agent_lists = mixed_grid(44, points=2)
        table = log_ratio_table(agent_lists)
        args = (nets, table, Hypothesis.THETA1, 2 * _BLOCK_STEPS + 3, [0], 0, 0.5)
        _, _, finals = _simulate(*args)
        monkeypatch.setattr(learning, "_BLOCK_ELEMENTS", 7)
        _, _, finals_7 = _simulate(*args)
        assert np.array_equal(finals, finals_7)

    def test_block_lengths_at_the_bundled_sweep_shapes(self):
        # sweep_bsc_p: 41 tables of 10 seeds x 15 agents; the uniforms come in
        # 43 ratio blocks at a time, so 7 generator calls per stream over 3000 steps
        assert _block_lengths(41, 10 * 15, 3000) == (10, 430)
        # sweep_centrality: one table for the whole grid, 5 seeds x 15 agents
        assert _block_lengths(1, 5 * 15, 3000) == (_BLOCK_STEPS, _BLOCK_STEPS)
        # a budget below one step's ratios still steps, one step per block
        assert _block_lengths(41, 10 * 15 * 512, 3000) == (1, 1)

    def test_draw_block_spans_ratio_blocks(self, monkeypatch):
        # 3 tables x 2 seeds x 5 agents: ratio blocks of 4 steps, draw blocks of
        # 12, and a horizon of 43 that ends 7 steps into its last draw block
        nets, agent_lists = mixed_grid(47, points=3)
        table = log_ratio_table(agent_lists)
        seeds, horizon = [1, 2], 43

        def both_strides():
            return [
                _simulate(nets, table, Hypothesis.THETA1, horizon, seeds, stride, 0.5)
                for stride in (0, 3)
            ]

        unpatched = both_strides()
        monkeypatch.setattr(learning, "_BLOCK_ELEMENTS", 120)
        assert _block_lengths(3, 10, horizon) == (4, 12)
        patched = both_strides()
        for (_, records, finals), (_, want_records, want_finals) in zip(patched, unpatched):
            assert np.array_equal(records, want_records)
            assert np.array_equal(finals, want_finals)
        (_, _, finals_0), (_, records, finals) = patched
        for g, (net, agents) in enumerate(zip(nets, agent_lists)):
            for s, seed in enumerate(seeds):
                want_records, want_final = reference_run(
                    net, agents, Hypothesis.THETA1, horizon, seed, stride=3
                )
                assert np.array_equal(records[g, s], want_records)
                assert np.array_equal(finals[g, s], want_final)
                assert np.array_equal(finals_0[g, s], want_final)

    def test_equal_agents_share_one_table(self):
        # a grid that moves only the network: one table row set for every point
        rng = np.random.default_rng(48)
        nets = [random_network(rng, 5, n_malicious=1) for _ in range(3)]
        models = [random_model(rng, 3) for _ in range(5)]
        forged = unknown_divergence_attack(models[0], 1e-2)
        agent_lists = [agents_for(net, models, {0: forged}) for net in nets]
        cum, llr, finite = _symbol_tables(log_ratio_table(agent_lists), Hypothesis.THETA1, 2)
        assert cum.shape == (2, 1, 1, 5, 2) and llr.shape == (3, 1, 1, 5, 2) and finite
        table = log_ratio_table(agent_lists)
        _, _, finals = _simulate(nets, table, Hypothesis.THETA1, 200, [0, 5], 0, 0.5)
        for g, net in enumerate(nets):
            lone = run_finals(net, agent_lists[g], Hypothesis.THETA1, horizon=200, seeds=[0, 5])
            assert np.array_equal(finals[g], lone)
        # equal forgeries built apart count as equal; a different one does not
        rebuilt = [agents_for(nets[1], models, {0: unknown_divergence_attack(models[0], 1e-2)})]
        assert log_ratio_table(agent_lists[:1] + rebuilt).index.shape[0] == 1
        other = [agents_for(nets[1], models, {0: unknown_divergence_attack(models[0], 2e-2)})]
        assert log_ratio_table(agent_lists[:1] + other).index.shape[0] == 2

    def test_memory_bounded_and_flat_in_horizon(self):
        import tracemalloc

        # the sweep_bsc_p shape: 41 grid points x 10 seeds x 15 agents
        net = random_network(np.random.default_rng(49), 15, n_malicious=4)
        agent_lists = []
        for p in np.linspace(0.55, 0.95, 41):
            m = bsc_model(p)
            forged = {k: unknown_divergence_attack(m, 5e-3) for k in range(4)}
            agent_lists.append(agents_for(net, [m] * 15, forged))
        table = log_ratio_table(agent_lists)
        peaks = []
        for horizon in (1000, 4000):
            tracemalloc.start()
            try:
                _simulate([net] * 41, table, Hypothesis.THETA1, horizon, range(10), 0, 0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the uniform and ratio blocks (at most _BLOCK_ELEMENTS doubles each),
        # the inverse CDF's temporaries and the (G, S, n) state
        assert max(peaks) < 3 << 20
        assert max(peaks) <= 1.1 * min(peaks)

    def test_one_point_zeroing_a_realized_symbol_raises(self):
        # only point 1's forgery rules out symbol 1, which the true model draws
        net = make_network(np.array([[1.0]]), 1)
        honest = make_model([0.5, 0.5], [0.4, 0.6])
        zeroing = make_model([1.0, 0.0], [0.5, 0.5])
        agent_lists = [(AgentConfig(bsc_model(0.5), f),) for f in (honest, zeroing, honest)]
        for agents in (agent_lists[0], agent_lists[2]):
            run_finals(net, agents, Hypothesis.THETA1, horizon=50, seeds=[0])
        with pytest.raises(ZeroLikelihoodError):
            _simulate([net] * 3, log_ratio_table(agent_lists), Hypothesis.THETA1, 50, [0], 0, 0.5)

    def test_infinite_ratio_of_an_undrawn_symbol_is_fine(self):
        # the forgery rules out symbol 1, but the true model never draws it
        net = make_network(np.array([[1.0]]), 1)
        agents = (
            AgentConfig(make_model([1.0, 0.0], [0.5, 0.5]), make_model([1.0, 0.0], [0.5, 0.5])),
        )
        finals = run_finals(net, agents, Hypothesis.THETA1, horizon=50, seeds=[0, 1])
        lam = 0.0
        for _ in range(50):
            lam += math.log(1.0) - math.log(0.5)
        assert np.array_equal(finals, np.full((2, 1), lam))


class TestAgentConfig:
    def test_forged_model_of_another_alphabet_refused(self):
        with pytest.raises(ValueError, match="alphabet"):
            AgentConfig(bsc_model(0.8), make_model([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]))

    def test_inference_model_is_the_forged_one_whenever_given(self):
        # who is an adversary is the network's to say; an agent only holds its models
        m, forged = bsc_model(0.8), bsc_model(0.3)
        assert AgentConfig(m).inference_model is m
        assert AgentConfig(m, forged).inference_model is forged

    def test_role_refused(self):
        with pytest.raises(TypeError):
            AgentConfig(role=Role.MALICIOUS, true_model=bsc_model(0.8))


class TestBeliefState:
    def test_round_trip(self):
        s = BeliefState.from_belief_theta1([0.2, 0.5, 0.9])
        assert s.beliefs()[:, 0] == pytest.approx([0.2, 0.5, 0.9], abs=1e-12)

    def test_rejects_degenerate_initials(self):
        with pytest.raises(ValueError):
            BeliefState.from_belief_theta1([0.0, 0.5])
        # the kernel refuses them the same way
        net = make_network(np.eye(2), 0)
        agents = agents_for(net, [bsc_model(0.7)] * 2)
        for init in ([0.0, 0.5], 1.0, [0.5, float("nan")]):
            with pytest.raises(ValueError):
                run(net, agents, Hypothesis.THETA1, 5, seed=0, initial_belief_theta1=init)

    def test_network_average_helper(self):
        lam = np.array([[0.0, 100.0], [0.0, -100.0]])
        avg = network_average_true_belief(lam.T, Hypothesis.THETA1)
        assert avg == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("theta", list(Hypothesis))
    def test_network_average_rows_are_vector_calls(self, theta):
        # an (S, n) stack of seed states averages each row over its agents, in
        # the bits of the lone vector call, whatever the stack's memory layout
        lam = np.random.default_rng(3).normal(scale=40.0, size=(15, 5))
        for stack in (lam.T, np.ascontiguousarray(lam.T)):
            avg = network_average_true_belief(stack, theta)
            assert avg.shape == (5,)
            rows = [float(network_average_true_belief(row, theta)) for row in stack]
            assert avg.tolist() == rows

"""Topology, combination matrices, validation, and Perron centrality."""

import numpy as np
import pytest

from sociallearn import (
    Network,
    Role,
    adversary_centrality,
    complete_adjacency,
    edge_list_adjacency,
    erdos_renyi_adjacency,
    make_network,
    perron_vector,
    ring_adjacency,
    star_adjacency,
    trust_weighted_complete,
    uniform_combination,
    validate_network,
)
from sociallearn.errors import SocialLearnError
from sociallearn.network import PERRON_RESIDUAL_TOL, _reaches_all

from helpers import random_network, reference_uniform_combination


def degree_centrality(adjacency_with_self: np.ndarray) -> np.ndarray:
    """Independent oracle: with uniform weights on an undirected graph the
    fixed vector is exactly degree / total degree (self-loops counted)."""
    deg = adjacency_with_self.sum(axis=0).astype(float)
    return deg / deg.sum()


class TestErdosRenyi:
    def test_same_draws_as_pairwise_loop(self):
        # reference: one uniform per pair (i < j) in row-major order, rejected
        # until connected; seeded topologies in configs depend on this order
        def pairwise(n, edge_prob, seed):
            rng = np.random.default_rng(seed)
            while True:
                adj = np.zeros((n, n), dtype=bool)
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < edge_prob:
                            adj[i, j] = adj[j, i] = True
                if _reaches_all(adj):
                    return adj

        for n, edge_prob in ((15, 0.25), (100, 0.1)):
            for seed in (0, 28, 325, 12345):
                expected = pairwise(n, edge_prob, seed)
                assert np.array_equal(erdos_renyi_adjacency(n, edge_prob, seed), expected)


class TestUniformCombination:
    def test_two_agent_complete(self):
        a = uniform_combination(complete_adjacency(2))
        assert np.allclose(a, 0.5)

    def test_star_hub_column(self):
        a = uniform_combination(star_adjacency(15, hub=0))
        assert np.allclose(a[:, 0], 1.0 / 15.0)

    def test_path3_middle_column(self):
        a = uniform_combination(edge_list_adjacency(3, [(0, 1), (1, 2)]))
        assert np.allclose(a[:, 1], [1.0 / 3.0] * 3)

    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            uniform_combination(adj)

    @pytest.mark.parametrize("n", [15, 100, 300])
    def test_same_bits_as_per_column_reference(self, n):
        rng = np.random.default_rng(n)
        adj = erdos_renyi_adjacency(n, 0.2, int(rng.integers(0, 2**31 - 1)))
        with_diagonal = adj | np.eye(n, dtype=bool)
        for a in (adj, with_diagonal):
            got = uniform_combination(a)
            assert np.array_equal(got, reference_uniform_combination(a))
            assert np.all(np.diag(got) > 0.0)


class TestValidateNetwork:
    def test_two_disconnected_pairs(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        net = make_network(uniform_combination(adj), 0)
        codes = {v.code for v in validate_network(net)}
        assert "NotStronglyConnected" in codes

    def test_valid_star(self):
        net = make_network(uniform_combination(star_adjacency(6)), 1)
        assert validate_network(net) == []

    def test_non_stochastic_column(self):
        a = uniform_combination(complete_adjacency(3)).copy()
        a[:, 2] *= 0.9
        net = make_network(a, 0)
        codes = {v.code for v in validate_network(net)}
        assert "NotLeftStochastic" in codes

    def test_no_self_loop(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        codes = {v.code for v in validate_network(make_network(a, 0))}
        assert "NoSelfLoop" in codes

    def test_all_malicious_flagged(self):
        a = uniform_combination(complete_adjacency(3))
        net = Network(a, (Role.MALICIOUS,) * 3)
        codes = {v.code for v in validate_network(net)}
        assert "NoNormalAgent" in codes


class TestMaliciousIndices:
    def test_roles_read_once(self):
        a = uniform_combination(complete_adjacency(4))
        net = Network(a, (Role.MALICIOUS, Role.NORMAL, Role.MALICIOUS, Role.NORMAL))
        first = net.malicious_indices
        assert first == (0, 2)
        assert net.malicious_indices is first


class TestStronglyConnected:
    def test_one_way_link_refused(self):
        # agent 1 listens to agent 0, who listens only to itself
        a = np.array([[1.0, 0.5], [0.0, 0.5]])
        support = a > 0.0
        assert not _reaches_all(support)
        assert _reaches_all(support.T)
        assert not make_network(a, 0).strongly_connected

    def test_directed_three_cycle_with_one_self_loop(self):
        # agent k listens to agent k - 1; only agent 0 also listens to itself
        a = np.array([[0.5, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]])
        net = make_network(a, 0)
        assert net.strongly_connected
        assert validate_network(net) == []


class TestPerronVector:
    def test_doubly_stochastic_2x2(self):
        net = make_network(np.full((2, 2), 0.5), 0)
        assert np.allclose(perron_vector(net), [0.5, 0.5], atol=1e-12)

    def test_three_cycle_uniform(self):
        net = make_network(uniform_combination(ring_adjacency(3)), 0)
        assert np.allclose(perron_vector(net), 1.0 / 3.0, atol=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(3, 12)))
            u = perron_vector(net)
            assert np.max(np.abs(net.combination @ u - u)) <= PERRON_RESIDUAL_TOL
            assert abs(u.sum() - 1.0) < 1e-12
            assert np.all(u > 0.0)

    def test_degree_oracle(self):
        rng = np.random.default_rng(19)
        for seed in range(8):
            adj = erdos_renyi_adjacency(8, 0.4, seed)
            aws = adj.copy()
            np.fill_diagonal(aws, True)
            net = make_network(uniform_combination(adj), 0)
            u = perron_vector(net)
            assert np.allclose(u, degree_centrality(aws), atol=1e-11)

    def test_limit_of_matrix_powers(self):
        # A^i -> u 1^T and (A^T)^i -> 1 u^T, checked through products at i = 10^4
        rng = np.random.default_rng(23)
        net = random_network(rng, 7)
        u = perron_vector(net)
        v = rng.normal(size=7)
        w, wt = v.copy(), v.copy()
        for _ in range(10**4):
            w = net.combination @ w
            wt = net.combination.T @ wt
        assert np.max(np.abs(w - v.sum() * u)) < 1e-8
        assert np.max(np.abs(wt - float(u @ v))) < 1e-8

    def test_long_path_matches_eigensolver(self):
        # the 200-agent path under a fixed labelling: slow mixing, so an
        # iteration stopped on small steps ends far from the fixed vector
        order = np.random.default_rng(5).permutation(200)
        adj = np.zeros((200, 200), dtype=bool)
        adj[order[:-1], order[1:]] = adj[order[1:], order[:-1]] = True
        net = make_network(uniform_combination(adj), 0)
        u = perron_vector(net)
        w, v = np.linalg.eig(net.combination)
        ref = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        ref = ref / ref.sum()
        assert np.max(np.abs(u - ref)) <= 1e-12
        assert np.max(np.abs(net.combination @ u - u)) <= PERRON_RESIDUAL_TOL

    def test_reducible_matrix_raises(self):
        # wrapped in Network directly, so validation never sees it; in the
        # last, agents 0 and 1 never listen to agent 2, whose fixed-vector
        # entry the solve leaves at about 1e-15 instead of zero
        for a in (
            np.eye(3),
            np.array([[1.0, 0.5], [0.0, 0.5]]),
            np.array([[0.1, 0.3, 0.0], [0.9, 0.7, 0.1], [0.0, 0.0, 0.9]]),
        ):
            net = Network(a, (Role.NORMAL,) * len(a))
            with pytest.raises(SocialLearnError):
                perron_vector(net)

    def test_read_only(self):
        u = perron_vector(make_network(uniform_combination(star_adjacency(5)), 1))
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0] = 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        net = random_network(rng, 6)
        u = perron_vector(net)
        perm = rng.permutation(6)
        a_p = net.combination[np.ix_(perm, perm)]
        u_p = perron_vector(make_network(a_p, 0))
        assert np.allclose(u_p, u[perm], atol=1e-11)


class TestAdversaryCentrality:
    def test_no_adversaries(self):
        net = make_network(uniform_combination(complete_adjacency(4)), 0)
        assert adversary_centrality(perron_vector(net), net.roles) == 0.0

    def test_all_adversaries_sum_to_one(self):
        net = make_network(uniform_combination(complete_adjacency(4)), 0)
        u = perron_vector(net)
        assert adversary_centrality(u, (Role.MALICIOUS,) * 4) == pytest.approx(1.0)

    def test_star_malicious_hub(self):
        # exact balance for the 15-agent star with self-loops: hub gets 15/43
        net = make_network(uniform_combination(star_adjacency(15, hub=0)), 1)
        u = perron_vector(net)
        assert adversary_centrality(u, net.roles) == pytest.approx(15.0 / 43.0, abs=1e-11)

    def test_monotone_in_adversary_degree(self):
        # plumbing sanity: adding an edge at the malicious agent raises its share
        base = edge_list_adjacency(4, [(0, 1), (1, 2), (2, 3)])
        more = base.copy()
        more[0, 2] = more[2, 0] = True
        u_base = perron_vector(make_network(uniform_combination(base), 1))
        u_more = perron_vector(make_network(uniform_combination(more), 1))
        roles = (Role.MALICIOUS, Role.NORMAL, Role.NORMAL, Role.NORMAL)
        assert adversary_centrality(u_more, roles) > adversary_centrality(u_base, roles)


class TestTrustWeightedFamily:
    def test_centrality_sweeps(self):
        lo = make_network(trust_weighted_complete(10, 2, 0.01), 2)
        hi = make_network(trust_weighted_complete(10, 2, 0.45), 2)
        u_lo = adversary_centrality(perron_vector(lo), lo.roles)
        u_hi = adversary_centrality(perron_vector(hi), hi.roles)
        assert u_lo < 0.1 and u_hi > 0.85

    def test_valid_network(self):
        net = make_network(trust_weighted_complete(6, 1, 0.2), 1)
        assert validate_network(net) == []

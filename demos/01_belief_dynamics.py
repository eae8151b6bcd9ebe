#!/usr/bin/env python3
"""Belief evolution with and without likelihood-poisoning adversaries.

Fifteen agents observe a binary state through a binary symmetric channel and
fuse beliefs with the log-linear rule. Four of them run the optimal
network-agnostic forgery inside their Bayesian update while behaving
normally otherwise. We print each agent's belief in the true state at a few
time points, first on a random topology where the adversaries hold ~27% of
the network influence, then with sharper observations where honest evidence
wins back the network on a low-centrality topology.
"""

from sociallearn import (
    Hypothesis,
    bsc_model,
    deception_verdict,
    erdos_renyi_adjacency,
    make_network,
    perron_vector,
    run,
    uniform_combination,
    unknown_divergence_attack,
)
from sociallearn.learning import AgentConfig
from sociallearn.network import adversary_centrality


def belief_strip(values):
    """Render beliefs as a coarse strip: '-' wrong, '~' undecided, '#' true."""
    glyphs = []
    for v in values:
        glyphs.append("#" if v > 0.9 else ("-" if v < 0.1 else "~"))
    return "".join(glyphs)


def show(title, p, seed, n_malicious, topology_seed, eps=5e-3):
    adj = erdos_renyi_adjacency(15, 0.25, topology_seed)
    net = make_network(uniform_combination(adj), n_malicious)
    model = bsc_model(p)
    forged = unknown_divergence_attack(model, eps)
    adversaries = net.malicious_indices
    agents = tuple(AgentConfig(model, forged if k in adversaries else None) for k in range(15))
    u = perron_vector(net)
    centrality = adversary_centrality(u, net.roles)
    report = deception_verdict(net, agents, u)
    traj = run(net, agents, Hypothesis.THETA1, horizon=100, seed=seed, stride=1)

    print(f"\n=== {title} ===")
    print(f"channel p = {p}, adversary centrality = {centrality:.3f}, "
          f"predicted verdict: {report.verdict1.value} (margin {report.margin1:+.3f})")
    beliefs = traj.belief_theta1()
    print("agent:      " + "".join(str(k % 10) for k in range(15)) + "   mean")
    for step_idx in (1, 4, 20, 100):
        row = beliefs[step_idx - 1]
        print(f"step {step_idx:>4}:  {belief_strip(row)}   {row.mean():.4f}")


def main():
    print("Belief in the true state per agent ('#' true, '-' wrong, '~' undecided).")
    print("Adversaries are agents 0-3; they also draw honest observations but")
    print("update through forged likelihoods.")
    show("moderate channel, influential adversaries -> network deceived",
         p=0.8, seed=1, n_malicious=4, topology_seed=28)
    show("sharp channel, weak adversaries -> network learns the truth",
         p=0.9, seed=1, n_malicious=4, topology_seed=325)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The deception threshold, piece by piece.

Whether a poisoned network converges to the wrong state is decided by one
scalar comparison per candidate true state: the centrality-weighted KL
divergence of the honest sub-network (s_j) against the summed adversary
contributions (r_kj, the expected forged log-likelihood ratios under the
true observation law). This script computes every piece for one scenario,
prints the verdicts, and then confirms the margin is also the exact
almost-sure growth rate of the log-belief ratio by simulating.
"""

import numpy as np

from sociallearn import (
    Hypothesis,
    bsc_model,
    deception_verdict,
    erdos_renyi_adjacency,
    make_network,
    perron_vector,
    run_finals,
    uniform_combination,
    unknown_divergence_attack,
)
from sociallearn.learning import AgentConfig


def main():
    adj = erdos_renyi_adjacency(15, 0.25, 28)
    net = make_network(uniform_combination(adj), 4)
    model = bsc_model(0.8)
    eps = 5e-3
    forged = unknown_divergence_attack(model, eps)
    adversaries = net.malicious_indices
    agents = tuple(
        AgentConfig(model, forged if k in adversaries else None) for k in range(net.n_agents)
    )

    u = perron_vector(net)
    report = deception_verdict(net, agents, u)

    print("Scenario: 15 agents, BSC p=0.8, 4 adversaries with the optimal")
    print(f"network-agnostic forgery at eps={eps}.\n")
    print(f"Perron centralities: {np.array2string(u, precision=3)}")
    print(f"adversary centrality total: {u[:4].sum():.4f}\n")

    for j, s, rs, margin, verdict in (
        (1, report.s1, report.r1, report.margin1, report.verdict1),
        (2, report.s2, report.r2, report.margin2, report.verdict2),
    ):
        print(f"candidate true state theta{j}:")
        print(f"  honest sub-network divergence  s{j} = {s:.4f}")
        for k, r in zip(report.adversary_indices, rs):
            print(f"  adversary {k} contribution        = {r:+.4f}")
        print(f"  margin = sum(r) - s{j}           = {margin:+.4f}")
        print(f"  verdict: {verdict.value}\n")

    predicted = report.margin(Hypothesis.THETA1)
    horizon = 4000
    finals = run_finals(net, agents, Hypothesis.THETA1, horizon, seeds=range(10))
    empirical = float(np.mean(-finals / horizon))
    print("margin doubles as the log-belief-ratio growth rate:")
    print(f"  predicted rate {predicted:+.4f} nats/step")
    print(f"  empirical rate {empirical:+.4f} nats/step "
          f"(10 seeds, horizon {horizon})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The network-agnostic forgery: closed form, exact check, limits.

Without any knowledge of the network, an adversary can still minimize the
expected cost of the threshold comparison averaged over both candidate true
states. The minimizer has a crisp shape: floor every symbol that supports a
state, and give the remaining symbols mass proportional to their confidence
gap z(s) = L(s|theta1) - L(s|theta2), flooring any whose share would fall
below the floor.

We verify the closed form against an independent oracle that enumerates
every face of the floored simplex, then show its built-in limitation: on a non-separable observation
model (one symbol is the most likely under BOTH states) the strategy can
only deceive for one candidate true state, no matter how small the floor.
A random-forgery baseline fails almost always, underscoring that the
structure, not the tampering itself, does the damage.
"""

import numpy as np

from sociallearn import (
    adversary_contribution,
    bsc_model,
    kl_divergence,
    make_model,
    oracle_optimal_attack,
    random_attack,
    separability,
    unknown_divergence_attack,
    unknown_divergence_objective,
)


def main():
    model = make_model([0.5, 0.3, 0.2], [0.3, 0.25, 0.45])
    eps = 0.01
    forged = unknown_divergence_attack(model, eps)
    closed = unknown_divergence_objective(model, forged)
    _, oracle = oracle_optimal_attack(model, eps)

    print("three-symbol example (eps = 0.01):")
    print(f"  true | theta1: {model.given_theta1.mass}")
    print(f"  true | theta2: {model.given_theta2.mass}")
    print(f"  forged | theta1: {[round(v, 4) for v in forged.given_theta1.mass]}")
    print(f"  forged | theta2: {[round(v, 4) for v in forged.given_theta2.mass]}")
    print(f"  closed-form objective {closed:.8f} vs face oracle {oracle:.8f} "
          f"(gap {abs(closed - oracle):.2e})\n")

    print("separability decides whether both states can be deceived:")
    for name, m in (
        ("symmetric channel p=0.9 ", bsc_model(0.9)),
        ("asymmetric (0.8/0.55)   ", make_model([0.8, 0.2], [0.55, 0.45])),
    ):
        rep = separability(m)
        f = unknown_divergence_attack(m, 1e-5)
        u_total = 0.27
        s1 = (1 - u_total) * kl_divergence(m.given_theta1, m.given_theta2)
        s2 = (1 - u_total) * kl_divergence(m.given_theta2, m.given_theta1)
        r1 = adversary_contribution(u_total, m, f, 1)
        r2 = adversary_contribution(u_total, m, f, 2)
        both = r1 > s1 and r2 > s2
        print(f"  {name} separable={str(rep.separable):5}  "
              f"deceives state1={r1 > s1}, state2={r2 > s2} -> both={both}")

    print("\nrandom forgeries on the same aggregate-centrality scenario:")
    m = make_model([0.8, 0.2], [0.55, 0.45])
    u_total = 0.27
    s1 = (1 - u_total) * kl_divergence(m.given_theta1, m.given_theta2)
    s2 = (1 - u_total) * kl_divergence(m.given_theta2, m.given_theta1)
    rng = np.random.default_rng(0)
    wins = 0
    trials = 1000
    for _ in range(trials):
        f = random_attack(m, 1e-5, rng)
        if (adversary_contribution(u_total, m, f, 1) > s1
                and adversary_contribution(u_total, m, f, 2) > s2):
            wins += 1
    print(f"  deceive both states: {wins}/{trials} draws "
          "(designed structure matters, not mere tampering)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Phase transition in channel quality, Monte Carlo against closed form.

With the adversary set and floor fixed, sweeping the observation channel's
accuracy p moves the network from deceived to learning: there is a sharp
critical p where the honest sub-network divergence overtakes the forged
contributions. The closed-form threshold predicts that point by bisection;
the Monte Carlo sweep reproduces it. This demo runs a coarsened version of
the bundled sweep config (fewer seeds and grid points than the acceptance
run) and plots the curve as ASCII.
"""

import dataclasses
from pathlib import Path

import numpy as np

from sociallearn import load_config, run_sweep

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep_bsc_p.yaml"


def main():
    cfg = load_config(CONFIG.read_text(encoding="utf-8"))
    cfg = dataclasses.replace(
        cfg,
        sweep=dataclasses.replace(
            cfg.sweep, values=tuple(np.round(np.arange(0.60, 0.951, 0.025), 6))
        ),
        experiment=dataclasses.replace(
            cfg.experiment, horizon=2000, seeds=tuple(range(5))
        ),
    )
    result = run_sweep(cfg)

    print("mean steady-state belief in the true state vs channel accuracy p")
    print("(15 agents, 4 adversaries holding ~0.27 centrality, eps = 5e-3)\n")
    width = 40
    means = result.final_true_beliefs.mean(axis=1)
    for p, mean in zip(cfg.sweep.values, means.tolist()):
        bar = "#" * int(round(mean * width))
        marker = " <- crossing" if (
            result.empirical_crossing is not None
            and abs(p - result.empirical_crossing) <= 0.0125
        ) else ""
        print(f"p={p:.3f}  |{bar:<{width}}| {mean:.3f}{marker}")
    print(f"\nempirical crossing of 0.5: {result.empirical_crossing:.4f}")
    print(f"closed-form critical p:    {result.theory_root:.4f}")
    print(f"difference:                {abs(result.empirical_crossing - result.theory_root):.4f}")


if __name__ == "__main__":
    main()

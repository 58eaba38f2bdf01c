"""Paired cost differences of MBIA's table and value play against Threshold.

Not a test: a probe whose output the project's notes quote.  At the fig4
middle point (the default preset, P_avg = 20 mW) for w_D = 0.01, 0.1,
0.316 and 1, and at d_H = 20 m (the d_H axis, so d_G = 60 m), it solves
MBIA at M = 100, K = 25, calibrates Threshold's zeta as `zeta = auto`
does, walks the table, value play on the same solve (`oracles.ValuePlay`)
and Threshold over the same frames, and prints each row's mean frame cost
minus Threshold's, +- the paired standard error.  Run from the repository
root:

    PYTHONPATH=src:tests python tests/probe_value_play.py [frames]
"""

import math
import sys

from hesnet.cli import resolve_config
from hesnet.mdp import build_grid, build_mdp_model, monotone_backward_induction
from hesnet.model import sample_trajectories
from hesnet.policies import MdpTablePolicy, ThresholdHeuristic, calibrate_zeta
from hesnet.sim import apply_axis, frame_totals, outcomes
from oracles import ValuePlay


def main(frames: int) -> None:
    cfg = resolve_config()
    points = [(f"w_D = {w}", cfg.params.evolve(w_D=w)) for w in (0.01, 0.1, 0.316, 1.0)]
    points.append(("d_H = 20 m", apply_axis(cfg.params, "d_H", 20.0)))
    print(f"{frames} frames, seed {cfg.seed}; row minus Threshold, +- paired se")
    print("| point | MBIA-M100 table | value play, same solve |")
    print("|---|---|---|")
    for label, point in points:
        model = build_mdp_model(point, build_grid(point, M=100, K=cfg.k_states))
        table, u_hat, _ = monotone_backward_induction(model, point.N)
        threshold = ThresholdHeuristic(
            calibrate_zeta(cfg.zeta_grid, point, cfg.zeta_budget, cfg.seed + 1)[0])
        batch = sample_trajectories(point, cfg.seed, frames)
        base, *rows = (frame_totals(*arrays)[0] for arrays in outcomes(
            batch, [threshold, MdpTablePolicy(table), ValuePlay(model, u_hat)]))
        cells = []
        for costs in rows:
            d = costs - base
            cells.append(f"{d.mean():+.5f} ± {d.std(ddof=1) / math.sqrt(frames):.5f}")
        print(f"| {label} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000)

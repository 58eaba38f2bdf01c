"""Per-frame references for the offline solvers' batch plans, and the
exact per-frame totals of a single-user policy.

`hesnet.offline` maps (frames, U, N) arrays to plans and leaves the
feasibility of a plan to the battery walk that replays it.  The checks here
read one frame at a time in plain numpy, independently of both: the first
constraint a 0/1 vector breaks, its exact skip cost, and the pairwise swap
condition every greedy plan meets.  `fsum_totals` and `one_user_offline`
run a single-user policy or an offline plan function through the
(frames, U, N) entry points at U = 1, whose per-frame totals are exact
math.fsum sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from hesnet.offline import ENERGY_RTOL
from hesnet.sim import multiuser_frame_metrics, offline_frame_metrics


class Frame(NamedTuple):
    """One user's frame of the 0/1 program: skip costs `c`, harvesting
    inversion powers `p_h` (inf on a dead channel), arrivals `e_h`, block
    time `tau` and peak cap `p_max`."""

    c: np.ndarray
    p_h: np.ndarray
    e_h: np.ndarray
    tau: float
    p_max: float

    @classmethod
    def of(cls, batch, f: int = 0) -> "Frame":
        """Frame f of a FrameBatch."""
        return cls(batch.skip[f], batch.p_h[f], batch.e_h[f], batch.params.tau,
                   batch.params.p_H_max)


def plan_args(frames, p_max=None):
    """Per-user Frames of one frame as a one-frame solver call's arguments."""
    frames = list(frames)
    return (np.stack([fr.c for fr in frames])[None], np.stack([fr.p_h for fr in frames])[None],
            frames[0].e_h[None], frames[0].tau, frames[0].p_max if p_max is None else p_max)


def first_violation(alpha, fr: Frame):
    """1-based index of the first block where `alpha` breaks the peak cap
    (exactly) or energy causality (ENERGY_RTOL relative slack); None when
    the 0/1 vector is feasible."""
    alpha = np.asarray(alpha)
    assert alpha.shape == fr.c.shape and np.isin(alpha, (0, 1)).all()
    on = alpha == 1
    peak_bad = on & (fr.p_h > fr.p_max)
    spend = np.where(on & np.isfinite(fr.p_h), fr.p_h * fr.tau, 0.0)
    spend[peak_bad] = np.inf  # unaffordable either way; keep cumsum NaN-free
    bad = peak_bad | (np.cumsum(spend) > np.cumsum(fr.e_h) * (1.0 + ENERGY_RTOL))
    return int(np.argmax(bad)) + 1 if bad.any() else None


def service_cost(alpha, fr: Frame) -> float:
    """Exact skip cost sum((1 - alpha_i) * c_i) of a feasible `alpha`."""
    assert first_violation(alpha, fr) is None
    return math.fsum(fr.c[np.asarray(alpha) == 0])


def solve(solver, fr: Frame):
    """One frame through a batch solver: (alpha, exact skip cost)."""
    alpha = solver(*plan_args([fr]))[0, 0]
    return alpha, service_cost(alpha, fr)


def swap_free(alpha, fr: Frame) -> bool:
    """True when no later unselected block dominates a selected one.

    A pair (i selected, j > i unselected) with c_i < c_j and p_h,i >= p_h,j
    could be swapped: the battery spend moves later (causality keeps),
    power does not grow, and the cost strictly drops.
    """
    alpha = np.asarray(alpha)
    sel, uns = np.flatnonzero(alpha == 1), np.flatnonzero(alpha == 0)
    later = uns[None, :] > sel[:, None]
    cheaper = fr.c[sel][:, None] < fr.c[uns][None, :]
    no_more_power = fr.p_h[sel][:, None] >= fr.p_h[uns][None, :]
    return not bool(np.any(later & cheaper & no_more_power))


def fsum_totals(policy, batch):
    """Per-frame (costs, grid energies, drops) of a `decide_batch` policy
    over a FrameBatch, played as a one-user joint policy through
    `multiuser_frame_metrics`: the same walk as `run_batch`, with each
    frame's terms totalled by math.fsum instead of +=."""
    params = batch.params

    class OneUser:
        def decide_joint(self, block, battery, p_h, skip, params_list):
            return np.asarray(policy.decide_batch(block, battery, batch))[:, None]

    return multiuser_frame_metrics(OneUser(), batch.gamma_g[:, None], batch.gamma_h[:, None],
                                   batch.e_h, [params], params.p_H_max, params.p_G_max)


def one_user_offline(solve, params, gamma_g, gamma_h, e_h):
    """`offline_frame_metrics` on (frames, N) one-user trajectories under
    the user's own peak caps."""
    return offline_frame_metrics(solve, np.asarray(gamma_g)[:, None], np.asarray(gamma_h)[:, None],
                                 e_h, [params], params.p_H_max, params.p_G_max)

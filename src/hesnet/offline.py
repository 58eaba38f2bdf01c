"""Offline (non-causal) per-frame scheduling.

With all N blocks' channel gains and energy arrivals on the table, choosing
which blocks the harvesting BS serves reduces to a 0/1 program: skipping
block i costs c_i (grid bill or drop penalty), serving it spends
p_H_inv,i * tau joules of battery under prefix energy causality and the peak
power cap.  Both solvers here map the same batch arrays, (frames, U, N) skip
costs and harvesting inversion powers over (frames, N) shared arrivals, to a
(frames, U, N) bool serve mask: `greedy_plan` (Greedy Assignment, any user
count) and `optimal_plan` (the exact optimum by a Pareto walk, one user).
Plans are checked and scored by replaying them through the battery walk of
the causal policies (`sim.outcomes`), which plays them as it plays an
action; its over-draw check is the one feasibility check on every plan.

The greedy scores are fixed per block and feasibility only shrinks as blocks
are selected, so serving the best feasible block until nothing fits picks
exactly the blocks that still fit when visited once in score order.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, ModelMismatchError, ResourceLimitError
from .model import SystemParams

__all__ = [
    "ENERGY_RTOL",
    "FRONT_MAX",
    "require_uncapped_battery",
    "ratio_metric",
    "greedy_plan",
    "optimal_plan",
]

# Relative slack on every energy-causality comparison.  Accumulated prefix
# sums of float64 terms deserve this much benefit of the doubt; peak-power
# checks compare unaccumulated values and stay exact.
ENERGY_RTOL = 1e-9

# Most states the optimal plan's Pareto walk keeps after a block.  Sampled
# frames keep a few hundred; a frame whose every skip cost equals its spend
# keeps every prefix, and the front doubles per block.
FRONT_MAX = 1 << 16


def require_uncapped_battery(params: SystemParams) -> None:
    """Refuse an offline evaluation whose battery can clamp: the solvers
    ignore B_m, which is exact only when B_m >= N * E_m, the most a frame
    can bring in; below that their plans may overdraw the real battery."""
    if params.B_m * (1.0 + ENERGY_RTOL) < params.N * params.E_m:
        raise ModelMismatchError(
            f"the offline solvers assume an uncapped battery (B_m >= N * E_m), but B_m = "
            f"{params.B_m!r} J is below N * E_m = {params.N * params.E_m!r} J")


def ratio_metric(c, p):
    """Cost saved per watt of battery power: the serving priority of the
    greedy solver and the threshold rules."""
    return c / p


def _plan_inputs(c, p_h, e_h, tau: float, p_max: float):
    """(c, p_h, e_h) as float arrays, refused unless c and p_h are one
    (frames, U, N) shape over (frames, N) arrivals, c is finite and >= 0,
    the inversion powers are > 0 (+inf is a dead channel), the arrivals are
    finite and >= 0, and tau and the peak cap are > 0."""
    c, p_h, e_h = (np.asarray(a, dtype=float) for a in (c, p_h, e_h))
    if c.ndim != 3 or p_h.shape != c.shape or e_h.shape != (c.shape[0], c.shape[2]):
        raise InvalidParameterError(
            f"skip costs and powers must be (frames, users, N) over (frames, N) arrivals, "
            f"got {c.shape}, {p_h.shape} and {e_h.shape}")
    if not np.all(np.isfinite(c) & (c >= 0)):
        raise InvalidParameterError("skip costs must be finite and >= 0")
    if not np.all(p_h > 0):
        raise InvalidParameterError("inversion powers must be > 0")
    if not np.all(np.isfinite(e_h) & (e_h >= 0)):
        raise InvalidParameterError("arrivals must be finite and >= 0")
    if not (tau > 0 and p_max > 0):
        raise InvalidParameterError(f"tau and the peak cap must be > 0, got {tau!r}, {p_max!r}")
    return c, p_h, e_h


def greedy_plan(c, p_h, e_h, tau: float, p_H_max_sum: float) -> np.ndarray:
    """Greedy H-block selection for (frames, U, N) skip costs `c` and
    harvesting inversion powers `p_h` over (frames, N) shared arrivals `e_h`.

    Blocks are visited once per frame by descending ratio_metric(c, p_h)
    score (ties: earlier block, then lower user) and kept when they still
    fit: the block's summed selected power stays within `p_H_max_sum`, and
    p * tau fits under the worst energy slack from the block onward, the
    slack being the arrivals (ENERGY_RTOL relative benefit of the doubt)
    less the selected spends, both as prefix sums.  Per-block sums over
    users run in user order, not pick order, so the float sums and hence
    the picks match a rescan of the whole selection after every pick.
    Returns the (frames, U, N) bool selection.

    Every pick's power and spend are gathered in visiting order up front.
    The walk keeps, per frame, the selected (block, user) powers and
    spends, their per-block sums and the tail slack, the slack's minimum
    from each block onward; a pick is tested against these at its block
    with two flat lookups.  Only the frames that keep a pick update their
    state: the block's sums over users (a sequential accumulate, so in
    user order) and the tail slack (a cumsum and a reversed minimum
    accumulate of the whole row).
    """
    c, p_h, e_h = _plan_inputs(c, p_h, e_h, tau, p_H_max_sum)
    frames, users, n = c.shape
    # block-major: (frames, N, U), flat index block * U + user, so a stable
    # sort breaks ties toward the earlier block, then the lower user
    p_bu = np.ascontiguousarray(p_h.transpose(0, 2, 1))
    scores = ratio_metric(c.transpose(0, 2, 1), p_bu).reshape(frames, n * users)
    order = np.argsort(-scores, axis=1, kind="stable")
    blocks, picked_users = np.divmod(order, users)
    rows = np.arange(frames)
    # per pick step, (frames,) columns: the flat (frame, block) index, power, spend
    at = (rows[:, None] * n + blocks).T.copy()
    pick_p = np.take_along_axis(p_bu.reshape(frames, -1), order, axis=1).T.copy()
    pick_spend = pick_p * tau
    budget = np.cumsum(e_h, axis=1) * (1.0 + ENERGY_RTOL)
    chosen_p = np.zeros((frames, n, users))       # W, selected power per (block, user)
    chosen_spend = np.zeros((frames, n, users))   # J, selected spend per (block, user)
    used = np.zeros((frames, n))                  # J, selected spend per block
    power = np.zeros((frames, n))                 # W, selected power per block
    tail = budget.copy()   # nothing selected: the slack is the nondecreasing budget
    for k, (idx, p, spend) in enumerate(zip(at, pick_p, pick_spend)):
        keep = (p + power.take(idx) <= p_H_max_sum) & (spend <= tail.take(idx))
        if not keep.any():
            continue
        f = np.flatnonzero(keep)
        j, u = blocks[f, k], picked_users[f, k]
        chosen_p[f, j, u] = p[f]
        chosen_spend[f, j, u] = spend[f]
        power[f, j] = np.add.accumulate(chosen_p[f, j], axis=1)[:, -1]
        used[f, j] = np.add.accumulate(chosen_spend[f, j], axis=1)[:, -1]
        slack = budget[f] - np.cumsum(used[f], axis=1)
        tail[f] = np.minimum.accumulate(slack[:, ::-1], axis=1)[:, ::-1]
    # every power is > 0 (_plan_inputs), so the selection is where one was chosen
    return (chosen_p > 0).transpose(0, 2, 1)


def optimal_plan(c, p_h, e_h, tau: float, p_H_max: float) -> np.ndarray:
    """The optimal one-user plan of each frame by a Pareto walk over its blocks.

    Takes `greedy_plan`'s (frames, 1, N) and (frames, N) arrays and returns
    a (frames, 1, N) bool plan.  Per frame the walk keeps (battery spend,
    skip cost so far) states of 0/1 prefixes, in prefix order.  Each branches
    into skip (cost + c_i) and, within the peak cap and the prefix arrivals
    (ENERGY_RTOL relative slack), serve (spend + p_h,i * tau).  A state is
    dropped when one with no more spend has a lower cost, or an equal cost
    and a smaller prefix, so the first cheapest state left is the
    lexicographically smallest optimal plan (costs summed in block order).
    This is Nemhauser and Ullmann's knapsack dynamic program; its front
    stays small on random frames, but a crafted frame can double it every
    block, so a front past FRONT_MAX states raises ResourceLimitError.
    """
    c, p_h, e_h = _plan_inputs(c, p_h, e_h, tau, p_H_max)
    frames, users, n = c.shape
    if users != 1:
        raise InvalidParameterError(f"optimal_plan plans one user, got {users}")
    c, p_h = c[:, 0], p_h[:, 0]
    budget = np.cumsum(e_h, axis=1) * (1.0 + ENERGY_RTOL)
    spends = p_h * tau
    plan = np.zeros((frames, 1, n), dtype=bool)
    for f in range(frames):
        spend, cost = np.zeros(1), np.zeros(1)
        kept = []   # per block, each kept state's child index: 2 * parent + served
        for i in range(n):
            fits = (p_h[f, i] <= p_H_max) & (spend + spends[f, i] <= budget[f, i])
            # skip and serve children interleaved keep the prefix order
            idx = np.flatnonzero(np.column_stack((np.ones_like(fits), fits)))
            served = idx % 2 == 1
            spend = spend[idx // 2] + np.where(served, spends[f, i], 0.0)
            cost = cost[idx // 2] + np.where(served, 0.0, c[f, i])
            # a state's rank is its place in (cost, prefix) order; taken in
            # (spend, rank) order, a state stays if it out-ranks all before it
            by_cost = np.argsort(cost, kind="stable")
            ranks = np.argsort(spend[by_cost], kind="stable")
            keep = np.sort(by_cost[ranks[ranks == np.minimum.accumulate(ranks)]])
            idx, spend, cost = idx[keep], spend[keep], cost[keep]
            if idx.size > FRONT_MAX:
                raise ResourceLimitError(
                    f"frame {f}: the optimal plan's Pareto front holds {idx.size} states "
                    f"after block {i + 1}, over FRONT_MAX = {FRONT_MAX}")
            kept.append(idx)
        state = int(np.argmin(cost))
        for i in range(n - 1, -1, -1):
            state, plan[f, 0, i] = divmod(int(kept[i][state]), 2)
    return plan

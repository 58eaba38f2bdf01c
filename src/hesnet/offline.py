"""Offline (non-causal) per-frame scheduling.

With all N blocks' channel gains and energy arrivals on the table, choosing
which blocks the harvesting BS serves reduces to a 0/1 program: skipping
block i costs c_i (grid bill or drop penalty), serving it spends
p_H_inv,i * tau joules of battery under prefix energy causality and the peak
power cap.  This module holds that reduced instance, the greedy engine and
the exhaustive oracle; plans are scored by replaying them through the
frame walk of the causal policies (`sim.replay_plan`).

One greedy engine, `greedy_plan`, solves (frames, users, N) arrays in one
pass: scores are fixed per block and feasibility only shrinks as blocks are
selected, so serving the best feasible block until nothing fits picks
exactly the blocks that still fit when visited in score order.  The
per-instance `greedy_assignment` (one user) and
`multiuser_greedy_assignment` (a shared battery) are one-frame calls to it.

Sums that enter exactness contracts (reported costs) use math.fsum, so two
selections with mathematically equal cost report identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, InvalidParameterError, ModelMismatchError, ResourceLimitError
from .model import FrameBatch, FrameTrajectory, SystemParams

__all__ = [
    "ENERGY_RTOL",
    "IpInstance",
    "to_ip_instance",
    "frame_instance",
    "require_uncapped_battery",
    "total_service_cost",
    "first_violation",
    "greedy_plan",
    "greedy_assignment",
    "exhaustive_optimal",
    "check_swap_optimality",
    "multiuser_greedy_assignment",
    "ratio_metric",
]

# Relative slack on every energy-causality comparison.  Accumulated prefix
# sums of float64 terms deserve this much benefit of the doubt; peak-power
# checks compare unaccumulated values and stay exact.
ENERGY_RTOL = 1e-9

EXHAUSTIVE_CAP = 20  # default hard cap on N for 2^N enumeration


@dataclass(frozen=True)
class IpInstance:
    """One frame reduced to the 0/1 assignment data.

    c[i] is what block i costs if the harvesting BS skips it; p_H_inv / p_G_inv
    are the channel inversion powers (inf on a dead channel); e_H are the
    battery credits ahead of each block.
    """

    c: np.ndarray        # (N,) cost of a skipped block
    p_H_inv: np.ndarray  # (N,) W, harvesting BS inversion power
    p_G_inv: np.ndarray  # (N,) W, grid BS inversion power
    e_H: np.ndarray      # (N,) J, energy arriving ahead of each block
    tau: float           # s, block duration
    p_H_max: float       # W, harvesting BS peak power

    def __post_init__(self):
        for name in ("c", "p_H_inv", "p_G_inv", "e_H"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != self.c.shape:
                raise InvalidParameterError(f"{name} must be 1-D and match c in length")
        if self.c.size == 0:
            raise InvalidParameterError("instance needs at least one block")
        if np.any(self.c < 0) or np.any(np.isnan(self.c)) or np.any(np.isinf(self.c)):
            raise InvalidParameterError("c must be finite and >= 0")
        for name in ("p_H_inv", "p_G_inv"):
            if np.any(getattr(self, name) <= 0):  # +inf is a legal dead-channel sentinel
                raise InvalidParameterError(f"{name} must be > 0")
        if np.any(self.e_H < 0) or not np.all(np.isfinite(self.e_H)):
            raise InvalidParameterError("e_H must be finite and >= 0")
        if not (self.tau > 0 and self.p_H_max > 0):
            raise InvalidParameterError("tau and p_H_max must be > 0")

    @property
    def n_blocks(self) -> int:
        return self.c.shape[0]


def frame_instance(batch: FrameBatch, f: int) -> IpInstance:
    """Frame f of a batch as its 0/1 assignment instance (rows, not copies)."""
    return IpInstance(c=batch.skip[f], p_H_inv=batch.p_h[f], p_G_inv=batch.p_g[f],
                      e_H=batch.e_h[f], tau=batch.params.tau, p_H_max=batch.params.p_H_max)


def to_ip_instance(traj: FrameTrajectory, params: SystemParams) -> IpInstance:
    """Reduce a realized frame to its 0/1 assignment instance."""
    return frame_instance(FrameBatch.of_frame(traj, params), 0)


def require_uncapped_battery(params: SystemParams) -> None:
    """Refuse an offline evaluation whose battery can clamp: the solvers
    ignore B_m, which is exact only when B_m >= N * E_m, the most a frame
    can bring in; below that their plans may overdraw the real battery."""
    if params.B_m * (1.0 + ENERGY_RTOL) < params.N * params.E_m:
        raise ModelMismatchError(
            f"the offline solvers assume an uncapped battery (B_m >= N * E_m), but B_m = "
            f"{params.B_m!r} J is below N * E_m = {params.N * params.E_m!r} J")


def _as_alpha(alpha, n: int) -> np.ndarray:
    arr = np.asarray(alpha)
    if arr.shape != (n,) or not np.all((arr == 0) | (arr == 1)):
        raise InvalidParameterError(f"alpha must be a length-{n} 0/1 vector")
    return arr.astype(np.int8)


def first_violation(alpha, inst: IpInstance):
    """1-based index of the first block where `alpha` breaks a constraint.

    None when the assignment is feasible.  Peak power is checked exactly;
    energy causality with ENERGY_RTOL relative slack.
    """
    alpha = _as_alpha(alpha, inst.n_blocks)
    on = alpha == 1
    peak_bad = on & (inst.p_H_inv > inst.p_H_max)
    spend = np.where(on & np.isfinite(inst.p_H_inv), inst.p_H_inv * inst.tau, 0.0)
    spend[peak_bad] = np.inf  # unaffordable either way; keep cumsum NaN-free
    used = np.cumsum(spend)
    avail = np.cumsum(inst.e_H)
    energy_bad = used > avail * (1.0 + ENERGY_RTOL)
    bad = peak_bad | energy_bad
    if not bad.any():
        return None
    return int(np.argmax(bad)) + 1


def total_service_cost(alpha, inst: IpInstance) -> float:
    """Frame cost sum((1 - alpha_i) * c_i) of a feasible assignment."""
    alpha = _as_alpha(alpha, inst.n_blocks)
    block = first_violation(alpha, inst)
    if block is not None:
        raise FeasibilityError(f"assignment infeasible at block {block}", block=block)
    return math.fsum(inst.c[alpha == 0])


def ratio_metric(c, p):
    """Cost saved per watt of battery power; the default serving priority of
    the greedy solvers and the threshold rule.

    Any replacement must be nondecreasing in the cost argument and
    nonincreasing in the power argument.
    """
    return c / p


def greedy_plan(c, p_h, e_h, tau: float, p_H_max_sum: float, metric=None) -> np.ndarray:
    """Greedy H-block selection for (frames, U, N) skip costs `c` and
    harvesting inversion powers `p_h` over (frames, N) shared arrivals `e_h`.

    Blocks are visited once per frame by descending metric(c, p_h) score
    (ties: earlier block, then lower user) and kept when they still fit:
    the block's summed selected power stays within `p_H_max_sum`, and
    p * tau fits under the worst energy slack from the block onward, the
    slack being the arrivals (ENERGY_RTOL relative benefit of the doubt)
    less the selected spends, both as prefix sums.  Per-block sums over
    users run in user order, not pick order, so the float sums and hence
    the picks match a rescan of the whole selection after every pick.
    Returns the (frames, U, N) 0/1 selection.
    """
    c = np.asarray(c, dtype=float)
    p_h = np.asarray(p_h, dtype=float)
    frames, users, n = c.shape
    scores = np.broadcast_to(np.asarray((metric or ratio_metric)(c, p_h), dtype=float), c.shape)
    if np.isnan(scores).any():
        raise InvalidParameterError("greedy metric returned NaN scores")
    # block-major flat index: block * U + user, so a stable sort breaks ties
    # toward the earlier block, then the lower user
    order = np.argsort(-scores.transpose(0, 2, 1).reshape(frames, n * users), axis=1,
                       kind="stable")
    blocks, picked_users = np.divmod(order, users)
    spend = p_h * tau
    budget = np.cumsum(e_h, axis=1) * (1.0 + ENERGY_RTOL)
    sel = np.zeros((frames, users, n), dtype=np.int8)
    used = np.zeros((frames, n))    # J, selected spend per block
    power = np.zeros((frames, n))   # W, selected power per block
    rows = np.arange(frames)
    for u, j in zip(picked_users.T, blocks.T):
        slack = budget - np.cumsum(used, axis=1)
        tail_slack = np.minimum.accumulate(slack[:, ::-1], axis=1)[:, ::-1]
        p = p_h[rows, u, j]
        keep = (p + power[rows, j] <= p_H_max_sum) & (spend[rows, u, j] <= tail_slack[rows, j])
        f, u, j = rows[keep], u[keep], j[keep]
        sel[f, u, j] = 1
        on = sel[f, :, j] == 1
        used[f, j] = power[f, j] = 0.0
        for v in range(users):
            used[f, j] += np.where(on[:, v], spend[f, v, j], 0.0)
            power[f, j] += np.where(on[:, v], p_h[f, v, j], 0.0)
    return sel


def greedy_assignment(inst: IpInstance, metric=None):
    """Greedy H-block selection of one frame by descending metric score
    (ties: earliest block), as a one-frame `greedy_plan`.  Returns
    (alpha, cost)."""
    alpha = greedy_plan(inst.c[None, None], inst.p_H_inv[None, None], inst.e_H[None],
                        inst.tau, inst.p_H_max, metric)[0, 0]
    return alpha, total_service_cost(alpha, inst)


def exhaustive_optimal(inst: IpInstance, cap: int = EXHAUSTIVE_CAP):
    """Optimal assignment by full 2^N enumeration.

    Ties between optimal selections break toward the lexicographically
    smallest alpha vector.  N above `cap` is refused: the search doubles per
    block, and this oracle exists for desk-scale verification only.
    """
    n = inst.n_blocks
    if n > cap:
        raise ResourceLimitError(f"exhaustive search over N={n} blocks exceeds cap {cap}")
    avail = np.cumsum(inst.e_H)
    headroom = avail * (1.0 + ENERGY_RTOL)
    # finite stand-in for inf keeps 0 * inf out of the matmuls; such blocks
    # are killed by the peak-power mask anyway
    big = 2.0 * (avail[-1] + 1.0)
    spend = np.where(np.isfinite(inst.p_H_inv), inst.p_H_inv * inst.tau, big)
    peak_bad = (inst.p_H_inv > inst.p_H_max).astype(np.int8)

    # bit (n-1-j) holds alpha_j, so ascending code order is ascending
    # lexicographic order of alpha and ties resolve by taking the first hit
    shifts = (n - 1 - np.arange(n)).astype(np.uint32)
    best_cost = np.inf
    best_code = -1
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        ok = bits @ peak_bad == 0
        used = np.cumsum(bits * spend, axis=1)
        ok &= np.all(used <= headroom, axis=1)
        if not ok.any():
            continue
        costs = np.where(ok, (1 - bits) @ inst.c, np.inf)
        lo = int(np.argmin(costs))
        if costs[lo] < best_cost:
            best_cost = float(costs[lo])
            best_code = int(codes[lo])
    # every-alpha-zero is always feasible, so a winner exists
    alpha = ((best_code >> shifts) & 1).astype(np.int8)
    return alpha, total_service_cost(alpha, inst)


def check_swap_optimality(alpha, inst: IpInstance) -> bool:
    """True when no later unselected block dominates a selected one.

    A pair (i selected, j > i unselected) with c_i < c_j and
    p_H_inv,i >= p_H_inv,j could be swapped: the battery spend moves later
    (causality keeps), power does not grow, and the cost strictly drops.
    """
    alpha = _as_alpha(alpha, inst.n_blocks)
    sel = np.flatnonzero(alpha == 1)
    uns = np.flatnonzero(alpha == 0)
    if sel.size == 0 or uns.size == 0:
        return True
    later = uns[None, :] > sel[:, None]
    cheaper = inst.c[sel][:, None] < inst.c[uns][None, :]
    no_more_power = inst.p_H_inv[sel][:, None] >= inst.p_H_inv[uns][None, :]
    return not bool(np.any(later & cheaper & no_more_power))


# ---------------------------------------------------------------------------
# multi-user variant: one sub-carrier per user, both BSs shared
# ---------------------------------------------------------------------------

def multiuser_greedy_assignment(instances, p_H_max_sum: float, metric=None):
    """Greedy H-block selection for several users sharing one battery.

    `instances` are per-user reductions over a common arrival stream (the
    e_H columns must agree).  Selection pools energy causality across users
    and caps the per-block sum of harvesting-BS powers at `p_H_max_sum`.
    Ties break toward (earlier block, lower user index).  Returns
    (alpha matrix (U, N), cost), cost being the sum of per-user skip costs.
    """
    if len(instances) == 0:
        raise InvalidParameterError("need at least one user instance")
    n = instances[0].n_blocks
    for inst in instances[1:]:
        if inst.n_blocks != n or inst.tau != instances[0].tau:
            raise InvalidParameterError("user instances must share block structure")
        if not np.array_equal(inst.e_H, instances[0].e_H):
            raise InvalidParameterError("user instances must share the arrival stream")
    c = np.stack([inst.c for inst in instances])
    sel = greedy_plan(c[None], np.stack([inst.p_H_inv for inst in instances])[None],
                      instances[0].e_H[None], instances[0].tau, p_H_max_sum, metric)[0]
    u, n = sel.shape
    cost = math.fsum(float(c[i, j]) for i in range(u) for j in range(n) if sel[i, j] == 0)
    return sel, cost

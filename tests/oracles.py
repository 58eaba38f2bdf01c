"""References for the offline solvers' batch plans and for table lookups.

`hesnet.offline` maps (frames, U, N) arrays to plans and leaves the
feasibility of a plan to the battery walk that replays it.  The checks here
read one frame at a time in plain numpy, independently of both: the first
constraint a 0/1 vector breaks, its exact skip cost, and the pairwise swap
condition every greedy plan meets.  The 2^N enumerator that was the
package's exact optimum is the reference for its Pareto walk at N <= 15.

`hesnet.mdp` stores each battery kernel as a band of next levels and
takes the next-block expectation over the band alone.  The dense kernels
the band expands to, and the per-row sum over a dense kernel's nonzero
entries, in column order, are the references for that.  Its solve keeps
one block's action values at a time and returns the per-level sums u_hat
and per-column thresholds.  Every block's action values, rebuilt from
u_hat, with the dense (N, M, K, K) serve mask and cost-to-go they imply,
the per-block staircase check and walk count on a block's whole q0, the
staircase check that reads every entry of that mask, the player that
looks it up with one search per channel, and the version-1 artifact layout
that held it live here as their references.

`hesnet.sim` walks the battery block by block and then settles the whole
batch at once.  The walk that settled each block inside the loop is the
reference for that split.  A sweep point walks every policy and plan of
the point in one battery walk; the loop that evaluated them one walk
apiece is the reference for that, built from one-row `sim.outcomes`
calls (`walk`, `replay`) and their per-frame totals.  A sweep draws its
frames and solves its plans once for all its points; the sweep that ran
each point alone (its own `sample_trajectories` batch, `solve_plan` per
plan function, one `outcomes` walk) is the reference for that.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hesnet.errors import InvalidActionError, InvalidParameterError, StructureViolationError
from hesnet.mdp import (
    _RISE_RTOL,
    _expected_values,
    battery_level_index,
    channel_state_index,
)
from hesnet.model import FrameBatch, sample_trajectories, serve_feasible
from hesnet.offline import ENERGY_RTOL, _plan_inputs
from hesnet import sim
from hesnet.sim import (
    _admit_in_order,
    _battery_slack,
    _block_order_totals,
    _pay,
    apply_axis,
    frame_totals,
    metrics_row,
    outcomes,
    solve_plan,
)


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
    def of(cls, batch, f: int = 0, u: int = 0) -> "Frame":
        """User u's frame f of a FrameBatch."""
        return cls(batch.skip[f, u], batch.p_h[f, u], batch.e_h[f], batch.params.tau,
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


def exhaustive_plan(c, p_h, e_h, tau: float, p_H_max: float) -> np.ndarray:
    """The optimal one-user plan of each frame by full 2^N enumeration.

    Takes `greedy_plan`'s (frames, 1, N) and (frames, N) arrays and returns
    a (frames, 1, N) plan.  Each plan's skip costs are summed in block
    order, as `optimal_plan` sums them, and ties between optimal plans
    break toward the lexicographically smallest 0/1 vector.  The search
    doubles per block, so it serves desk-scale frames only.
    """
    c, p_h, e_h = _plan_inputs(c, p_h, e_h, tau, p_H_max)
    frames, users, n = c.shape
    if users != 1:
        raise InvalidParameterError(f"exhaustive search plans one user, got {users}")
    c, p_h = c[:, 0], p_h[:, 0]
    avail = np.cumsum(e_h, axis=1)
    headroom = avail * (1.0 + ENERGY_RTOL)
    # finite stand-in for inf keeps 0 * inf out of the matmuls; such blocks
    # are killed by the peak-power mask anyway
    spend = np.where(np.isfinite(p_h), p_h * tau, 2.0 * (avail[:, -1:] + 1.0))
    peak_bad = (p_h > p_H_max).astype(np.int8)

    # bit (n-1-j) holds alpha_j, so ascending code order is ascending
    # lexicographic order of alpha and ties resolve by taking the first hit
    shifts = (n - 1 - np.arange(n)).astype(np.uint32)
    best_cost = np.full(frames, np.inf)
    best_code = np.zeros(frames, dtype=np.uint32)  # every-alpha-zero is always feasible
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        for f in range(frames):
            ok = bits @ peak_bad[f] == 0
            ok &= np.all(np.cumsum(bits * spend[f], axis=1) <= headroom[f], axis=1)
            if not ok.any():
                continue
            costs = np.zeros(codes.size)
            for i in range(n):
                costs = costs + np.where(bits[:, i], 0.0, c[f, i])
            costs[~ok] = np.inf
            lo = int(np.argmin(costs))
            if costs[lo] < best_cost[f]:
                best_cost[f], best_code[f] = costs[lo], codes[lo]
    return ((best_code[:, None] >> shifts) & 1).astype(np.int8)[:, None]


def dense_kernels(model):
    """A model's band expanded to the dense (M, M) no-spend kernel and the
    (K, M, M) serve kernels: each band entry at its level, 0 elsewhere."""
    band, m = model.band, model.grid.M
    index = model.band_start + np.arange(band.shape[0])[:, None, None]
    dense = np.zeros((band.shape[1], m, m))
    np.put_along_axis(dense, index.transpose(1, 2, 0), band.transpose(1, 2, 0), axis=2)
    return dense[0], dense[1:]


class ActionValues(NamedTuple):
    """Every block's action values: `q0[t, m, kg]` the cost of not serving
    at G-state kg, `q1[t, m, kh]` the cost of serving at H-state kh (inf
    where serving is not allowed), each (N, M, K)."""

    q0: np.ndarray
    q1: np.ndarray

    @classmethod
    def of(cls, model, u_hat) -> "ActionValues":
        """The action values `mdp.monotone_backward_induction` compares at
        each block, rebuilt from its (N, M) `u_hat`: block t's expectation
        of u_hat[t + 1] (zero at the last block) plus the skip costs for q0
        and the serve mask for q1, added as the solve adds them, so bitwise
        the values it compared."""
        n, m = u_hat.shape
        k = model.grid.K
        q0, q1 = np.empty((n, m, k)), np.empty((n, m, k))
        mask = np.where(model.allowed, 0.0, np.inf)
        for t in range(n):
            ev0, ev1 = ((np.zeros(m), np.zeros((m, k))) if t == n - 1
                        else _expected_values(model, u_hat[t + 1]))
            q0[t] = model.cost_G[None, :] + ev0[:, None]
            q1[t] = ev1 + mask
        return cls(q0, q1)

    @property
    def actions(self) -> np.ndarray:
        """(N, M, K, K) uint8 serve mask: serve wherever it costs no more
        than not serving, so ties serve."""
        return (self.q1[:, :, None, :] <= self.q0[:, :, :, None]).view(np.uint8)

    @property
    def u(self) -> np.ndarray:
        """(N, M, K, K) cost-to-go of the chosen action at every state."""
        return np.where(self.actions, self.q1[:, :, None, :], self.q0[:, :, :, None])


def kernel_expectation(kernel, u_hat, k: int) -> np.ndarray:
    """Each row of a dense (..., M, M) kernel times `u_hat`, divided by
    k^2: the row's nonzero products summed one at a time in column order,
    so independent of any BLAS kernel."""
    out = np.zeros(kernel.shape[:-1])
    for row in np.ndindex(out.shape):
        total = 0.0
        for j in np.flatnonzero(kernel[row]):
            total += kernel[row][j] * u_hat[j]
        out[row] = total
    return out * (1.0 / (k * k))


def staircase_actions(top) -> np.ndarray:
    """The (N, M, K, K) uint8 serve mask of (N, M, K) thresholds: G-state kg
    serves at H-state kh iff kg <= top[..., kh]."""
    top = np.asarray(top)
    k = top.shape[-1]
    return (np.arange(k)[:, None] <= top[..., None, :]).astype(np.uint8)


def staircase_counts(t: int, q0, q1, top):
    """Block t's staircase check on its whole (M, K) q0 and (M, K) q1, with
    (M, K_H) thresholds `top`, and the (M,) counts of states the walk
    evaluates: the per-block check and count the solve made before it
    checked q0 only where the skip costs rise and counted after its loop.
    It tests the rise tolerance, the prefix condition and the ordering
    condition where q0 or q1 rise; the same errors, or the counts."""
    rises = []
    for name, q in (("q0 along the G", q0), ("q1 along the H", q1)):
        falls = q[:, 1:] <= q[:, :-1]
        lv, j = rise = np.nonzero(~falls)
        if lv.size and np.any(q[lv, j + 1] > q[lv, j] + _RISE_RTOL * np.abs(q[lv, j])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
        rises.append(rise)
    (lv, kg), (lh, kh) = rises
    if ((lv.size and np.any((q1[lv] <= q0[lv, kg + 1, None]) & ~(q1[lv] <= q0[lv, kg, None])))
            or (lh.size and np.any(top[lh, kh + 1] < top[lh, kh]))):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")
    k = q0.shape[1]
    return np.where(top[:, 0] >= 0, 2 * k - 1 - top[:, 0], k + (top >= 0).sum(axis=1))


def dense_staircase_counts(t: int, q0, q1):
    """`staircase_counts` on block t's whole (M, K_G, K_H) serve mask:
    the same rise checks, then the thresholds as the mask's column sums,
    not counted by search, every column tested for a prefix and every
    H-step for a falling threshold; the same errors, or (top, counts)."""
    for name, q in (("q0 along the G", q0), ("q1 along the H", q1)):
        if np.any(q[:, 1:] > q[:, :-1] + _RISE_RTOL * np.abs(q[:, :-1])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
    mask = q1[:, None, :] <= q0[:, :, None]
    top = mask.sum(axis=1, dtype=np.int16) - 1
    if np.any(mask[:, 1:] > mask[:, :-1]) or np.any(np.diff(top, axis=1) < 0):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")
    k = q0.shape[1]
    return top, np.where(top[:, 0] >= 0, 2 * k - 1 - top[:, 0], k + (top >= 0).sum(axis=1))


class DenseTablePolicy:
    """Plays a dense serve mask such as `ActionValues.actions`: slice
    `block` at the battery bin and both channel states, demoted to 0 where
    the true battery or the peak cap cannot pay, as `MdpTablePolicy`
    demotes."""

    def __init__(self, actions, grid):
        self.actions, self.grid = actions, grid

    def decide_batch(self, block, battery, batch):
        assert batch.users == 1
        grid = self.grid
        act = self.actions[block, battery_level_index(battery, grid)[:, None],
                           channel_state_index(batch.gamma_g[:, :, block], grid.bounds_G),
                           channel_state_index(batch.gamma_h[:, :, block], grid.bounds_H)]
        demote = ~serve_feasible(batch.p_h[:, :, block], battery[:, None], batch.params)
        return np.where(demote, 0, act).astype(np.int8)


def v1_artifact(path, top, grid, params_hash) -> bytes:
    """Write a version-1 policy file, the layout that held the dense uint8
    serve mask after the grid, and return its bytes."""
    header = {"version": 1, "n": top.shape[0], "m": grid.M, "k": grid.K,
              "params_hash": params_hash, "has_values": False}
    blob = b"HESNETPOLICY 1\n" + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob += b"\n" + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (
        grid.battery_levels, grid.bin_edges, grid.bounds_G, grid.levels_G, grid.bounds_H,
        grid.levels_H))
    blob += staircase_actions(top).tobytes()
    Path(path).write_bytes(blob)
    return blob


def block_walk(decide, batch: FrameBatch):
    """One `sim.outcomes` row with every block settled inside the battery
    walk, the grid BS's in-order admission run once per block; returns the
    per-block outcomes stacked to (frames, U, N) arrays (serve, admitted,
    cost, grid energy in J), or raises where that walk raises."""

    def steps():
        params, p_g, p_h, e_h, skip = batch.params, batch.p_g, batch.p_h, batch.e_h, batch.skip
        frames, users = batch.frames, batch.users
        cap = params.p_G_max * (1.0 + 1e-12)
        order = np.argsort(p_g, axis=1, kind="stable")
        rows = np.arange(frames)
        battery = np.zeros(frames)
        arrived = np.zeros(frames)
        for i in range(params.N):
            arrived = arrived + e_h[:, i]
            battery = np.minimum(battery + e_h[:, i], params.B_m)
            act = np.asarray(decide(i, battery, batch))
            if act.shape != (frames, users):
                raise InvalidActionError(f"policy returned shape {act.shape} at block {i + 1}, "
                                         f"expected {(frames, users)}")
            serve = act == 1
            valid = serve | (act == 0)
            if not valid.all():
                at = int(np.argmin(valid.all(axis=-1)))
                raise InvalidActionError(f"policy returned {act[at].tolist()!r} at block {i + 1} "
                                         f"of frame {at}, expected 0 or 1 per user")
            battery = _pay(i, rows, battery, np.where(serve, p_h[:, :, i], 0.0),
                           _battery_slack(arrived), params)
            admitted = _admit_in_order(order[:, :, i], ~serve & batch.transmits[:, :, i],
                                       p_g[:, :, i], cap)
            yield (serve, admitted,
                   np.where(serve, 0.0, np.where(admitted, skip[:, :, i], params.w_D)),
                   np.where(admitted, p_g[:, :, i] * params.tau, 0.0))

    return tuple(np.stack(terms, axis=-1) for terms in zip(*steps()))


def walk(policy, batch: FrameBatch):
    """`policy`'s (frames, U, N) outcome arrays (serve, admitted, cost, grid
    energy in J): a `sim.outcomes` walk of it alone."""
    [arrays] = outcomes(batch, [policy])
    return arrays


def replay(plan, batch: FrameBatch):
    """A (frames, U, N) 0/1 plan's outcome arrays: a `sim.outcomes` walk
    of it alone."""
    [arrays] = outcomes(batch, plans=[plan])
    return arrays


def block_totals(policy, batch: FrameBatch):
    """One user's per-frame (costs, grid energies, drop counts) under
    `policy`, summed in block order as its CSV row is."""
    return _block_order_totals(*walk(policy, batch))


def exact_totals(policy, batch: FrameBatch):
    """Per-frame (costs, grid energies, drop counts) under `policy` at any
    user count, summed with math.fsum (`sim.frame_totals`)."""
    return frame_totals(*walk(policy, batch))


def plan_totals(solve, batch: FrameBatch):
    """Per-frame (costs, grid energies, drop counts) of the offline plan
    function `solve`'s plan of `batch`, replayed and summed with math.fsum;
    a capped battery raises ModelMismatchError before any plan."""
    return frame_totals(*replay(solve_plan(solve, batch), batch))


def per_policy_point_rows(point, axis, value, policy_factories, frames, seed, plans=None,
                          users=1):
    """`sim.point_rows` as one walk per policy (`block_totals` for one
    user, `exact_totals` for more) and one `plan_totals` per plan, on the
    batch `sim.sample_trajectories` draws for the point."""
    batch = sim.sample_trajectories(point, seed, frames, users)
    online = block_totals if users == 1 else exact_totals
    runs = [(name, online(factory(point), batch)) for name, factory in policy_factories.items()]
    runs += [(name, plan_totals(solve, batch)) for name, solve in (plans or {}).items()]
    return [metrics_row(name, axis, value, users * point.N, seed, *arrays)
            for name, arrays in runs]


def point_by_point_sweep(params, axis, values, policy_factories, frames, seed, plans=None,
                         users=1):
    """`sim.sweep`'s rows with every point run alone, in value order: the
    point's own `sample_trajectories` batch, its factories, `solve_plan` per
    plan function and one `outcomes` walk of all its rows, each totalled
    as `sim.point_rows` totals it."""
    rows = []
    for value in values:
        point = apply_axis(params, axis, value)
        batch = sample_trajectories(point, seed, frames, users)
        policies = [factory(point) for factory in policy_factories.values()]
        solved = [solve_plan(solve, batch) for solve in (plans or {}).values()]
        online = _block_order_totals if users == 1 else frame_totals
        totals = [online] * len(policies) + [frame_totals] * len(solved)
        for name, total, arrays in zip([*policy_factories, *(plans or {})], totals,
                                       outcomes(batch, policies, solved)):
            rows.append(metrics_row(name, axis, value, users * point.N, seed, *total(*arrays)))
    return rows

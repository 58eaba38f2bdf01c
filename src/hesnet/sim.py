"""Frame simulation, Monte Carlo evaluation, and parameter sweeps.

Two evaluation paths on purpose.  `run_frame` walks one frame scalar-wise
and totals costs with math.fsum, so replaying an offline assignment
reproduces its solver cost to the last bit; the per-trajectory comparison
tests lean on that.  `run_batch` vectorizes across frames (one numpy step
per block) for Monte Carlo work; it matches the scalar path to ~1e-12
relative, which is far below any Monte Carlo error bar.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidActionError, InvalidParameterError
from .model import (
    FrameTrajectory,
    SystemParams,
    channel_gain,
    cost_parameter,
    inversion_power,
    kappa,
    make_rng,
    sample_trajectories,
)
from .offline import ENERGY_RTOL, EXHAUSTIVE_CAP, exhaustive_optimal, greedy_assignment, to_ip_instance

__all__ = [
    "OnlineObservation",
    "RunMetrics",
    "ScriptedAssignmentPolicy",
    "GridOnlyPolicy",
    "run_frame",
    "run_batch",
    "monte_carlo",
    "sweep",
    "tradeoff_region",
    "offline_frame_metrics",
    "metrics_from_arrays",
    "metrics_row",
    "ScriptedMultiuserAssignment",
    "sample_multiuser_trajectories",
    "run_frame_multiuser",
    "multiuser_monte_carlo",
    "write_rows_csv",
    "write_manifest",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class OnlineObservation:
    """What a causal policy sees before deciding one block."""

    block: int        # 0-based position in the frame
    battery: float    # J, already credited with this block's arrival
    gamma_G: float    # fading power gain, grid link
    gamma_H: float    # fading power gain, harvesting link


@dataclass(frozen=True)
class RunMetrics:
    """Aggregates of one Monte Carlo run.

    mean_total_cost always equals w_G * mean_grid_energy + w_D * N *
    drop_ratio up to accumulation rounding; tests pin that identity.
    """

    policy: str
    frames: int
    seed: int
    mean_total_cost: float
    stderr_total_cost: float   # 0.0 when frames == 1 (flagged, not estimated)
    mean_grid_energy: float    # J per frame
    drop_ratio: float          # dropped packets / (frames * N)


class ScriptedAssignmentPolicy:
    """Replays a precomputed serving pattern; bridges offline solutions
    into the frame simulator."""

    def __init__(self, alpha, name: str = "Scripted"):
        self.alpha = np.asarray(alpha, dtype=np.int8)
        self.name = name

    def decide(self, obs: OnlineObservation, params: SystemParams) -> int:
        plan = self.alpha if self.alpha.ndim == 1 else self.alpha[0]
        return int(plan[obs.block])

    def decide_batch(self, block, battery, gamma_g, gamma_h, params):
        plan = self.alpha if self.alpha.ndim == 2 else self.alpha[None, :]
        if plan.shape[0] != battery.shape[0]:
            raise InvalidParameterError("scripted plan does not cover this batch")
        return plan[:, block]


class GridOnlyPolicy:
    """Never touches the battery; the grid BS serves whatever it can."""

    name = "GP-only"

    def decide(self, obs: OnlineObservation, params: SystemParams) -> int:
        return 0

    def decide_batch(self, block, battery, gamma_g, gamma_h, params):
        return np.zeros(battery.shape[0], dtype=np.int8)


# ---------------------------------------------------------------------------
# single-frame scalar walk
# ---------------------------------------------------------------------------

def check_affordable(block: int, serve, p_h, spend, battery, params: SystemParams) -> None:
    """Reject a served block the battery or the peak cap cannot pay for.

    A serve must fit under p_H_max and spend at most the stored energy
    (ENERGY_RTOL relative slack).  Arguments broadcast: scalars for one
    frame, (frames,) columns for a batch walk, (candidates, frames) for
    the zeta calibration walk.  An over-draw is an internal invariant
    breach, not user error.
    """
    bad = serve & ((p_h > params.p_H_max) | (spend > battery * (1.0 + ENERGY_RTOL) + 1e-18))
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), np.shape(bad))
        where = f" of frame {at[-1]}" if at else ""
        raise InvalidActionError(
            f"policy served block {block + 1}{where} with battery "
            f"{float(np.broadcast_to(battery, np.shape(bad))[at])!r} J, spend "
            f"{float(np.broadcast_to(spend, np.shape(bad))[at])!r} J, peak {params.p_H_max} W")


def run_frame(policy, trajectory: FrameTrajectory, params: SystemParams):
    """Walk one frame under a causal policy.

    Arrivals are credited (and clamped at the battery capacity) before each
    decision.  A served block must be affordable; a policy returning 1 in an
    infeasible state is an internal invariant breach, not user error.
    Returns (total cost, grid energy in J, dropped packets).
    """
    if trajectory.n_blocks != params.N:
        raise InvalidParameterError(
            f"trajectory has {trajectory.n_blocks} blocks, params.N = {params.N}")
    kap = kappa(params)
    battery = 0.0
    block_costs = []
    grid_terms = []
    drops = 0
    for i in range(params.N):
        battery = min(battery + float(trajectory.e_H[i]), params.B_m)
        obs = OnlineObservation(block=i, battery=battery,
                                gamma_G=float(trajectory.gamma_G[i]),
                                gamma_H=float(trajectory.gamma_H[i]))
        action = int(policy.decide(obs, params))
        if action == 1:
            p_h = float(inversion_power(channel_gain(params.d_H, obs.gamma_H, params), params))
            spend = p_h * params.tau
            check_affordable(i, True, p_h, spend, battery, params)
            battery = max(battery - spend, 0.0)
            block_costs.append(0.0)
        elif action == 0:
            p_g = float(inversion_power(channel_gain(params.d_G, obs.gamma_G, params), params))
            if p_g <= kap:
                cost = params.w_G * p_g * params.tau
                grid_terms.append(p_g * params.tau)
            else:
                cost = params.w_D
                drops += 1
            block_costs.append(cost)
        else:
            raise InvalidActionError(f"policy returned {action!r}, expected 0 or 1")
    return math.fsum(block_costs), math.fsum(grid_terms), drops


# ---------------------------------------------------------------------------
# vectorized batch walk
# ---------------------------------------------------------------------------

def run_batch(policy, params: SystemParams, gamma_g, gamma_h, e_h):
    """Run (frames, N) trajectories in lockstep.

    Returns per-frame arrays (costs, grid energies, drop counts).  The
    policy's decide_batch sees one block of every frame at a time.
    """
    gamma_g = np.asarray(gamma_g, dtype=float)
    gamma_h = np.asarray(gamma_h, dtype=float)
    e_h = np.asarray(e_h, dtype=float)
    frames, n = gamma_g.shape
    if n != params.N:
        raise InvalidParameterError(f"trajectories have {n} blocks, params.N = {params.N}")
    kap = kappa(params)
    p_inv_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
    p_inv_g = inversion_power(channel_gain(params.d_G, gamma_g, params), params)
    with np.errstate(invalid="ignore"):
        skip_cost = cost_parameter(p_inv_g, params)
        transmits = p_inv_g <= kap
    battery = np.zeros(frames)
    costs = np.zeros(frames)
    grid = np.zeros(frames)
    drops = np.zeros(frames, dtype=np.int64)
    for i in range(n):
        battery = np.minimum(battery + e_h[:, i], params.B_m)
        act = np.asarray(policy.decide_batch(i, battery, gamma_g[:, i], gamma_h[:, i], params))
        serve = act == 1
        spend = np.where(serve, p_inv_h[:, i] * params.tau, 0.0)
        check_affordable(i, serve, p_inv_h[:, i], spend, battery, params)
        battery = np.maximum(battery - spend, 0.0)
        costs += np.where(serve, 0.0, skip_cost[:, i])
        grid += np.where(~serve & transmits[:, i], p_inv_g[:, i] * params.tau, 0.0)
        drops += (~serve & ~transmits[:, i]).astype(np.int64)
    return costs, grid, drops


def monte_carlo(policy, params: SystemParams, frames: int, seed: int) -> RunMetrics:
    """Evaluate a policy on `frames` common-random-number trajectories.

    Frame f is keyed (seed, f), so runs with the same seed share
    trajectories frame-for-frame regardless of length: paired comparisons
    and doubling studies come for free.
    """
    gg, gh, eh = sample_trajectories(params, seed, frames)
    costs, grid, drops = run_batch(policy, params, gg, gh, eh)
    stderr = float(costs.std(ddof=1) / math.sqrt(frames)) if frames > 1 else 0.0
    return RunMetrics(
        policy=getattr(policy, "name", type(policy).__name__),
        frames=frames,
        seed=seed,
        mean_total_cost=float(costs.mean()),
        stderr_total_cost=stderr,
        mean_grid_energy=float(grid.mean()),
        drop_ratio=float(drops.sum() / (frames * params.N)),
    )


def offline_frame_metrics(params: SystemParams, gamma_g, gamma_h, e_h, *,
                          solver: str = "greedy", name: str | None = None):
    """Solve every frame with an offline assignment and replay it.

    solver: "greedy" or "exhaustive" (the latter subject to the 2^N cap).
    Returns per-frame arrays (costs, grid energies, drop counts) matching
    the batch-walk conventions.
    """
    if solver not in ("greedy", "exhaustive"):
        raise InvalidParameterError(f"unknown offline solver {solver!r}")
    frames = gamma_g.shape[0]
    costs = np.zeros(frames)
    grid = np.zeros(frames)
    drops = np.zeros(frames, dtype=np.int64)
    for f in range(frames):
        traj = FrameTrajectory(gamma_G=gamma_g[f], gamma_H=gamma_h[f], e_H=e_h[f])
        inst = to_ip_instance(traj, params)
        if solver == "greedy":
            alpha, _ = greedy_assignment(inst)
        else:
            alpha, _ = exhaustive_optimal(inst)
        costs[f], grid[f], drops[f] = run_frame(
            ScriptedAssignmentPolicy(alpha), traj, params)
    return costs, grid, drops


def metrics_from_arrays(name, params, seed, costs, grid, drops) -> RunMetrics:
    frames = costs.shape[0]
    stderr = float(costs.std(ddof=1) / math.sqrt(frames)) if frames > 1 else 0.0
    return RunMetrics(
        policy=name, frames=frames, seed=seed,
        mean_total_cost=float(costs.mean()),
        stderr_total_cost=stderr,
        mean_grid_energy=float(grid.mean()),
        drop_ratio=float(drops.sum() / (frames * params.N)),
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

CSV_HEADER = ["policy", "axis", "axis_value", "mean_total_cost",
              "stderr_total_cost", "grid_energy_j", "grid_energy_mj",
              "drop_ratio", "frames", "seed"]

SWEEP_AXES = ("d_H", "P_avg", "w_D", "p_H_max")


def apply_axis(params: SystemParams, axis: str, value: float) -> SystemParams:
    """Parameters at one sweep point.

    The d_H axis moves the user along the line between the two BSs: d_G
    shrinks as d_H grows, keeping d_H + d_G fixed at its current total.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if axis == "d_H":
        total = params.d_H + params.d_G
        if not 0.0 < value < total:
            raise InvalidParameterError(
                f"d_H = {value} must lie strictly inside (0, {total})")
        return params.evolve(d_H=float(value), d_G=float(total - value))
    return params.evolve(**{axis: float(value)})


def metrics_row(metrics: RunMetrics, axis: str, value: float) -> dict:
    return {
        "policy": metrics.policy,
        "axis": axis,
        "axis_value": value,
        "mean_total_cost": metrics.mean_total_cost,
        "stderr_total_cost": metrics.stderr_total_cost,
        "grid_energy_j": metrics.mean_grid_energy,
        "grid_energy_mj": metrics.mean_grid_energy * 1e3,
        "drop_ratio": metrics.drop_ratio,
        "frames": metrics.frames,
        "seed": metrics.seed,
    }


def _point_rows(params: SystemParams, axis: str, value, policy_factories: dict,
                frames: int, seed: int, include_offline: bool) -> list[dict]:
    rows: list[dict] = []
    point = apply_axis(params, axis, value)
    gg, gh, eh = sample_trajectories(point, seed, frames)
    for name, factory in policy_factories.items():
        policy = factory(point)
        costs, grid, drops = run_batch(policy, point, gg, gh, eh)
        rows.append(metrics_row(metrics_from_arrays(name, point, seed, costs, grid, drops),
                            axis, value))
    if include_offline:
        costs, grid, drops = offline_frame_metrics(point, gg, gh, eh, solver="greedy")
        rows.append(metrics_row(metrics_from_arrays("Greedy", point, seed, costs, grid, drops),
                            axis, value))
        if point.N <= EXHAUSTIVE_CAP:
            costs, grid, drops = offline_frame_metrics(point, gg, gh, eh, solver="exhaustive")
            rows.append(metrics_row(
                metrics_from_arrays("Exhaustive", point, seed, costs, grid, drops),
                axis, value))
    return rows


def sweep(params: SystemParams, axis: str, values, policy_factories: dict,
          frames: int, seed: int, *, include_offline: bool = True,
          threads: int = 1) -> list[dict]:
    """Evaluate policies across one parameter axis with shared trajectories.

    `policy_factories` maps a display name to a callable(params) -> policy,
    so per-point state (retrained tables, recalibrated thresholds) is built
    where it belongs.  The offline greedy bound is always appended when
    `include_offline`, plus the exhaustive optimum whenever 2^N enumeration
    is within the cap.

    Axis points are independent, so with `threads` > 1 they are evaluated
    concurrently; row order stays (value-major, policy-minor) either way.
    """
    if not isinstance(threads, int) or threads < 1:
        raise InvalidParameterError(f"threads must be a positive integer, got {threads!r}")
    values = list(values)
    if threads == 1 or len(values) <= 1:
        chunks = [_point_rows(params, axis, v, policy_factories, frames, seed,
                              include_offline) for v in values]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(
                lambda v: _point_rows(params, axis, v, policy_factories, frames,
                                      seed, include_offline), values))
    return [row for chunk in chunks for row in chunk]


def tradeoff_region(params: SystemParams, w_d_values, policy_factories: dict,
                    frames: int, seed: int, *, include_offline: bool = True,
                    threads: int = 1) -> list[dict]:
    """Grid-energy / drop-ratio pairs swept over the drop price w_D.

    The grid-only baseline is always included: every proposed policy should
    dominate it somewhere along the curve.
    """
    factories = dict(policy_factories)
    factories.setdefault("GP-only", lambda p: GridOnlyPolicy())
    return sweep(params, "w_D", w_d_values, factories, frames, seed,
                 include_offline=include_offline, threads=threads)


# ---------------------------------------------------------------------------
# multi-user frames: one battery, per-block sum power caps
# ---------------------------------------------------------------------------

class ScriptedMultiuserAssignment:
    """Replays a (users, N) serving matrix, e.g. a pooled offline solution."""

    def __init__(self, sel, name: str = "Scripted"):
        self.sel = np.asarray(sel, dtype=np.int8)
        self.name = name

    def decide_joint(self, block, battery, gamma_g, gamma_h, params_list):
        return self.sel[:, block]


def sample_multiuser_trajectories(params_list, seed: int, frames: int):
    """Independent per-user fading over a shared arrival stream.

    Returns (gamma_G (frames, U, N), gamma_H (frames, U, N), e_H (frames, N)).
    Frame f is keyed (seed, f) with a fixed draw order: user 1 G-gains, user
    1 H-gains, user 2 G-gains, ..., then the arrivals.
    """
    users = len(params_list)
    base = params_list[0]
    n = base.N
    gg = np.empty((frames, users, n))
    gh = np.empty((frames, users, n))
    eh = np.empty((frames, n))
    for f in range(frames):
        rng = make_rng(seed, f)
        for u, p in enumerate(params_list):
            gg[f, u] = rng.exponential(p.mu_G, n)
            gh[f, u] = rng.exponential(p.mu_H, n)
        eh[f] = rng.uniform(0.0, base.E_m, n)
    return gg, gh, eh


def run_frame_multiuser(policy, gamma_g, gamma_h, e_h, params_list,
                        p_H_max_sum: float, p_G_max_sum: float):
    """Walk one multi-user frame against the shared battery and caps.

    Served users must jointly respect the battery and the harvesting BS's
    summed peak power; a policy breaking either is an internal invariant
    breach.  Users left to the grid BS are admitted cheapest-power-first
    until its summed peak power is exhausted; the rest drop.  Returns
    (total cost over users, grid energy in J, dropped packets).
    """
    gamma_g = np.asarray(gamma_g, dtype=float)
    gamma_h = np.asarray(gamma_h, dtype=float)
    e_h = np.asarray(e_h, dtype=float)
    users, n = gamma_g.shape
    if users != len(params_list):
        raise InvalidParameterError("one SystemParams per user required")
    base = params_list[0]
    for p in params_list[1:]:
        if p.N != base.N or p.tau != base.tau or p.E_m != base.E_m or p.B_m != base.B_m:
            raise InvalidParameterError("users must share frame and battery structure")
    if n != base.N:
        raise InvalidParameterError(f"trajectories have {n} blocks, params.N = {base.N}")
    p_inv_h = np.stack([
        inversion_power(channel_gain(p.d_H, gamma_h[u], p), p)
        for u, p in enumerate(params_list)])
    p_inv_g = np.stack([
        inversion_power(channel_gain(p.d_G, gamma_g[u], p), p)
        for u, p in enumerate(params_list)])
    battery = 0.0
    block_costs = []
    grid_terms = []
    drops = 0
    for i in range(n):
        battery = min(battery + float(e_h[i]), base.B_m)
        acts = np.asarray(policy.decide_joint(i, battery, gamma_g[:, i], gamma_h[:, i],
                                              params_list), dtype=np.int8)
        served = np.flatnonzero(acts == 1)
        p_served = p_inv_h[served, i]
        spend = float(np.sum(p_served) * base.tau) if served.size else 0.0
        if served.size and (np.sum(p_served) > p_H_max_sum * (1.0 + 1e-12)
                            or spend > battery * (1.0 + ENERGY_RTOL) + 1e-18):
            raise InvalidActionError(
                f"joint policy overdrew block {i + 1}: sum power "
                f"{float(np.sum(p_served))!r} W, spend {spend!r} J, battery {battery!r} J")
        battery = max(battery - spend, 0.0)
        for u in served:
            block_costs.append(0.0)
        # grid admission: cheapest inversion power first, sum-capped
        left = np.flatnonzero(acts == 0)
        wants = [u for u in left if p_inv_g[u, i] <= kappa(params_list[u])]
        wants.sort(key=lambda u: p_inv_g[u, i])
        admitted = []
        used = 0.0
        for u in wants:
            if used + p_inv_g[u, i] <= p_G_max_sum * (1.0 + 1e-12):
                used += p_inv_g[u, i]
                admitted.append(u)
        admitted_set = set(admitted)
        for u in left:
            p = params_list[u]
            if u in admitted_set:
                block_costs.append(p.w_G * p_inv_g[u, i] * p.tau)
                grid_terms.append(p_inv_g[u, i] * p.tau)
            else:
                block_costs.append(p.w_D)
                drops += 1
    return math.fsum(block_costs), math.fsum(grid_terms), drops


def multiuser_monte_carlo(policy, params_list, p_H_max_sum: float, p_G_max_sum: float,
                          frames: int, seed: int) -> RunMetrics:
    """Monte Carlo over shared-arrival multi-user frames (CRN keyed like the
    single-user path).  drop_ratio denominates over users * N packets."""
    gg, gh, eh = sample_multiuser_trajectories(params_list, seed, frames)
    users = len(params_list)
    costs = np.zeros(frames)
    grid = np.zeros(frames)
    drops = np.zeros(frames, dtype=np.int64)
    for f in range(frames):
        costs[f], grid[f], drops[f] = run_frame_multiuser(
            policy, gg[f], gh[f], eh[f], params_list, p_H_max_sum, p_G_max_sum)
    stderr = float(costs.std(ddof=1) / math.sqrt(frames)) if frames > 1 else 0.0
    return RunMetrics(
        policy=getattr(policy, "name", type(policy).__name__),
        frames=frames, seed=seed,
        mean_total_cost=float(costs.mean()),
        stderr_total_cost=stderr,
        mean_grid_energy=float(grid.mean()),
        drop_ratio=float(drops.sum() / (frames * users * params_list[0].N)),
    )


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def write_rows_csv(path, rows: list[dict], header: list[str] | None = None) -> None:
    """CSV with the pinned sweep header (or a caller-pinned one); field
    order never changes."""
    fields = CSV_HEADER if header is None else header
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, params: SystemParams, **extras) -> None:
    """JSON run manifest: full parameter snapshot plus run-specific extras
    (artifact hashes, calibrated thresholds, output digests)."""
    doc = {"params": params.as_dict(), "params_hash": params.content_hash()}
    doc.update(extras)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True, default=float)
        f.write("\n")

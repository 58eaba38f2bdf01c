"""Frame simulation, Monte Carlo evaluation, and parameter sweeps.

One evaluation path on a `FrameBatch`, the trajectories with their link
terms computed once.  Single-user policies decide through `decide_batch`
inside one battery walk, `_walk`, which yields serve masks: `run_batch` sums
the block terms with +=, `run_frame` (a one-frame batch) with math.fsum, so
its cost matches offline solver costs bit for bit, and the zeta calibrator
sums skip costs only.  Offline plans are scored by `expand_solution` on
instances built from batch rows.  Multi-user frames walk in lockstep too,
in `multiuser_frame_metrics`: joint policies decide through `decide_joint`
for all frames of one block at once and the totals are row-wise math.fsum.
`point_rows` and `sweep` run either walk, and `metrics_from_arrays` is the
one aggregator.
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
    FrameBatch,
    FrameTrajectory,
    SystemParams,
    sample_multiuser_trajectories,
    sample_trajectories,
)
from .offline import (
    ENERGY_RTOL,
    EXHAUSTIVE_CAP,
    exhaustive_optimal,
    expand_solution,
    frame_instance,
    greedy_plan,
    require_uncapped_battery,
)

__all__ = [
    "RunMetrics",
    "ScriptedAssignmentPolicy",
    "GridOnlyPolicy",
    "run_frame",
    "run_batch",
    "monte_carlo",
    "sweep",
    "offline_frame_metrics",
    "metrics_from_arrays",
    "metrics_row",
    "point_rows",
    "ScriptedMultiuserAssignment",
    "sample_multiuser_trajectories",
    "multiuser_frame_metrics",
    "multiuser_monte_carlo",
    "write_rows_csv",
    "write_manifest",
    "CSV_HEADER",
]


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
    drop_ratio: float          # dropped packets / (frames * users * N)


class ScriptedAssignmentPolicy:
    """Replays a precomputed serving pattern; bridges offline solutions
    into the frame simulator."""

    def __init__(self, alpha, name: str = "Scripted"):
        self.alpha = np.asarray(alpha, dtype=np.int8)
        self.name = name

    def decide_batch(self, block, battery, batch):
        plan = self.alpha if self.alpha.ndim == 2 else self.alpha[None, :]
        if plan.shape[0] != battery.shape[0]:
            raise InvalidParameterError("scripted plan does not cover this batch")
        return plan[:, block]


class GridOnlyPolicy:
    """Never touches the battery; the grid BS serves whatever it can."""

    name = "GP-only"

    def decide_batch(self, block, battery, batch):
        return np.zeros(battery.shape[0], dtype=np.int8)


# ---------------------------------------------------------------------------
# single-user walks
# ---------------------------------------------------------------------------

def check_affordable(block: int, serve, p_h, spend, battery, params: SystemParams) -> None:
    """Reject a served block the battery or the peak cap cannot pay for.

    A serve must fit under p_H_max and spend at most the stored energy
    (ENERGY_RTOL relative slack).  Arguments broadcast: (frames,) columns
    for a frame walk, (candidates, frames) for the zeta calibration walk.
    An over-draw is an internal invariant breach, not user error.
    """
    bad = serve & ((p_h > params.p_H_max) | (spend > battery * (1.0 + ENERGY_RTOL) + 1e-18))
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise InvalidActionError(
            f"policy served block {block + 1} of frame {at[-1]} with battery "
            f"{float(np.broadcast_to(battery, np.shape(bad))[at])!r} J, spend "
            f"{float(np.broadcast_to(spend, np.shape(bad))[at])!r} J, peak {params.p_H_max} W")


def _walk(decide, batch: FrameBatch, battery):
    """The per-block battery walk every single-user evaluation shares.

    Per block: credit the arrival (clamped at B_m), ask `decide(block,
    battery, batch)`, reject an action other than 0/1 or a serve the battery
    or the peak cap cannot pay for, spend.  `battery` starts as (frames,), or
    (candidates, frames) for the zeta calibration.  Yields the serve masks.
    """
    params = batch.params
    for i in range(params.N):
        battery = np.minimum(battery + batch.e_h[:, i], params.B_m)
        act = np.asarray(decide(i, battery, batch))
        serve = act == 1
        valid = serve | (act == 0)
        if not np.all(valid):
            at = np.unravel_index(np.argmin(valid), valid.shape)
            raise InvalidActionError(
                f"policy returned {act[at].item()!r} at block {i + 1} of frame {at[-1]}, "
                "expected 0 or 1")
        p_h = batch.p_h[:, i]
        spend = np.where(serve, p_h * params.tau, 0.0)
        check_affordable(i, serve, p_h, spend, battery, params)
        battery = np.maximum(battery - spend, 0.0)
        yield serve


def _block_terms(batch: FrameBatch, i: int, serve):
    """Block i's (frames,) skip cost paid (0 where served), grid energy in J
    and drop flags."""
    skip = ~serve
    return (np.where(serve, 0.0, batch.skip[:, i]),
            np.where(skip & batch.transmits[:, i], batch.p_g[:, i] * batch.params.tau, 0.0),
            skip & ~batch.transmits[:, i])


def run_frame(policy, trajectory: FrameTrajectory, params: SystemParams):
    """Walk one frame under a causal policy, as a one-frame batch.

    The per-block terms are totalled with math.fsum, so the cost is the
    exact sum of the block costs.  Returns (total cost, grid energy in J,
    dropped packets).
    """
    batch = FrameBatch.of_frame(trajectory, params)
    steps = (_block_terms(batch, i, serve)
             for i, serve in enumerate(_walk(policy.decide_batch, batch, np.zeros(1))))
    costs, energies, dropped = (np.concatenate(terms) for terms in zip(*steps))
    return math.fsum(costs), math.fsum(energies), int(dropped.sum())


def run_batch(policy, params: SystemParams, gamma_g, gamma_h, e_h):
    """Run (frames, N) trajectories in lockstep.

    Returns per-frame arrays (costs, grid energies, drop counts), each the
    running += sum of the per-block terms.
    """
    batch = FrameBatch(params, gamma_g, gamma_h, e_h)
    costs = np.zeros(batch.frames)
    grid = np.zeros(batch.frames)
    drops = np.zeros(batch.frames, dtype=np.int64)
    for i, serve in enumerate(_walk(policy.decide_batch, batch, np.zeros(batch.frames))):
        cost, energy, dropped = _block_terms(batch, i, serve)
        costs += cost
        grid += energy
        drops += dropped
    return costs, grid, drops


def monte_carlo(policy, params: SystemParams, frames: int, seed: int) -> RunMetrics:
    """Evaluate a policy on `frames` common-random-number trajectories.

    Frame f is keyed (seed, f), so runs with the same seed share
    trajectories frame-for-frame regardless of length: paired comparisons
    and doubling studies come for free.
    """
    gg, gh, eh = sample_trajectories(params, seed, frames)
    return metrics_from_arrays(getattr(policy, "name", type(policy).__name__), params.N, seed,
                               *run_batch(policy, params, gg, gh, eh))


def offline_frame_metrics(params: SystemParams, gamma_g, gamma_h, e_h, *,
                          solver: str = "greedy"):
    """Solve every frame with an offline assignment.

    solver: "greedy" (one `greedy_plan` over the batch) or "exhaustive"
    (per frame, subject to the 2^N cap).  Returns per-frame arrays (costs,
    grid energies, drop counts) matching the batch-walk conventions, read
    off `expand_solution`.  The solvers model an uncapped battery, so
    B_m < N * E_m raises ModelMismatchError.
    """
    if solver not in ("greedy", "exhaustive"):
        raise InvalidParameterError(f"unknown offline solver {solver!r}")
    require_uncapped_battery(params)
    batch = FrameBatch(params, gamma_g, gamma_h, e_h)
    if solver == "greedy":
        plans = greedy_plan(batch.skip[:, None], batch.p_h[:, None], batch.e_h, params.tau,
                            params.p_H_max)[:, 0]
    costs = np.zeros(batch.frames)
    grid = np.zeros(batch.frames)
    drops = np.zeros(batch.frames, dtype=np.int64)
    for f in range(batch.frames):
        inst = frame_instance(batch, f)
        alpha = plans[f] if solver == "greedy" else exhaustive_optimal(inst)[0]
        full = expand_solution(alpha, inst, params)
        costs[f], grid[f], drops[f] = full.total_cost, full.grid_energy, full.drops
    return costs, grid, drops


def metrics_from_arrays(name, packets: int, seed, costs, grid, drops) -> RunMetrics:
    """RunMetrics from per-frame (costs, grid energies, drop counts);
    `packets` per frame is users * N."""
    frames = costs.shape[0]
    stderr = float(costs.std(ddof=1) / math.sqrt(frames)) if frames > 1 else 0.0
    return RunMetrics(
        policy=name, frames=frames, seed=seed,
        mean_total_cost=float(costs.mean()),
        stderr_total_cost=stderr,
        mean_grid_energy=float(grid.mean()),
        drop_ratio=float(drops.sum() / (frames * packets)),
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


def metrics_row(m: RunMetrics, axis: str, value: float) -> dict:
    return dict(zip(CSV_HEADER, (m.policy, axis, value, m.mean_total_cost, m.stderr_total_cost,
                                 m.mean_grid_energy, m.mean_grid_energy * 1e3, m.drop_ratio,
                                 m.frames, m.seed)))


def point_rows(point: SystemParams, axis: str, value, policy_factories: dict,
               frames: int, seed: int, include_offline: bool, users: int = 1) -> list[dict]:
    """Rows of every policy at one parameter point, on shared trajectories.

    `axis` and `value` only label the rows; a point run passes "none", 0.0.
    One user walks `run_batch`.  `users` > 1 identical users share the EH
    battery and both stations' per-block peak powers (`point.p_H_max`,
    `point.p_G_max`) through `multiuser_frame_metrics`, and the factories
    must build joint policies.  With `include_offline` the offline greedy
    rows follow, plus, for one user, the exhaustive optimum whenever 2^N
    enumeration is within the cap.
    """
    if users == 1:
        gg, gh, eh = sample_trajectories(point, seed, frames)
        solvers = ("greedy", "exhaustive") if point.N <= EXHAUSTIVE_CAP else ("greedy",)

        def online(policy):
            return run_batch(policy, point, gg, gh, eh)

        def offline(solver):
            return offline_frame_metrics(point, gg, gh, eh, solver=solver)
    else:
        plist = [point] * users
        gg, gh, eh = sample_multiuser_trajectories(plist, seed, frames)
        solvers = ("greedy",)

        def online(policy):
            return multiuser_frame_metrics(policy, gg, gh, eh, plist, point.p_H_max,
                                           point.p_G_max)

        offline = online
    runs = [(name, online(factory(point))) for name, factory in policy_factories.items()]
    if include_offline:
        runs += [(solver.capitalize(), offline(solver)) for solver in solvers]
    return [metrics_row(metrics_from_arrays(name, users * point.N, seed, *arrays), axis, value)
            for name, arrays in runs]


def sweep(params: SystemParams, axis: str, values, policy_factories: dict,
          frames: int, seed: int, *, include_offline: bool = True,
          threads: int = 1, users: int = 1) -> list[dict]:
    """Evaluate policies across one parameter axis with shared trajectories.

    `policy_factories` maps a display name to a callable(params) -> policy,
    so per-point state (retrained tables, recalibrated thresholds) is built
    where it belongs.  Each point's rows come from `point_rows`, for
    `users` users, with the offline rows last when `include_offline`.

    Axis points are independent, so with `threads` > 1 they are evaluated
    concurrently; row order stays (value-major, policy-minor) either way.
    """
    if not isinstance(threads, int) or threads < 1:
        raise InvalidParameterError(f"threads must be a positive integer, got {threads!r}")
    values = list(values)

    def at(v):
        return point_rows(apply_axis(params, axis, v), axis, v, policy_factories, frames,
                          seed, include_offline, users)

    if threads == 1 or len(values) <= 1:
        chunks = [at(v) for v in values]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(at, values))
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# multi-user frames: one battery, per-block sum power caps
# ---------------------------------------------------------------------------

class ScriptedMultiuserAssignment:
    """Replays a (frames, users, N) serving plan, e.g. pooled offline
    solutions."""

    def __init__(self, sel, name: str = "Scripted"):
        self.sel = np.asarray(sel, dtype=np.int8)
        self.name = name

    def decide_joint(self, block, battery, p_h, skip, params_list):
        if self.sel.shape[0] != battery.shape[0]:
            raise InvalidParameterError("scripted plan does not cover this batch")
        return self.sel[:, :, block]


def multiuser_frame_metrics(policy, gamma_g, gamma_h, e_h, params_list,
                            p_H_max_sum: float, p_G_max_sum: float):
    """Walk (frames, U, N) multi-user trajectories in lockstep.

    One battery per frame, shared by the users.  Per block the joint policy
    (or, for `policy` "greedy", the pooled offline plans of one `greedy_plan`
    over all frames) picks the users the harvesting BS serves; they must
    jointly respect the battery and its summed peak power, and a policy
    breaking either is an internal invariant breach.  Users left to the grid
    BS are admitted cheapest inversion power first (ties: lower user) until
    its summed peak power is exhausted; the rest drop.  Returns per-frame
    arrays (costs, grid energies, drop counts), the sums totalled with
    math.fsum.
    """
    frames, users, n = np.shape(gamma_g)
    if users != len(params_list):
        raise InvalidParameterError("one SystemParams per user required")
    base = params_list[0]
    for p in params_list[1:]:
        if p.N != base.N or p.tau != base.tau or p.E_m != base.E_m or p.B_m != base.B_m:
            raise InvalidParameterError("users must share frame and battery structure")
    if n != base.N:
        raise InvalidParameterError(f"trajectories have {n} blocks, params.N = {base.N}")
    batches = [FrameBatch(p, gamma_g[:, u], gamma_h[:, u], e_h) for u, p in enumerate(params_list)]
    p_g, p_h, skip, transmits = (np.stack([getattr(b, name) for b in batches], axis=1)
                                 for name in ("p_g", "p_h", "skip", "transmits"))
    if isinstance(policy, str):
        if policy != "greedy":
            raise InvalidParameterError(f"unknown multi-user offline solver {policy!r}")
        require_uncapped_battery(base)
        policy = ScriptedMultiuserAssignment(greedy_plan(skip, p_h, e_h, base.tau, p_H_max_sum))
    w_d = np.array([p.w_D for p in params_list])
    rows = np.arange(frames)
    costs = np.zeros((frames, users, n))
    grid = np.zeros((frames, users, n))
    drops = np.zeros(frames, dtype=np.int64)
    battery = np.zeros(frames)
    for i in range(n):
        battery = np.minimum(battery + e_h[:, i], base.B_m)
        acts = np.asarray(policy.decide_joint(i, battery, p_h[:, :, i], skip[:, :, i],
                                              params_list))
        if acts.shape != (frames, users):
            raise InvalidActionError(f"joint policy returned shape {acts.shape} at block "
                                     f"{i + 1}, expected {(frames, users)}")
        serve = acts == 1
        valid = serve | (acts == 0)
        if not np.all(valid):
            f = int(np.argmin(valid.all(axis=1)))
            raise InvalidActionError(f"joint policy returned {acts[f].tolist()!r} at block "
                                     f"{i + 1} of frame {f}, expected 0 or 1 per user")
        power = np.zeros(frames)
        for u in range(users):   # in user order, as the offline engine sums
            power += np.where(serve[:, u], p_h[:, u, i], 0.0)
        spend = power * base.tau
        bad = serve.any(axis=1) & ((power > p_H_max_sum * (1.0 + 1e-12))
                                   | (spend > battery * (1.0 + ENERGY_RTOL) + 1e-18))
        if np.any(bad):
            f = int(np.argmax(bad))
            raise InvalidActionError(
                f"joint policy overdrew block {i + 1} of frame {f}: sum power "
                f"{float(power[f])!r} W, spend {float(spend[f])!r} J, battery "
                f"{float(battery[f])!r} J")
        battery = np.maximum(battery - spend, 0.0)
        # grid admission: cheapest inversion power first, sum-capped
        used = np.zeros(frames)
        admitted = np.zeros((frames, users), dtype=bool)
        for u in np.argsort(p_g[:, :, i], axis=1, kind="stable").T:
            p = p_g[rows, u, i]
            admit = (~serve[rows, u] & transmits[rows, u, i]
                     & (used + p <= p_G_max_sum * (1.0 + 1e-12)))
            used = np.where(admit, used + p, used)
            admitted[rows, u] = admit
        costs[:, :, i] = np.where(serve, 0.0, np.where(admitted, skip[:, :, i], w_d))
        grid[:, :, i] = np.where(admitted, p_g[:, :, i] * base.tau, 0.0)
        drops += np.sum(~serve & ~admitted, axis=1)
    return (np.array([math.fsum(row) for row in costs.reshape(frames, -1).tolist()]),
            np.array([math.fsum(row) for row in grid.reshape(frames, -1).tolist()]),
            drops)


def multiuser_monte_carlo(policy, params_list, p_H_max_sum: float, p_G_max_sum: float,
                          frames: int, seed: int) -> RunMetrics:
    """Monte Carlo over shared-arrival multi-user frames (CRN keyed like the
    single-user path).  drop_ratio denominates over users * N packets."""
    gg, gh, eh = sample_multiuser_trajectories(params_list, seed, frames)
    arrays = multiuser_frame_metrics(policy, gg, gh, eh, params_list, p_H_max_sum, p_G_max_sum)
    return metrics_from_arrays(getattr(policy, "name", type(policy).__name__),
                               len(params_list) * params_list[0].N, seed, *arrays)


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

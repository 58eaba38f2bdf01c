"""Frame simulation, Monte Carlo evaluation, and parameter sweeps.

One battery walk, `_walk`, serves every evaluation at any user count, and
one outcome rule, `_outcomes`, settles each block: users the harvesting BS
skips go to the grid BS cheapest first while its summed peak power holds
out, and the rest drop.  Single-user policies decide through
`decide_batch` on a `FrameBatch`, joint policies through `decide_joint`,
and offline plans (greedy or exhaustive, any user count) are replayed
through the same walk (`replay_plan`).  `run_batch` sums the block terms
with +=, every other evaluation per frame with math.fsum (`frame_totals`),
so an offline plan's cost is its exact skip-cost sum.  The zeta
calibrator (`policies.calibrate_zeta`) walks intervals of candidates
instead of frames, under the same battery slack and serve checks
(`_battery_slack`, `_overdraw_error`).  `metrics_from_arrays` is the one
aggregator.
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
from .offline import (ENERGY_RTOL, EXHAUSTIVE_CAP, exhaustive_plan, greedy_plan,
                      require_uncapped_battery)

__all__ = [
    "RunMetrics",
    "GridOnlyPolicy",
    "run_frame",
    "run_batch",
    "monte_carlo",
    "sweep",
    "offline_frame_metrics",
    "replay_plan",
    "frame_totals",
    "metrics_from_arrays",
    "metrics_row",
    "point_rows",
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


class GridOnlyPolicy:
    """Never touches the battery; the grid BS serves whatever it can."""

    name = "GP-only"

    def decide_batch(self, block, battery, batch):
        return np.zeros(battery.shape[0], dtype=np.int8)


# ---------------------------------------------------------------------------
# the battery walk and the per-block outcome
# ---------------------------------------------------------------------------

def _links(batches):
    """(p_g, p_h, skip, transmits) of per-user FrameBatches as (frames, U, N)
    arrays; one user's are views, not copies."""
    names = ("p_g", "p_h", "skip", "transmits")
    if len(batches) == 1:
        return tuple(getattr(batches[0], name)[:, None] for name in names)
    return tuple(np.stack([getattr(b, name) for b in batches], axis=1) for name in names)


def _battery_slack(arrived):
    """How far a serve may overdraw the battery: ENERGY_RTOL of the frame's
    arrivals so far (plus 1e-18 J), the offline solvers' causality
    tolerance, so every plan they accept replays."""
    return ENERGY_RTOL * arrived + 1e-18


def _overdraw_error(block: int, frame: int, battery, spend, power, p_max) -> InvalidActionError:
    """The error of a serve over the peak cap or the battery."""
    return InvalidActionError(
        f"policy served block {block + 1} of frame {frame} with battery "
        f"{float(battery)!r} J, spend {float(spend)!r} J, power "
        f"{float(power)!r} W, peak {p_max!r} W")


def _walk(decide, p_h, e_h, params: SystemParams, battery, p_max: float):
    """The per-block battery walk of every evaluation, at any user count.

    `p_h` holds (frames, U, N) harvesting inversion powers over (frames, N)
    arrivals `e_h`; `battery` is the (frames,) starting charge.  Per block:
    credit the arrival (clamped at B_m), ask `decide(block, battery)` for a
    (frames, U) 0/1 array, reject any other, reject a serve over the peak
    cap `p_max` (exact per user, 1e-12 slack on the sum in user order) or
    over the battery plus `_battery_slack`, spend.  Yields the serve masks.
    """
    frames, users = p_h.shape[:2]
    battery = np.asarray(battery, dtype=float)
    if battery.shape != (frames,):
        raise InvalidParameterError(
            f"the walk takes a (frames,) battery, got shape {battery.shape} for {frames} frames")
    arrived = np.zeros(frames)
    for i in range(params.N):
        arrived = arrived + e_h[:, i]
        battery = np.minimum(battery + e_h[:, i], params.B_m)
        act = np.asarray(decide(i, battery))
        if act.shape != (frames, users):
            raise InvalidActionError(f"policy returned shape {act.shape} at block {i + 1}, "
                                     f"expected {(frames, users)}")
        serve = act == 1
        valid = serve | (act == 0)
        if not valid.all():
            at = int(np.argmin(valid.all(axis=-1)))
            raise InvalidActionError(f"policy returned {act[at].tolist()!r} at block {i + 1} "
                                     f"of frame {at}, expected 0 or 1 per user")
        served = np.where(serve, p_h[:, :, i], 0.0)
        power = served[:, 0]
        for u in range(1, users):   # in user order, as the offline engine sums
            power = power + served[:, u]
        spend = power * params.tau
        over = spend > battery + _battery_slack(arrived)
        # one user's power is its sum: the exact check covers the slack one
        if (served.max(initial=0.0) > p_max
                or (users > 1 and power.max(initial=0.0) > p_max * (1.0 + 1e-12))
                or over.any()):
            at = int(np.argmax((served > p_max).any(axis=-1)
                               | (power > p_max * (1.0 + 1e-12)) | over))
            raise _overdraw_error(i, at, battery[at], spend[at], power[at], p_max)
        battery = np.maximum(battery - spend, 0.0)
        yield serve


def _grid_admission(serve, p_g, reach, p_max: float):
    """(frames, U) users the grid BS carries in one block.

    The users the harvesting BS skipped and the grid BS can reach (within
    kappa and, alone, within `p_max`) wait; they are admitted cheapest
    inversion power first (ties: lower user) while the summed power stays
    within `p_max`.  A lone user is admitted exactly when it waits.
    """
    admitted = ~serve & reach
    if admitted.shape[1] > 1:
        waiting, used, rows = admitted.copy(), np.zeros(len(p_g)), np.arange(len(p_g))
        for u in np.argsort(p_g, axis=1, kind="stable").T:
            p = p_g[rows, u]
            admit = waiting[rows, u] & (used + p <= p_max)
            used = np.where(admit, used + p, used)
            admitted[rows, u] = admit
    return admitted


def _outcomes(decide, batches, links, p_H_max: float, p_G_max: float):
    """Walk one shared battery per frame of per-user `batches` (their
    stacked `links`) under `decide` and settle every block: the served
    users pay nothing, the users `_grid_admission` admits under the grid
    BS's summed peak power `p_G_max` pay their skip cost, and the rest drop
    at w_D.  One user under its own p_G_max is admitted exactly when it
    transmits, since then p_G_inv <= kappa <= p_G_max.  Yields each block's
    (frames, U) serve and admitted masks, costs and grid energies in J.
    """
    params, e_h = batches[0].params, batches[0].e_h
    p_g, p_h, skip, transmits = links
    w_d = np.array([b.params.w_D for b in batches])
    cap = p_G_max * (1.0 + 1e-12)
    reach = transmits & (p_g <= cap)
    for i, serve in enumerate(_walk(decide, p_h, e_h, params, np.zeros(len(e_h)), p_H_max)):
        admitted = _grid_admission(serve, p_g[:, :, i], reach[:, :, i], cap)
        yield (serve, admitted, np.where(serve, 0.0, np.where(admitted, skip[:, :, i], w_d)),
               np.where(admitted, p_g[:, :, i] * params.tau, 0.0))


def _single(policy, batch: FrameBatch):
    """A single-user policy as a walk's decide(block, battery)."""
    return lambda i, battery: np.asarray(policy.decide_batch(i, battery, batch))[..., None]


def _stacked(steps):
    """Per-block outcomes stacked to (frames, U, N) arrays (serve, admitted,
    cost, grid energy)."""
    return tuple(np.stack(terms, axis=-1) for terms in zip(*steps))


def frame_totals(serve, admitted, cost, grid):
    """Per-frame (costs, grid energies, drop counts) of (frames, U, N)
    outcome arrays; the sums are row-wise math.fsum, so exact."""
    def fsum_rows(a):
        return np.array([math.fsum(row) for row in a.reshape(a.shape[0], -1).tolist()])

    return fsum_rows(cost), fsum_rows(grid), np.sum(~serve & ~admitted, axis=(1, 2))


def replay_plan(plan, batches, p_H_max: float, p_G_max: float):
    """Walk a (frames, U, N) 0/1 serving plan over per-user FrameBatches
    (shared arrivals) and return its (frames, U, N) outcome arrays (serve,
    admitted, cost, grid energy in J); an unaffordable plan raises."""
    plan = np.asarray(plan)
    return _stacked(_outcomes(lambda i, battery: plan[:, :, i], batches, _links(batches),
                              p_H_max, p_G_max))


def run_frame(policy, trajectory: FrameTrajectory, params: SystemParams):
    """Walk one frame under a causal policy, as a one-frame batch.

    The per-block terms are totalled with math.fsum, so the cost is the
    exact sum of the block costs.  Returns (total cost, grid energy in J,
    dropped packets).
    """
    batch = FrameBatch.of_frame(trajectory, params)
    costs, grid, drops = frame_totals(*_stacked(_outcomes(
        _single(policy, batch), [batch], _links([batch]), params.p_H_max, params.p_G_max)))
    return float(costs[0]), float(grid[0]), int(drops[0])


def run_batch(policy, params: SystemParams, gamma_g, gamma_h, e_h):
    """Run (frames, N) trajectories in lockstep.

    Returns per-frame arrays (costs, grid energies, drop counts), each the
    running += sum of the per-block terms.
    """
    batch = FrameBatch(params, gamma_g, gamma_h, e_h)
    costs = np.zeros(batch.frames)
    grid = np.zeros(batch.frames)
    drops = np.zeros(batch.frames, dtype=np.int64)
    for serve, admitted, cost, energy in _outcomes(_single(policy, batch), [batch],
                                                   _links([batch]), params.p_H_max,
                                                   params.p_G_max):
        costs += cost[:, 0]
        grid += energy[:, 0]
        drops += ~serve[:, 0] & ~admitted[:, 0]
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
    """Plan every frame with an offline solver and replay the plans.

    solver: "greedy" (`greedy_plan`) or "exhaustive" (`exhaustive_plan`,
    subject to its 2^N cap), either one call over the batch.  Returns
    per-frame arrays (costs, grid energies, drop counts) from `replay_plan`.
    The solvers model an uncapped battery, so B_m < N * E_m raises
    ModelMismatchError.
    """
    solve = {"greedy": greedy_plan, "exhaustive": exhaustive_plan}.get(solver)
    if solve is None:
        raise InvalidParameterError(f"unknown offline solver {solver!r}")
    require_uncapped_battery(params)
    batch = FrameBatch(params, gamma_g, gamma_h, e_h)
    plan = solve(batch.skip[:, None], batch.p_h[:, None], batch.e_h, params.tau, params.p_H_max)
    return frame_totals(*replay_plan(plan, [batch], params.p_H_max, params.p_G_max))


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
    links = _links(batches)
    _, p_h, skip, _ = links
    if isinstance(policy, str):
        if policy != "greedy":
            raise InvalidParameterError(f"unknown multi-user offline solver {policy!r}")
        require_uncapped_battery(base)
        plan = greedy_plan(skip, p_h, e_h, base.tau, p_H_max_sum)

        def decide(i, battery):
            return plan[:, :, i]
    else:
        def decide(i, battery):
            return policy.decide_joint(i, battery, p_h[:, :, i], skip[:, :, i], params_list)
    return frame_totals(*_stacked(_outcomes(decide, batches, links, p_H_max_sum, p_G_max_sum)))


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

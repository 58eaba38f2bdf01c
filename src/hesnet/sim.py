"""Batch evaluation: the battery walk, plan replay, metrics and sweeps.

Every evaluation takes a `FrameBatch`: (frames, U, N) gains over (frames,
N) shared arrivals, under one `SystemParams` whose peak powers cap each
station's per-block sum over the users.  A single frame is a one-frame
batch and a single user is U = 1.  There are three entry points, all
taking the batch: `run_batch` and `multiuser_frame_metrics` walk a policy
(any object with `decide_batch`), `offline_frame_metrics` plans with an
offline plan function and replays the plans.  One battery walk,
`_outcomes`, serves them all and settles each block: users the harvesting
BS skips go to the grid BS cheapest first while its summed peak power
holds out, and the rest drop.  Offline plans are replayed through the
same walk (`replay_plan`).  `run_batch` (one user only) sums the block
terms with +=, every other evaluation per frame with math.fsum
(`frame_totals`), so an offline plan's cost is its exact skip-cost sum.
The walk and the zeta calibrator pay every block through one check,
`_pay`; the grid BS and the greedy and threshold policies admit users
through one rule, `_admit_in_order`.  `metrics_from_arrays` is the one
aggregator.  `point_rows` and `sweep` write one row per online policy
factory, then one per offline plan function they are given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidActionError, InvalidParameterError
from .model import FrameBatch, SystemParams, sample_trajectories
from .offline import ENERGY_RTOL, require_uncapped_battery

__all__ = [
    "RunMetrics",
    "GridOnlyPolicy",
    "run_batch",
    "sweep",
    "offline_frame_metrics",
    "replay_plan",
    "frame_totals",
    "metrics_from_arrays",
    "metrics_row",
    "point_rows",
    "multiuser_frame_metrics",
    "write_rows_csv",
    "write_json",
    "write_manifest",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class RunMetrics:
    """Aggregates of one Monte Carlo run.

    mean_total_cost always equals w_G * mean_grid_energy + w_D * users *
    N * drop_ratio up to accumulation rounding; tests pin that identity.
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

    def decide_batch(self, block, battery, batch):
        return np.zeros(batch.p_h.shape[:2], dtype=np.int8)


# ---------------------------------------------------------------------------
# the battery walk and the per-block outcome
# ---------------------------------------------------------------------------

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


def _pay(block: int, frame, battery, served, slack, params: SystemParams):
    """Pay one block's (rows, U) served powers, summed in user order as the
    offline engine sums them, out of the (rows,) battery.  A serve over the
    peak cap params.p_H_max (exact per user, 1e-12 slack on the sum) or the
    battery plus `slack` raises, naming frame[row].  Returns the battery
    after the spend, clamped at 0."""
    p_max = params.p_H_max
    power = served[:, 0]
    for u in range(1, served.shape[1]):
        power = power + served[:, u]
    spend = power * params.tau
    over = spend > battery + slack
    # one user's power is its sum: the exact check covers the slack one
    if (served.max(initial=0.0) > p_max or power.max(initial=0.0) > p_max * (1.0 + 1e-12)
            or over.any()):
        at = int(np.argmax((served > p_max).any(axis=-1)
                           | (power > p_max * (1.0 + 1e-12)) | over))
        raise _overdraw_error(block, int(frame[at]), battery[at], spend[at], power[at], p_max)
    return np.maximum(battery - spend, 0.0)


def _admit_in_order(order, eligible, power, fits):
    """(frames, U) bool mask of the `eligible` users admitted in `order`, a
    (frames, U) permutation per row, each while `fits` holds for the power
    admitted so far plus its own.  A lone user is admitted exactly where
    eligible & fits(power)."""
    if power.shape[1] == 1:
        return eligible & fits(power[:, 0])[:, None]
    rows = np.arange(power.shape[0])
    admitted = np.zeros(power.shape, dtype=bool)
    used = np.zeros(power.shape[0])
    for u in order.T:
        p = power[rows, u]
        admit = eligible[rows, u] & fits(used + p)
        used = np.where(admit, used + p, used)
        admitted[rows, u] = admit
    return admitted


def _outcomes(decide, batch: FrameBatch):
    """The per-block battery walk of every evaluation, at any user count.

    One battery per frame of `batch`, shared by its users, starts empty.
    Per block: credit the arrival (clamped at B_m), ask `decide(block,
    battery, batch)` (called as `decide_batch` is) for a (frames, U) 0/1
    array, reject any other, and pay the served users' powers (`_pay`,
    under `_battery_slack`).  Then settle the block: the served users pay
    nothing, the skipped users the grid BS can reach are admitted cheapest
    first (ties: lower user) while their summed power stays within
    params.p_G_max and pay their skip cost, and the rest drop at w_D.  One
    user is admitted exactly when it transmits, since then p_G_inv <= kappa
    <= p_G_max.  Yields each block's (frames, U) serve and admitted masks,
    costs and grid energies in J.
    """
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
        admitted = _admit_in_order(order[:, :, i], ~serve & batch.transmits[:, :, i], p_g[:, :, i],
                                   lambda total: total <= cap)
        yield (serve, admitted,
               np.where(serve, 0.0, np.where(admitted, skip[:, :, i], params.w_D)),
               np.where(admitted, p_g[:, :, i] * params.tau, 0.0))


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


def replay_plan(plan, batch: FrameBatch):
    """Walk a (frames, U, N) 0/1 serving plan over `batch` and return its
    (frames, U, N) outcome arrays (serve, admitted, cost, grid energy in
    J); an unaffordable plan raises."""
    plan = np.asarray(plan)
    return _stacked(_outcomes(lambda i, battery, batch: plan[:, :, i], batch))


def run_batch(policy, batch: FrameBatch):
    """Walk a one-user batch in lockstep under `policy`.

    Returns per-frame arrays (costs, grid energies, drop counts), each the
    running += sum of the per-block terms.  This stays apart from
    `multiuser_frame_metrics`, whose math.fsum totals can differ in the
    last bits, because the single-user CSVs are pinned to these sums.
    """
    if batch.users != 1:
        raise InvalidParameterError(
            f"run_batch walks one user, got {batch.users}; use multiuser_frame_metrics")
    costs = np.zeros(batch.frames)
    grid = np.zeros(batch.frames)
    drops = np.zeros(batch.frames, dtype=np.int64)
    for serve, admitted, cost, energy in _outcomes(policy.decide_batch, batch):
        costs += cost[:, 0]
        grid += energy[:, 0]
        drops += ~serve[:, 0] & ~admitted[:, 0]
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
               frames: int, seed: int, plans: dict | None = None, users: int = 1) -> list[dict]:
    """Rows of every policy at one parameter point, on shared trajectories.

    `axis` and `value` only label the rows; a point run passes "none", 0.0.
    The `users` users share the EH battery and both stations' per-block
    peak powers (`point.p_H_max`, `point.p_G_max`); with more than one the
    factories must build policies that decide every user of a block (GT,
    Threshold, GP-only), not table lookups.  `plans` maps a row name to an
    offline plan function (`greedy_plan`, `optimal_plan`); their rows
    follow the online ones, in order, each from `offline_frame_metrics`.
    """
    batch = sample_trajectories(point, seed, frames, users)
    # one user keeps run_batch's += totals: the single-user CSVs are pinned to them
    online = run_batch if users == 1 else multiuser_frame_metrics
    runs = [(name, online(factory(point), batch)) for name, factory in policy_factories.items()]
    runs += [(name, offline_frame_metrics(solve, batch)) for name, solve in (plans or {}).items()]
    return [metrics_row(metrics_from_arrays(name, users * point.N, seed, *arrays), axis, value)
            for name, arrays in runs]


def sweep(params: SystemParams, axis: str, values, policy_factories: dict,
          frames: int, seed: int, *, plans: dict | None = None,
          threads: int = 1, users: int = 1) -> list[dict]:
    """Evaluate policies across one parameter axis with shared trajectories.

    `policy_factories` maps a display name to a callable(params) -> policy,
    so per-point state (retrained tables, recalibrated thresholds) is built
    where it belongs.  Each point's rows come from `point_rows`, for
    `users` users, with a row per offline plan function in `plans` last.

    Axis points are independent, so with `threads` > 1 they are evaluated
    concurrently; row order stays (value-major, policy-minor) either way.
    """
    if not isinstance(threads, int) or threads < 1:
        raise InvalidParameterError(f"threads must be a positive integer, got {threads!r}")
    values = list(values)

    def at(v):
        return point_rows(apply_axis(params, axis, v), axis, v, policy_factories, frames,
                          seed, plans, users)

    if threads == 1 or len(values) <= 1:
        chunks = [at(v) for v in values]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(at, values))
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# exact per-frame totals: any policy at any user count, offline plans
# ---------------------------------------------------------------------------

def multiuser_frame_metrics(policy, batch: FrameBatch):
    """Walk a batch of any user count in lockstep under `policy`.

    One battery per frame, shared by the users.  Per block the policy
    picks the users the harvesting BS serves; they must jointly respect the
    battery and its summed peak power, and a policy breaking either is an
    internal invariant breach.  Users left to the grid BS are admitted
    cheapest inversion power first (ties: lower user) until its summed peak
    power is exhausted; the rest drop.  Returns per-frame arrays (costs,
    grid energies, drop counts), the sums totalled with math.fsum.
    """
    return frame_totals(*_stacked(_outcomes(policy.decide_batch, batch)))


def offline_frame_metrics(solve, batch: FrameBatch):
    """Plan every frame of a batch offline and replay the plans.

    `solve` is an offline plan function (`greedy_plan`, or `optimal_plan`
    for one user), called once over the batch's arrays with the summed peak
    cap params.p_H_max.  The plans are walked by
    `replay_plan`.  Returns per-frame arrays (costs, grid energies, drop
    counts); a plan's cost is its exact math.fsum skip sum.  The solvers
    model an uncapped battery, so B_m < N * E_m raises ModelMismatchError.
    """
    params = batch.params
    require_uncapped_battery(params)
    plan = solve(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
    return frame_totals(*replay_plan(plan, batch))


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


def write_json(path, doc: dict) -> None:
    """Every JSON file the package writes: sorted keys, two-space indent, a
    final newline; numpy scalars are written as floats."""
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n")


def write_manifest(path, params: SystemParams, **extras) -> None:
    """JSON run manifest: full parameter snapshot plus run-specific extras
    (artifact hashes, calibrated thresholds, output digests)."""
    write_json(path, {"params": params.as_dict(), "params_hash": params.content_hash(), **extras})

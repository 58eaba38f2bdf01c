"""Batch evaluation: the battery walk, plan replay, metrics and sweeps.

Every evaluation takes a `FrameBatch`: (frames, U, N) gains over (frames,
N) shared arrivals, under one `SystemParams` whose peak powers cap each
station's per-block sum over the users.  A single frame is a one-frame
batch and a single user is U = 1.  There is one entry point,
`outcomes(batch, policies, plans)`: one battery walk, `_walk`, plays every
policy (any object with `decide_batch`) and then every (frames, U, N) 0/1
plan, one battery each; per block the arrival is credited once and all
the rows' serves are paid in one check.  A policy's action is a (frames,
U) bool serve mask, stored as it is; an action of any other dtype is
checked for 0/1 in its block, and a plan that is all 0/1 is made a bool
mask once.  Only the battery is causal, so the walk loops over blocks for
the battery alone and fills a serve mask per row; one settlement of a
row's whole batch (`_settle`), made when the row is read, then sends the
users the harvesting BS skips to the grid BS cheapest first while its
summed peak power holds out (one user: wherever it transmits), drops the
rest, and prices every block.  `frame_totals` sums a row's terms per
frame with math.fsum, so an offline plan's cost is its exact skip-cost
sum.  The walk and the zeta calibrator pay every block through one check,
`_pay`; the grid BS and the threshold policy admit users through one
rule, `_admit_in_order`, under a power limit per row.

`sweep` and `point_rows` (its one-point case) run points through one
path, `_rows`, which returns one record per point: its axis value, its
CSV rows, and the report its policy factories, each called as
factory(point, report), fill in.  Points of one (tau, p_H_max) are
planned in chunks, and each point's rows come out of one `outcomes` walk.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from .errors import InvalidActionError, InvalidParameterError, ResourceLimitError
from .model import FrameBatch, SystemParams, sample_trajectories
from .offline import ENERGY_RTOL, require_uncapped_battery

__all__ = [
    "GridOnlyPolicy",
    "outcomes",
    "solve_plan",
    "frame_totals",
    "metrics_row",
    "point_rows",
    "sweep",
    "write_rows_csv",
    "write_json",
    "write_manifest",
    "CSV_HEADER",
]


class GridOnlyPolicy:
    """Never touches the battery; the grid BS serves whatever it can."""

    def decide_batch(self, block, battery, batch):
        return np.zeros(batch.p_h.shape[:2], dtype=bool)


# ---------------------------------------------------------------------------
# the battery walk and the batch settlement
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
    """Pay one block's (..., U) served powers, summed in user order as the
    offline engine sums them, out of the battery, one entry per row of
    `served`.  A serve over the peak cap params.p_H_max (exact per user,
    1e-12 slack on the sum) or the battery plus `slack` raises, naming the
    first such row (in C order) by its entry of `frame`, an array of the
    battery's shape.  Returns the battery after the spend, clamped at 0."""
    p_max = params.p_H_max
    users = served.shape[-1]
    power = served[..., 0]
    for u in range(1, users):
        power = power + served[..., u]
    spend = power * params.tau
    over = spend > battery + slack
    # one user's power is its sum: the exact check covers the slack one
    if (served.max(initial=0.0) > p_max
            or (users > 1 and power.max(initial=0.0) > p_max * (1.0 + 1e-12)) or over.any()):
        at = int(np.argmax((served > p_max).any(axis=-1)
                           | (power > p_max * (1.0 + 1e-12)) | over))
        raise _overdraw_error(block, int(frame.flat[at]), battery.flat[at], spend.flat[at],
                              power.flat[at], p_max)
    return np.maximum(battery - spend, 0.0)


def _admit_in_order(order, eligible, power, limit):
    """(frames, U) bool mask of the `eligible` users admitted in `order`, a
    (frames, U) permutation per row, each while the power admitted so far
    plus its own stays within `limit`, a (frames,) power bound per row or
    one bound for all.  A lone user is admitted exactly where eligible and
    power <= limit, and `order` (which may be None) is not read."""
    if power.shape[1] == 1:
        return eligible & (power[:, 0] <= limit)[:, None]
    rows = np.arange(power.shape[0])
    admitted = np.zeros(power.shape, dtype=bool)
    used = np.zeros(power.shape[0])
    for u in order.T:
        p = power[rows, u]
        admit = eligible[rows, u] & (used + p <= limit)
        used = np.where(admit, used + p, used)
        admitted[rows, u] = admit
    return admitted


def _walk(decides, batch: FrameBatch):
    """The battery walk of every evaluation, at any user count, for P
    deciders at once.

    Each decider has its own battery per frame of `batch`, shared by the
    frame's users, starting empty.  Per block the arrival is credited once
    to all P batteries (clamped at B_m); each `decide(block, battery,
    batch)` (called as `decide_batch` is, on its own (frames,) battery) is
    asked in order for a (frames, U) serve mask: a bool array is the mask
    itself, an array of any other dtype must be 0 or 1 per user and any
    other is rejected at once; then the served users' powers of all P *
    frames rows are paid in one `_pay` (under `_battery_slack`), which
    names the first overdrawing row, decider-major.  So the first failing
    block raises, a bad action in it before any overdraw in it, each with
    the text the decider's lone walk would raise.  Only the battery is
    causal, so the walk only fills the serve mask it returns, block-major:
    (P, N, frames, U), so each block's store is contiguous; `_settle`
    prices one decider's slice at a time.
    """
    params, p_h, e_h = batch.params, batch.p_h, batch.e_h
    frames, users, count = batch.frames, batch.users, len(decides)
    rows = np.broadcast_to(np.arange(frames), (count, frames))
    serve = np.empty((count, params.N, frames, users), dtype=bool)
    battery = np.zeros((count, frames))
    arrived = np.zeros(frames)
    for i in range(params.N):
        arrived = arrived + e_h[:, i]
        battery = np.minimum(battery + e_h[:, i], params.B_m)
        for j, decide in enumerate(decides):
            act = np.asarray(decide(i, battery[j], batch))
            if act.shape != (frames, users):
                raise InvalidActionError(f"policy returned shape {act.shape} at block {i + 1}, "
                                         f"expected {(frames, users)}")
            if act.dtype != bool:
                served = act == 1
                bad = act != served   # neither 0 nor 1: -1, 2, 0.5, nan
                if bad.any():
                    at = int(np.argmax(bad.any(axis=-1)))
                    raise InvalidActionError(f"policy returned {act[at].tolist()!r} at block "
                                             f"{i + 1} of frame {at}, expected 0 or 1 per user")
                act = served
            serve[j, i] = act
        battery = _pay(i, rows, battery, np.where(serve[:, i], p_h[:, :, i], 0.0),
                       _battery_slack(arrived), params)
    return serve


def _settle(serve, batch: FrameBatch):
    """Price a (frames, U, N) serve mask over `batch` in one pass.

    The served users pay nothing.  In each (frame, block) the skipped users
    the grid BS can reach are admitted cheapest first (ties: lower user)
    while their summed power stays within params.p_G_max, and pay their
    skip cost; the rest drop at w_D.  One user is admitted exactly when it
    transmits, since then p_G_inv <= kappa <= p_G_max, so at U = 1 no power
    is compared.  Returns (frames, U, N) arrays (serve, admitted, cost,
    grid energy in J).
    """
    params = batch.params
    frames, users, n = serve.shape
    skipped = ~serve
    if users == 1:
        admitted = skipped & batch.transmits
    else:
        def per_block(a):   # (frames * N, U): one row per (frame, block)
            return a.transpose(0, 2, 1).reshape(frames * n, users)

        power = per_block(batch.p_g)
        admitted = _admit_in_order(np.argsort(power, axis=1, kind="stable"),
                                   per_block(skipped & batch.transmits), power,
                                   params.p_G_max * (1.0 + 1e-12))
        admitted = np.ascontiguousarray(admitted.reshape(frames, n, users).transpose(0, 2, 1))
    # the grid energy of every block the grid BS would carry, once per
    # batch; the transmits mask goes first because p_g is inf on a dead
    # grid link
    energy = batch.cached("grid_energy", lambda: np.where(
        batch.transmits, batch.p_g * params.tau, 0.0))
    # exact: of each pair of terms one is +0.0, and skip is finite and >= 0
    return (serve, admitted, batch.skip * admitted + params.w_D * (skipped & ~admitted),
            energy * admitted)


def outcomes(batch: FrameBatch, policies=(), plans=()):
    """Walk every policy in `policies` (by its `decide_batch`), then every
    (frames, U, N) 0/1 plan in `plans`, over `batch` in one battery walk
    (`_walk`), one battery each, and return an iterator of each row's
    (frames, U, N) outcome arrays (serve, admitted, cost, grid energy in
    J), in that order.

    A plan that is all 0/1 walks as a bool mask, converted once; any other
    is checked block by block as a policy's action is, so its error names
    the block and frame where its first bad entry falls, in walk order.
    The walk runs when `outcomes` is called, so the first block where any
    row fails raises then, with the error that row's lone walk raises.
    Each row is settled (`_settle`) only when it is read, so a caller that
    totals a row before reading the next holds one settlement at a time.
    """
    plans = [_plan_mask(plan) for plan in plans]
    serve = _walk([policy.decide_batch for policy in policies]
                  + [lambda i, battery, batch, plan=plan: plan[:, :, i] for plan in plans], batch)
    return (_settle(np.ascontiguousarray(mask.transpose(1, 2, 0)), batch) for mask in serve)


def _plan_mask(plan):
    """A plan as a bool mask when it is all 0/1, else as given."""
    plan = np.asarray(plan)
    if plan.dtype != bool:
        served = plan == 1
        if not (plan != served).any():
            return served
    return plan


def frame_totals(serve, admitted, cost, grid):
    """Per-frame (costs, grid energies, drop counts) of (frames, U, N)
    outcome arrays; the sums are row-wise math.fsum, so exact."""
    def fsum_rows(a):
        return np.array([math.fsum(row) for row in a.reshape(a.shape[0], -1).tolist()])

    return fsum_rows(cost), fsum_rows(grid), np.sum(~serve & ~admitted, axis=(1, 2))


def _block_order_totals(serve, admitted, cost, energy):
    """Per-frame (costs, grid energies, drop counts) of one user's (frames,
    1, N) outcome arrays, each summed in block order (one column += per
    block): the totals the single-user CSVs are pinned to."""
    def block_order_sum(terms):
        total = terms[:, 0, 0].copy()
        for i in range(1, terms.shape[2]):
            total += terms[:, 0, i]
        return total

    return (block_order_sum(cost), block_order_sum(energy),
            np.sum(~serve[:, 0] & ~admitted[:, 0], axis=1, dtype=np.int64))


def solve_plan(solve, batch: FrameBatch):
    """The offline plan function `solve`'s (frames, U, N) plan of `batch`,
    under the summed peak cap params.p_H_max.  The solvers model an
    uncapped battery, so B_m < N * E_m raises ModelMismatchError."""
    require_uncapped_battery(batch.params)
    [[plan]] = _solve_plans([solve], [batch])
    return plan


# Most frames one plan call takes from several points.  greedy_plan's cost
# per frame stops falling at about this many frames (fig4 and fig5-two-user
# on a 2-vCPU x86-64 host), and its working arrays grow with them.
_JOIN_FRAMES = 512


def _solve_plans(solves, batches):
    """Per batch of `batches`, all of one (tau, p_H_max) and one frame
    count, the plan of each offline plan function in `solves`, in order.

    A plan function decides each frame from that frame's arrays alone, so
    it is called once on the batches' plan inputs (skip, p_h, e_h) joined
    in order, or on a lone batch's own.  If a call raises
    ResourceLimitError, the batches are solved alone in order, each plan
    function in turn, and the first error raises: the frame it names is
    within the first batch that fails, as a batch-by-batch run names it.
    The callers refuse a capped battery (`require_uncapped_battery`).
    """
    if not solves:
        return [[] for _ in batches]
    params = batches[0].params
    inputs = [np.concatenate(parts) if len(batches) > 1 else parts[0]
              for parts in zip(*((batch.skip, batch.p_h, batch.e_h) for batch in batches))]
    try:
        plans = [np.asarray(solve(*inputs, params.tau, params.p_H_max)) for solve in solves]
    except ResourceLimitError:
        if len(batches) > 1:   # a lone batch's error is already its own
            for batch in batches:
                for solve in solves:
                    solve(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
        raise
    return [list(parts) for parts in zip(*(np.split(plan, len(batches)) for plan in plans))]


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
    Each P_avg point re-derives B_m = N * E_m, so a B_m pinned to any
    other value is refused rather than dropped.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if axis == "P_avg" and params.B_m != params.N * params.E_m:
        raise InvalidParameterError(
            f"B_m = {params.B_m!r} J differs from N * E_m = {params.N * params.E_m!r} J, "
            "and every point of the P_avg axis re-derives B_m = N * E_m; leave B_m unset")
    if axis == "d_H":
        total = params.d_H + params.d_G
        if not 0.0 < value < total:
            raise InvalidParameterError(
                f"d_H = {value} must lie strictly inside (0, {total})")
        return params.evolve(d_H=float(value), d_G=float(total - value))
    return params.evolve(**{axis: float(value)})


def metrics_row(name, axis: str, value, packets: int, seed, costs, grid, drops) -> dict:
    """The CSV row (CSV_HEADER) of per-frame arrays (costs, grid energies,
    drop counts): `name` fills the policy column, `axis` and `value` label
    the point, and `packets` per frame is users * N.

    mean_total_cost always equals w_G * grid_energy_j + w_D * packets *
    drop_ratio up to accumulation rounding; tests pin that identity.
    stderr_total_cost is 0.0 at one frame (flagged, not estimated).
    """
    frames = costs.shape[0]
    stderr = float(costs.std(ddof=1) / math.sqrt(frames)) if frames > 1 else 0.0
    grid_energy = float(grid.mean())
    return dict(zip(CSV_HEADER, (name, axis, value, float(costs.mean()), stderr, grid_energy,
                                 grid_energy * 1e3, float(drops.sum() / (frames * packets)),
                                 frames, seed)))


def point_rows(point: SystemParams, axis: str, value, policy_factories: dict,
               frames: int, seed: int, plans: dict | None = None, users: int = 1) -> list[dict]:
    """The record of every policy at one parameter point, on shared
    trajectories: the one-point case of `sweep` (`_rows`), a list of one.

    `axis` and `value` only label the rows; a point run passes "none", 0.0.
    The `users` users share the EH battery and both stations' per-block
    peak powers (`point.p_H_max`, `point.p_G_max`); with more than one the
    factories must build policies that decide every user of a block (GT,
    Threshold, GP-only), not table lookups.  `plans` maps a row name to an
    offline plan function (`greedy_plan`, `optimal_plan`); their rows
    follow the online ones, in order.
    """
    return _rows([(point, axis, value)], policy_factories, frames, seed, plans, users)


def sweep(params: SystemParams, axis: str, values, policy_factories: dict,
          frames: int, seed: int, *, plans: dict | None = None,
          users: int = 1) -> list[dict]:
    """Evaluate policies across one parameter axis with shared trajectories.

    `policy_factories` maps a display name to a callable(point, report) ->
    policy, so per-point state (retrained tables, recalibrated thresholds)
    is built where it belongs and reported in the point's `report` dict.
    Each point's record is `point_rows`' record there (`_rows`), for
    `users` users, with a row per offline plan function in `plans` last;
    the records are in value order.
    """
    points = [(apply_axis(params, axis, v), axis, v) for v in values]
    return _rows(points, policy_factories, frames, seed, plans, users)


def _rows(points, policy_factories: dict, frames: int, seed: int, plans: dict | None,
          users: int) -> list[dict]:
    """One record per (params, axis, value) point of `points`, in order:
    {"axis_value": value, "rows": its CSV rows, policy order, "report": the
    dict its factories filled in}.

    Given any plan function, every point's battery is refused
    (`require_uncapped_battery`) before anything else runs.  The points
    are then run in chunks: runs of consecutive points that share (tau,
    p_H_max), at most _JOIN_FRAMES frames or a single point each, one after
    another.  A chunk draws each point's batch once
    (`sample_trajectories`), plans all of them with one call per plan
    function (`_solve_plans`), and then per point builds its policies,
    each by factory(point, report) on a fresh report, and plays them with
    its plans in one `outcomes` walk, so the first block where any row
    fails raises that row's error.  Each row is settled, totalled and
    aggregated (`metrics_row`) before the next is read.  A chunk's batches
    live only in `run`, so they are let go before the next chunk draws: a
    sweep holds one chunk's batches and one settlement at a time.
    """
    plans = plans or {}
    if plans:
        for point, _, _ in points:
            require_uncapped_battery(point)
    names = [*policy_factories, *plans]
    # one user's online rows keep block-order sums: the single-user CSVs are pinned to them
    online = _block_order_totals if users == 1 else frame_totals
    totals = [online] * len(policy_factories) + [frame_totals] * len(plans)
    chunks = []   # runs of consecutive points of one (tau, p_H_max)
    for point in points:
        if (chunks and (len(chunks[-1]) + 1) * frames <= _JOIN_FRAMES
                and (chunks[-1][0][0].tau, chunks[-1][0][0].p_H_max)
                == (point[0].tau, point[0].p_H_max)):
            chunks[-1].append(point)
        else:
            chunks.append([point])

    def run(chunk):
        batches = [sample_trajectories(point, seed, frames, users) for point, _, _ in chunk]
        solved = _solve_plans(list(plans.values()), batches)
        for (point, axis, value), batch, point_plans in zip(chunk, batches, solved):
            report: dict = {}
            policies = [factory(point, report) for factory in policy_factories.values()]
            settled = outcomes(batch, policies, point_plans)
            yield {"axis_value": value, "report": report, "rows": [
                metrics_row(name, axis, value, users * point.N, seed, *total(*next(settled)))
                for name, total in zip(names, totals)]}

    return [record for chunk in chunks for record in run(chunk)]


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
    (the points' reports, output digests)."""
    write_json(path, {"params": params.as_dict(), "params_hash": params.content_hash(), **extras})

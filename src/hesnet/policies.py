"""Causal serving policies: greedy, calibrated threshold, table lookups.

Every policy decides one block of a batch of frames at a time through one
method, `decide_batch(block, battery, batch)`: the block index, the
(frames,) shared battery states and the `FrameBatch` whose (frames, U)
column `block` holds the block's precomputed link terms in, a (frames, U)
bool serve mask out (the walk also takes a 0/1 array of any other dtype,
which it checks block by block).  The greedy and threshold rules take any
U: they rank the users and admit them while the summed power stays within
the block's `power_limit`, set by the shared battery and the summed peak
cap of `batch.params` once per block, so one user is the single-user rule
(`serve_feasible`) exactly.  What does not depend on the battery is
computed once per batch (`FrameBatch.cached`): the greedy rule's
cheapest-first running sums, the threshold rule's score (which the
calibrator reads too) and its order, and the int16 G- and H-states the
table lookups read.  MBIA and Look-Ahead are threshold tables that
`MdpTablePolicy` plays for one user.  The threshold rule needs two
closed-form constants, the mean skip cost lambda1 and the mean feasible
battery power lambda2; they are exact for exponential fading,
and a Monte Carlo cross-check of both lives in the test suite.  Both rest
on the exponential integral E1, computed here in plain `math` by routine
E1XB of Zhang & Jin, so the package needs numpy alone at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, StalePolicyError
from .mdp import (
    PolicyTable,
    battery_level_index,
    build_grid,
    build_mdp_model,
    channel_state_index,
    monotone_backward_induction,
)
from .model import (
    FrameBatch,
    SystemParams,
    kappa,
    link_terms,
    power_limit,
    sample_trajectories,
    serve_feasible,
)
from .offline import ratio_metric
from .sim import _admit_in_order, _battery_slack, _pay

__all__ = [
    "ThresholdParams",
    "GreedyTransmit",
    "ThresholdHeuristic",
    "MdpTablePolicy",
    "exponential_integral_E1",
    "threshold_lambdas",
    "calibrate_zeta",
    "look_ahead_build",
    "look_ahead_table",
]


def _scaled_e1_tail(x: float) -> float:
    """e^x E1(x) for x > 1: E1XB's continued fraction, summed bottom-up."""
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return 1.0 / (x + t0)


def _e1(x: float) -> float:
    """E1(x) at one x > 0 by routine E1XB (Zhang & Jin, Computation of
    Special Functions, 1996): a power series up to x = 1, the continued
    fraction above it."""
    if x > 1.0:
        return math.exp(-x) * _scaled_e1_tail(x)
    total = term = 1.0
    for k in range(1, 26):
        term = -term * k * x / (k + 1.0) ** 2
        total += term
        if abs(term) <= abs(total) * 1e-15:
            break
    return -0.5772156649015328 - math.log(x) + x * total   # Euler's gamma


def exponential_integral_E1(x):
    """E1(x) = integral of exp(-t)/t from x to infinity, for x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidParameterError(f"E1 is used on x > 0 only, got {x!r}")
    out = np.vectorize(_e1, otypes=[float])(arr)
    return float(out) if out.ndim == 0 else out


def threshold_lambdas(params: SystemParams):
    """Closed-form constants of the threshold rule.

    lambda1 is the expected skip cost of a block: the drop price times the
    probability the grid BS's inversion power exceeds kappa, plus the
    expected grid bill below it.  lambda2 is the expected inversion power
    of the harvesting link given it fits under the peak cap.  Both
    expectations integrate the exponential fading law of `params`:
    lambda1 through E1(x_g), lambda2 through e^x E1(x) at x_h, which past
    x_h = 1 is E1XB's continued fraction taken without its e^-x factor.
    At w_D = 0 kappa is 0 and lambda1 would be 0, so the rule is refused.
    """
    if params.w_D == 0:
        raise InvalidParameterError(
            "the Threshold rule needs w_D > 0: at w_D = 0 every skipped block is free "
            "(kappa = 0) and its expected skip cost lambda1 is 0")
    # inversion powers at the mean gains; dividing by mu folds the fading
    # mean into the 1/gamma integrals below
    a_g, a_h, _, _ = (float(term) for term in link_terms(params.mu_G, params.mu_H, params))
    x_g = a_g / kappa(params)
    lambda1 = (params.w_D * -math.expm1(-x_g)
               + params.w_G * params.tau * a_g * exponential_integral_E1(x_g))
    x_h = a_h / params.p_H_max
    # past x = 1 e^x E1(x) is the continued fraction itself, so a large x
    # neither overflows exp(x) nor loses digits to a subnormal E1(x)
    if x_h > 1.0:
        lambda2 = a_h * _scaled_e1_tail(x_h)
    else:
        lambda2 = a_h * exponential_integral_E1(x_h) * math.exp(x_h)
    return lambda1, lambda2


@dataclass(frozen=True)
class ThresholdParams:
    """Calibrated threshold rule constants."""

    zeta: float     # unitless scale, tuned by calibrate_zeta
    lambda1: float  # expected skip cost per block
    lambda2: float  # W, expected feasible battery power

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise InvalidParameterError(f"zeta must be finite and >= 0, got {self.zeta!r}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {v!r}")


def _threshold_level(zeta, lambda1, lambda2, params: SystemParams):
    """Right-hand side zeta * P_avg * tau * ratio_metric(lambda1, lambda2) of
    the threshold rule; `zeta` may be an array of candidates."""
    return zeta * params.P_avg * params.tau * float(ratio_metric(lambda1, lambda2))


def _threshold_serve(block, battery, limit, p_h, score, level, params: SystemParams):
    """The threshold rule of `ThresholdHeuristic`, user by user.

    Infeasible states, where p_h exceeds `limit` (the block's
    `power_limit`), never serve; the last block serves whenever feasible;
    otherwise serve when battery * score clears `level`, where score is
    ratio_metric(skip cost, p_h) and level comes from _threshold_level.  A
    (frames, users) block broadcasts against a (frames, 1) shared battery
    and limit.  The calibrator applies the same rule to intervals of
    candidates through `_threshold_cut`.
    """
    feas = p_h <= limit
    if block >= params.N - 1:
        return feas
    with np.errstate(invalid="ignore"):
        return feas & (battery * score >= level)


# ---------------------------------------------------------------------------
# greedy and threshold rules
# ---------------------------------------------------------------------------

class GreedyTransmit:
    """Myopic baseline: serve from the battery whenever the block's
    inversion power fits both the stored energy and the peak cap; users
    sharing the battery are admitted cheapest inversion power first (ties:
    lower user), read off running sums computed once per batch
    (`_cheapest_first_totals`)."""

    def decide_batch(self, block, battery, batch: FrameBatch):
        need = _cheapest_first_totals(batch)[:, :, block]
        return serve_feasible(need, battery[:, None], batch.params)


def _cheapest_first_totals(batch: FrameBatch) -> np.ndarray:
    """(frames, U, N) summed power of each user and every user cheaper than
    it (ties: lower user), once per batch; one user's own p_h at U = 1.

    With every user eligible, `_admit_in_order` in cheapest-first order
    admits a prefix: once a user does not fit, no dearer one does, and the
    admitted ones have used their running sum.  That sum is this one, added
    in the same order, so a user is admitted exactly where its total fits.
    """
    if batch.users == 1:
        return batch.p_h

    def totals():
        order = np.argsort(batch.p_h, axis=1, kind="stable")
        running = np.cumsum(np.take_along_axis(batch.p_h, order, axis=1), axis=1)
        return np.take_along_axis(running, np.argsort(order, axis=1), axis=1)

    return batch.cached("cheapest_first_totals", totals)


class ThresholdHeuristic:
    """Threshold rule with fixed constants.

    Infeasible states never serve; the last block serves whenever feasible;
    otherwise serve when battery * ratio_metric(skip cost, battery power)
    clears zeta * P_avg * tau * ratio_metric(lambda1, lambda2).  With
    zeta = 0 one user's rule degenerates to greedy transmission for every
    state.  Users sharing the battery each apply the rule to the whole battery;
    those that pass are admitted in decreasing ratio_metric order (ties:
    lower user).  The level, the score and that order are computed once
    per batch.
    """

    def __init__(self, tp: ThresholdParams):
        self.tp = tp

    def decide_batch(self, block, battery, batch: FrameBatch):
        params, tp = batch.params, self.tp
        p_h = batch.p_h[:, :, block]
        level = _threshold_level(tp.zeta, tp.lambda1, tp.lambda2, params)
        score = _threshold_score(batch)
        order = batch.cached("threshold_order", lambda: np.argsort(-score, axis=1, kind="stable"))
        limit = power_limit(battery, params)
        eligible = _threshold_serve(block, battery[:, None], limit[:, None], p_h,
                                    score[..., block], level, params)
        return _admit_in_order(order[..., block], eligible, p_h, limit)


def _threshold_score(batch: FrameBatch):
    """(frames, U, N) threshold score ratio_metric(skip cost, p_h) of every
    user and block, once per batch: the policy and the calibrator read it."""
    return batch.cached("threshold_score", lambda: ratio_metric(batch.skip, batch.p_h))


# ---------------------------------------------------------------------------
# table-lookup policies
# ---------------------------------------------------------------------------

class MdpTablePolicy:
    """Plays an N-block threshold table, MBIA's or `look_ahead_table`'s.

    A lookup at the quantized state, bridged back to reality: the block
    serves iff its G-state is at most the threshold of its battery bin and
    H-state, both channels' states read once per batch
    (`_channel_states`).  That action assumes the bin's mid-value
    battery, and when the true battery (or the peak cap) cannot cover this
    block's spend, it demotes to 0, the only divergence from the table.  A
    table trained on different parameters raises a stale-policy error, a
    batch of more than one user InvalidParameterError.
    """

    def __init__(self, table: PolicyTable):
        self.table = table

    def decide_batch(self, block, battery, batch: FrameBatch):
        if batch.users != 1:
            raise InvalidParameterError(f"a policy table plays one user, got {batch.users}")
        params_hash = batch.params.content_hash()
        if self.table.params_hash != params_hash:
            raise StalePolicyError(
                "policy table was trained on different parameters; retrain it "
                f"(table hash {self.table.params_hash[:12]}..., params hash "
                f"{params_hash[:12]}...)")
        if not 0 <= block < self.table.N:
            raise InvalidParameterError(f"block {block} outside the table horizon {self.table.N}")
        grid = self.table.grid
        # the thresholds of the block's (battery level, H-state) cells, read
        # off the flat (M, K) slice; a G-state at or below its cell's serves
        cell = battery_level_index(battery, grid) * grid.K
        cell += _channel_states(batch, "gamma_h", grid.bounds_H)[block]
        top = self.table.top[block].take(cell)
        serve = _channel_states(batch, "gamma_g", grid.bounds_G)[block] <= top
        serve &= serve_feasible(batch.p_h[:, 0, block], battery, batch.params)
        return serve[:, None]


def _channel_states(batch: FrameBatch, gains: str, bounds: np.ndarray) -> np.ndarray:
    """(N, frames) int16 channel state of every block of one-user `batch`
    on the link `gains` names ("gamma_g" or "gamma_h"): one search per
    batch, link and set of bounds, shared by every table policy that plays
    the batch."""
    return batch.cached((gains, bounds.tobytes()), lambda: channel_state_index(
        getattr(batch, gains)[:, 0].T, bounds).astype(np.int16, order="C"))


def look_ahead_table(table: PolicyTable, N: int) -> PolicyTable:
    """Look-Ahead's N-block table from a 2-block solve or an MBIA table on
    one model (a 2-block recursion is the N-block one's last two steps, so
    both give the same bytes): the two-blocks-left slice, "serve now or
    bank for one more block", at every interior block, and K - 1 on the
    last, which serves every finite gain where `serve_feasible` holds:
    GreedyTransmit's one-user rule."""
    top = np.repeat(table.top[-2][None], N, axis=0)
    top[-1] = table.grid.K - 1
    return replace(table, top=top)


def look_ahead_build(params: SystemParams, *, M: int = 100, K: int = 25) -> PolicyTable:
    """Look-Ahead's table at `params` from a 2-block solve on the full grid."""
    model = build_mdp_model(params, build_grid(params, M=M, K=K))
    return look_ahead_table(monotone_backward_induction(model, 2)[0], params.N)


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

# Candidate-frame cells one calibration chunk covers; bounds its segments
# and its cost matrix at a few tens of MB whatever the budget.
_CALIBRATION_ROWS = 1 << 20


def _threshold_cut(block, battery, p_h, score, levels, lo, hi, params: SystemParams):
    """`_threshold_serve` over segments of candidates.

    Segment j holds the candidates [lo[j], hi[j]) of the nondecreasing
    `levels` at one battery state, p_h and score, so the candidates that
    serve are a prefix of the segment: [lo[j], cut[j]).  Returns cut.

    `_threshold_serve` itself decides whole segments: one that serves at
    its top level levels[hi - 1] serves whole, one that does not serve at
    its bottom level levels[lo] serves none.  A segment is never empty, so
    cut = lo + (hi - lo) * top is hi where the top serves and exactly lo
    elsewhere, with no select.  Only the segments that serve at the bottom
    and not at the top straddle a level; they are searched, for the first
    level above battery * score.
    """
    limit = power_limit(battery, params)
    top = _threshold_serve(block, battery, limit, p_h, score, levels.take(hi - 1), params)
    bottom = _threshold_serve(block, battery, limit, p_h, score, levels.take(lo), params)
    straddle = (bottom & ~top).nonzero()[0]
    cut = lo + (hi - lo) * top
    cut[straddle] = levels.searchsorted(battery[straddle] * score[straddle], side="right")
    return cut


def _split_block(block, segments, e, p_h, skip, score, slack, levels, params: SystemParams):
    """One block of the calibration walk.

    `segments` is a tuple of arrays (frame, lo, hi, battery, cost), in any
    order: the candidates [lo, hi) of `levels` that share a battery and a
    skip-cost sum in `frame`.  e, p_h, skip, score and the battery slack
    are the block's (frames,) columns.  Each segment is credited the
    arrival (clamped at B_m), cut by `_threshold_cut`, and split into its
    served part, which pays p_h * tau through the walk's own check
    (`sim._pay`), and its skipped part, which adds the skip cost; empty
    parts are dropped.  Returns the children: each segment's served part,
    or its skipped part when none serves, then the skipped part of every
    segment that split.

    The kept child is formed by arithmetic on the served mask, not by
    selects, and each output is one concatenation of the kept rows and a
    gather of the split ones.  That is exact under two preconditions: a
    skip cost is finite and >= 0, so cost + skip * 0.0 is cost (a cost is
    a sum from +0.0, never -0.0); and p_h is > 0 or +inf, never NaN, so
    fmax(p_h * served, 0) is p_h where served and 0 where not, the NaN of
    a dead link's inf * 0 included.
    """
    frame, lo, hi, battery, cost = segments
    battery = np.minimum(battery + e.take(frame), params.B_m)
    p = p_h.take(frame)
    cut = _threshold_cut(block, battery, p, score.take(frame), levels, lo, hi, params)
    served = cut > lo
    with np.errstate(invalid="ignore"):
        power = np.fmax(p * served, 0.0)
    paid = _pay(block, frame, battery, power[:, None], slack.take(frame), params)
    skip = skip.take(frame)
    split = (served & (cut < hi)).nonzero()[0]
    children = (np.concatenate((frame, frame.take(split))),
                np.concatenate((lo, cut.take(split))),
                np.concatenate((hi, hi.take(split))),
                np.concatenate((paid, battery.take(split))),
                np.concatenate((cost + skip * ~served, cost.take(split) + skip.take(split))))
    children[2][split] = cut.take(split)   # a split segment's served part ends at its cut
    return children


def _calibration_costs(batch: FrameBatch, score, levels):
    """(candidates, frames) skip-cost sums of the threshold rule at the
    nondecreasing `levels` over a one-user `batch`, walked as segments of
    candidates with one battery history (`_split_block`), then sorted
    once and expanded at the end.

    The sort key is frame * n + lo, one integer per segment: a frame's
    segments partition its n candidates, so no two share a key, and every
    correct sort, stable or not, gives the one (frame, lo) order.
    """
    frames, n = batch.frames, levels.size
    segments = (np.arange(frames), np.zeros(frames, dtype=np.intp),
                np.full(frames, n, dtype=np.intp), np.zeros(frames), np.zeros(frames))
    arrived = np.zeros(frames)
    for i in range(batch.params.N):
        arrived = arrived + batch.e_h[:, i]
        segments = _split_block(i, segments, batch.e_h[:, i], batch.p_h[:, 0, i],
                                batch.skip[:, 0, i], score[:, i], _battery_slack(arrived),
                                levels, batch.params)
    frame, lo, hi, _, cost = segments
    order = np.argsort(frame * n + lo)
    return np.repeat(cost[order], (hi - lo)[order]).reshape(frames, n).T.copy()


def calibrate_zeta(candidates, params: SystemParams, budget: int, seed: int):
    """The calibrated threshold rule at `params`: the zeta minimizing mean
    frame cost over shared trajectories, with its lambdas.

    Returns (ThresholdParams(zeta*, lambda1, lambda2), costs), where
    costs[j] is the mean frame cost of candidates[j].  Every candidate is
    scored on the same `budget` frames (keyed by `seed`), so the argmin is
    deterministic; ties resolve to the first candidate in the given order.
    The lambdas (`threshold_lambdas`) are computed, and a degenerate pair
    refused, before any frame is walked.

    The threshold level is zeta times a positive constant, so candidates
    sorted (stably) by level decide alike while they share a battery
    history: at each block the ones that serve are a prefix of every such
    run.  Each frame starts as one segment, the whole sorted grid, and a
    block splits a segment at most once, so the walk touches a few
    segments per frame, not every candidate (`_calibration_costs`).
    Chunks of at most _CALIBRATION_ROWS candidate-frame cells bound
    memory.  The score is the policy's own (`_threshold_score`).  Each cost
    equals, bit for bit, the mean of the block-order frame costs of that
    candidate's lone walk (`sim.outcomes`).
    """
    cand = np.asarray(list(candidates), dtype=float)
    if cand.size == 0 or np.any(~np.isfinite(cand)) or np.any(cand < 0):
        raise InvalidParameterError("candidates must be finite, nonnegative, and nonempty")
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1 frame, got {budget!r}")
    tp = ThresholdParams(float(cand[0]), *threshold_lambdas(params))
    batch = sample_trajectories(params, seed, budget)
    score = _threshold_score(batch)[:, 0]
    level = _threshold_level(cand, tp.lambda1, tp.lambda2, params)
    order = np.argsort(level, kind="stable")
    chunk = max(1, _CALIBRATION_ROWS // budget)
    costs = np.empty(cand.size)
    for lo in range(0, cand.size, chunk):
        rows = order[lo:lo + chunk]
        # each row is one contiguous reduction, the 1-D mean a lone candidate gets
        costs[rows] = _calibration_costs(batch, score, level[rows]).mean(axis=1)
    return replace(tp, zeta=float(cand[int(np.argmin(costs))])), costs

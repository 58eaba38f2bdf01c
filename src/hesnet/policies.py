"""Causal serving policies: greedy, calibrated threshold, table lookups.

Everything here decides one block of a batch of frames at a time from the
block index, the battery states and the block's precomputed link terms: a
column of a `FrameBatch`, or each user's inversion powers and skip costs
for the joint rules.  The threshold rule needs two closed-form constants,
the mean skip cost lambda1 and the mean feasible battery power lambda2;
they are exact for exponential fading, and a Monte Carlo cross-check of
both lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParameterError, StalePolicyError
from .mdp import (
    PolicyTable,
    battery_level_index,
    build_grid,
    build_mdp_model,
    channel_state_index,
    monotone_backward_induction,
)
from .model import FrameBatch, SystemParams, kappa, link_terms, sample_trajectories, serve_feasible
from .offline import ratio_metric
from .sim import _walk

__all__ = [
    "ThresholdParams",
    "GreedyTransmit",
    "ThresholdHeuristic",
    "LookAhead",
    "MdpTablePolicy",
    "MultiuserGreedyTransmit",
    "MultiuserThreshold",
    "exponential_integral_E1",
    "threshold_lambdas",
    "calibrate_zeta",
    "look_ahead_build",
    "ratio_metric",
]


def exponential_integral_E1(x):
    """E1(x) = integral of exp(-t)/t from x to infinity, for x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidParameterError(f"E1 is used on x > 0 only, got {x!r}")
    out = special.exp1(arr)
    return float(out) if out.ndim == 0 else out


def threshold_lambdas(params: SystemParams):
    """Closed-form constants of the threshold rule.

    lambda1 is the expected skip cost of a block: the drop price times the
    probability the grid BS's inversion power exceeds kappa, plus the
    expected grid bill below it.  lambda2 is the expected inversion power
    of the harvesting link given it fits under the peak cap.  Both
    expectations integrate the exponential fading law of `params`.  At
    w_D = 0 kappa is 0 and lambda1 would be 0, so the rule is refused.
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
    # e^x E1(x) = U(1, 1, x); past x = 700 exp nears overflow and E1 subnormals
    lambda2 = (a_h * exponential_integral_E1(x_h) * math.exp(x_h) if x_h <= 700.0
               else a_h * float(special.hyperu(1.0, 1.0, x_h)))
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


def _threshold_level(zeta, lambda1, lambda2, params: SystemParams, metric):
    """Right-hand side zeta * P_avg * tau * metric(lambda1, lambda2) of the
    threshold rule; `zeta` may be a column of candidates."""
    return zeta * params.P_avg * params.tau * float(metric(lambda1, lambda2))


def _threshold_serve(block, battery, p_h, score, level, params: SystemParams, p_max=None):
    """The threshold rule; every threshold policy and the calibrator use it.

    Infeasible states never serve; the last block serves whenever feasible;
    otherwise serve when battery * score clears `level`, where score is
    metric(skip cost, p_h) and level comes from _threshold_level.  Operands
    broadcast: a (frames,) block, a (frames, users) block against a
    (frames, 1) shared battery, or a (candidates, frames) block of battery
    states against per-frame p_h and score.
    """
    feas = serve_feasible(p_h, battery, params, p_max)
    if block >= params.N - 1:
        return feas
    with np.errstate(invalid="ignore"):
        return feas & (battery * score >= level)


# ---------------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------------
#
# A single-user policy decides only through decide_batch(block, battery,
# batch): one block of (frames,) battery states and the FrameBatch whose
# column `block` holds their link terms in, 0/1 out.

class GreedyTransmit:
    """Myopic baseline: serve from the battery whenever one block of
    inversion power fits both the stored energy and the peak cap;
    boundaries serve."""

    def __init__(self, name: str = "GT"):
        self.name = name

    def decide_batch(self, block, battery, batch: FrameBatch):
        return serve_feasible(batch.p_h[:, block], battery, batch.params).astype(np.int8)


class ThresholdHeuristic:
    """Threshold rule with fixed constants.

    Infeasible states never serve; the last block serves whenever feasible;
    otherwise serve when battery * metric(skip cost, battery power) clears
    zeta * P_avg * tau * metric(lambda1, lambda2).  With zeta = 0 the rule
    degenerates to greedy transmission for every state.
    """

    def __init__(self, tp: ThresholdParams, metric=None, name: str = "TH"):
        self.tp = tp
        self.metric = metric or ratio_metric
        self.name = name

    def decide_batch(self, block, battery, batch: FrameBatch):
        params = batch.params
        p_h = batch.p_h[:, block]
        with np.errstate(invalid="ignore"):
            score = np.asarray(self.metric(batch.skip[:, block], p_h), dtype=float)
        level = _threshold_level(self.tp.zeta, self.tp.lambda1, self.tp.lambda2, params,
                                 self.metric)
        return _threshold_serve(block, battery, p_h, score, level, params).astype(np.int8)


# ---------------------------------------------------------------------------
# table-lookup policies
# ---------------------------------------------------------------------------

def _check_hash_once(policy, params: SystemParams):
    """Reject a table trained on different parameters.

    SystemParams is frozen, so a (table, params) pair that matched once
    matches for good: hash once per run instead of once per block.  The
    pair is held, not its ids, so a freed object's id cannot be reused.
    """
    ok = policy._hash_ok
    if ok is None or ok[0] is not policy.table or ok[1] is not params:
        params_hash = params.content_hash()
        if policy.table.params_hash != params_hash:
            raise StalePolicyError(
                "policy table was trained on different parameters; retrain it "
                f"(table hash {policy.table.params_hash[:12]}..., params hash "
                f"{params_hash[:12]}...)")
        policy._hash_ok = (policy.table, params)


class MdpTablePolicy:
    """Plays a trained full-horizon policy table.

    A lookup at the quantized state, bridged back to reality: the tabled
    action assumes the bin's mid-value battery, and when the true battery
    (or the peak cap) cannot cover this block's spend, the action demotes
    to 0.  That is the only divergence from the table.  A table trained on
    different parameters raises a stale-policy error.
    """

    def __init__(self, table: PolicyTable, name: str = "MBIA"):
        self.table = table
        self.name = name
        self._hash_ok = None

    def decide_batch(self, block, battery, batch: FrameBatch):
        return self._play(block, block, battery, batch)

    def _play(self, t, block, battery, batch: FrameBatch):
        """Table slice t at the states of block `block`, demoted where the
        true battery or the peak cap cannot pay."""
        _check_hash_once(self, batch.params)
        if not 0 <= t < self.table.N:
            raise InvalidParameterError(f"block {t} outside the table horizon {self.table.N}")
        grid = self.table.grid
        act = self.table.actions[t, battery_level_index(battery, grid),
                                 channel_state_index(batch.gamma_g[:, block], grid.bounds_G),
                                 channel_state_index(batch.gamma_h[:, block], grid.bounds_H)]
        demote = ~serve_feasible(batch.p_h[:, block], battery, batch.params)
        return np.where(demote, 0, act).astype(np.int8)


def look_ahead_build(params: SystemParams, grid=None, *, M: int = 100, K: int = 25) -> PolicyTable:
    """Two-block policy table on the real battery range.

    Solving a 2-horizon recursion on the full grid yields the rule "serve
    now or bank for one more block"; its first-block slice is the
    look-ahead decision for every non-terminal block.
    """
    grid = grid if grid is not None else build_grid(params, M=M, K=K)
    return monotone_backward_induction(build_mdp_model(params, grid), 2)[0]


class LookAhead(MdpTablePolicy):
    """Two-block table: its first-block slice for interior blocks, greedy
    on the last one."""

    def __init__(self, table: PolicyTable, name: str = "Look-Ahead"):
        if table.N != 2:
            raise InvalidParameterError("look-ahead needs a 2-block table")
        super().__init__(table, name)

    def decide_batch(self, block, battery, batch: FrameBatch):
        if block >= batch.params.N - 1:
            return serve_feasible(batch.p_h[:, block], battery, batch.params).astype(np.int8)
        return self._play(0, block, battery, batch)


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

# Rows (candidates x frames) one calibration chunk walks at a time; caps
# its working arrays at a few tens of MB whatever the budget.
_CALIBRATION_ROWS = 1 << 20


def calibrate_zeta(candidates, params: SystemParams, budget: int, seed: int, *,
                   metric=None, return_costs: bool = False):
    """Pick the zeta minimizing mean frame cost over shared trajectories.

    Every candidate is scored on the same `budget` frames (keyed by `seed`),
    so the argmin is deterministic; ties resolve to the first candidate in
    the given order.

    All candidates walk one FrameBatch in lockstep through `sim._walk`, the
    walk of every evaluation, as one user with the zeta level as a
    (candidates, 1) column and a (candidates, frames) battery, summing skip
    costs only; chunks of at most _CALIBRATION_ROWS candidate-frame rows
    bound memory.  Each cost
    equals, bit for bit, the mean of run_batch's frame costs for that
    candidate alone.  The score metric(skip cost, p_H) is computed once on
    (frames, N) arrays, so `metric` must act elementwise.
    """
    cand = np.asarray(list(candidates), dtype=float)
    if cand.size == 0 or np.any(~np.isfinite(cand)) or np.any(cand < 0):
        raise InvalidParameterError("candidates must be finite, nonnegative, and nonempty")
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1 frame, got {budget!r}")
    metric = metric or ratio_metric
    lambda1, lambda2 = threshold_lambdas(params)
    ThresholdParams(float(cand[0]), lambda1, lambda2)  # rejects degenerate lambdas
    batch = FrameBatch(params, *sample_trajectories(params, seed, budget))
    with np.errstate(invalid="ignore"):
        score = np.asarray(metric(batch.skip, batch.p_h), dtype=float)
    chunk = max(1, _CALIBRATION_ROWS // budget)
    costs = np.empty(cand.size)
    for lo in range(0, cand.size, chunk):
        level = _threshold_level(cand[lo:lo + chunk, None], lambda1, lambda2, params, metric)

        def decide(i, battery, level=level):
            return _threshold_serve(i, battery, batch.p_h[:, i], score[:, i], level,
                                    params)[..., None]

        frame_costs = np.zeros((level.shape[0], budget))
        steps = _walk(decide, batch.p_h[:, None], batch.e_h, params, np.zeros_like(frame_costs),
                      params.p_H_max)
        for i, serve in enumerate(steps):
            frame_costs += np.where(serve[..., 0], 0.0, batch.skip[:, i])
        # row by row, so each mean is the 1-D reduction a lone candidate gets
        costs[lo:lo + level.shape[0]] = [row.mean() for row in frame_costs]
    best = float(cand[int(np.argmin(costs))])
    return (best, costs) if return_costs else best


# ---------------------------------------------------------------------------
# multi-user joint rules
# ---------------------------------------------------------------------------
#
# A joint policy decides only through decide_joint(block, battery, p_h, skip,
# params_list): one block of a batch of frames, the (frames,) shared battery
# states and the (frames, users) harvesting inversion powers and skip costs
# in, a (frames, users) 0/1 array out.  Users share N and tau
# (multiuser_frame_metrics checks).

def _admit(order, eligible, p_h, battery, p_H_max_sum: float, tau: float):
    """Serve eligible users in `order`, a (frames, users) permutation per
    row, while the summed peak power and the shared battery hold out."""
    rows = np.arange(p_h.shape[0])
    acts = np.zeros(p_h.shape, dtype=np.int8)
    power_used = np.zeros(p_h.shape[0])
    energy_used = np.zeros(p_h.shape[0])
    for u in order.T:
        p = p_h[rows, u]
        spend = p * tau
        ok = (eligible[rows, u] & (power_used + p <= p_H_max_sum)
              & (energy_used + spend <= battery))
        power_used = np.where(ok, power_used + p, power_used)
        energy_used = np.where(ok, energy_used + spend, energy_used)
        acts[rows, u] = ok
    return acts


class MultiuserThreshold:
    """Joint threshold rule over users sharing the battery and the peak sum.

    Each user first applies the single-user rule with the shared battery
    and the summed peak cap as its feasibility limits; tentative serves are
    then admitted in decreasing metric order (ties: lower user index) while
    the battery and the summed peak power hold out.
    """

    def __init__(self, tps, p_H_max_sum: float, metric=None, name: str = "MU-TH"):
        self.tps = list(tps)
        self.p_H_max_sum = float(p_H_max_sum)
        self.metric = metric or ratio_metric
        self.name = name

    def decide_joint(self, block, battery, p_h, skip, params_list):
        users = len(params_list)
        if not (len(self.tps) == np.shape(p_h)[-1] == np.shape(skip)[-1] == users):
            raise InvalidParameterError("tps, link terms and params_list must align")
        base = params_list[0]
        level = np.array([_threshold_level(tp.zeta, tp.lambda1, tp.lambda2, p, self.metric)
                          for tp, p in zip(self.tps, params_list)])
        with np.errstate(invalid="ignore"):
            score = np.asarray(self.metric(skip, p_h), dtype=float)
        tentative = _threshold_serve(block, battery[:, None], p_h, score, level, base,
                                     self.p_H_max_sum)
        return _admit(np.argsort(-score, axis=1, kind="stable"), tentative, p_h, battery,
                      self.p_H_max_sum, base.tau)


class MultiuserGreedyTransmit:
    """Myopic joint baseline: admit users cheapest battery power first."""

    def __init__(self, p_H_max_sum: float, name: str = "MU-GT"):
        self.p_H_max_sum = float(p_H_max_sum)
        self.name = name

    def decide_joint(self, block, battery, p_h, skip, params_list):
        return _admit(np.argsort(p_h, axis=1, kind="stable"), np.ones(p_h.shape, dtype=bool),
                      p_h, battery, self.p_H_max_sum, params_list[0].tau)

"""Finite-horizon MDP machinery for the causal (online) setting.

The online problem is a per-block choice: spend battery on this packet or
leave it to the grid BS / the drop rule.  The state is (battery level,
G-channel state, H-channel state) on a finite grid: battery quantized into M
equal bins represented by mid-values, each channel into K equi-probable
states represented by conditional means.  The battery kernels are built in
closed form and stored as a band: a residual plus a Uniform[0, E_m]
arrival reaches at most ceil(E_m M / B_m) + 1 consecutive levels, so each
(action, level) row keeps a start level and B = min(M, ceil(E_m M / B_m)
+ 2) probabilities, and no dense (K+1, M, M) kernel is built.  A block's
expectation is one gather of the next u_hat at the band, one product and
one sum over the band in order, so no BLAS call enters a value and the
values do not depend on which BLAS kernel the machine runs.

One solver, the paper's monotone backward induction (MBIA), solves the
resulting Bellman recursion exactly, one block at a time from the last.
The recursion needs only the per-level sums u_hat of the next block, the
sum of the cheaper action value over both channel states, so a block's
serve values q1 live in one (M, K) buffer and nothing per state is kept.
A level's skip values q0 are the skip costs plus one term, so they are
sorted in the skip costs' order and kept as one sorted row per level, and
each H-column serves the G-states of its highest skip values: one search
per block counts them, with every count checked exactly against the
sorted row, and u_hat and the thresholds both follow from the counts at
O(MK log K) per block, so no (M, K, K) array is built.  Each block is then
checked to be the threshold staircase the paper's two-cursor walk relies
on, and the staircase is the policy: `PolicyTable.top` holds the highest
served G-state per (block, battery level, H-state), the solve's own counts
less one, so a lookup searches one channel.  The check tests the prefix
and ordering conditions only where q0 or q1 rise, the only places they can
break (q0 only where the skip costs rise), and the walk's at most 2K-1
evaluations per (block, level) follow from the thresholds in closed form.
Policy artifacts hold the grid and the thresholds alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidStateError,
    StructureViolationError,
)
from .model import SystemParams, link_terms, serve_feasible

__all__ = [
    "QuantizationGrid",
    "MdpModel",
    "PolicyTable",
    "equiprobable_channel_states",
    "build_grid",
    "quantize_energy",
    "battery_level_index",
    "channel_state_index",
    "build_mdp_model",
    "monotone_backward_induction",
    "predicted_cost",
    "save_policy_artifact",
    "load_policy_artifact",
]


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def equiprobable_channel_states(K: int, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Split exponential fading of mean `mean` into K states of probability
    exactly 1/K.

    Returns (levels, boundaries): boundaries run 0..inf through the
    quantiles -mean * log1p(-k/K), and levels[k] is the conditional mean
    on [boundaries[k], boundaries[k+1]), lo + mean on the unbounded tail.
    """
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise InvalidParameterError(f"K must be a positive integer, got {K!r}")
    if not (math.isfinite(mean) and mean > 0):
        raise InvalidParameterError(f"fading mean must be > 0, got {mean!r}")
    mean = float(mean)
    # -(k / K), not -k / K: the latter makes the first bound -0.0
    bounds = np.array([-mean * math.log1p(-(k / K)) for k in range(K)] + [math.inf])
    levels = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if math.isinf(hi):
            levels.append(lo + mean)   # memoryless tail
        else:
            w_lo, w_hi = math.exp(-lo / mean), math.exp(-hi / mean)
            levels.append(mean + (lo * w_lo - hi * w_hi) / (w_lo - w_hi))
    return np.array(levels), bounds


@dataclass(frozen=True)
class QuantizationGrid:
    """Battery and channel discretization shared by training and lookup."""

    battery_levels: np.ndarray  # (M,) mid-values (2m-1) B_m / (2M), joules
    bin_edges: np.ndarray       # (M+1,) bin boundaries 0 .. B_m
    levels_G: np.ndarray        # (K,) representative gains, grid link
    bounds_G: np.ndarray        # (K+1,) quantile boundaries, 0 .. inf
    levels_H: np.ndarray        # (K,) representative gains, harvesting link
    bounds_H: np.ndarray        # (K+1,)

    def __post_init__(self):
        for name in ("battery_levels", "bin_edges", "levels_G", "bounds_G", "levels_H", "bounds_H"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.bin_edges.shape != (self.M + 1,):
            raise InvalidParameterError("bin_edges must have one more entry than battery_levels")
        for name in ("bounds_G", "bounds_H"):
            if getattr(self, name).shape != (self.K + 1,):
                raise InvalidParameterError(f"{name} must have K+1 entries")
        for name in ("battery_levels", "bin_edges", "levels_G", "bounds_G", "levels_H", "bounds_H"):
            arr = getattr(self, name)
            if np.any(np.diff(arr) <= 0):
                raise InvalidParameterError(f"{name} must be strictly increasing")
        if self.levels_G.shape != self.levels_H.shape:
            raise InvalidParameterError("both channels must use the same K")
        if not (self.battery_levels[0] > 0 and self.battery_levels[-1] < self.B_m):
            raise InvalidParameterError("battery mid-values must lie strictly inside (0, B_m)")

    @property
    def M(self) -> int:
        return self.battery_levels.shape[0]

    @property
    def K(self) -> int:
        return self.levels_G.shape[0]

    @property
    def B_m(self) -> float:
        return float(self.bin_edges[-1])


def build_grid(params: SystemParams, M: int = 100, K: int = 25) -> QuantizationGrid:
    """Default grid: M equal battery bins over [0, B_m], K equi-probable
    channel states per link of the exponential fading in `params`."""
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise InvalidParameterError(f"M must be a positive integer, got {M!r}")
    levels_g, bounds_g = equiprobable_channel_states(K, params.mu_G)
    levels_h, bounds_h = equiprobable_channel_states(K, params.mu_H)
    b_m = params.B_m
    mids = (2.0 * np.arange(1, M + 1) - 1.0) * b_m / (2.0 * M)
    edges = np.linspace(0.0, b_m, M + 1)
    return QuantizationGrid(mids, edges, levels_g, bounds_g, levels_h, bounds_h)


def battery_level_index(epsilon, grid: QuantizationGrid):
    """0-based battery bin of a (possibly array) energy value; top bin clamps."""
    eps = np.asarray(epsilon, dtype=float)
    if (eps < 0).any():
        raise InvalidStateError(f"battery energy must be >= 0, got {epsilon!r}")
    m = grid.M
    # the cast truncates, which is the floor of a nonnegative bin position
    idx = np.minimum((m * np.minimum(eps, grid.B_m) / grid.B_m).astype(np.int64), m - 1)
    return int(idx) if idx.ndim == 0 else idx


def quantize_energy(epsilon, grid: QuantizationGrid):
    """Mid-value of the battery bin containing min(epsilon, B_m)."""
    out = grid.battery_levels[battery_level_index(epsilon, grid)]
    return float(out) if np.ndim(out) == 0 else out


def channel_state_index(gamma, bounds: np.ndarray):
    """0-based channel state of a gain: interval [bounds[k], bounds[k+1]).

    The state is the count of interior bounds at or below the gain: the
    outer two bounds never move it.  The bounds of `build_grid` are the
    quantiles -mean * log1p(-k/K) of exponential fading, so the state is
    first read in closed form, floor(K * -expm1(-g / mean)) with the mean
    taken from bounds[1], and moved one step either way against its two
    bounds; only the gains that still fall outside their state's interval
    are searched.  So the result equals the search for any increasing
    bounds.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise InvalidStateError(f"channel gain must be >= 0, got {gamma!r}")
    inner = bounds[1:-1]
    k = inner.size + 1
    if g.ndim == 0 or k < 2 or not 0.0 < inner[0] < math.inf:
        idx = np.searchsorted(inner, g, side="right")
        return int(idx) if idx.ndim == 0 else idx.astype(np.int64)
    # state s spans [edges[s], edges[s + 1]); the second inf keeps a gain of
    # inf, stepped up to state k, inside the array until it is searched
    edges = np.concatenate(([-np.inf], inner, [np.inf, np.inf]))
    mean = inner[0] / -math.log1p(-1.0 / k)
    # fmin sends a NaN estimate to the last state; the check below then searches it
    with np.errstate(over="ignore"):
        idx = np.fmin(k * -np.expm1(g / -mean), k - 1).astype(np.int64)
    idx -= g < edges[idx]
    idx += g >= edges[idx + 1]
    miss = ~((edges[idx] <= g) & (g < edges[idx + 1]))
    if miss.any():
        idx[miss] = np.searchsorted(inner, g[miss], side="right")
    return idx


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _band_gather(values: np.ndarray, start: np.ndarray, width: int, out=None) -> np.ndarray:
    """values[start + b] for every b below `width`, stacked on a new leading
    axis: a (width, *start.shape) array, written into `out` if given.

    Row b of the (width, n - width + 1) windows of the 1-D `values` is
    values[b:], so the gather takes `start` from every row at once and
    builds no (width, *start.shape) index.  Every start must lie in [0, n
    - width].
    """
    values = np.ascontiguousarray(values, dtype=float)
    windows = np.ndarray((width, values.size - width + 1), float, values,
                         strides=(values.itemsize, values.itemsize))
    return windows.take(start, axis=1, out=out, mode="clip")


def _arrival_band(grid: QuantizationGrid, E_m: float, base: np.ndarray):
    """Band rows of the next-level distribution from residuals `base`.

    A residual plus a Uniform[0, E_m] arrival lands in at most
    ceil(E_m M / B_m) + 1 consecutive bins, the first the bin of the
    residual itself, so the band is B = min(M, ceil(E_m M / B_m) + 2)
    bins wide and starts at that bin, clipped to M - B.  Each entry takes
    the length of the arrival interval that lands in its bin over E_m, the
    top bin absorbing overflow past B_m.  Returns (start, probs): the
    band's first level, of the shape of `base`, and the (B, *base.shape)
    probabilities of its levels.
    """
    m = grid.M
    width = min(m, math.ceil(E_m * m / grid.B_m) + 2)
    # edges[start] <= base < edges[start + 1]: a search, not a division, so
    # every bin left of the band has hi <= lo exactly
    start = np.minimum(np.searchsorted(grid.bin_edges[1:-1], base, side="right"), m - width)
    # each gather is a fresh array, so base is subtracted in place: no
    # second (B, *base.shape) temporary beside it
    probs = _band_gather(grid.bin_edges, start, width)
    probs -= base
    np.maximum(probs, 0.0, out=probs)
    hi = _band_gather(np.append(grid.bin_edges[1:-1], np.inf), start, width)
    hi -= base
    np.minimum(hi, E_m, out=hi)
    np.subtract(hi, probs, out=probs)
    np.maximum(probs, 0.0, out=probs)
    probs /= E_m
    return start, probs


@dataclass(frozen=True)
class MdpModel:
    """Grid-level system description consumed by the induction solver.

    The battery kernels are stored as a band.  Action r is no spend (r = 0)
    or a serve at H-state r - 1; from level m it moves the battery to level
    `band_start[r, m] + b` with probability `band[b, r, m]`, for b below
    the band width B = min(M, ceil(E_m M / B_m) + 2), and to no other level.
    A serve that is not allowed has an all-zero band.
    """

    params: SystemParams
    grid: QuantizationGrid
    p_inv_H: np.ndarray     # (K,) W, inversion power at each H-state gain
    cost_G: np.ndarray      # (K,) skip cost at each G-state gain
    allowed: np.ndarray     # (M, K) bool, action 1 permitted
    band_start: np.ndarray  # (K+1, M) first next level of each action's band
    band: np.ndarray        # (B, K+1, M) next-level probabilities in the band


def build_mdp_model(params: SystemParams, grid: QuantizationGrid) -> MdpModel:
    """Precompute per-state powers, skip costs, action masks and kernel bands.

    The band of level m under action r is the distribution of the next
    battery level after no spend (r = 0) or serving at H-state r - 1: the
    residual plus a Uniform[0, E_m] arrival, re-quantized (`_arrival_band`).
    Built in closed form, broadcast over battery levels and H-states, with
    no (K+1, M, M) array."""
    _, p_inv_h, cost_g, _ = link_terms(grid.levels_G, grid.levels_H, params)
    levels = grid.battery_levels
    if not np.allclose(quantize_energy(levels, grid), levels, rtol=1e-9, atol=0.0):
        raise InvalidStateError("battery levels are not the bin mid-values of this grid")
    allowed = serve_feasible(p_inv_h[None, :], levels[:, None], params)
    spend = p_inv_h * params.tau
    base = np.maximum(levels - np.append(0.0, spend)[:, None], 0.0)
    start, band = _arrival_band(grid, params.E_m, base)
    band[:, 1:] *= allowed.T
    return MdpModel(params=params, grid=grid, p_inv_H=p_inv_h, cost_G=cost_g,
                    allowed=allowed, band_start=start, band=band)


# ---------------------------------------------------------------------------
# backward induction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyTable:
    """Threshold policy: serve at (block t, battery level m, G-state kg,
    H-state kh) iff kg <= top[t, m, kh], with top in [-1, K-1] (-1: serve
    nowhere) and not falling along the H axis."""

    top: np.ndarray  # (N, M, K) int16
    grid: QuantizationGrid
    params_hash: str

    @property
    def N(self) -> int:
        return self.top.shape[0]


def _expected_values(model: MdpModel, u_hat_next: np.ndarray, out=None):
    """Next-block expectation terms of one step of `monotone_backward_induction`.

    Channel states regenerate independently with probability 1/K each, so
    the next-state expectation factorizes through u_hat: ev0[m] (no spend)
    and ev1[m, kh] (spend at H-state kh), both already divided by K^2.
    Each is the sum over the kernel's band, taken in band order by one
    reduction over its leading axis, so no BLAS call enters a value.  The
    band's next levels are gathered into `out`, a (B, K+1, M) buffer, if
    given: a solve reuses one for every block.
    """
    terms = _band_gather(u_hat_next, model.band_start, model.band.shape[0], out)
    terms *= model.band
    ev = np.add.reduce(terms, axis=0)
    ev *= 1.0 / (model.grid.K * model.grid.K)
    return ev[0], ev[1:].T


# Relative rise tolerated in q0 along the G axis and q1 along the H axis: the
# shipped presets show 1-ulp rises (3.3e-16 at M=100, K=25) that change nothing.
_RISE_RTOL = 1e-12
_NONE = np.zeros(0, dtype=np.intp)


def _cuts(rows: np.ndarray, base: np.ndarray, shift: np.ndarray, q1: np.ndarray):
    """Count each level's skip values below each of its serve values.

    `rows` is (M, K+2): each level's q0 sorted low to high between a -inf
    and a +inf column.  Returns (cut, at): cut[m, kh] is the number of
    entries of row m below q1[m, kh], K minus the number of G-states H-state
    kh serves (q1 <= q0), and `at` is the flat index of rows[m, cut[m, kh]].
    A cut is first read off one search of q1 - shift[m] in the sorted
    `base`, of which every row should be about a shift; it stands where the
    row's entries on both sides of it bracket q1, which in a sorted row
    makes it exact, and every other cut is counted over its whole row.
    """
    m, k = q1.shape
    cut = np.searchsorted(base, q1 - shift[:, None])
    offsets = np.arange(0, rows.size, k + 2)[:, None]
    at = cut + offsets
    flat = rows.ravel()
    hit = (flat[at] < q1) & (flat[at + 1] >= q1)
    if not hit.all():
        lv, kh = np.nonzero(~hit)
        cut[lv, kh] = k - (q1[lv, kh, None] <= rows[lv, 1:-1]).sum(axis=1)
        at = cut + offsets
    return cut, at


def _check_staircase(t: int, q0_at: np.ndarray, q0_next: np.ndarray, q1: np.ndarray,
                     top: np.ndarray) -> None:
    """Check block t's serve mask, q1[:, None, :] <= q0[:, :, None], is the
    threshold staircase of the paper's walk with (M, K_H) thresholds `top`,
    given q0 only where it can rise along G: q0_at and q0_next, both (M,
    C), hold q0 at C of its G-steps, q0[:, kg] and q0[:, kg + 1], and q0
    falls or holds at every other step.

    `top` is each H-column's count of served G-states less one, as the
    solve counts it, so no (M, K, K) mask is built.  The walk starts at the
    best state of both channels: a serve fills the column below it and
    drops the H cursor, a skip fills the row to its left and drops the G
    cursor.  It decides as the compare does when every H-column is a
    prefix of G-states whose top served G-state `top` is nondecreasing in
    the H-state, as q0 and q1 nonincreasing (up to `_RISE_RTOL`) imply;
    anything else raises StructureViolationError.  A column can stop being
    a prefix only where q0 rises along G, and `top` can fall only where q1
    rises along H, so the rise tolerance and both conditions are tested at
    those places alone.
    """
    rises = []
    for name, lo, hi in (("q0 along the G", q0_at, q0_next),
                         ("q1 along the H", q1[:, :-1], q1[:, 1:])):
        falls = hi <= lo
        lv, j = rise = np.nonzero(~falls) if not falls.all() else (_NONE, _NONE)
        if lv.size and np.any(hi[lv, j] > lo[lv, j] + _RISE_RTOL * np.abs(lo[lv, j])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
        rises.append(rise)
    # a column breaks at a G-step where it serves one state on but not at
    # the step; q1[lv] holds every column of a level where q0 rises
    (lv, j), (lh, kh) = rises
    if ((lv.size and np.any((q1[lv] <= q0_next[lv, j, None]) & ~(q1[lv] <= q0_at[lv, j, None])))
            or (lh.size and np.any(top[lh, kh + 1] < top[lh, kh]))):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")


def _walk_counts(top: np.ndarray) -> np.ndarray:
    """The (..., M) counts of states the paper's walk evaluates per level of
    the staircase with (..., M, K) thresholds `top`: it stops after K
    serves and K-1-top[0] skips or, where column 0 is never served, after K
    skips and one serve per served column."""
    k = top.shape[-1]
    first = top[..., 0]
    return np.where(first >= 0, 2 * k - 1 - first, k + (top >= 0).sum(axis=-1))


def monotone_backward_induction(model: MdpModel, N: int):
    """The paper's monotone backward induction (MBIA): the exact solve of
    the finite-horizon recursion over all N*M*K^2 states, checked block by
    block to have the threshold structure the paper's walk relies on.

    The terminal block minimizes the stage cost alone.  Ties between the
    two actions resolve to serving (action 1).  Only u_hat feeds the next
    block, and a state's value is the cheaper of its two action values, so
    no per-state value is formed and a block's q1 and sorted q0 rows are
    overwritten by the next.  q0[m, kg] is the rounded sum of cost_G[kg]
    and ev0[m], and rounding is monotone, so every level's q0 is sorted in
    the order of cost_G (one stable argsort, which holds for a cost_G with
    rises too), a shift of the sorted costs, and each H-column serves the
    G-states of its highest skip values.  `_cuts` counts them, giving the thresholds `top`,
    and a level's u_hat is the sum over its columns of the count times the
    column's q1 plus the sum of the skip values it leaves unserved, a
    prefix sum of the sorted row: the K^2 minima summed in another order,
    at O(MK log K) per block instead of O(MK^2).  No (M, K) q0 is formed:
    q0 can rise along G only at the G-steps where cost_G rises, found once
    per model, and `_check_staircase` checks each block's q1 and those
    steps of q0 against its thresholds as soon as they are solved, so a
    violation raises StructureViolationError naming the block before any
    earlier block is solved.  The at most 2K-1 states the walk evaluates
    per battery level, instead of K^2, are counted from the thresholds
    after the loop (`_walk_counts`).  Returns (PolicyTable, u_hat of shape
    (N, M), eval_counts of shape (N, M)).
    """
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameterError(f"N must be a positive integer, got {N!r}")
    m, k = model.grid.M, model.grid.K
    q1 = np.empty((m, k))
    u_hat = np.zeros((N, m))
    top = np.empty((N, m, k), dtype=np.int16)
    terms = np.empty(model.band.shape)   # the gather buffer of every block
    mask = np.where(model.allowed, 0.0, np.inf)  # (M, K) additive mask on q1
    cost_g = model.cost_G
    costs = cost_g[np.argsort(cost_g, kind="stable")]
    # rounding is monotone, so q0 = cost_G + ev0 can rise along G only at
    # the steps where cost_G rises (or is NaN): q0 is checked there alone
    steps = np.flatnonzero(~(cost_g[1:] <= cost_g[:-1]))
    cost_at, cost_next = cost_g[steps], cost_g[steps + 1]
    # q0 in the order of costs, padded for _cuts, and its prefix sums:
    # low[m, j] is the sum of level m's j lowest skip values
    rows = np.empty((m, k + 2))
    rows[:, 0], rows[:, -1] = -np.inf, np.inf
    low = np.zeros((m, k + 2))
    for t in range(N - 1, -1, -1):
        ev0, ev1 = ((np.zeros(m), np.zeros((m, k))) if t == N - 1
                    else _expected_values(model, u_hat[t + 1], terms))
        np.add(ev1, mask, out=q1)
        np.add(costs, ev0[:, None], out=rows[:, 1:-1])
        cut, at = _cuts(rows, costs, ev0, q1)
        np.subtract(k - 1, cut, out=top[t], casting="unsafe")
        _check_staircase(t, cost_at + ev0[:, None], cost_next + ev0[:, None], q1, top[t])
        np.cumsum(rows[:, 1:-1], axis=1, out=low[:, 1:-1])
        # a served column's q1 is its ev1, and a count of 0 times a finite
        # ev1 adds nothing where q1 is inf
        u_hat[t] = ((k - cut) * ev1 + low.ravel()[at]).sum(axis=1)
    del terms   # the counts' (N, M, K) temporaries need not sit beside it
    table = PolicyTable(top=top, grid=model.grid, params_hash=model.params.content_hash())
    return table, u_hat, _walk_counts(top)


def predicted_cost(model: MdpModel, u_hat: np.ndarray) -> float:
    """The model's expected frame cost of its own policy, from an empty battery.

    A frame starts with the battery at 0 and the first arrival, so the
    first block's level follows the band from residual 0; `u_hat[0]` (the
    solve's (N, M) level sums) weighted by it and divided by K^2 averages
    the cost-to-go over that level and both channel states.  Summed in
    band order like `_expected_values`.
    """
    start, probs = _arrival_band(model.grid, model.params.E_m, np.zeros(1))
    total = np.add.reduce(_band_gather(u_hat[0], start, len(probs)) * probs, axis=0)
    return float(total[0] / (model.grid.K * model.grid.K))


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

_MAGIC = b"HESNETPOLICY 1\n"
_HEADER_LIMIT = 4096  # bytes; a written header is about 110


def save_policy_artifact(path, policy: PolicyTable) -> None:
    """Write a policy table to a versioned binary file.

    Layout: magic line; one JSON header line with the version (2), n/m/k
    and the params hash; then raw little-endian row-major arrays in fixed
    order (battery levels, bin edges, G bounds/levels, H bounds/levels as
    float64, the (N, M, K) thresholds as int16).  The writer is
    deterministic: identical inputs give identical bytes.
    """
    g = policy.grid
    header = {"version": 2, "n": int(policy.N), "m": int(g.M), "k": int(g.K),
              "params_hash": policy.params_hash}
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in (g.battery_levels, g.bin_edges, g.bounds_G, g.levels_G, g.bounds_H, g.levels_H):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(policy.top, dtype="<i2").tobytes())


def load_policy_artifact(path):
    """Read a file written by `save_policy_artifact`.

    The header line is read with a length limit, the version must be 2
    (older files held a dense serve table: retrain them with `mdp-train`),
    n/m/k must be positive integers, and the file size must equal the size
    the header implies before any array is read, so a corrupt, truncated or
    padded file raises InvalidParameterError instead of driving a large
    read.  So does a threshold outside [-1, K-1] or one that falls along the
    H axis.  Returns the PolicyTable.  Consumers are responsible for
    comparing the stored params hash against their own configuration.
    """
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise InvalidParameterError(f"{path}: not a policy artifact (bad magic)")
        line = f.readline(_HEADER_LIMIT)
        try:
            header = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:  # also covers undecodable bytes
            header = None
        if not isinstance(header, dict):
            raise InvalidParameterError(f"{path}: unreadable artifact header")
        version = header.get("version")
        if type(version) is not int or version != 2:   # 2.0 == 2
            raise InvalidParameterError(f"{path}: unsupported artifact version {version!r}; "
                                        f"retrain it with 'hesnet mdp-train'")
        n, m, k = (header.get(key) for key in ("n", "m", "k"))
        params_hash = header.get("params_hash")
        if not (all(type(v) is int and v > 0 for v in (n, m, k)) and isinstance(params_hash, str)):
            raise InvalidParameterError(f"{path}: artifact header needs positive integers n, m, k "
                                        f"and a params_hash, got {line[:200]!r}")
        # battery levels, bin edges, then bounds and levels of both channels
        lengths = (m, m + 1, k + 1, k, k + 1, k)
        size = f.tell() + 8 * sum(lengths) + 2 * n * m * k
        actual = os.fstat(f.fileno()).st_size
        if actual != size:
            raise InvalidParameterError(
                f"{path}: {actual} bytes, but its header (n={n}, m={m}, k={k}) implies {size}")
        levels, edges, bounds_g, levels_g, bounds_h, levels_h = np.split(
            np.fromfile(f, dtype="<f8", count=sum(lengths)), np.cumsum(lengths[:-1]))
        grid = QuantizationGrid(levels, edges, levels_g, bounds_g, levels_h, bounds_h)
        top = np.fromfile(f, dtype="<i2", count=n * m * k).reshape(n, m, k)
    if top.min() < -1 or top.max() > k - 1 or np.any(top[:, :, 1:] < top[:, :, :-1]):
        raise InvalidParameterError(
            f"{path}: thresholds must lie in [-1, {k - 1}] and not fall along the H axis")
    return PolicyTable(top=top, grid=grid, params_hash=params_hash)

"""Finite-horizon MDP machinery for the causal (online) setting.

The online problem is a per-block choice: spend battery on this packet or
leave it to the grid BS / the drop rule.  The state is (battery level,
G-channel state, H-channel state) on a finite grid: battery quantized into M
equal bins represented by mid-values, each channel into K equi-probable
states represented by conditional means; the kernels are built in closed
form.  Backward induction solves the resulting Bellman recursion exactly.
The monotone variant (MBIA) is the paper's threshold walk, which evaluates
at most 2K-1 states per (block, battery level) instead of K^2.  In numpy the
dense (M, K, K) compare costs less than that walk, so MBIA takes the dense
mask, checks it has the threshold structure the walk relies on, and reports
the walk's evaluation counts in closed form.

MBIA is `backward_induction` followed by a per-block staircase check, and
the staircase is the policy: `PolicyTable.top` holds the highest served
G-state per (block, battery level, H-state), so a lookup searches one
channel.  The recursion needs only the per-level sums u_hat of the next
block, the sum of the cheaper action value over both channel states, so a
solve keeps the two action values q0/q1 per block and nothing per state:
the dense (N, M, K, K) serve mask `CostToGo.actions` and cost-to-go
`CostToGo.u` are rebuilt from q0/q1 when read, and the thresholds expand
bitwise to that mask.  The staircase check takes the thresholds from one
compare per block and tests the prefix and ordering conditions only where
q0 or q1 rise, the only places they can break.  Policy artifacts hold the
grid and the thresholds alone.
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
    "CostToGo",
    "equiprobable_channel_states",
    "build_grid",
    "quantize_energy",
    "battery_level_index",
    "channel_state_index",
    "build_mdp_model",
    "backward_induction",
    "monotone_backward_induction",
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
    if np.any(eps < 0):
        raise InvalidStateError(f"battery energy must be >= 0, got {epsilon!r}")
    m = grid.M
    idx = np.minimum(np.floor(m * np.minimum(eps, grid.B_m) / grid.B_m), m - 1).astype(np.int64)
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

@dataclass(frozen=True)
class MdpModel:
    """Grid-level system description consumed by the induction solvers."""

    params: SystemParams
    grid: QuantizationGrid
    p_inv_H: np.ndarray   # (K,) W, inversion power at each H-state gain
    cost_G: np.ndarray    # (K,) skip cost at each G-state gain
    allowed: np.ndarray   # (M, K) bool, action 1 permitted
    kernel0: np.ndarray   # (M, M) next-level distribution, no spend
    kernel1: np.ndarray   # (K, M, M) next-level distribution when serving;
                          #           zero rows where not allowed


def build_mdp_model(params: SystemParams, grid: QuantizationGrid) -> MdpModel:
    """Precompute per-state powers, skip costs, action masks and kernels.

    Kernel row i is the distribution of the next battery level from level i
    after no spend (kernel0) or serving at each H-state (kernel1): the residual
    plus a Uniform[0, E_m] arrival, re-quantized, each next bin taking the
    length of the arrival interval that lands in it over E_m, the top bin
    absorbing overflow past B_m.  Built in closed form, broadcast over battery
    levels and H-states."""
    _, p_inv_h, cost_g, _ = link_terms(grid.levels_G, grid.levels_H, params)
    levels = grid.battery_levels
    if not np.allclose(quantize_energy(levels, grid), levels, rtol=1e-9, atol=0.0):
        raise InvalidStateError("battery levels are not the bin mid-values of this grid")
    allowed = serve_feasible(p_inv_h[None, :], levels[:, None], params)
    spend = p_inv_h * params.tau
    # probs[r, i]: the row of level i after no spend (r = 0) or serving at H-state r-1
    base = np.maximum(levels - np.append(0.0, spend)[:, None], 0.0)[:, :, None]
    lo = grid.bin_edges[:-1] - base
    np.maximum(lo, 0.0, out=lo)
    probs = np.append(grid.bin_edges[1:-1], np.inf) - base
    np.minimum(probs, params.E_m, out=probs)
    probs -= lo
    np.maximum(probs, 0.0, out=probs)
    probs /= params.E_m
    probs[1:] *= allowed.T[:, :, None]
    return MdpModel(params=params, grid=grid, p_inv_H=p_inv_h, cost_G=cost_g,
                    allowed=allowed, kernel0=probs[0], kernel1=probs[1:])


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


@dataclass(frozen=True)
class CostToGo:
    """Optimal expected remaining cost, kept as the two action values.

    `q0[t, m, kg]` is the cost of not serving at G-state kg and
    `q1[t, m, kh]` the cost of serving at H-state kh (inf where serving is
    not allowed).  The dense serve mask `actions` and the per-state table
    `u` are rebuilt from these on each read (3.1 MB and 25 MB at N=50,
    M=100, K=25), so a solve that never reads them never holds them.
    """

    q0: np.ndarray        # (N, M, K) per G-state
    q1: np.ndarray        # (N, M, K) per H-state
    u_hat: np.ndarray     # (N, M) sum of u over both channel states
    params_hash: str

    @property
    def actions(self) -> np.ndarray:
        """(N, M, K, K) uint8 serve mask: serve wherever it costs no more
        than not serving, so ties serve."""
        return (self.q1[:, :, None, :] <= self.q0[:, :, :, None]).view(np.uint8)

    @property
    def u(self) -> np.ndarray:
        """(N, M, K, K) cost-to-go of the chosen action at every state."""
        return np.where(self.actions, self.q1[:, :, None, :], self.q0[:, :, :, None])


def _expected_values(model: MdpModel, u_hat_next: np.ndarray):
    """Next-block expectation terms of one step of `backward_induction`.

    Channel states regenerate independently with probability 1/K each, so
    the next-state expectation factorizes through u_hat: ev0[m] (no spend)
    and ev1[m, kh] (spend at H-state kh), both already divided by K^2.
    """
    inv_k2 = 1.0 / (model.grid.K * model.grid.K)
    return (model.kernel0 @ u_hat_next) * inv_k2, (model.kernel1 @ u_hat_next).T * inv_k2


# Relative rise tolerated in q0 along the G axis and q1 along the H axis: the
# shipped presets show 1-ulp rises (3.3e-16 at M=100, K=25) that change nothing.
_RISE_RTOL = 1e-12


def backward_induction(model: MdpModel, N: int):
    """Exact solve of the finite-horizon recursion over all N*M*K^2 states.

    The terminal block minimizes the stage cost alone.  Ties between the
    two actions resolve to serving (action 1).  Only u_hat feeds the next
    block: a state's value is the cheaper of its two action values, so each
    block's per-state values live in one temporary slice.  Returns the
    CostToGo, whose `actions` is the dense serve mask.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameterError(f"N must be a positive integer, got {N!r}")
    m, k = model.grid.M, model.grid.K
    params_hash = model.params.content_hash()
    q0, q1 = np.zeros((N, m, k)), np.zeros((N, m, k))
    u_hat = np.zeros((N, m))
    mask = np.where(model.allowed, 0.0, np.inf)  # (M, K) additive mask on q1
    for t in range(N - 1, -1, -1):
        ev0, ev1 = ((np.zeros(m), np.zeros((m, k))) if t == N - 1
                    else _expected_values(model, u_hat[t + 1]))
        np.add(model.cost_G[None, :], ev0[:, None], out=q0[t])
        np.add(ev1, mask, out=q1[t])
        # one block's (M, K, K) slice of u, summed and dropped
        u_hat[t] = np.minimum(q1[t, :, None, :], q0[t, :, :, None]).sum(axis=(1, 2))
    return CostToGo(q0=q0, q1=q1, u_hat=u_hat, params_hash=params_hash)


def _staircase_counts(t: int, q0: np.ndarray, q1: np.ndarray):
    """Check block t's serve mask, q1[:, None, :] <= q0[:, :, None], is the
    threshold staircase of the paper's walk; return its (M, K_H) thresholds
    `top` and the (M,) counts of states that walk evaluates.

    The walk starts at the best state of both channels: a serve fills the
    column below it and drops the H cursor, a skip fills the row to its
    left and drops the G cursor.  It decides as the compare does when every
    H-column is a prefix of G-states whose top served G-state `top` is
    nondecreasing in the H-state, as q0 and q1 nonincreasing (up to
    `_RISE_RTOL`) imply; anything else raises StructureViolationError.  A
    column can stop being a prefix only where q0 rises along G, and `top`
    can fall only where q1 rises along H, so the rise tolerance and both
    conditions are tested at those places alone.  The walk stops after K
    serves and K-1-top[0] skips or, where column 0 is never served, after
    K skips and one serve per served column.
    """
    rises = []
    for name, q in (("q0 along the G", q0), ("q1 along the H", q1)):
        lv, j = rise = np.nonzero(~(q[:, 1:] <= q[:, :-1]))
        if lv.size and np.any(q[lv, j + 1] > q[lv, j] + _RISE_RTOL * np.abs(q[lv, j])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
        rises.append(rise)
    # (M, K_H) highest served G-state, -1: none
    top = (q1[:, None, :] <= q0[:, :, None]).sum(axis=1, dtype=np.int16) - 1
    # a column breaks at G-state kg where it serves at kg + 1 but not at kg
    (lv, kg), (lh, kh) = rises
    served = q1[lv]  # every column of a level where q0 rises
    if ((lv.size and np.any((served <= q0[lv, kg + 1, None]) & ~(served <= q0[lv, kg, None])))
            or (lh.size and np.any(top[lh, kh + 1] < top[lh, kh]))):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")
    k = q0.shape[1]
    return top, np.where(top[:, 0] >= 0, 2 * k - 1 - top[:, 0], k + (top >= 0).sum(axis=1))


def monotone_backward_induction(model: MdpModel, N: int):
    """The paper's monotone backward induction (MBIA), checked, not re-enacted.

    MBIA is backward induction that exploits the threshold structure, so
    the solve is `backward_induction` itself and the two agree bitwise.
    `_staircase_counts` then checks each block, from the last to the
    first, is the threshold staircase the paper's walk relies on, keeps
    its thresholds, and counts the at most 2K-1 states that walk evaluates
    per battery level instead of K^2.  Returns (PolicyTable, CostToGo,
    eval_counts of shape (N, M)).
    """
    values = backward_induction(model, N)
    checked = [_staircase_counts(t, values.q0[t], values.q1[t]) for t in range(N - 1, -1, -1)]
    top, counts = (np.stack(a[::-1]) for a in zip(*checked))
    return PolicyTable(top=top, grid=model.grid, params_hash=values.params_hash), values, counts


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

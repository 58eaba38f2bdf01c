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

MBIA is `backward_induction` followed by a per-block staircase check, so
the two solvers' tables agree bitwise, not just within tolerance.  The
recursion needs only the per-level sums u_hat of the next block, so a solve
keeps the two action values q0/q1 per block and sums one block's (M, K, K)
slice of the per-state values at a time; the full (N, M, K, K) table is
rebuilt only when `CostToGo.u` is read.  Policy artifacts hold the serve
table alone.
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
    """0-based channel state of a gain: interval [bounds[k], bounds[k+1])."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise InvalidStateError(f"channel gain must be >= 0, got {gamma!r}")
    idx = np.clip(np.searchsorted(bounds, g, side="right") - 1, 0, bounds.shape[0] - 2)
    return int(idx) if idx.ndim == 0 else idx.astype(np.int64)


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
    """Binary decision per (block, battery level, G-state, H-state)."""

    actions: np.ndarray  # (N, M, K, K) uint8
    grid: QuantizationGrid
    params_hash: str

    @property
    def N(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class CostToGo:
    """Optimal expected remaining cost, kept as the two action values.

    `q0[t, m, kg]` is the cost of not serving at G-state kg and
    `q1[t, m, kh]` the cost of serving at H-state kh (inf where serving is
    not allowed); `actions` is the policy's serve table itself, not a copy.
    The per-state table `u` is rebuilt from these on each read (25 MB at
    N=50, M=100, K=25), so a solve that never reads it never holds it.
    """

    q0: np.ndarray        # (N, M, K) per G-state
    q1: np.ndarray        # (N, M, K) per H-state
    u_hat: np.ndarray     # (N, M) sum of u over both channel states
    params_hash: str
    actions: np.ndarray   # (N, M, K, K) uint8, the PolicyTable's array

    @property
    def u(self) -> np.ndarray:
        """(N, M, K, K) cost-to-go of the chosen action at every state."""
        return np.where(self.actions, self.q1[:, :, None, :], self.q0[:, :, :, None])


def _expected_values(model: MdpModel, u_hat_next: np.ndarray):
    """Expectation terms shared by both solvers (bitwise-identical path).

    Channel states regenerate independently with probability 1/K each, so
    the next-state expectation factorizes through u_hat: ev0[m] (no spend)
    and ev1[m, kh] (spend at H-state kh), both already divided by K^2.
    """
    inv_k2 = 1.0 / (model.grid.K * model.grid.K)
    return (model.kernel0 @ u_hat_next) * inv_k2, (model.kernel1 @ u_hat_next).T * inv_k2


# Relative rise tolerated in q0 along the G axis and q1 along the H axis: the
# shipped presets show 1-ulp rises (3.3e-16 at M=100, K=25) that change nothing.
_RISE_RTOL = 1e-12


def _dense_mask(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """(M, K_G, K_H) serve mask: serve wherever it costs no more than not
    serving, so ties serve."""
    return q1[:, None, :] <= q0[:, :, None]


def backward_induction(model: MdpModel, N: int):
    """Exact solve of the finite-horizon recursion over all N*M*K^2 states.

    The terminal block minimizes the stage cost alone.  Ties between the
    two actions resolve to serving (action 1).  Only u_hat feeds the next
    block, so each block's per-state values live in one temporary slice.
    Returns (PolicyTable, CostToGo).
    """
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameterError(f"N must be a positive integer, got {N!r}")
    m, k = model.grid.M, model.grid.K
    params_hash = model.params.content_hash()
    actions = np.zeros((N, m, k, k), dtype=np.uint8)
    q0, q1 = np.zeros((N, m, k)), np.zeros((N, m, k))
    u_hat = np.zeros((N, m))
    mask = np.where(model.allowed, 0.0, np.inf)  # (M, K) additive mask on q1
    for t in range(N - 1, -1, -1):
        ev0, ev1 = ((np.zeros(m), np.zeros((m, k))) if t == N - 1
                    else _expected_values(model, u_hat[t + 1]))
        np.add(model.cost_G[None, :], ev0[:, None], out=q0[t])
        np.add(ev1, mask, out=q1[t])
        act = actions[t] = _dense_mask(q0[t], q1[t])
        # one block's (M, K, K) slice of u, summed and dropped
        u_hat[t] = np.where(act, q1[t, :, None, :], q0[t, :, :, None]).sum(axis=(1, 2))
    return (PolicyTable(actions=actions, grid=model.grid, params_hash=params_hash),
            CostToGo(q0=q0, q1=q1, u_hat=u_hat, params_hash=params_hash, actions=actions))


def _staircase_counts(t: int, q0: np.ndarray, q1: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Check block t's bool serve `mask` is the threshold staircase of the
    paper's walk, and count per battery level the states that walk evaluates.

    The walk starts at the best state of both channels: a serve fills the
    column below it and drops the H cursor, a skip fills the row to its
    left and drops the G cursor.  It decides as the compare does when every
    H-column is a prefix of G-states whose top served G-state `top` is
    nondecreasing in the H-state, as q0 and q1 nonincreasing (up to
    `_RISE_RTOL`) imply; anything else raises StructureViolationError.  The
    walk stops after K serves and K-1-top[0] skips or, where column 0 is
    never served, after K skips and one serve per served column.
    """
    for name, q in (("q0 along the G", q0), ("q1 along the H", q1)):
        if np.any(q[:, 1:] > q[:, :-1] + _RISE_RTOL * np.abs(q[:, :-1])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
    top = mask.sum(axis=1) - 1  # (M, K_H) highest served G-state, -1: none
    # a column that serves at a G-state it skips below is not a prefix
    if np.any(mask[:, 1:] > mask[:, :-1]) or np.any(np.diff(top, axis=1) < 0):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")
    k = q0.shape[1]
    return np.where(top[:, 0] >= 0, 2 * k - 1 - top[:, 0], k + (top >= 0).sum(axis=1))


def monotone_backward_induction(model: MdpModel, N: int):
    """The paper's monotone backward induction (MBIA), checked, not re-enacted.

    MBIA is backward induction that exploits the threshold structure, so
    the solve is `backward_induction` itself and the two agree bitwise.
    `_staircase_counts` then checks each block, from the last to the
    first, is the threshold staircase the paper's walk relies on, and
    counts the at most 2K-1 states that walk evaluates per battery level
    instead of K^2.  Returns (PolicyTable, CostToGo, eval_counts of shape
    (N, M)).
    """
    policy, values = backward_induction(model, N)
    counts = [_staircase_counts(t, values.q0[t], values.q1[t], policy.actions[t].view(bool))
              for t in range(N - 1, -1, -1)]
    return policy, values, np.stack(counts[::-1])


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

_MAGIC = b"HESNETPOLICY 1\n"
_HEADER_LIMIT = 4096  # bytes; a written header is about 120


def save_policy_artifact(path, policy: PolicyTable) -> None:
    """Write a policy table to a versioned binary file.

    Layout: magic line; one JSON header line with n/m/k, the params hash and
    a has_values flag (always false here); then raw little-endian row-major
    arrays in fixed order (battery levels, bin edges, G bounds/levels, H
    bounds/levels, actions as uint8).  Older version-1 files with
    has_values true carry u and u_hat as float64 after the actions.  The
    writer is deterministic: identical inputs give identical bytes.
    """
    g = policy.grid
    header = {
        "version": 1,
        "n": int(policy.N),
        "m": int(g.M),
        "k": int(g.K),
        "params_hash": policy.params_hash,
        "has_values": False,
    }
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in (g.battery_levels, g.bin_edges, g.bounds_G, g.levels_G, g.bounds_H, g.levels_H):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(policy.actions, dtype="|u1").tobytes())


def load_policy_artifact(path):
    """Read a file written by `save_policy_artifact`.

    The header line is read with a length limit, n/m/k must be positive
    integers, and the file size must equal the size the header implies
    before any array is read, so a corrupt, truncated or padded file
    raises InvalidParameterError instead of driving a large read.  A file
    with has_values true must hold its value block too, which is not read.
    Returns the PolicyTable.  Consumers are responsible for comparing the
    stored params hash against their own configuration.
    """
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise InvalidParameterError(f"{path}: not a policy artifact (bad magic)")
        line = f.readline(_HEADER_LIMIT)
        try:
            header = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:  # also covers undecodable bytes
            header = None
        if not isinstance(header, dict):
            raise InvalidParameterError(f"{path}: unreadable artifact header")
        if header.get("version") != 1:
            raise InvalidParameterError(f"{path}: unsupported artifact version {header.get('version')!r}")
        n, m, k = (header.get(key) for key in ("n", "m", "k"))
        params_hash, has_values = header.get("params_hash"), header.get("has_values")
        if not (all(type(v) is int and v > 0 for v in (n, m, k))
                and isinstance(params_hash, str) and isinstance(has_values, bool)):
            raise InvalidParameterError(f"{path}: artifact header needs positive integers n, m, k, "
                                        f"a params_hash and a has_values flag, got {line[:200]!r}")
        cells = n * m * k * k
        # battery levels, bin edges, then bounds and levels of both channels
        size = f.tell() + 8 * (2 * m + 1 + 2 * (2 * k + 1)) + cells
        if has_values:
            size += 8 * (cells + n * m)
        actual = os.fstat(f.fileno()).st_size
        if actual != size:
            raise InvalidParameterError(
                f"{path}: {actual} bytes, but its header (n={n}, m={m}, k={k}) implies {size}")

        def read_f8(count):
            return np.fromfile(f, dtype="<f8", count=count)

        battery_levels = read_f8(m)
        bin_edges = read_f8(m + 1)
        bounds_g = read_f8(k + 1)
        levels_g = read_f8(k)
        bounds_h = read_f8(k + 1)
        levels_h = read_f8(k)
        grid = QuantizationGrid(battery_levels, bin_edges, levels_g, bounds_g, levels_h, bounds_h)
        actions = np.fromfile(f, dtype="|u1", count=cells).reshape(n, m, k, k)
    return PolicyTable(actions=actions, grid=grid, params_hash=params_hash)

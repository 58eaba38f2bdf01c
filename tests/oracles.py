"""References for the offline solvers' batch plans and for table lookups.

`hesnet.offline` maps (frames, U, N) arrays to plans and leaves the
feasibility of a plan to the battery walk that replays it.  The checks here
read one frame at a time in plain numpy, independently of both: the first
constraint a 0/1 vector breaks, its exact skip cost, and the pairwise swap
condition every greedy plan meets.

`hesnet.mdp` stores a policy as per-column thresholds.  The dense
(N, M, K, K) serve mask they stand for, the staircase check that reads
every entry of it, the player that looks it up with one search per
channel, and the version-1 artifact layout that held it live here as their
references.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hesnet.errors import StructureViolationError
from hesnet.mdp import _RISE_RTOL, battery_level_index, channel_state_index
from hesnet.model import serve_feasible
from hesnet.offline import ENERGY_RTOL


class Frame(NamedTuple):
    """One user's frame of the 0/1 program: skip costs `c`, harvesting
    inversion powers `p_h` (inf on a dead channel), arrivals `e_h`, block
    time `tau` and peak cap `p_max`."""

    c: np.ndarray
    p_h: np.ndarray
    e_h: np.ndarray
    tau: float
    p_max: float

    @classmethod
    def of(cls, batch, f: int = 0, u: int = 0) -> "Frame":
        """User u's frame f of a FrameBatch."""
        return cls(batch.skip[f, u], batch.p_h[f, u], batch.e_h[f], batch.params.tau,
                   batch.params.p_H_max)


def plan_args(frames, p_max=None):
    """Per-user Frames of one frame as a one-frame solver call's arguments."""
    frames = list(frames)
    return (np.stack([fr.c for fr in frames])[None], np.stack([fr.p_h for fr in frames])[None],
            frames[0].e_h[None], frames[0].tau, frames[0].p_max if p_max is None else p_max)


def first_violation(alpha, fr: Frame):
    """1-based index of the first block where `alpha` breaks the peak cap
    (exactly) or energy causality (ENERGY_RTOL relative slack); None when
    the 0/1 vector is feasible."""
    alpha = np.asarray(alpha)
    assert alpha.shape == fr.c.shape and np.isin(alpha, (0, 1)).all()
    on = alpha == 1
    peak_bad = on & (fr.p_h > fr.p_max)
    spend = np.where(on & np.isfinite(fr.p_h), fr.p_h * fr.tau, 0.0)
    spend[peak_bad] = np.inf  # unaffordable either way; keep cumsum NaN-free
    bad = peak_bad | (np.cumsum(spend) > np.cumsum(fr.e_h) * (1.0 + ENERGY_RTOL))
    return int(np.argmax(bad)) + 1 if bad.any() else None


def service_cost(alpha, fr: Frame) -> float:
    """Exact skip cost sum((1 - alpha_i) * c_i) of a feasible `alpha`."""
    assert first_violation(alpha, fr) is None
    return math.fsum(fr.c[np.asarray(alpha) == 0])


def solve(solver, fr: Frame):
    """One frame through a batch solver: (alpha, exact skip cost)."""
    alpha = solver(*plan_args([fr]))[0, 0]
    return alpha, service_cost(alpha, fr)


def swap_free(alpha, fr: Frame) -> bool:
    """True when no later unselected block dominates a selected one.

    A pair (i selected, j > i unselected) with c_i < c_j and p_h,i >= p_h,j
    could be swapped: the battery spend moves later (causality keeps),
    power does not grow, and the cost strictly drops.
    """
    alpha = np.asarray(alpha)
    sel, uns = np.flatnonzero(alpha == 1), np.flatnonzero(alpha == 0)
    later = uns[None, :] > sel[:, None]
    cheaper = fr.c[sel][:, None] < fr.c[uns][None, :]
    no_more_power = fr.p_h[sel][:, None] >= fr.p_h[uns][None, :]
    return not bool(np.any(later & cheaper & no_more_power))



def staircase_actions(top) -> np.ndarray:
    """The (N, M, K, K) uint8 serve mask of (N, M, K) thresholds: G-state kg
    serves at H-state kh iff kg <= top[..., kh]."""
    top = np.asarray(top)
    k = top.shape[-1]
    return (np.arange(k)[:, None] <= top[..., None, :]).astype(np.uint8)


def dense_staircase_counts(t: int, q0, q1):
    """`mdp._staircase_counts` on block t's whole (M, K_G, K_H) serve mask:
    the same rise checks, then every column tested for a prefix and every
    H-step for a falling threshold; the same errors, or (top, counts)."""
    for name, q in (("q0 along the G", q0), ("q1 along the H", q1)):
        if np.any(q[:, 1:] > q[:, :-1] + _RISE_RTOL * np.abs(q[:, :-1])):
            raise StructureViolationError(
                f"block t={t}: {name}-state axis rises; the monotone walk is not exact")
    mask = q1[:, None, :] <= q0[:, :, None]
    top = mask.sum(axis=1, dtype=np.int16) - 1
    if np.any(mask[:, 1:] > mask[:, :-1]) or np.any(np.diff(top, axis=1) < 0):
        raise StructureViolationError(
            f"block t={t}: the serve mask is not a threshold staircase")
    k = q0.shape[1]
    return top, np.where(top[:, 0] >= 0, 2 * k - 1 - top[:, 0], k + (top >= 0).sum(axis=1))


class DenseTablePolicy:
    """Plays a dense serve mask such as `CostToGo.actions`: slice `block`
    at the battery bin and both channel states, demoted to 0 where the
    true battery or the peak cap cannot pay, as `MdpTablePolicy` demotes."""

    def __init__(self, actions, grid):
        self.actions, self.grid = actions, grid

    def decide_batch(self, block, battery, batch):
        assert batch.users == 1
        grid = self.grid
        act = self.actions[block, battery_level_index(battery, grid)[:, None],
                           channel_state_index(batch.gamma_g[:, :, block], grid.bounds_G),
                           channel_state_index(batch.gamma_h[:, :, block], grid.bounds_H)]
        demote = ~serve_feasible(batch.p_h[:, :, block], battery[:, None], batch.params)
        return np.where(demote, 0, act).astype(np.int8)


def v1_artifact(path, top, grid, params_hash) -> bytes:
    """Write a version-1 policy file, the layout that held the dense uint8
    serve mask after the grid, and return its bytes."""
    header = {"version": 1, "n": top.shape[0], "m": grid.M, "k": grid.K,
              "params_hash": params_hash, "has_values": False}
    blob = b"HESNETPOLICY 1\n" + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob += b"\n" + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (
        grid.battery_levels, grid.bin_edges, grid.bounds_G, grid.levels_G, grid.bounds_H,
        grid.levels_H))
    blob += staircase_actions(top).tobytes()
    Path(path).write_bytes(blob)
    return blob

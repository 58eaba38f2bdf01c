"""Frame walks, Monte Carlo metrics, sweeps, result files."""

import csv
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesnet import offline, sim
from hesnet.errors import (
    InvalidActionError,
    InvalidParameterError,
    ModelMismatchError,
    ResourceLimitError,
    StalePolicyError,
)
from hesnet.mdp import build_grid, build_mdp_model, monotone_backward_induction
from hesnet.model import (
    FrameBatch,
    SystemParams,
    kappa,
    link_terms,
    make_rng,
    sample_trajectories,
    sample_trajectory,
)
from hesnet.offline import ENERGY_RTOL, greedy_plan, optimal_plan
from hesnet.policies import (
    GreedyTransmit,
    MdpTablePolicy,
    ThresholdHeuristic,
    ThresholdParams,
    look_ahead_build,
    threshold_lambdas,
)
from hesnet.sim import (
    CSV_HEADER,
    SWEEP_AXES,
    GridOnlyPolicy,
    _admit_in_order,
    apply_axis,
    frame_totals,
    metrics_row,
    outcomes,
    point_rows,
    sweep,
    write_manifest,
    write_rows_csv,
)
from oracles import (
    ActionValues,
    DenseTablePolicy,
    Frame,
    block_totals,
    block_walk,
    exact_totals,
    per_policy_point_rows,
    plan_args,
    point_by_point_sweep,
    plan_totals,
    replay,
    service_cost,
    solve,
    walk,
)

P = SystemParams()


@dataclass(frozen=True)
class FullSolution:
    """Per-block serving decisions and transmit powers for one frame."""

    I_G: np.ndarray      # (N,) grid BS serves
    I_H: np.ndarray      # (N,) harvesting BS serves
    I_D: np.ndarray      # (N,) packet dropped
    p_G: np.ndarray      # (N,) W
    p_H: np.ndarray      # (N,) W
    total_cost: float
    grid_energy: float   # J
    drops: int


def expand_solution(alpha, batch: FrameBatch, f: int) -> FullSolution:
    """Expand an H-block selection of frame f to per-block decisions and
    powers from the frame's link terms alone: the expansion the frame
    walk's replay replaced, kept as its reference.

    Unselected blocks go to the grid BS when its inversion power is within
    `kappa(params)` (boundary transmits) and are dropped otherwise.
    """
    alpha = np.asarray(alpha, dtype=np.int8)
    cost = service_cost(alpha, Frame.of(batch, f))  # checks feasibility
    params = batch.params
    i_h = alpha.copy()
    with np.errstate(invalid="ignore"):
        i_g = ((alpha == 0) & (batch.p_g[f, 0] <= kappa(params))).astype(np.int8)
    i_d = (1 - i_g - i_h).astype(np.int8)
    p_g = np.where(i_g == 1, batch.p_g[f, 0], 0.0)
    p_h = np.where(i_h == 1, batch.p_h[f, 0], 0.0)
    return FullSolution(
        I_G=i_g, I_H=i_h, I_D=i_d, p_G=p_g, p_H=p_h,
        total_cost=cost,
        grid_energy=math.fsum(p_g * params.tau),
        drops=int(i_d.sum()),
    )


def replay_one(alpha, batch: FrameBatch):
    """(cost, grid energy in J, drops) of a one-user plan for a one-frame
    batch, walked by `outcomes` and totalled by `frame_totals`."""
    costs, grid, drops = frame_totals(*replay(np.asarray(alpha)[None, None], batch))
    return float(costs[0]), float(grid[0]), int(drops[0])


class AlwaysServe:
    def decide_batch(self, block, battery, batch):
        return np.ones(batch.p_h.shape[:2], dtype=np.int8)


# ---------------------------------------------------------------------------
# one-frame walk
# ---------------------------------------------------------------------------

def test_per_frame_cost_identity():
    # five frames keyed (60, f), each totalled exactly
    batch = sample_trajectories(P, 60, 5)
    costs, grid, drops = exact_totals(GreedyTransmit(), batch)
    for cost, energy, dropped in zip(costs, grid, drops):
        assert math.isclose(cost, P.w_G * energy + P.w_D * dropped, rel_tol=1e-12, abs_tol=1e-18)
        assert 0 <= dropped <= P.N and energy >= 0


def test_battery_walk_rejects_infeasible_serve():
    one = np.ones((1, 1, 3))
    batch = FrameBatch(P.evolve(N=3), one, one, np.zeros((1, 3)))
    with pytest.raises(InvalidActionError):
        outcomes(batch, [AlwaysServe()])   # the walk raises before any row is read


def test_battery_walk_rejects_bad_action_value():
    # the walk refuses an action of 2 in a one-frame batch and in a larger one
    class Weird:
        def decide_batch(self, block, battery, batch):
            return np.full(batch.p_h.shape[:2], 2 if block == 3 else 0, dtype=np.int8)

    with pytest.raises(InvalidActionError, match=r"returned \[2\] at block 4"):
        walk(Weird(), sample_trajectory(P, 61))
    with pytest.raises(InvalidActionError, match=r"returned \[2\] at block 4"):
        walk(Weird(), sample_trajectories(P, 61, 5))


def test_frame_batch_checks_length():
    # every entry point takes a FrameBatch, which refuses a frame of the
    # wrong length before any walk
    frame = sample_trajectory(P.evolve(N=10), 62)
    with pytest.raises(InvalidParameterError, match="blocks, params.N"):
        FrameBatch(P, frame.gamma_g, frame.gamma_h, frame.e_h)


def test_replayed_plan_costs_its_exact_skip_sum():
    for seed in range(100):
        batch = sample_trajectory(P, (63, seed))
        alpha, cost = solve(greedy_plan, Frame.of(batch))
        assert replay_one(alpha, batch)[0] == cost  # identical floats, not merely close
    # batch plans of both solvers: the replayed cost is the exact skip sum
    for n in (8, 12, 16):
        params = P.evolve(N=n)
        batch = sample_trajectories(params, 63, 40)
        for solver in (greedy_plan, optimal_plan):
            plan = solver(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
            costs, _, _ = frame_totals(*replay(plan, batch))
            assert costs.tolist() == [math.fsum(batch.skip[f, 0][plan[f, 0] == 0])
                                      for f in range(40)]


def test_grid_only_policy_never_serves():
    batch = sample_trajectory(P, 64)
    cost, grid, drops = exact_totals(GridOnlyPolicy(), batch)
    assert (cost[0], grid[0], drops[0]) == replay_one(np.zeros(P.N), batch)


# ---------------------------------------------------------------------------
# batch walk
# ---------------------------------------------------------------------------

def test_block_order_totals_match_fsum_totals():
    l1, l2 = threshold_lambdas(P)
    policies = [GreedyTransmit(), ThresholdHeuristic(ThresholdParams(8.0, l1, l2))]
    batch = sample_trajectories(P, 65, 50)
    for policy in policies:
        costs, grid, drops = block_totals(policy, batch)
        exact = exact_totals(policy, batch)
        for f, (c, g, d) in enumerate(zip(*exact)):
            assert math.isclose(costs[f], c, rel_tol=1e-12, abs_tol=1e-18)
            assert math.isclose(grid[f], g, rel_tol=1e-12, abs_tol=1e-18)
            assert drops[f] == d


def test_batch_rejects_infeasible_serve():
    batch = sample_trajectories(P, 66, 4)
    with pytest.raises(InvalidActionError):
        block_totals(AlwaysServe(), FrameBatch(P, batch.gamma_g, batch.gamma_h,
                                               np.zeros_like(batch.e_h)))


def test_affordability_check_locates_overdraw():
    # frame 0's block-1 arrival fills its battery; frame 1 gets 1e-9 J, just
    # before block 7, the one block the plan serves
    params = P.evolve(N=7)
    gains = np.full((2, 1, 7), 100.0)
    e_h = np.zeros((2, 7))
    e_h[0, 0] = params.B_m
    e_h[1, 6] = 1e-9
    serve_last = np.zeros((2, 1, 7), dtype=np.int8)
    serve_last[:, :, 6] = 1
    replay(serve_last[:1], FrameBatch(params, gains[:1], gains[:1], e_h[:1]))
    with pytest.raises(InvalidActionError, match="block 7 of frame 1 with battery 1e-09 J"):
        replay(serve_last, FrameBatch(params, gains, gains, e_h))


def capped_at(params, cap, gains):
    """A one-block batch whose arrival E_m pays any serve, under peak cap `cap`."""
    return FrameBatch(params.evolve(p_H_max=float(cap)), gains, gains,
                      np.full((1, 1), params.E_m))


def test_single_user_peak_check_is_exact():
    params = P.evolve(N=1, P_avg=0.5)   # one block's arrival pays a 0.5 W serve
    gains = np.ones((1, 1, 1))
    power = capped_at(params, params.p_H_max, gains).p_h[0, 0, 0]
    serve = np.ones((1, 1, 1), dtype=np.int8)
    replay(serve, capped_at(params, power, gains))
    with pytest.raises(InvalidActionError, match="block 1 of frame 0"):
        replay(serve, capped_at(params, np.nextafter(power, 0.0), gains))


def test_joint_serve_of_one_user_above_the_summed_cap_raises():
    # the summed power is within the 1e-12 slack, the one served user is not
    params = P.evolve(N=1, P_avg=0.5)
    gains = np.array([[[1.0], [2.0]]])
    power = capped_at(params, params.p_H_max, gains).p_h[0, 0, 0]
    first_user = np.array([[[1], [0]]], dtype=np.int8)
    with pytest.raises(InvalidActionError, match="block 1 of frame 0"):
        replay(first_user, capped_at(params, np.nextafter(power, 0.0), gains))
    replay(first_user, capped_at(params, power, gains))


# ---------------------------------------------------------------------------
# Monte Carlo metrics
# ---------------------------------------------------------------------------

def crn_metrics(policy, name, params, frames, seed):
    """The CSV row of a single-user policy on `frames` CRN frames keyed
    (seed, f)."""
    arrays = block_totals(policy, sample_trajectories(params, seed, frames))
    return metrics_row(name, "none", 0.0, params.N, seed, *arrays)


def test_crn_metrics_cost_identity():
    m = crn_metrics(GreedyTransmit(), "GT", P, 300, seed=67)
    assert math.isclose(m["mean_total_cost"],
                        P.w_G * m["grid_energy_j"] + P.w_D * P.N * m["drop_ratio"],
                        rel_tol=1e-9)
    assert m["frames"] == 300 and m["seed"] == 67 and m["policy"] == "GT"
    assert m["stderr_total_cost"] > 0


def test_crn_metrics_single_frame_has_zero_stderr():
    m = crn_metrics(GreedyTransmit(), "GT", P, 1, seed=68)
    assert m["stderr_total_cost"] == 0.0


def test_block_order_totals_keep_the_frame_prefix():
    c1, _, _ = block_totals(GreedyTransmit(), sample_trajectories(P, 69, 40))
    c2, _, _ = block_totals(GreedyTransmit(), sample_trajectories(P, 69, 80))
    np.testing.assert_array_equal(c1, c2[:40])


@pytest.mark.parametrize("solver,changes", [
    ("greedy", {}),
    ("greedy", {"P_avg": 0.01, "w_D": 0.1}),
    ("greedy", {"d_H": 45.0, "d_G": 35.0, "p_H_max": 0.1}),
    ("exhaustive", {"N": 10}),
])
def test_plan_totals_match_scripted_replay_bitwise(solver, changes):
    # the batch evaluation equals solving and replaying each frame on its own,
    # and what the expansion oracle reads off each frame's link terms
    params = P.evolve(**changes)
    frames = sample_trajectories(params, 77, 60)
    plan = {"greedy": greedy_plan, "exhaustive": optimal_plan}[solver]
    got = plan_totals(plan, frames)
    for f in range(frames.frames):
        batch = FrameBatch(params, frames.gamma_g[f:f + 1], frames.gamma_h[f:f + 1],
                           frames.e_h[f:f + 1])
        alpha, _ = solve(plan, Frame.of(batch))
        full = expand_solution(alpha, batch, 0)
        assert (got[0][f], got[1][f], got[2][f]) == replay_one(alpha, batch)
        assert (got[0][f], got[1][f], got[2][f]) == (full.total_cost, full.grid_energy, full.drops)


def test_plan_on_the_energy_slack_boundary_replays():
    # the greedy keeps both blocks: together they overdraw the two arrivals
    # by 9.75e-10 of their sum, within ENERGY_RTOL, though block 2 alone
    # exceeds its battery by 1.05e-9; the walk's slack is on arrivals too
    params = P.evolve(N=2)
    spends = params.E_m * np.array([1 + 9e-10, 1 + 1.05e-9])
    unit = float(link_terms(1.0, 1.0, params)[1])   # p_H_inv at unit fading
    gh = unit * params.tau / spends
    batch = FrameBatch(params, np.ones((1, 1, 2)), gh[None, None], np.full((1, 2), params.E_m))
    costs, grid, drops = plan_totals(greedy_plan, batch)
    assert (costs[0], grid[0], drops[0]) == (0.0, 0.0, 0)


class PlayPlan:
    """A (frames, U, N) plan as a policy."""

    def __init__(self, plan):
        self.plan = plan

    def decide_batch(self, block, battery, batch):
        return self.plan[:, :, block]


def test_one_user_plan_totals_equal_replayed_and_played_as_a_policy():
    batch = sample_trajectories(P, 80, 40)
    want = plan_totals(greedy_plan, batch)
    plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, P.tau, P.p_H_max)
    for got in (frame_totals(*replay(plan, batch)),
                exact_totals(PlayPlan(plan), batch)):
        for arr, ref in zip(got, want):
            assert np.array_equal(arr, ref)


def test_plan_replay_partitions_blocks():
    params = P.evolve(N=12)
    batch = sample_trajectories(params, 25, 20)
    plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
    serve, admitted, cost, grid = replay(plan, batch)
    dropped = ~serve & ~admitted
    assert not np.any(serve & admitted)
    assert np.array_equal(serve, plan == 1)
    costs, energies, drops = frame_totals(serve, admitted, cost, grid)
    for f in range(20):
        assert costs[f] == service_cost(plan[f, 0], Frame.of(batch, f))
        # cost decomposition: grid bill plus drop penalties
        assert math.isclose(costs[f], params.w_G * energies[f] + params.w_D * drops[f],
                            rel_tol=1e-9, abs_tol=1e-15)
    assert np.all(batch.p_g[admitted] <= kappa(params))
    assert np.all(batch.p_h[serve] <= params.p_H_max)
    assert np.array_equal(grid[admitted], batch.p_g[admitted] * params.tau)
    assert np.all(grid[~admitted] == 0.0) and drops.sum() == dropped.sum()


def test_plan_replay_boundary_power_transmits():
    # a grid power exactly at kappa transmits, one ulp of fading below drops
    base = P.evolve(N=2)
    p_g = float(link_terms(1.0, 1.0, base)[0])
    w_d = p_g * base.w_G * base.tau
    while w_d / (base.w_G * base.tau) != p_g:
        w_d = np.nextafter(w_d, np.inf if w_d / (base.w_G * base.tau) < p_g else 0.0)
    params = base.evolve(w_D=float(w_d))
    assert kappa(params) == p_g
    batch = FrameBatch(params, np.array([[[1.0, np.nextafter(1.0, 0.0)]]]), np.zeros((1, 1, 2)),
                       np.zeros((1, 2)))
    serve, admitted, _, _ = replay(np.zeros((1, 1, 2), dtype=np.int8), batch)
    assert admitted[0, 0].tolist() == [True, False] and not serve.any()


def test_offline_evaluation_refuses_a_capped_battery():
    capped = P.evolve(B_m=2 * P.E_m)
    with pytest.raises(ModelMismatchError, match="uncapped battery"):
        plan_totals(greedy_plan, sample_trajectories(capped, 79, 3))
    two = sample_trajectories(capped, 79, 2, users=2)
    with pytest.raises(ModelMismatchError, match="uncapped battery"):
        plan_totals(greedy_plan, two)
    # the causal walks and the solvers themselves stay usable on capped params
    exact_totals(GreedyTransmit(), two)
    solve(greedy_plan, Frame.of(sample_trajectory(capped, 79)))
    # a battery of exactly N * E_m never clamps
    exact = P.evolve(N=5).evolve(B_m=5 * P.E_m)
    plan_totals(greedy_plan, sample_trajectories(exact, 79, 2))


def test_plan_totals_order_the_solvers():
    batch = sample_trajectories(P.evolve(N=10), 70, 30)
    c_greedy, _, _ = plan_totals(greedy_plan, batch)
    c_opt, _, _ = plan_totals(optimal_plan, batch)
    assert np.all(c_greedy >= c_opt - 1e-15)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_apply_axis_rules():
    q = apply_axis(P, "d_H", 20.0)
    assert q.d_H == 20.0 and q.d_G == 60.0  # distance total preserved
    w = apply_axis(P, "w_D", 0.5)
    assert w.w_D == 0.5 and w.d_G == P.d_G
    pw = apply_axis(P, "P_avg", 0.03)
    assert pw.P_avg == 0.03 and pw.E_m == pytest.approx(6e-5, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        apply_axis(P, "d_H", 81.0)
    with pytest.raises(InvalidParameterError):
        apply_axis(P, "frequency", 1.0)


def test_p_avg_axis_refuses_a_pinned_battery():
    # each P_avg point re-derives B_m = N * E_m, so a B_m pinned to another
    # value would be dropped without a word; it is refused at the first point
    pinned = P.evolve(B_m=1e-3)
    with pytest.raises(InvalidParameterError, match="B_m = 0.001 J differs from N \\* E_m"):
        apply_axis(pinned, "P_avg", 0.03)
    built = []

    def factory(point, report):
        built.append(point)
        return GreedyTransmit()

    with pytest.raises(InvalidParameterError, match="P_avg axis"):
        sweep(pinned.evolve(N=8, B_m=1e-4), "P_avg", [0.01, 0.02], {"GT": factory},
              frames=5, seed=71)
    assert built == []
    # the other axes keep the pinned cap, and a B_m equal to N * E_m scales
    assert apply_axis(pinned, "w_D", 0.5).B_m == 1e-3
    scaled = apply_axis(P.evolve(B_m=P.N * P.E_m), "P_avg", 0.03)
    assert scaled.B_m == scaled.N * scaled.E_m > P.B_m


def test_sweep_rows_and_offline_inclusion():
    params = P.evolve(N=8)
    records = sweep(params, "P_avg", [0.01, 0.02], {"GT": lambda p, report: GreedyTransmit()},
                    frames=20, seed=71, plans={"Greedy": greedy_plan, "Exhaustive": optimal_plan})
    assert [(r["axis_value"], r["report"]) for r in records] == [(0.01, {}), (0.02, {})]
    rows = rows_of(records)
    assert [r["policy"] for r in rows] == ["GT", "Greedy", "Exhaustive"] * 2
    # no plans, no offline rows
    assert [r["policy"] for r in rows_of(sweep(params, "P_avg", [0.01], {
        "GT": lambda p, report: GreedyTransmit()}, frames=20, seed=71))] == ["GT"]
    for row in rows:
        assert list(row.keys()) == CSV_HEADER
        assert row["grid_energy_mj"] == pytest.approx(row["grid_energy_j"] * 1e3, rel=1e-12)
    # offline bound holds per point
    for v in (0.01, 0.02):
        at = {r["policy"]: r for r in rows if r["axis_value"] == v}
        assert at["Exhaustive"]["mean_total_cost"] <= at["Greedy"]["mean_total_cost"] + 1e-15
        assert at["Greedy"]["mean_total_cost"] <= at["GT"]["mean_total_cost"] + 1e-15


def test_sweep_runs_the_exhaustive_row_at_the_papers_n():
    # the optimum's walk is bounded by its front, not by N: at N = 50 the
    # Exhaustive row is written and never costs more than the Greedy one
    plans = {"Greedy": greedy_plan, "Exhaustive": optimal_plan}
    rows = rows_of(sweep(P, "w_D", [0.01, 0.1], {"GT": lambda p, report: GreedyTransmit()},
                         frames=5, seed=72, plans=plans))
    assert [r["policy"] for r in rows] == ["GT", "Greedy", "Exhaustive"] * 2
    for greedy, optimum in zip(rows[1::3], rows[2::3]):
        assert optimum["mean_total_cost"] <= greedy["mean_total_cost"]


# values of every sweep axis; no two neighbours of the p_H_max axis share a
# cap, so its points are planned one call each
SWEEP_VALUES = {"d_H": (20.0, 30.0, 45.0), "P_avg": (0.01, 0.02, 0.04),
                "w_D": (0.005, 0.01, 0.1), "p_H_max": (0.5, 0.05, 0.5)}


@pytest.mark.parametrize("users", [1, 2])
@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_rows_equal_the_point_by_point_sweep(axis, users, monkeypatch):
    # one plan call per chunk of consecutive points of one (tau, p_H_max), up
    # to _JOIN_FRAMES frames a call, moves no bit of any row
    assert set(SWEEP_VALUES) == set(SWEEP_AXES)
    params = P.evolve(N=12)
    plans = {"Greedy": greedy_plan}
    if users == 1:
        plans["Exhaustive"] = optimal_plan
    args = (params, axis, SWEEP_VALUES[axis], point_factories(users), 9, 81)
    want = point_by_point_sweep(*args, plans, users)
    calls = []   # frames per plan call
    counted = {name: lambda *a, solve=solve: calls.append(len(a[0])) or solve(*a)
               for name, solve in plans.items()}
    # points per call -> frames per call, at 9 frames a point
    sizes = ({3: [9, 9, 9], 2: [9, 9, 9], 1: [9, 9, 9]} if axis == "p_H_max" else
             {3: [27], 2: [18, 9], 1: [9, 9, 9]})
    for join, per_call in ((sim._JOIN_FRAMES, 3), (18, 2), (17, 1)):
        monkeypatch.setattr(sim, "_JOIN_FRAMES", join)
        calls.clear()
        got = rows_of(sweep(*args, plans=counted, users=users))
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
        assert calls == [n for n in sizes[per_call] for _ in plans]


def test_capped_battery_sweep_refuses_before_any_factory_runs():
    # the offline solvers' uncapped-battery rule is checked at every point
    # before any policy is built: no table is trained, no zeta calibrated
    capped = P.evolve(N=8, B_m=4 * P.E_m)
    built = []

    def factory(point, report):
        built.append(point)
        return GreedyTransmit()

    want = lone_error(sim.solve_plan, greedy_plan, sample_trajectories(capped, 73, 4))
    assert want[0] is ModelMismatchError
    plans = {"Greedy": greedy_plan}
    assert lone_error(lambda: sweep(capped, "w_D", [0.01, 0.02], {"GT": factory}, frames=4,
                                    seed=73, plans=plans)) == want
    assert lone_error(point_rows, capped, "none", 0.0, {"GT": factory}, 4, 73, plans) == want
    assert built == []
    # with no plan the capped battery is walked
    assert len(rows_of(sweep(capped, "w_D", [0.01], {"GT": factory}, frames=4, seed=73))) == 1
    assert len(built) == 1


@pytest.mark.parametrize("frames", [0, -1])
def test_a_run_of_no_frames_is_refused(frames):
    # on one chunk (P_avg) or three (p_H_max), with or without plans
    factories = {"GT": lambda p, report: GreedyTransmit()}
    for plans in (None, {"Greedy": greedy_plan}):
        for axis in ("P_avg", "p_H_max"):
            with pytest.raises(InvalidParameterError, match=r"^frames must be >= 1$"):
                sweep(P, axis, SWEEP_VALUES[axis], factories, frames=frames, seed=4, plans=plans)
        with pytest.raises(InvalidParameterError, match=r"^frames must be >= 1$"):
            point_rows(P, "none", 0.0, factories, frames, 4, plans)


def test_exhaustive_refusal_in_a_sweep_reads_as_its_lone_point(monkeypatch):
    # the points' frames are planned joined; a front over FRONT_MAX is
    # re-solved point by point, so the error names the frame within its point
    monkeypatch.setattr(offline, "FRONT_MAX", 12)
    params = P.evolve(N=12)
    plans = {"Greedy": greedy_plan, "Exhaustive": optimal_plan}
    factories = {"GT": lambda p, report: GreedyTransmit()}

    def lone(v):
        return lone_error(point_rows, apply_axis(params, "P_avg", v), "P_avg", v, factories, 6, 5,
                          plans)

    # at this bound the first point plans and the second is refused at its frame 3
    point_rows(apply_axis(params, "P_avg", 0.005), "P_avg", 0.005, factories, 6, 5, plans)
    want = lone(0.02)
    assert want[0] is ResourceLimitError and want[1].startswith("frame 3: ")
    for values in ((0.005, 0.02, 0.05), (0.05, 0.02)):
        got = lone_error(lambda: sweep(params, "P_avg", values, factories, frames=6, seed=5,
                                       plans=plans))
        assert got == (want if values[0] == 0.005 else lone(0.05))
    # each cap of the p_H_max axis is planned on its own, a repeated cap with
    # its twin; here cap 0.05 plans, 0.1 fails at its frame 1 and 0.5 at its
    # frame 0, and the first failing value is the one named
    params = params.evolve(P_avg=0.03)
    fails = {v: lone_error(point_rows, apply_axis(params, "p_H_max", v), "p_H_max", v,
                           factories, 6, 5, plans) for v in (0.1, 0.5)}
    assert fails[0.1][1].startswith("frame 1: ") and fails[0.5][1].startswith("frame 0: ")
    for values in ((0.05, 0.1, 0.05, 0.5), (0.05, 0.5, 0.05, 0.1), (0.5, 0.1, 0.5)):
        got = lone_error(lambda: sweep(params, "p_H_max", values, factories, frames=6,
                                       seed=5, plans=plans))
        assert got == fails[next(v for v in values if v in fails)]
    # two batches of one cap planned in one call, the second failing, raise
    # the second's error at its own frame, not at its frame in the call
    batches = [sample_trajectories(params.evolve(P_avg=0.005, p_H_max=0.5), 5, 6),
               sample_trajectories(params.evolve(p_H_max=0.5), 5, 6)]
    got = lone_error(sim._solve_plans, [greedy_plan, optimal_plan], batches)
    assert got == fails[0.5]


def point_factories(users):
    """Row name -> policy factory: GT, Threshold and GP-only, and at one
    user a Look-Ahead table."""
    factories = {
        "GT": lambda p, report: GreedyTransmit(),
        "Threshold": lambda p, report: ThresholdHeuristic(
            ThresholdParams(8.0, *threshold_lambdas(p))),
        "GP-only": lambda p, report: GridOnlyPolicy(),
    }
    if users == 1:
        factories["Look-Ahead"] = lambda p, report: MdpTablePolicy(
            look_ahead_build(p, M=10, K=5))
    return factories


@pytest.mark.parametrize("users", [1, 2])
def test_point_rows_equal_one_walk_per_policy(users, monkeypatch):
    # every row of a point comes out of one battery walk, field for field the
    # row its own walk gives, here on dead channels of both links and under a
    # summed grid cap that binds
    base = sample_trajectories(P, 93 + users, 12, users)
    gamma_g, gamma_h = base.gamma_g.copy(), base.gamma_h.copy()
    gamma_g[:, :, ::3] = 0.0
    gamma_h[:, :, 1::3] = 0.0
    capped = P.evolve(p_G_max=1.5 * float(np.median(base.p_g[base.transmits])))
    monkeypatch.setattr(sim, "sample_trajectories", lambda point, seed, frames, users: (
        FrameBatch(point, gamma_g, gamma_h, base.e_h)))
    walks = []
    walk = sim._walk
    monkeypatch.setattr(sim, "_walk", lambda decides, batch: walks.append(len(decides)) or walk(
        decides, batch))
    plans = {"Greedy": greedy_plan, "Exhaustive": optimal_plan} if users == 1 else {
        "Greedy": greedy_plan}
    for point in (P, capped):
        args = (point, "P_avg", 0.02, point_factories(users), 12, 95, plans, users)
        want = per_policy_point_rows(*args)
        walks.clear()
        got = rows_of(point_rows(*args))
        assert walks == [len(want)]
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    if users > 1:   # the summed cap turns users away somewhere
        batch = sim.sample_trajectories(capped, 95, 12, users)
        _, admitted, _, _ = replay(np.zeros((12, users, P.N), np.int8), batch)
        assert (batch.transmits & ~admitted).any()


class MisbehavesAt:
    """GT until block `at`, then the action `act(batch)` on every block."""

    def __init__(self, at, act):
        self.at, self.act = at, act

    def decide_batch(self, block, battery, batch):
        if block < self.at:
            return GreedyTransmit().decide_batch(block, battery, batch)
        return self.act(batch)


def bad_shape(batch):
    return np.zeros((batch.frames, batch.users + 1), dtype=np.int8)


def a_two(batch):
    act = np.zeros((batch.frames, batch.users), dtype=np.int8)
    act[4, -1] = 2
    return act


def overdraw(batch):
    return np.ones((batch.frames, batch.users), dtype=np.int8)


def serve_everything(c, p_h, e_h, tau, p_max):
    """An offline "plan" that serves every block: unaffordable."""
    return np.ones(c.shape, dtype=np.int8)


def rows_of(records):
    """The CSV rows of `sweep` or `point_rows` records, in order."""
    return [row for record in records for row in record["rows"]]


def lone_error(evaluate, *args):
    with pytest.raises(Exception) as exc:
        evaluate(*args)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("users", [1, 2])
def test_point_walk_raises_what_the_first_failing_lone_walk_raises(users):
    batch = sample_trajectories(P, 96, 10, users)
    online = block_totals if users == 1 else exact_totals
    good = point_factories(users)

    def point_error(factories, plans=None):
        return lone_error(point_rows, P, "none", 0.0, factories, 10, 96, plans, users)

    for act in (bad_shape, a_two, overdraw):
        for at in (0, 6):
            bad = MisbehavesAt(at, act)
            want = lone_error(online, bad, batch)
            assert want[0] is InvalidActionError
            assert point_error({**good, "bad": lambda p, report: bad},
                               {"Greedy": greedy_plan}) == want
            # the earliest failing block raises, whatever the row order
            late = MisbehavesAt(at + 2, overdraw)
            assert point_error({"late": lambda p, report: late,
                                "bad": lambda p, report: bad}) == want
    # in one block, the first row that fails raises
    first, second = MisbehavesAt(3, a_two), MisbehavesAt(3, bad_shape)
    assert point_error({"first": lambda p, report: first,
                        "second": lambda p, report: second}) == lone_error(online, first, batch)
    # a plan that cannot be paid raises as its own replay does
    want = lone_error(plan_totals, serve_everything, batch)
    assert want[0] is InvalidActionError
    assert point_error(good, {"Greedy": greedy_plan, "all": serve_everything}) == want


@pytest.mark.parametrize("users", [1, 2])
def test_a_plan_that_is_not_all_0_1_raises_at_its_own_block(users):
    # a plan with a 2 is checked block by block, as a policy's action is:
    # a policy that overdraws at block index 3 raises before the plan's 2
    # at block index 5, and alone the plan raises at that block
    batch = sample_trajectories(P, 96, 10, users)
    plan = np.zeros((10, users, P.N), dtype=np.int8)
    plan[4, -1, 5] = 2
    bad = MisbehavesAt(3, overdraw)
    want = lone_error(walk, bad, batch)
    assert want[0] is InvalidActionError and want[1].startswith("policy served block 4 ")
    assert lone_error(outcomes, batch, [bad], [plan]) == want
    assert lone_error(outcomes, batch, [], [plan]) == (
        InvalidActionError, f"policy returned {plan[4, :, 5].tolist()!r} at block 6 of frame 4, "
        "expected 0 or 1 per user")


def test_one_user_settlement_admits_as_the_in_order_rule():
    # at U = 1 the settlement admits every skipped block that transmits and
    # compares no power; the in-order rule compares p_g with the summed cap
    base = sample_trajectories(P, 88, 40)
    gamma_g = base.gamma_g.copy()
    gamma_g[:, :, ::4] = 0.0   # a dead grid link: p_g is inf
    finite = np.sort(base.p_g[base.p_g <= 1.0])
    on_cap = P.evolve(p_G_max=float(finite[len(finite) // 2]))   # one sampled p_g is the cap
    rng = make_rng(89)
    for params in (P, on_cap, P.evolve(w_D=1e-4)):
        batch = FrameBatch(params, gamma_g, base.gamma_h, base.e_h)
        assert (kappa(params) == params.p_G_max) == (params.w_D == P.w_D)
        serve = rng.random(batch.p_g.shape) < 0.3

        def per_block(a):
            return a.transpose(0, 2, 1).reshape(-1, 1)

        want = _admit_in_order(None, per_block(~serve & batch.transmits), per_block(batch.p_g),
                               params.p_G_max * (1.0 + 1e-12))
        got = sim._settle(serve, batch)[1]
        assert got.dtype == bool
        assert np.array_equal(got, want.reshape(40, P.N, 1).transpose(0, 2, 1))
        assert (~serve & ~batch.transmits & np.isinf(batch.p_g)).any()
        if params is on_cap:
            assert (~serve & (batch.p_g == params.p_G_max) & got).any()


@pytest.mark.parametrize("users", [1, 2])
def test_rows_are_settled_one_at_a_time_when_read(users, monkeypatch):
    # the walk comes with the call and each row's settlement with its read;
    # a point lets go of one row's outcome arrays before it settles the next
    batch = sample_trajectories(P, 98, 6, users)
    policies = [GreedyTransmit(), GridOnlyPolicy()]
    plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, P.tau, P.p_H_max)
    want = [walk(policy, batch) for policy in policies] + [replay(plan, batch)]
    settled = []
    settle = sim._settle

    def tracked(serve, batch):
        assert all(ref() is None for ref in settled), "an earlier row's outcomes are alive"
        arrays = settle(serve, batch)
        settled.append(weakref.ref(arrays[2]))
        return arrays

    monkeypatch.setattr(sim, "_settle", tracked)
    rows = outcomes(batch, policies, [plan])
    assert settled == []
    for k, lone in enumerate(want, 1):
        assert [a.tobytes() for a in next(rows)] == [a.tobytes() for a in lone]
        assert len(settled) == k
    assert next(rows, None) is None
    settled.clear()
    point_rows(P, "none", 0.0, {"GT": lambda p, report: GreedyTransmit(),
                                "GP-only": lambda p, report: GridOnlyPolicy()},
               6, 98, {"Greedy": greedy_plan}, users)
    assert len(settled) == 3


def test_a_sweep_builds_each_points_batch_once_and_lets_a_chunk_go(monkeypatch):
    # each point's batch is drawn once, when its chunk starts, and a chunk's
    # batches are let go before the next chunk draws; here at two points a
    # chunk, so the points run as (0, 1), (2, 3), (4)
    values = (0.01, 0.02, 0.03, 0.04, 0.05)
    monkeypatch.setattr(sim, "_JOIN_FRAMES", 8)
    built = []   # one entry per FrameBatch built anywhere
    post_init = FrameBatch.__post_init__
    monkeypatch.setattr(FrameBatch, "__post_init__", lambda self: built.append(1) or post_init(
        self))
    refs = []   # a weakref to each batch the sweep draws, in draw order
    draw = sim.sample_trajectories

    def tracked(*args):
        batch = draw(*args)
        refs.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(sim, "sample_trajectories", tracked)

    def factory(point, report):   # runs after its chunk's batches are drawn
        first = values.index(point.P_avg) // 2 * 2   # its chunk's first point
        assert len(refs) == min(first + 2, len(values))
        assert all(ref() is None for ref in refs[:first]), "an earlier chunk's batch is alive"
        assert all(ref() is not None for ref in refs[first:])
        return GreedyTransmit()

    for plans in (None, {"Greedy": greedy_plan}):
        built.clear()
        refs.clear()
        sweep(P, "P_avg", values, {"GT": factory}, frames=4, seed=3, plans=plans)
        assert len(refs) == len(built) == len(values)


def one_bad(dtype, bad):
    """An action of `dtype`, 0 but for `bad` at frame 4's last user."""
    def act(batch):
        a = np.zeros((batch.frames, batch.users), dtype=dtype)
        a[4, -1] = bad
        return a

    return act


@pytest.mark.parametrize("users", [1, 2])
def test_walk_checks_every_action_dtype_alike(users):
    # an action of any dtype is 0 or 1 by value; a bad one raises one text
    batch = sample_trajectories(P, 99, 6, users)
    for dtype, bad in ((np.int8, -1), (np.int8, 2), (np.uint8, 255), (np.float64, 0.5),
                       (np.float64, 2.0), (np.float64, np.nan), (np.int64, -1)):
        act = one_bad(dtype, bad)
        with pytest.raises(InvalidActionError) as exc:
            walk(MisbehavesAt(3, act), batch)
        assert str(exc.value) == (f"policy returned {act(batch)[4].tolist()!r} at block 4 of "
                                  "frame 4, expected 0 or 1 per user")
    # every dtype of a valid action walks alike
    want = [a.tobytes() for a in walk(GreedyTransmit(), batch)]
    for dtype in (bool, np.uint8, np.float64, np.int64):
        assert [a.tobytes() for a in walk(CastGreedy(dtype), batch)] == want


class CastGreedy:
    """GT with its actions cast to `dtype`."""

    def __init__(self, dtype):
        self.dtype = dtype

    def decide_batch(self, block, battery, batch):
        return GreedyTransmit().decide_batch(block, battery, batch).astype(self.dtype)


def test_stale_table_in_a_point_raises_as_its_lone_walk_does():
    stale = MdpTablePolicy(look_ahead_build(P.evolve(w_D=0.5), M=10, K=4))
    want = lone_error(block_totals, stale, sample_trajectories(P, 97, 6))
    assert want[0] is StalePolicyError
    factories = {**point_factories(1), "stale": lambda p, report: stale}
    assert lone_error(point_rows, P, "none", 0.0, factories, 6, 97) == want


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def test_csv_golden_header(tmp_path):
    rows = rows_of(sweep(P, "w_D", [0.01], {"GT": lambda p, report: GreedyTransmit()}, frames=3,
                         seed=74))
    out = tmp_path / "rows.csv"
    write_rows_csv(out, rows)
    text = out.read_text().splitlines()
    assert text[0] == ("policy,axis,axis_value,mean_total_cost,stderr_total_cost,"
                       "grid_energy_j,grid_energy_mj,drop_ratio,frames,seed")
    with open(out) as f:
        back = list(csv.DictReader(f))
    assert len(back) == len(rows)
    assert back[0]["policy"] == rows[0]["policy"]
    assert float(back[0]["mean_total_cost"]) == pytest.approx(rows[0]["mean_total_cost"])


def test_manifest_contents(tmp_path):
    out = tmp_path / "manifest.json"
    write_manifest(out, P, zeta_star=7.5, artifacts={"policy": "abc123"})
    doc = json.loads(out.read_text())
    assert doc["params_hash"] == P.content_hash()
    assert doc["params"]["w_D"] == P.w_D
    assert doc["zeta_star"] == 7.5
    assert doc["artifacts"]["policy"] == "abc123"


# ---------------------------------------------------------------------------
# the battery walk and its one settlement against the per-block walk
# ---------------------------------------------------------------------------

def settlement_cases(users):
    """(name, batch) pairs at `users` users over the edge cases of the grid
    BS's admission and the battery walk."""
    base = sample_trajectories(P, 90 + users, 12, users)
    g, h, e = base.gamma_g, base.gamma_h, base.e_h
    dead_g, dead_h = g.copy(), h.copy()
    dead_g[:, :, ::3] = 0.0     # inf inversion powers on both links
    dead_h[:, :, 1::3] = 0.0
    # a summed grid cap that one typical user fits and two do not
    capped = P.evolve(p_G_max=1.5 * float(np.median(base.p_g[base.transmits])))
    return [
        ("sampled", base),
        ("summed grid cap binds", FrameBatch(capped, g, h, e)),
        ("tied p_g", FrameBatch(capped, np.repeat(g[:, :1], users, axis=1), h, e)),
        ("dead channels", FrameBatch(P, dead_g, dead_h, e)),
        ("N = 1", FrameBatch(P.evolve(N=1), g[:, :, :1], h[:, :, :1], e[:, :1])),
        ("peak cap below every p_h",
         FrameBatch(P.evolve(p_H_max=0.5 * float(base.p_h.min())), g, h, e)),
    ]


def assert_walks_agree(walk, decide, batch):
    """`walk()` returns `block_walk(decide, batch)`'s arrays bit for bit, or
    raises its error word for word."""
    try:
        want = block_walk(decide, batch)
    except InvalidActionError as exc:
        with pytest.raises(InvalidActionError) as got:
            walk()
        assert str(got.value) == str(exc)
        return
    got = walk()
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("users", [1, 2, 3])
def test_batch_settlement_matches_the_per_block_walk(users):
    l1, l2 = threshold_lambdas(P)
    policies = [GreedyTransmit(), ThresholdHeuristic(ThresholdParams(8.0, l1, l2)),
                GridOnlyPolicy(), AlwaysServe()]
    for name, batch in settlement_cases(users):
        params = batch.params
        plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
        assert_walks_agree(lambda: replay(plan, batch),
                           lambda i, battery, batch: plan[:, :, i], batch)
        for policy in policies:
            assert_walks_agree(lambda: walk(policy, batch),
                               policy.decide_batch, batch)
        serve, admitted, _, _ = replay(plan, batch)
        refused = ~serve & batch.transmits & ~admitted
        # one user is admitted wherever it transmits; the capped cases bind
        if users == 1 or name in ("summed grid cap binds", "tied p_g"):
            assert refused.any() == (users > 1), name


def test_settlement_breaks_p_g_ties_toward_the_lower_user():
    batch = dict(settlement_cases(3))["tied p_g"]
    serve, admitted, _, _ = replay(np.zeros((12, 3, P.N), dtype=np.int8), batch)
    assert not serve.any() and admitted.any()
    # tied users share their transmit flags, so admission only ever stops
    assert np.all(admitted[:, 1:] <= admitted[:, :-1])
    assert (admitted[:, 0] & ~admitted[:, 1]).any()


def test_block_order_totals_are_running_sums_that_own_their_memory():
    l1, l2 = threshold_lambdas(P)
    batch = sample_trajectories(P, 92, 40)
    for policy in (GreedyTransmit(), ThresholdHeuristic(ThresholdParams(8.0, l1, l2)),
                   GridOnlyPolicy()):
        serve, admitted, cost, energy = block_walk(policy.decide_batch, batch)
        want = (np.zeros(40), np.zeros(40), np.zeros(40, dtype=np.int64))
        for i in range(P.N):   # the running sums the single-user CSVs are pinned to
            want[0][:] += cost[:, 0, i]
            want[1][:] += energy[:, 0, i]
            want[2][:] += ~serve[:, 0, i] & ~admitted[:, 0, i]
        for got, total in zip(block_totals(policy, batch), want):
            assert (got.dtype, got.tobytes()) == (total.dtype, total.tobytes())
            assert got.base is None   # no view keeps the (frames, N) running sums alive


# ---------------------------------------------------------------------------
# multi-user frames
# ---------------------------------------------------------------------------

def two_user_setup():
    # two users at the reference distances sharing bandwidth: each link
    # carries half the spectrum, which doubles the per-use spectral demand
    return P.evolve(W=P.W / 2)


def one_frame_multiuser(policy, gamma_g, gamma_h, e_h, params):
    """Walk one (U, N) frame as a one-frame batch under a policy, or replay
    a (1, U, N) plan; (cost, grid energy, drops)."""
    batch = FrameBatch(params, np.asarray(gamma_g)[None], np.asarray(gamma_h)[None],
                       np.asarray(e_h)[None])
    if isinstance(policy, np.ndarray):
        costs, grid, drops = frame_totals(*replay(policy, batch))
    else:
        costs, grid, drops = exact_totals(policy, batch)
    return costs[0], grid[0], drops[0]


def user_frames(batch, f):
    """Each user's Frame of frame f."""
    return [Frame.of(batch, f, u) for u in range(batch.users)]


def pooled_greedy(batch, f):
    """The pooled greedy plan of frame f alone and its exact skip cost."""
    frames = user_frames(batch, f)
    sel = greedy_plan(*plan_args(frames))[0]
    return sel, math.fsum(np.stack([fr.c for fr in frames])[sel == 0])


def test_multiuser_replay_reproduces_pooled_cost_exactly():
    params = two_user_setup().evolve(p_G_max=1e9)   # unbounded grid BS
    batch = sample_trajectories(params, 75, 10, users=2)
    for f in range(10):
        sel, cost = pooled_greedy(batch, f)
        replay, grid, drops = one_frame_multiuser(sel[None], batch.gamma_g[f], batch.gamma_h[f],
                                                  batch.e_h[f], params)
        assert replay == cost


def test_multiuser_grid_cap_drops_expensive_users():
    # both users skip; grid BS can power only the cheaper one
    gamma_g = np.array([[1.0], [0.9]])
    gamma_h = np.array([[1.0], [1.0]])
    e_h = np.array([0.0])
    one_block = P.evolve(N=1)
    p_g = link_terms(gamma_g, gamma_h, one_block)[0][:, 0]
    # each user alone is within the summed cap (and kappa, which it also
    # sets), the two together are not
    params = one_block.evolve(p_G_max=float(min(p_g)) * 1.5)
    assert np.all(p_g <= kappa(params)) and p_g.sum() > params.p_G_max
    sel = np.zeros((1, 2, 1), dtype=int)
    cost, grid, drops = one_frame_multiuser(sel, gamma_g, gamma_h, e_h, params)
    assert drops == 1
    assert math.isclose(grid, min(p_g) * P.tau, rel_tol=1e-12)
    assert math.isclose(cost, P.w_G * grid + P.w_D, rel_tol=1e-12)


def test_multiuser_grid_cap_admits_a_sum_exactly_at_the_cap():
    gamma_g = np.array([[1.0], [0.9]])
    p_g, _, _, _ = link_terms(gamma_g, np.ones((2, 1)), P.evolve(N=1))
    sel = np.zeros((1, 2, 1), dtype=int)
    # cheapest first, so the cap is reached as p_g[0] + p_g[1]
    params = P.evolve(N=1, p_G_max=float(p_g[0, 0] + p_g[1, 0]))
    _, grid, drops = one_frame_multiuser(sel, gamma_g, np.ones((2, 1)), np.array([0.0]), params)
    assert drops == 0 and grid == math.fsum([p_g[0, 0] * P.tau, p_g[1, 0] * P.tau])


def test_multiuser_rejects_joint_overdraw():
    sel = np.ones((1, 2, 1), dtype=int)
    gamma = np.ones((2, 1))
    with pytest.raises(InvalidActionError):
        one_frame_multiuser(sel, gamma, gamma, np.array([1e-9]), P.evolve(N=1))


def test_two_user_greedy_plan_totals_walk_pooled_plans():
    batch = sample_trajectories(two_user_setup().evolve(p_G_max=1e9), 78, 8, users=2)
    costs, grid, drops = plan_totals(greedy_plan, batch)   # unbounded grid BS
    for f in range(8):
        assert costs[f] == pooled_greedy(batch, f)[1]
    # the optimum plans one user: a two-user batch is refused
    with pytest.raises(InvalidParameterError, match="plans one user, got 2"):
        plan_totals(optimal_plan, batch)


def test_metrics_aggregate_over_users_times_blocks():
    costs, grid, drops = np.array([1.0, 3.0]), np.array([0.5, 1.5]), np.array([4, 6])
    m = metrics_row("X", "w_D", 0.5, 2 * P.N, 9, costs, grid, drops)
    assert (m["policy"], m["axis"], m["axis_value"], m["frames"], m["seed"]) == (
        "X", "w_D", 0.5, 2, 9)
    assert m["mean_total_cost"] == 2.0 and m["grid_energy_j"] == 1.0
    assert m["grid_energy_mj"] == 1e3
    assert m["stderr_total_cost"] == pytest.approx(1.0)
    assert m["drop_ratio"] == 10 / (2 * 2 * P.N)


def test_multiuser_rejects_bad_action_value():
    params = P.evolve(N=1)
    gamma = np.ones((2, 1))
    with pytest.raises(InvalidActionError, match="returned \\[2, 0\\] at block 1"):
        one_frame_multiuser(np.array([[[2], [0]]]), gamma, gamma, np.array([1e-3]), params)

    class PerFrameRule:   # the one-frame (users,) answer of a per-frame joint rule
        def decide_batch(self, block, battery, batch):
            return np.zeros(batch.users, dtype=np.int8)

    with pytest.raises(InvalidActionError, match=r"shape \(2,\) at block 1, expected \(1, 2\)"):
        one_frame_multiuser(PerFrameRule(), gamma, gamma, np.array([1e-3]), params)


def test_two_user_totals_cost_identity_and_repeat():
    params = two_user_setup()
    gt = GreedyTransmit()

    def run():
        arrays = exact_totals(gt, sample_trajectories(params, 76, 50, users=2))
        return metrics_row("GT", "none", 0.0, 2 * P.N, 76, *arrays)

    m = run()
    assert math.isclose(
        m["mean_total_cost"],
        P.w_G * m["grid_energy_j"] + P.w_D * 2 * P.N * m["drop_ratio"], rel_tol=1e-9)
    m2 = run()
    assert m["mean_total_cost"] == m2["mean_total_cost"]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

short_frame_params = st.builds(
    lambda n, d_h, d_g, w_d, cap, p_avg, mu_g, mu_h, fill: P.evolve(
        N=n, d_H=d_h, d_G=d_g, w_D=w_d, p_H_max=cap, P_avg=p_avg, mu_G=mu_g, mu_H=mu_h
    ).evolve(B_m=2.0 * p_avg * P.tau * (1.0 + fill * (n - 1))),
    st.integers(1, 10), st.floats(15.0, 60.0), st.floats(30.0, 70.0), st.floats(0.001, 1.0),
    st.floats(0.01, 1.0), st.floats(0.005, 0.05), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    st.floats(0.0, 1.0))


def dense_table(params, grid):
    """The MDP solve at `params` played as its dense serve mask."""
    model = build_mdp_model(params, grid)
    _, u_hat, _ = monotone_backward_induction(model, params.N)
    return DenseTablePolicy(ActionValues.of(model, u_hat).actions, grid)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(params=short_frame_params, zeta=st.floats(0.0, 50.0), seed=st.integers(0, 2**16))
def test_property_online_frame_cost_at_least_exhaustive_optimum(params, zeta, seed):
    # the offline optimum sees the whole frame and no battery cap, so no
    # causal policy beats it on any frame; both sides are exact fsums
    l1, l2 = threshold_lambdas(params)
    grid = build_grid(params, M=6, K=3)
    dense = dense_table(params, grid)
    policies = (GreedyTransmit(), ThresholdHeuristic(ThresholdParams(zeta, l1, l2)),
                dense)
    batch = sample_trajectories(params, seed, 3)
    costs = [frame_totals(*arrays)[0] for arrays in outcomes(batch, policies)]
    for f in range(3):
        _, opt = solve(optimal_plan, Frame.of(batch, f))
        for cost in costs:
            assert cost[f] >= opt


# offline plans are exact only when the battery cannot clamp
uncapped_params = short_frame_params.map(lambda p: p.evolve(B_m=p.N * p.E_m))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(params=uncapped_params, zeta=st.floats(0.0, 50.0), seed=st.integers(0, 2**16))
def test_property_cost_identity(params, zeta, seed):
    # mean cost == w_G * mean grid energy + w_D * users * N * drop ratio,
    # here with one user, for the batch walk under three policies and for
    # the offline evaluation
    l1, l2 = threshold_lambdas(params)
    grid = build_grid(params, M=6, K=3)
    dense = dense_table(params, grid)
    batch = sample_trajectories(params, seed, 8)
    runs = [block_totals(policy, batch)
            for policy in (GreedyTransmit(), ThresholdHeuristic(ThresholdParams(zeta, l1, l2)),
                           dense)]
    runs.append(plan_totals(greedy_plan, batch))
    for arrays in runs:
        m = metrics_row("X", "none", 0.0, params.N, seed, *arrays)
        assert math.isclose(m["mean_total_cost"],
                            params.w_G * m["grid_energy_j"]
                            + params.w_D * params.N * m["drop_ratio"],
                            rel_tol=1e-9, abs_tol=1e-18)


def oracle_frame_multiuser(policy, batch, f):
    """Frame f of a batch walked block by block in plain floats: the
    per-frame walk the batch walk (`outcomes`) replaced, kept as its
    reference.  The link terms come from `link_terms` on the frame's gains,
    the policy is asked through a one-frame batch, or `policy` is a (U, N)
    plan to replay; served powers are summed with np.sum, grid users
    admitted through `sorted`, and the cost and grid terms totalled with
    math.fsum.  Returns (cost, grid energy in J, drops, capped), where
    capped counts the users the grid BS could carry alone but its summed
    peak power turned away.
    """
    params = batch.params
    gamma_g, gamma_h, e_h = batch.gamma_g[f], batch.gamma_h[f], batch.e_h[f]
    users, n = gamma_g.shape
    p_inv_g, p_inv_h, skip, transmits = link_terms(gamma_g, gamma_h, params)
    one = FrameBatch(params, gamma_g[None], gamma_h[None], e_h[None])
    battery = 0.0
    block_costs = []
    grid_terms = []
    drops = capped = 0
    for i in range(n):
        battery = min(battery + float(e_h[i]), params.B_m)
        if isinstance(policy, np.ndarray):
            acts = policy[:, i]
        else:
            acts = np.asarray(policy.decide_batch(i, np.array([battery]), one))[0]
        served = np.flatnonzero(acts == 1)
        left = np.flatnonzero(acts == 0)
        assert served.size + left.size == users
        p_served = p_inv_h[served, i]
        spend = float(np.sum(p_served) * params.tau) if served.size else 0.0
        if served.size:
            assert np.sum(p_served) <= params.p_H_max * (1.0 + 1e-12)
            assert spend <= battery * (1.0 + ENERGY_RTOL) + 1e-18
        battery = max(battery - spend, 0.0)
        used = 0.0
        for u in sorted(left, key=lambda u: p_inv_g[u, i]):
            if transmits[u, i] and used + p_inv_g[u, i] <= params.p_G_max * (1.0 + 1e-12):
                used += p_inv_g[u, i]
                block_costs.append(skip[u, i])
                grid_terms.append(p_inv_g[u, i] * params.tau)
            else:
                capped += bool(transmits[u, i])
                block_costs.append(params.w_D)
                drops += 1
    return math.fsum(block_costs), math.fsum(grid_terms), drops, capped


def assert_lockstep_matches_oracle(policy, batch):
    """The lockstep walk equals the per-frame oracle bit for bit, frame by
    frame; "greedy" is replayed from each frame's own pooled plan.  Returns
    the walk's per-frame arrays and how many users the summed grid cap
    turned away."""
    if policy == "greedy":
        got = plan_totals(greedy_plan, batch)
    else:
        got = exact_totals(policy, batch)
    capped = 0
    for f in range(batch.frames):
        frame_policy = pooled_greedy(batch, f)[0] if policy == "greedy" else policy
        *want, turned_away = oracle_frame_multiuser(frame_policy, batch, f)
        assert (got[0][f], got[1][f], got[2][f]) == tuple(want), f"frame {f}"
        capped += turned_away
    return got, capped


def joint_policy(name, params, zeta=3.0):
    if name == "GT":
        return GreedyTransmit()
    if name == "Threshold":
        return ThresholdHeuristic(ThresholdParams(zeta, *threshold_lambdas(params)))
    return name


@pytest.mark.parametrize("policy", ["GT", "Threshold", "greedy"])
@pytest.mark.parametrize("users", [2, 3])
def test_multiuser_lockstep_walk_matches_per_frame_oracle(policy, users):
    sampled = sample_trajectories(P, 81, 40, users)
    gg, gh = sampled.gamma_g.copy(), sampled.gamma_h.copy()
    # dead channels: whole blocks a link cannot carry at any power
    gg[:, 0, ::7] = 0.0
    gh[:, users - 1, ::5] = 0.0

    def walk(p_G_max):
        params = P.evolve(p_G_max=p_G_max)
        batch = FrameBatch(params, gg, gh, sampled.e_h)
        return assert_lockstep_matches_oracle(joint_policy(policy, params), batch)

    loose, _ = walk(P.p_G_max)
    # a grid BS summed peak power of 0.3 W turns many users away: the cap binds
    tight, capped = walk(0.3)
    assert capped > 0
    assert tight[2].sum() > loose[2].sum()
    assert tight[1].sum() < loose[1].sum()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(params=short_frame_params, users=st.integers(2, 3), seed=st.integers(0, 2**16),
       policy=st.sampled_from(["GT", "Threshold", "greedy"]), zeta=st.floats(0.0, 20.0),
       h_cap=st.floats(0.3, 3.0), g_cap=st.floats(0.02, 2.0), dead=st.booleans())
def test_property_multiuser_lockstep_walk_matches_oracle(params, users, seed, policy, zeta,
                                                         h_cap, g_cap, dead):
    if policy == "greedy":   # the offline plans need an uncapped battery
        params = params.evolve(B_m=params.N * params.E_m)
    params = params.evolve(p_H_max=params.p_H_max * h_cap, p_G_max=params.p_G_max * g_cap)
    sampled = sample_trajectories(params, seed, 6, users)
    gg, gh = sampled.gamma_g.copy(), sampled.gamma_h.copy()
    if dead:
        gg[:, 0, 0] = 0.0
        gh[:, -1, -1] = 0.0
    assert_lockstep_matches_oracle(joint_policy(policy, params, zeta),
                                   FrameBatch(params, gg, gh, sampled.e_h))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(params=uncapped_params, seed=st.integers(0, 2**16))
def test_property_greedy_replay_matches_expand_solution(params, seed):
    # a greedy plan walked block by block costs exactly what its expansion says
    for f in range(3):
        batch = sample_trajectory(params, (seed, f))
        alpha, _ = solve(greedy_plan, Frame.of(batch))
        full = expand_solution(alpha, batch, 0)
        assert replay_one(alpha, batch) == (full.total_cost, full.grid_energy, full.drops)

"""Frame-level assignment: batch plans, feasibility, greedy vs the optimum."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesnet.cli import resolve_config
from hesnet.errors import InvalidParameterError, ResourceLimitError
from hesnet.model import (
    FrameBatch,
    SystemParams,
    channel_gain,
    cost_parameter,
    inversion_power,
    make_rng,
    sample_trajectories,
    sample_trajectory,
)
from hesnet.offline import ENERGY_RTOL, FRONT_MAX, greedy_plan, optimal_plan, ratio_metric
from hesnet.sim import apply_axis
from oracles import (
    Frame,
    exhaustive_plan,
    first_violation,
    plan_args,
    service_cost,
    solve,
    swap_free,
)

P = SystemParams()


def inst_of(c, p_h, e_h, tau=1.0, p_h_max=10.0):
    return Frame(*(np.asarray(a, dtype=float) for a in (c, p_h, e_h)), tau, p_h_max)


def random_instance(rng, n, *, constant_h=False, constant_g=False, params=P):
    gamma_g = np.full(n, rng.exponential(1.0)) if constant_g else rng.exponential(1.0, n)
    gamma_h = np.full(n, rng.exponential(1.0)) if constant_h else rng.exponential(1.0, n)
    e_h = rng.uniform(0.0, params.E_m, n)
    p_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
    p_g = inversion_power(channel_gain(params.d_G, gamma_g, params), params)
    return Frame(cost_parameter(p_g, params), p_h, e_h, params.tau, params.p_H_max)


# ---------------------------------------------------------------------------
# per-frame oracle: add the best feasible block, rescan, repeat
# ---------------------------------------------------------------------------

def find_feasible(inst: Frame, alpha) -> np.ndarray:
    """0-based indices of unselected blocks that can be added to `alpha`.

    Adding block i raises every prefix from i on by p_h[i] * tau, so i
    fits iff that fits under the worst remaining slack from i onward.
    """
    on = np.asarray(alpha) == 1
    spend = np.where(on, np.where(np.isfinite(inst.p_h), inst.p_h * inst.tau, np.inf), 0.0)
    slack = np.cumsum(inst.e_h) * (1.0 + ENERGY_RTOL) - np.cumsum(spend)
    tail_slack = np.minimum.accumulate(slack[::-1])[::-1]
    with np.errstate(invalid="ignore"):
        ok = (~on) & (inst.p_h <= inst.p_max) & (inst.p_h * inst.tau <= tail_slack)
    return np.flatnonzero(ok)


def oracle_greedy(inst: Frame):
    """Each pass adds the feasible unselected block maximizing
    ratio_metric(c, p_h) (ties: earliest block) until nothing fits."""
    alpha = np.zeros(inst.c.shape[0], dtype=np.int8)
    for _ in range(inst.c.shape[0]):
        cand = find_feasible(inst, alpha)
        if cand.size == 0:
            break
        alpha[int(cand[np.argmax(ratio_metric(inst.c[cand], inst.p_h[cand]))])] = 1
    return alpha


def pooled_feasible(instances, sel, p_H_max_sum):
    """Candidate (user, block) pairs addable to the joint selection `sel`."""
    p = np.stack([inst.p_h for inst in instances])             # (U, N)
    spend = np.where(sel == 1, np.where(np.isfinite(p), p * instances[0].tau, np.inf), 0.0)
    slack = np.cumsum(instances[0].e_h) * (1.0 + ENERGY_RTOL) - np.cumsum(spend.sum(axis=0))
    tail_slack = np.minimum.accumulate(slack[::-1])[::-1]      # (N,)
    block_power = np.where(sel == 1, np.where(np.isfinite(p), p, np.inf), 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        ok = (sel == 0)
        ok &= p + block_power[None, :] <= p_H_max_sum
        ok &= p * instances[0].tau <= tail_slack[None, :]
    return ok


def oracle_multiuser_greedy(instances, p_H_max_sum):
    """Pooled greedy: each pass adds the feasible (user, block) pair of top
    score (ties: earliest block, then lowest user) until nothing fits."""
    c = np.stack([inst.c for inst in instances])
    p = np.stack([inst.p_h for inst in instances])
    u, n = c.shape
    sel = np.zeros((u, n), dtype=np.int8)
    for _ in range(u * n):
        ok = pooled_feasible(instances, sel, p_H_max_sum)
        if not ok.any():
            break
        scores = np.where(ok, ratio_metric(c, p), -np.inf)
        block, user = divmod(int(np.argmax(scores.T)), u)  # block-major
        sel[user, block] = 1
    return sel


# ---------------------------------------------------------------------------
# reduction, input checks and feasibility
# ---------------------------------------------------------------------------

def test_reduction_matches_primitives():
    batch = sample_trajectory(P, 3)
    inst = Frame.of(batch)
    p_g = inversion_power(channel_gain(P.d_G, batch.gamma_g[0, 0], P), P)
    np.testing.assert_allclose(batch.p_g[0, 0], p_g, rtol=1e-12)
    np.testing.assert_allclose(inst.c, cost_parameter(p_g, P), rtol=1e-12)
    np.testing.assert_allclose(inst.p_h,
                               inversion_power(channel_gain(P.d_H, batch.gamma_h[0, 0], P), P),
                               rtol=1e-12)
    np.testing.assert_array_equal(inst.e_h, batch.e_h[0])
    assert inst.tau == P.tau and inst.p_max == P.p_H_max


# the enumerator is the optimum's reference, so it refuses what the solvers refuse
@pytest.mark.parametrize("solver", [greedy_plan, optimal_plan, exhaustive_plan])
def test_solvers_check_their_inputs(solver):
    c, p, e = np.ones((2, 1, 3)), np.ones((2, 1, 3)), np.ones((2, 3))
    assert solver(c, p, e, 1.0, 10.0).shape == (2, 1, 3)
    p_dead = p.copy()
    p_dead[0, 0, 1] = np.inf   # a dead channel is a legal power
    assert solver(c, p_dead, e, 1.0, 10.0)[0, 0, 1] == 0
    bad = {
        "shape": (c[:, :, :2], p, e), "arrival shape": (c, p, e[:, :2]),
        "per-user arrivals": (c, p, e[:, None]),
        "negative cost": (c * -1.0, p, e), "infinite cost": (c * np.inf, p, e),
        "zero power": (c, p * 0.0, e), "negative power": (c, p * -1.0, e),
        "negative arrival": (c, p, e * -1.0), "infinite arrival": (c, p, e * np.inf),
    }
    for args in bad.values():
        with pytest.raises(InvalidParameterError):
            solver(*args, 1.0, 10.0)
    for tau, cap in ((0.0, 10.0), (1.0, 0.0), (-1.0, 10.0), (np.nan, 10.0), (1.0, np.nan)):
        with pytest.raises(InvalidParameterError):
            solver(c, p, e, tau, cap)


def test_first_violation_pinpoints_block():
    inst = inst_of(c=[1, 1, 1], p_h=[2.0, 3.0, 1.0], e_h=[2.0, 0.0, 3.0])
    assert first_violation([0, 0, 0], inst) is None
    assert first_violation([1, 0, 0], inst) is None
    # block 2 spends 3 J but only 2 J arrived so far
    assert first_violation([0, 1, 0], inst) == 2
    # cumulative: blocks 1+2 need 5 J by block 2 but only 2 J arrived
    assert first_violation([1, 1, 0], inst) == 2
    assert first_violation([1, 0, 1], inst) is None  # 3 J by block 3, 5 J arrived
    inst2 = inst_of(c=[1, 1], p_h=[1.0, 20.0], e_h=[30.0, 30.0])
    assert first_violation([0, 1], inst2) == 2  # peak cap, not energy
    with pytest.raises(AssertionError):
        first_violation([0, 2, 0], inst)


def test_total_service_cost_is_skip_sum():
    inst = inst_of(c=[0.5, 0.25, 0.125], p_h=[1, 1, 1], e_h=[1, 0, 1])
    assert service_cost([0, 0, 0], inst) == 0.875
    assert service_cost([1, 0, 1], inst) == 0.25
    assert first_violation([1, 1, 0], inst) == 2  # 2 J needed by block 2, 1 arrived
    with pytest.raises(AssertionError):
        service_cost([1, 1, 0], inst)


def test_feasibility_boundary_is_inclusive():
    # spending exactly what has arrived is legal in every prefix
    inst = inst_of(c=[1, 1, 1], p_h=[1.0, 1.0, 1.0], e_h=[1.0, 1.0, 1.0])
    assert first_violation([1, 1, 1], inst) is None
    assert service_cost([1, 1, 1], inst) == 0.0
    np.testing.assert_array_equal(solve(greedy_plan, inst)[0], [1, 1, 1])
    # so is spending the arrivals plus all of their ENERGY_RTOL slack
    edge = inst_of(c=[1.0], p_h=[1.0 + ENERGY_RTOL], e_h=[1.0])
    for solver in (greedy_plan, optimal_plan):
        alpha, cost = solve(solver, edge)
        assert alpha.tolist() == [1] and cost == 0.0
    # peak boundary: p_h == p_max serves
    inst2 = inst_of(c=[1.0], p_h=[10.0], e_h=[100.0])
    assert first_violation([1], inst2) is None
    alpha, cost = solve(optimal_plan, inst2)
    assert alpha.tolist() == [1] and cost == 0.0


def test_find_feasible_respects_prefix_slack():
    # battery empty before block 1: nothing arrived yet
    inst = inst_of(c=[1, 1, 1], p_h=[0.5, 1.0, 1.0], e_h=[0.0, 1.0, 1.0])
    np.testing.assert_array_equal(find_feasible(inst, [0, 0, 0]), [1, 2])
    # either block alone fits the 1 J budget; once block 1 is selected the
    # raised prefixes leave no room for block 2
    inst2 = inst_of(c=[1, 1], p_h=[1.0, 1.0], e_h=[1.0, 0.0])
    np.testing.assert_array_equal(find_feasible(inst2, [0, 0]), [0, 1])
    np.testing.assert_array_equal(find_feasible(inst2, [1, 0]), [])
    # infinite inversion power (dead channel) is never feasible
    inst3 = inst_of(c=[1.0], p_h=[np.inf], e_h=[5.0])
    np.testing.assert_array_equal(find_feasible(inst3, [0]), [])


def test_feasible_set_shrinks_as_selection_grows():
    rng = make_rng(21)
    for trial in range(20):
        inst = random_instance(rng, 12)
        free = set(find_feasible(inst, np.zeros(12, dtype=int)).tolist())
        alpha, _ = solve(greedy_plan, inst)
        chosen = np.flatnonzero(alpha)
        # everything greedy chose was feasible from the start
        assert set(chosen.tolist()) <= free


# ---------------------------------------------------------------------------
# greedy assignment
# ---------------------------------------------------------------------------

def test_greedy_prefers_high_ratio_blocks():
    # c/p ranks block 2 (ratio 4) over block 1 (ratio 1); energy fits only one
    inst = inst_of(c=[1.0, 2.0], p_h=[1.0, 0.5], e_h=[1.0, 0.0])
    alpha, cost = solve(greedy_plan, inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def test_greedy_tie_breaks_to_earliest():
    inst = inst_of(c=[1.0, 1.0, 1.0], p_h=[1.0, 1.0, 1.0], e_h=[1.0, 0.0, 0.0])
    alpha, cost = solve(greedy_plan, inst)
    np.testing.assert_array_equal(alpha, [1, 0, 0])
    assert cost == 2.0


def test_greedy_rejects_nan_scores():
    # c / p is NaN only on a NaN input, and every NaN input is refused
    c, p, e = np.ones((1, 2, 2)), np.ones((1, 2, 2)), np.ones((1, 2))
    for args in ((c * np.nan, p, e), (c, p * np.nan, e), (c, p, e * np.nan)):
        with pytest.raises(InvalidParameterError):
            greedy_plan(*args, 1.0, 10.0)
    # a dead channel with nothing to save scores 0, not NaN
    plan = greedy_plan(np.array([[[0.0, 1.0]]]), np.array([[[np.inf, 1.0]]]),
                       np.array([[1.0, 1.0]]), 1.0, 10.0)
    np.testing.assert_array_equal(plan[0, 0], [0, 1])


def test_greedy_output_always_feasible_and_swap_free():
    rng = make_rng(22)
    for trial in range(50):
        inst = random_instance(rng, 10)
        alpha, cost = solve(greedy_plan, inst)   # solve checks feasibility
        assert swap_free(alpha, inst)
        assert cost >= 0


# ---------------------------------------------------------------------------
# the exact optimum (the Exhaustive row)
# ---------------------------------------------------------------------------

def test_exhaustive_small_instance_by_hand():
    # serving both blocks is infeasible (2 J by block 2, 1.5 arrived)
    inst = inst_of(c=[3.0, 2.0], p_h=[1.0, 1.0], e_h=[1.0, 0.5])
    alpha, cost = solve(optimal_plan, inst)
    np.testing.assert_array_equal(alpha, [1, 0])
    assert cost == 2.0


def test_exhaustive_lexicographic_tie_break():
    # identical blocks, energy for one: both singletons cost 1.0; the
    # lexicographically smallest assignment serves the later block
    inst = inst_of(c=[1.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 0.0])
    alpha, cost = solve(optimal_plan, inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def crafted_frame(n):
    """A frame whose every skip cost equals its spend, so no prefix beats
    another and the optimum's Pareto front doubles per block: the grid link
    is (d_G / d_H)^theta times stronger in fading, and arrivals are E_m."""
    params = P.evolve(N=n)
    gamma_h = make_rng(28).uniform(2.0, 4.0, n)
    gamma_g = (params.d_G / params.d_H) ** params.theta * gamma_h
    return FrameBatch(params, gamma_g[None, None], gamma_h[None, None],
                      np.full((1, n), params.E_m))


def test_optimal_plan_front_bound_is_a_resource_limit():
    batch = crafted_frame(24)
    inst = Frame.of(batch)
    np.testing.assert_allclose(inst.c, inst.p_h * inst.tau, rtol=1e-12)
    assert np.all(inst.p_h <= inst.p_max) and np.all(inst.p_h * inst.tau <= inst.e_h)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"over FRONT_MAX = {FRONT_MAX}"):
            solve(optimal_plan, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the walk holds at most 2 * FRONT_MAX children at a time: 10.7 MB measured
    assert peak < 24e6
    # 16 blocks keep every one of 2^16 = FRONT_MAX prefixes, and serve them all
    assert solve(optimal_plan, Frame.of(crafted_frame(16)))[0].tolist() == [1] * 16
    # the walk plans one user
    with pytest.raises(InvalidParameterError, match="plans one user, got 2"):
        optimal_plan(np.ones((1, 2, 3)), np.ones((1, 2, 3)), np.ones((1, 3)), 1.0, 10.0)


def test_exhaustive_handles_dead_channels():
    inst = inst_of(c=[1.0, 1.0], p_h=[np.inf, 1.0], e_h=[10.0, 0.0])
    alpha, cost = solve(optimal_plan, inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def test_exhaustive_plan_solves_each_frame_of_a_batch_alone():
    rng = make_rng(25)
    instances = [random_instance(rng, 9) for _ in range(12)]
    plan = exhaustive_plan(np.stack([i.c for i in instances])[:, None],
                           np.stack([i.p_h for i in instances])[:, None],
                           np.stack([i.e_h for i in instances]), P.tau, P.p_H_max)
    assert plan.shape == (12, 1, 9) and plan.dtype == np.int8
    for f, inst in enumerate(instances):
        np.testing.assert_array_equal(plan[f, 0], solve(exhaustive_plan, inst)[0])
        np.testing.assert_array_equal(plan[f, 0], solve(optimal_plan, inst)[0])


@pytest.mark.parametrize("users", [1, 2])
def test_greedy_plan_of_joined_frames_is_the_parts_plans_joined(users):
    # a sweep plans the frames of its points in one call: each frame is
    # planned from its own arrays, so the joint plan is the parts' plans
    parts = [sample_trajectories(apply_axis(P, "P_avg", v), 40 + k, 7 + k, users)
             for k, v in enumerate((0.005, 0.02, 0.05))]
    assert len({b.params.E_m for b in parts}) == 3
    joined = greedy_plan(*(np.concatenate([getattr(b, name) for b in parts])
                           for name in ("skip", "p_h", "e_h")), P.tau, P.p_H_max)
    alone = np.concatenate([greedy_plan(b.skip, b.p_h, b.e_h, P.tau, P.p_H_max) for b in parts])
    assert (joined.dtype, joined.shape, joined.tobytes()) == (alone.dtype, alone.shape,
                                                              alone.tobytes())
    assert joined.any() and not joined.all()


# ---------------------------------------------------------------------------
# the Pareto walk against the 2^N enumerator
# ---------------------------------------------------------------------------

def assert_agrees_with_enumerator(batch):
    """optimal_plan and exhaustive_plan over `batch`: equal plans, and so
    equal replayed (fsum) costs, on every frame."""
    args = (batch.skip, batch.p_h, batch.e_h, batch.params.tau, batch.params.p_H_max)
    np.testing.assert_array_equal(optimal_plan(*args), exhaustive_plan(*args))


@pytest.mark.parametrize("p_avg", [0.01, P.P_avg])
@pytest.mark.parametrize("n", [8, 12, 15])
def test_optimal_plan_equals_the_enumerator_on_sampled_frames(n, p_avg):
    # both sum skip costs in block order and break ties toward the
    # lexicographically smallest plan, so the plans match
    params = P.evolve(N=n, P_avg=p_avg)
    assert_agrees_with_enumerator(sample_trajectories(params, 29 + n, 200))


@pytest.mark.parametrize("side", ["H", "G"])
def test_optimal_plan_costs_equal_the_enumerator_on_constant_channels(side):
    # a constant channel makes plans tie, so the two tie-breaks must agree
    params = P.evolve(N=12)
    batch = sample_trajectories(params, 30, 300)
    const = np.repeat(make_rng(31).exponential(1.0, (300, 1, 1)), 12, axis=2)
    gamma_g, gamma_h = (batch.gamma_g, const) if side == "H" else (const, batch.gamma_h)
    assert_agrees_with_enumerator(FrameBatch(params, gamma_g, gamma_h, batch.e_h))


def test_optimal_plan_equals_the_enumerator_on_edge_cases():
    params = P.evolve(N=10)
    batch = sample_trajectories(params, 32, 100)
    dead = make_rng(33).random((2, *batch.gamma_h.shape)) < 0.3
    cases = {
        "dead H channels": FrameBatch(params, batch.gamma_g,
                                      np.where(dead[0], 0.0, batch.gamma_h), batch.e_h),
        # a dead G link prices its block at w_D, so such blocks tie
        "dead G channels": FrameBatch(params, np.where(dead[1], 0.0, batch.gamma_g),
                                      batch.gamma_h, batch.e_h),
        "N = 1": sample_trajectories(P.evolve(N=1), 34, 100),
        "peak cap below every inversion power": FrameBatch(
            params.evolve(p_H_max=0.5 * float(batch.p_h.min())), batch.gamma_g,
            batch.gamma_h, batch.e_h),
    }
    for case in cases.values():
        assert_agrees_with_enumerator(case)
    capped = cases["peak cap below every inversion power"]
    assert not optimal_plan(capped.skip, capped.p_h, capped.e_h, capped.params.tau,
                            capped.params.p_H_max).any()


def test_greedy_optimal_when_one_channel_constant():
    rng = make_rng(23)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        inst = random_instance(rng, n, constant_h=(trial % 2 == 0),
                               constant_g=(trial % 2 == 1))
        _, c_greedy = solve(greedy_plan, inst)
        _, c_opt = solve(optimal_plan, inst)
        assert c_greedy == c_opt  # identical floats via fsum on both paths


def test_greedy_near_optimal_on_mixed_instances():
    rng = make_rng(24)
    ratios = []
    for trial in range(100):
        inst = random_instance(rng, 10)
        _, c_greedy = solve(greedy_plan, inst)
        _, c_opt = solve(optimal_plan, inst)
        assert c_greedy >= c_opt - 1e-15
        ratios.append((c_greedy + 1e-12) / (c_opt + 1e-12))
    assert np.mean(ratios) <= 1.05


# ---------------------------------------------------------------------------
# swap check
# ---------------------------------------------------------------------------

def test_swap_check_detects_planted_violation():
    # a violation: a later skipped block with HIGHER c and LOWER-or-equal p
    inst = inst_of(c=[1.0, 2.0], p_h=[1.0, 1.0], e_h=[2.0, 0.0])
    assert not swap_free([1, 0], inst)
    assert swap_free([0, 1], inst)
    # earlier skipped block never counts, whatever its numbers
    inst2 = inst_of(c=[5.0, 1.0], p_h=[1.0, 1.0], e_h=[2.0, 0.0])
    assert swap_free([0, 1], inst2)


# ---------------------------------------------------------------------------
# multi-user pooling
# ---------------------------------------------------------------------------

def test_multiuser_pools_causality():
    # two users, shared arrivals; pooled energy admits only one serve at
    # block 1 even though each user alone would fit
    i1 = inst_of(c=[1.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 1.0])
    i2 = inst_of(c=[2.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 1.0])
    sel = greedy_plan(*plan_args([i1, i2]))[0]
    assert sel.sum() == 2  # 2 J arrive in total, each serve burns 1 J
    assert sel[1, 0] == 1  # user 2 block 1 has the top ratio


def test_multiuser_block_power_cap_binds():
    # both users want block 1 (huge ratio); sum cap admits only one
    i1 = inst_of(c=[5.0, 0.1], p_h=[1.0, 1.0], e_h=[10.0, 10.0])
    i2 = inst_of(c=[4.0, 0.1], p_h=[1.0, 1.0], e_h=[10.0, 10.0])
    sel = greedy_plan(*plan_args([i1, i2], 1.5))[0]
    assert sel[:, 0].sum() == 1
    assert sel[0, 0] == 1  # higher ratio user wins the block


def test_multiuser_requires_shared_arrivals():
    # users share one (frames, N) arrival stream; per-user arrivals are refused
    c = np.ones((1, 2, 1))
    with pytest.raises(InvalidParameterError):
        greedy_plan(c, c, np.array([[[1.0], [2.0]]]), 1.0, 1.0)


def test_multiuser_single_user_reduces_to_plain_greedy():
    rng = make_rng(26)
    for trial in range(10):
        inst = random_instance(rng, 8)
        alpha, _ = solve(greedy_plan, inst)
        np.testing.assert_array_equal(oracle_multiuser_greedy([inst], inst.p_max)[0], alpha)
        np.testing.assert_array_equal(oracle_greedy(inst), alpha)


# ---------------------------------------------------------------------------
# the batch engine against the per-frame oracle
# ---------------------------------------------------------------------------

def test_greedy_plan_matches_oracle_on_sampled_frames():
    rng = make_rng(27)
    for n in (5, 15, 50):
        instances = [random_instance(rng, n) for _ in range(40)]
        plan = greedy_plan(np.stack([i.c for i in instances])[:, None],
                           np.stack([i.p_h for i in instances])[:, None],
                           np.stack([i.e_h for i in instances]), P.tau, P.p_H_max)
        for f, inst in enumerate(instances):
            np.testing.assert_array_equal(plan[f, 0], oracle_greedy(inst))


def test_greedy_plan_sums_block_power_in_user_order():
    # users 2, 1, 0 are picked in that order, but the cap compares the sum in
    # user order: (0.1 + 0.2) + 0.3 + 0.1 = 0.7000000000000001 > 0.7, while
    # the pick order would give (0.3 + 0.2) + 0.1 + 0.1 = 0.7 and admit user 3
    c = np.array([0.1, 0.4, 0.9, 0.001])[None, :, None]
    p = np.array([0.1, 0.2, 0.3, 0.1])[None, :, None]
    plan = greedy_plan(c, p, np.array([[10.0]]), 1.0, 0.7)
    np.testing.assert_array_equal(plan[0, :, 0], [1, 1, 1, 0])
    instances = [inst_of(c[0, u], p[0, u], [10.0], p_h_max=0.7) for u in range(4)]
    np.testing.assert_array_equal(plan[0], oracle_multiuser_greedy(instances, 0.7))


def test_greedy_plan_sums_block_spend_in_user_order():
    # block 0's users are picked 2, 1, 0 and all fit; their spends summed in
    # user order, (0.1 + 0.2) + 0.3, are one ulp over the pick order's
    # (0.3 + 0.2) + 0.1 = 0.6, so block 1's spend, exactly the slack the pick
    # order would leave, no longer fits: at three users a running += in pick
    # order would keep it
    e = np.array([[1.0, 0.0]])
    budget = float(np.cumsum(e[0])[-1] * (1.0 + ENERGY_RTOL))
    s = budget - 0.6
    assert s > budget - ((0.1 + 0.2) + 0.3)
    c = np.array([[[0.1, 0.1], [0.4, 0.0], [0.9, 0.0]]])
    p = np.array([[[0.1, s], [0.2, 5.0], [0.3, 5.0]]])
    plan = greedy_plan(c, p, e, 1.0, np.inf)
    np.testing.assert_array_equal(plan[0], [[1, 0], [1, 0], [1, 0]])
    instances = [inst_of(c[0, u], p[0, u], e[0], p_h_max=np.inf) for u in range(3)]
    np.testing.assert_array_equal(plan[0], oracle_multiuser_greedy(instances, np.inf))


def test_greedy_plan_matches_oracle_on_two_user_preset_frames():
    cfg = resolve_config(preset="fig5-two-user")
    assert cfg.users == 2 and cfg.axis_values == (0.01, 0.02, 0.03)   # 10, 20, 30 mW
    for value in cfg.axis_values:
        point = apply_axis(cfg.params, cfg.axis, value)
        assert point.N == 50
        batch = sample_trajectories(point, cfg.seed, 30, cfg.users)
        plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, point.tau, point.p_H_max)
        assert plan.any()
        for f in range(batch.frames):
            instances = [Frame.of(batch, f, u) for u in range(cfg.users)]
            np.testing.assert_array_equal(plan[f], oracle_multiuser_greedy(instances,
                                                                           point.p_H_max))


# small grids force ties; decimal powers make the order of per-block sums
# over users matter; inf is a dead channel and zero arrivals starve blocks
GRID_C = st.sampled_from([0.0, 0.1, 0.2, 0.3])
GRID_P = st.sampled_from([0.1, 0.2, 0.3, 0.7, np.inf])
GRID_E = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data(), users=st.integers(1, 4), n=st.integers(1, 6), frames=st.integers(1, 4),
       tau=st.sampled_from([1.0, 0.5]), cap=st.sampled_from([0.2, 0.3, 0.6, 1.0, np.inf]))
def test_greedy_plan_equals_per_frame_oracle(data, users, n, frames, tau, cap):
    draw = data.draw
    c = np.array(draw(st.lists(GRID_C, min_size=frames * users * n,
                               max_size=frames * users * n))).reshape(frames, users, n)
    p = np.array(draw(st.lists(GRID_P, min_size=frames * users * n,
                               max_size=frames * users * n))).reshape(frames, users, n)
    e = np.array(draw(st.lists(GRID_E, min_size=frames * n, max_size=frames * n))).reshape(frames, n)
    plan = greedy_plan(c, p, e, tau, cap)
    assert plan.shape == (frames, users, n) and plan.dtype == np.int8
    for f in range(frames):
        instances = [inst_of(c[f, u], p[f, u], e[f], tau=tau, p_h_max=cap) for u in range(users)]
        np.testing.assert_array_equal(plan[f], oracle_multiuser_greedy(instances, cap))
        np.testing.assert_array_equal(greedy_plan(*plan_args(instances))[0], plan[f])
        if users == 1:
            np.testing.assert_array_equal(plan[f, 0], oracle_greedy(instances[0]))

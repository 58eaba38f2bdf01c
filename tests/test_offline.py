"""Frame-level assignment: reduction, feasibility, greedy vs exhaustive."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesnet.errors import FeasibilityError, InvalidParameterError, ResourceLimitError
from hesnet.model import SystemParams, channel_gain, cost_parameter, inversion_power, make_rng, sample_trajectory
from hesnet.offline import (
    ENERGY_RTOL,
    IpInstance,
    _as_alpha,
    check_swap_optimality,
    exhaustive_optimal,
    first_violation,
    greedy_assignment,
    greedy_plan,
    multiuser_greedy_assignment,
    ratio_metric,
    to_ip_instance,
    total_service_cost,
)

P = SystemParams()


def inst_of(c, p_h, e_h, tau=1.0, p_h_max=10.0, p_g=None):
    c = np.asarray(c, dtype=float)
    p_g = np.full_like(c, 1.0) if p_g is None else np.asarray(p_g, dtype=float)
    return IpInstance(c=c, p_H_inv=np.asarray(p_h, dtype=float), p_G_inv=p_g,
                      e_H=np.asarray(e_h, dtype=float), tau=tau, p_H_max=p_h_max)


def random_instance(rng, n, *, constant_h=False, constant_g=False, params=P):
    gamma_g = np.full(n, rng.exponential(1.0)) if constant_g else rng.exponential(1.0, n)
    gamma_h = np.full(n, rng.exponential(1.0)) if constant_h else rng.exponential(1.0, n)
    e_h = rng.uniform(0.0, params.E_m, n)
    p_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
    p_g = inversion_power(channel_gain(params.d_G, gamma_g, params), params)
    return IpInstance(c=cost_parameter(p_g, params), p_H_inv=p_h, p_G_inv=p_g,
                      e_H=e_h, tau=params.tau, p_H_max=params.p_H_max)


# ---------------------------------------------------------------------------
# per-frame oracle: add the best feasible block, rescan, repeat
# ---------------------------------------------------------------------------

def find_feasible(inst: IpInstance, alpha) -> np.ndarray:
    """0-based indices of unselected blocks that can be added to `alpha`.

    Adding block i raises every prefix from i on by p_H_inv[i] * tau, so i
    fits iff that fits under the worst remaining slack from i onward.
    """
    alpha = _as_alpha(alpha, inst.n_blocks)
    on = alpha == 1
    spend = np.where(on, np.where(np.isfinite(inst.p_H_inv), inst.p_H_inv * inst.tau, np.inf), 0.0)
    slack = np.cumsum(inst.e_H) * (1.0 + ENERGY_RTOL) - np.cumsum(spend)
    tail_slack = np.minimum.accumulate(slack[::-1])[::-1]
    with np.errstate(invalid="ignore"):
        ok = (~on) & (inst.p_H_inv <= inst.p_H_max) & (inst.p_H_inv * inst.tau <= tail_slack)
    return np.flatnonzero(ok)


def oracle_greedy(inst: IpInstance, metric=None):
    """Each pass adds the feasible unselected block maximizing
    metric(c, p_H_inv) (ties: earliest block) until nothing fits."""
    metric = metric or ratio_metric
    alpha = np.zeros(inst.n_blocks, dtype=np.int8)
    for _ in range(inst.n_blocks):
        cand = find_feasible(inst, alpha)
        if cand.size == 0:
            break
        scores = np.asarray(metric(inst.c[cand], inst.p_H_inv[cand]), dtype=float)
        alpha[int(cand[np.argmax(scores)])] = 1
    return alpha


def pooled_feasible(instances, sel, p_H_max_sum):
    """Candidate (user, block) pairs addable to the joint selection `sel`."""
    p = np.stack([inst.p_H_inv for inst in instances])         # (U, N)
    spend = np.where(sel == 1, np.where(np.isfinite(p), p * instances[0].tau, np.inf), 0.0)
    slack = np.cumsum(instances[0].e_H) * (1.0 + ENERGY_RTOL) - np.cumsum(spend.sum(axis=0))
    tail_slack = np.minimum.accumulate(slack[::-1])[::-1]      # (N,)
    block_power = np.where(sel == 1, np.where(np.isfinite(p), p, np.inf), 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        ok = (sel == 0)
        ok &= p + block_power[None, :] <= p_H_max_sum
        ok &= p * instances[0].tau <= tail_slack[None, :]
    return ok


def oracle_multiuser_greedy(instances, p_H_max_sum, metric=None):
    """Pooled greedy: each pass adds the feasible (user, block) pair of top
    score (ties: earliest block, then lowest user) until nothing fits."""
    metric = metric or ratio_metric
    u, n = len(instances), instances[0].n_blocks
    c = np.stack([inst.c for inst in instances])
    p = np.stack([inst.p_H_inv for inst in instances])
    sel = np.zeros((u, n), dtype=np.int8)
    for _ in range(u * n):
        ok = pooled_feasible(instances, sel, p_H_max_sum)
        if not ok.any():
            break
        scores = np.where(ok, np.asarray(metric(c, p), dtype=float), -np.inf)
        block, user = divmod(int(np.argmax(scores.T)), u)  # block-major
        sel[user, block] = 1
    return sel


# ---------------------------------------------------------------------------
# reduction and feasibility
# ---------------------------------------------------------------------------

def test_reduction_matches_primitives():
    traj = sample_trajectory(P, 3)
    inst = to_ip_instance(traj, P)
    p_g = inversion_power(channel_gain(P.d_G, traj.gamma_G, P), P)
    np.testing.assert_allclose(inst.p_G_inv, p_g, rtol=1e-12)
    np.testing.assert_allclose(inst.c, cost_parameter(p_g, P), rtol=1e-12)
    np.testing.assert_array_equal(inst.e_H, traj.e_H)
    assert inst.tau == P.tau and inst.p_H_max == P.p_H_max


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
    with pytest.raises(InvalidParameterError):
        first_violation([0, 2, 0], inst)


def test_total_service_cost_is_skip_sum():
    inst = inst_of(c=[0.5, 0.25, 0.125], p_h=[1, 1, 1], e_h=[1, 0, 1])
    assert total_service_cost([0, 0, 0], inst) == 0.875
    assert total_service_cost([1, 0, 1], inst) == 0.25
    with pytest.raises(FeasibilityError) as exc:
        total_service_cost([1, 1, 0], inst)  # 2 J needed by block 2, 1 arrived
    assert exc.value.block == 2


def test_feasibility_boundary_is_inclusive():
    # spending exactly what has arrived is legal in every prefix
    inst = inst_of(c=[1, 1, 1], p_h=[1.0, 1.0, 1.0], e_h=[1.0, 1.0, 1.0])
    assert first_violation([1, 1, 1], inst) is None
    assert total_service_cost([1, 1, 1], inst) == 0.0
    # peak boundary: p_H_inv == p_H_max serves
    inst2 = inst_of(c=[1.0], p_h=[10.0], e_h=[100.0])
    assert first_violation([1], inst2) is None


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
        alpha, _ = greedy_assignment(inst)
        chosen = np.flatnonzero(alpha)
        # everything greedy chose was feasible from the start
        assert set(chosen.tolist()) <= free


# ---------------------------------------------------------------------------
# greedy assignment
# ---------------------------------------------------------------------------

def test_greedy_prefers_high_ratio_blocks():
    # c/p ranks block 2 (ratio 4) over block 1 (ratio 1); energy fits only one
    inst = inst_of(c=[1.0, 2.0], p_h=[1.0, 0.5], e_h=[1.0, 0.0])
    alpha, cost = greedy_assignment(inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def test_greedy_tie_breaks_to_earliest():
    inst = inst_of(c=[1.0, 1.0, 1.0], p_h=[1.0, 1.0, 1.0], e_h=[1.0, 0.0, 0.0])
    alpha, cost = greedy_assignment(inst)
    np.testing.assert_array_equal(alpha, [1, 0, 0])
    assert cost == 2.0


def test_greedy_custom_metric():
    inst = inst_of(c=[1.0, 2.0], p_h=[1.0, 0.5], e_h=[1.0, 0.0])
    # rank by cost alone: block 2 still wins (higher c)
    alpha, _ = greedy_assignment(inst, metric=lambda c, p: c)
    np.testing.assert_array_equal(alpha, [0, 1])
    # rank by -p: block 2 has lower power, wins again
    alpha2, _ = greedy_assignment(inst, metric=lambda c, p: -p)
    np.testing.assert_array_equal(alpha2, [0, 1])


def test_greedy_rejects_nan_scores():
    # 0 * inf: a dead channel with nothing to save scores NaN under c * p
    inst = inst_of(c=[0.0, 1.0], p_h=[np.inf, 1.0], e_h=[1.0, 1.0])
    with np.errstate(invalid="ignore"), pytest.raises(InvalidParameterError, match="NaN"):
        greedy_assignment(inst, metric=lambda c, p: c * p)
    with np.errstate(invalid="ignore"), pytest.raises(InvalidParameterError, match="NaN"):
        multiuser_greedy_assignment([inst, inst], p_H_max_sum=10.0, metric=lambda c, p: c * p)


def test_greedy_output_always_feasible_and_swap_free():
    rng = make_rng(22)
    for trial in range(50):
        inst = random_instance(rng, 10)
        alpha, cost = greedy_assignment(inst)
        assert first_violation(alpha, inst) is None
        assert check_swap_optimality(alpha, inst)
        assert cost >= 0


# ---------------------------------------------------------------------------
# exhaustive reference
# ---------------------------------------------------------------------------

def test_exhaustive_small_instance_by_hand():
    # serving both blocks is infeasible (2 J by block 2, 1.5 arrived)
    inst = inst_of(c=[3.0, 2.0], p_h=[1.0, 1.0], e_h=[1.0, 0.5])
    alpha, cost = exhaustive_optimal(inst)
    np.testing.assert_array_equal(alpha, [1, 0])
    assert cost == 2.0


def test_exhaustive_lexicographic_tie_break():
    # identical blocks, energy for one: both singletons cost 1.0; the
    # lexicographically smallest assignment serves the later block
    inst = inst_of(c=[1.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 0.0])
    alpha, cost = exhaustive_optimal(inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def test_exhaustive_respects_cap():
    inst = inst_of(c=np.ones(21), p_h=np.ones(21), e_h=np.ones(21))
    with pytest.raises(ResourceLimitError):
        exhaustive_optimal(inst)
    assert exhaustive_optimal(inst, cap=21)[1] == 0.0


def test_exhaustive_handles_dead_channels():
    inst = inst_of(c=[1.0, 1.0], p_h=[np.inf, 1.0], e_h=[10.0, 0.0])
    alpha, cost = exhaustive_optimal(inst)
    np.testing.assert_array_equal(alpha, [0, 1])
    assert cost == 1.0


def test_greedy_optimal_when_one_channel_constant():
    rng = make_rng(23)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        inst = random_instance(rng, n, constant_h=(trial % 2 == 0),
                               constant_g=(trial % 2 == 1))
        a_greedy, c_greedy = greedy_assignment(inst)
        a_opt, c_opt = exhaustive_optimal(inst)
        assert c_greedy == c_opt  # identical floats via fsum on both paths


def test_greedy_near_optimal_on_mixed_instances():
    rng = make_rng(24)
    ratios = []
    for trial in range(100):
        inst = random_instance(rng, 10)
        _, c_greedy = greedy_assignment(inst)
        _, c_opt = exhaustive_optimal(inst)
        assert c_greedy >= c_opt - 1e-15
        ratios.append((c_greedy + 1e-12) / (c_opt + 1e-12))
    assert np.mean(ratios) <= 1.05


# ---------------------------------------------------------------------------
# swap check and expansion
# ---------------------------------------------------------------------------

def test_swap_check_detects_planted_violation():
    # block 1 selected, block 2 skipped, yet block 2 is cheaper to skip? no:
    # violation means a later skipped block has HIGHER c and LOWER-or-equal p
    inst = inst_of(c=[1.0, 2.0], p_h=[1.0, 1.0], e_h=[2.0, 0.0])
    assert not check_swap_optimality([1, 0], inst)
    assert check_swap_optimality([0, 1], inst)
    # earlier skipped block never counts, whatever its numbers
    inst2 = inst_of(c=[5.0, 1.0], p_h=[1.0, 1.0], e_h=[2.0, 0.0])
    assert check_swap_optimality([0, 1], inst2)


# ---------------------------------------------------------------------------
# multi-user pooling
# ---------------------------------------------------------------------------

def test_multiuser_pools_causality():
    # two users, shared arrivals; pooled energy admits only one serve at
    # block 1 even though each user alone would fit
    i1 = inst_of(c=[1.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 1.0])
    i2 = inst_of(c=[2.0, 1.0], p_h=[1.0, 1.0], e_h=[1.0, 1.0])
    sel, cost = multiuser_greedy_assignment([i1, i2], p_H_max_sum=10.0)
    assert sel.sum() == 2  # 2 J arrive in total, each serve burns 1 J
    assert sel[1, 0] == 1  # user 2 block 1 has the top ratio
    assert cost == total_cost_of(sel, [i1, i2])


def total_cost_of(sel, instances):
    return math.fsum(float(inst.c[j]) for u, inst in enumerate(instances)
                     for j in range(inst.n_blocks) if sel[u, j] == 0)


def test_multiuser_block_power_cap_binds():
    # both users want block 1 (huge ratio); sum cap admits only one
    i1 = inst_of(c=[5.0, 0.1], p_h=[1.0, 1.0], e_h=[10.0, 10.0])
    i2 = inst_of(c=[4.0, 0.1], p_h=[1.0, 1.0], e_h=[10.0, 10.0])
    sel, _ = multiuser_greedy_assignment([i1, i2], p_H_max_sum=1.5)
    assert sel[:, 0].sum() == 1
    assert sel[0, 0] == 1  # higher ratio user wins the block


def test_multiuser_requires_shared_arrivals():
    i1 = inst_of(c=[1.0], p_h=[1.0], e_h=[1.0])
    i2 = inst_of(c=[1.0], p_h=[1.0], e_h=[2.0])
    with pytest.raises(InvalidParameterError):
        multiuser_greedy_assignment([i1, i2], p_H_max_sum=1.0)


def test_multiuser_single_user_reduces_to_plain_greedy():
    rng = make_rng(26)
    for trial in range(10):
        inst = random_instance(rng, 8)
        alpha, cost = greedy_assignment(inst)
        sel, mcost = multiuser_greedy_assignment([inst], p_H_max_sum=inst.p_H_max)
        np.testing.assert_array_equal(sel[0], alpha)
        assert mcost == cost


# ---------------------------------------------------------------------------
# the batch engine against the per-frame oracle
# ---------------------------------------------------------------------------

def test_greedy_plan_matches_oracle_on_sampled_frames():
    rng = make_rng(27)
    for n in (5, 15, 50):
        instances = [random_instance(rng, n) for _ in range(40)]
        plan = greedy_plan(np.stack([i.c for i in instances])[:, None],
                           np.stack([i.p_H_inv for i in instances])[:, None],
                           np.stack([i.e_H for i in instances]), P.tau, P.p_H_max)
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
        if users == 1:
            np.testing.assert_array_equal(plan[f, 0], oracle_greedy(instances[0]))
            np.testing.assert_array_equal(greedy_assignment(instances[0])[0], plan[f, 0])
        else:
            np.testing.assert_array_equal(multiuser_greedy_assignment(instances, cap)[0], plan[f])

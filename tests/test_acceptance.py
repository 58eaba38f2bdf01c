"""Acceptance gates for the whole package.

Each test covers one numbered criterion, runs at the stated tolerance, and
prints a single [PASS]/[FAIL] line (run pytest with -s to watch them go by).
Shared heavyweight artifacts (trajectory banks, trained tables) live in
module-scoped fixtures so criteria that reuse them pay once.
"""

import math
import time

import numpy as np
import pytest

from hesnet.cli import resolve_config
from hesnet.mdp import (
    _expected_values,
    build_grid,
    build_mdp_model,
    monotone_backward_induction,
)
from hesnet.model import (
    FrameBatch,
    SystemParams,
    channel_gain,
    inversion_power,
    make_rng,
    sample_trajectories,
)
from hesnet.offline import greedy_plan, optimal_plan
from hesnet.policies import (
    GreedyTransmit,
    MdpTablePolicy,
    ThresholdHeuristic,
    ThresholdParams,
    calibrate_zeta,
    look_ahead_build,
    threshold_lambdas,
)
from hesnet.sim import _block_order_totals, frame_totals, outcomes
from oracles import ActionValues, Frame, plan_totals, solve, staircase_actions, swap_free

REF = SystemParams()  # reference parameter set used throughout


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _random_params(rng) -> SystemParams:
    return REF.evolve(
        w_D=float(10 ** rng.uniform(-3, -0.5)),
        d_H=float(rng.uniform(20, 45)),
        d_G=float(rng.uniform(35, 70)),
        p_H_max=float(rng.uniform(0.1, 1.0)),
        p_G_max=float(rng.uniform(0.5, 4.0)),
        mu_G=float(rng.uniform(0.6, 2.0)),
        mu_H=float(rng.uniform(0.6, 2.0)),
        E_m=float(10 ** rng.uniform(-5.5, -3.5)),
    )


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_models():
    """100 random small models covering M x K x N = {2,4,8} x {2,3,5} x {1,2,5},
    each solved once by the monotone walk."""
    rng = np.random.default_rng(101)
    combos = [(m, k, n) for m in (2, 4, 8) for k in (2, 3, 5) for n in (1, 2, 5)]
    built = []
    for i in range(100):
        m_lv, k_st, n = combos[i % len(combos)]
        params = _random_params(rng).evolve(N=n)
        model = build_mdp_model(params, build_grid(params, M=m_lv, K=k_st))
        table, u_hat, counts = monotone_backward_induction(model, n)
        built.append({"model": model, "N": n, "K": k_st,
                      "table": table, "u_hat": u_hat, "counts": counts})
    return built


@pytest.fixture(scope="module")
def ref_scale_solution():
    """Reference-scale model (M=100, K=25, N=50) solved by the monotone walk."""
    t0 = time.perf_counter()
    model = build_mdp_model(REF, build_grid(REF, M=100, K=25))
    table, u_hat, counts = monotone_backward_induction(model, REF.N)
    return {"model": model, "table": table, "u_hat": u_hat,
            "counts": counts, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def trajectory_bank_n15():
    """10^3 reference trajectories at N=15 with the offline greedy and
    optimal solutions for each."""
    params = REF.evolve(N=15)
    frames = 1000
    batch = sample_trajectories(params, 77, frames)
    plan = greedy_plan(batch.skip, batch.p_h, batch.e_h, params.tau, params.p_H_max)
    swap_ok = np.array([swap_free(plan[f, 0], Frame.of(batch, f)) for f in range(frames)])
    cost_greedy, _, _ = plan_totals(greedy_plan, batch)
    cost_opt, _, _ = plan_totals(optimal_plan, batch)
    return {"params": params, "batch": batch,
            "cost_greedy": cost_greedy, "cost_opt": cost_opt, "swap_ok": swap_ok}


def _train_table(params: SystemParams, m_levels: int, k_states: int = 25):
    model = build_mdp_model(params, build_grid(params, M=m_levels, K=k_states))
    table, _, _ = monotone_backward_induction(model, params.N)
    return table


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_monotone_walk_matches_dense_induction(random_models):
    t0 = time.perf_counter()
    worst_u = 0.0
    action_mismatches = 0
    for entry in random_models:
        # the dense compare and sum of minima over every state of the
        # action values the walk's u_hat implies
        values_d = ActionValues.of(entry["model"], entry["u_hat"])
        worst_u = max(worst_u,
                      float(np.max(np.abs(values_d.u.sum(axis=(2, 3)) - entry["u_hat"]))))
        action_mismatches += int(np.sum(values_d.actions != staircase_actions(entry["table"].top)))
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-9 and action_mismatches == 0 and elapsed < 60
    _verdict(1, ok, f"monotone walk vs dense induction on 100 random models: "
                    f"max |du| = {worst_u:.3g} (tol 1e-9), "
                    f"{action_mismatches} action mismatches, {elapsed:.1f}s")


def test_criterion_02_greedy_exact_on_constant_channel_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    mismatches = 0
    for const_side in ("H", "G"):
        for _ in range(500):
            params = _random_params(rng).evolve(N=int(rng.integers(1, 13)))
            gg = rng.exponential(params.mu_G, params.N)
            gh = rng.exponential(params.mu_H, params.N)
            if const_side == "H":
                gh = np.full(params.N, float(rng.uniform(0.1, 3.0)))
            else:
                gg = np.full(params.N, float(rng.uniform(0.1, 3.0)))
            eh = rng.uniform(0, params.E_m, params.N)
            inst = Frame.of(FrameBatch(params, gg[None, None], gh[None, None], eh[None]))
            _, c_greedy = solve(greedy_plan, inst)
            _, c_opt = solve(optimal_plan, inst)
            if c_greedy != c_opt:  # identical floats demanded, not closeness
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120
    _verdict(2, ok, f"greedy == optimum on 2x500 constant-channel instances: "
                    f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_03_greedy_near_optimal_and_swap_free(trajectory_bank_n15):
    t0 = time.perf_counter()
    bank = trajectory_bank_n15
    ratio = float(bank["cost_greedy"].mean() / bank["cost_opt"].mean())
    swaps_clean = bool(bank["swap_ok"].all())
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.05 and swaps_clean and elapsed < 600
    _verdict(3, ok, f"greedy mean-cost ratio over 10^3 N=15 trajectories = "
                    f"{ratio:.4f} (cap 1.05), swap check "
                    f"{'clean' if swaps_clean else 'VIOLATED'}, {elapsed:.1f}s")


def test_criterion_04_threshold_structure_and_value_monotonicity(
        random_models, ref_scale_solution):
    t0 = time.perf_counter()
    slice_viol = 0
    value_viol = 0
    for entry in random_models + [ref_scale_solution]:
        act = ActionValues.of(entry["model"], entry["u_hat"]).actions.astype(np.int8)
        # serving must switch off as the grid channel improves and switch on
        # as the harvesting channel improves
        slice_viol += int(np.sum(np.diff(act, axis=2) > 0))
        slice_viol += int(np.sum(np.diff(act, axis=3) < 0))
        u_hat = entry["u_hat"]
        scale = max(1.0, float(np.max(np.abs(u_hat))))
        value_viol += int(np.sum(np.diff(u_hat, axis=1) > 1e-9 * scale))
    train_seconds = ref_scale_solution["seconds"]
    elapsed = time.perf_counter() - t0
    ok = slice_viol == 0 and value_viol == 0 and train_seconds < 3600
    _verdict(4, ok, f"channel-threshold and battery-value monotonicity on 101 "
                    f"models incl. M=100/K=25/N=50 (trained in {train_seconds:.1f}s): "
                    f"{slice_viol} slice violations, {value_viol} value violations, "
                    f"check {elapsed:.1f}s")


def test_criterion_05_evaluation_count_bound_and_staircase(random_models):
    t0 = time.perf_counter()
    over_bound = 0
    for entry in random_models:
        bound = 2 * entry["K"] - 1
        over_bound += int(np.sum(entry["counts"] > bound))

    # frozen staircase: at the lowest battery level the serve/skip boundary
    # crosses every harvesting state, forcing the full 2K-1 = 9 walk
    params = REF.evolve(N=7, p_H_max=0.284, w_D=0.00133, d_H=20.8, E_m=1.34e-4)
    model = build_mdp_model(params, build_grid(params, M=9, K=5))
    table, u_hat, counts = monotone_backward_induction(model, 7)
    over_bound += int(np.sum(counts > 9))
    staircase = int(counts[0, 0])

    # independent recount of the (t=0, level=0) walk from the dense tables
    ev0, ev1 = _expected_values(model, u_hat[1])
    q0 = model.cost_G + ev0[0]
    q1 = ev1[0].copy()
    q1[~model.allowed[0]] = np.inf
    kg, kh, evals = 4, 4, 0
    while kg >= 0 and kh >= 0:
        evals += 1
        if q1[kh] <= q0[kg]:
            kh -= 1
        else:
            kg -= 1
    elapsed = time.perf_counter() - t0
    ok = over_bound == 0 and staircase == 9 and evals == 9
    _verdict(5, ok, f"per-state evaluations <= 2K-1 everywhere "
                    f"({over_bound} over bound); staircase slice = {staircase} "
                    f"evaluations (expected 9, independent recount {evals}), "
                    f"{elapsed:.1f}s")


def test_criterion_06_skip_cost_and_feasible_power_means():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    cases = [REF] + [_random_params(rng) for _ in range(5)]
    n = 10_000_000
    worst_sigma = 0.0
    for i, params in enumerate(cases):
        mc = make_rng(660 + i)
        lam1, lam2 = threshold_lambdas(params)

        gamma_g = mc.exponential(params.mu_G, n)
        p_g = inversion_power(channel_gain(params.d_G, gamma_g, params), params)
        kap = min(params.p_G_max, params.w_D / (params.w_G * params.tau))
        c = np.where(p_g > kap, params.w_D, params.w_G * p_g * params.tau)
        se1 = float(c.std(ddof=1) / math.sqrt(n))
        worst_sigma = max(worst_sigma, abs(float(c.mean()) - lam1) / se1)

        gamma_h = mc.exponential(params.mu_H, n)
        p_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
        feasible = p_h[p_h <= params.p_H_max]
        se2 = float(feasible.std(ddof=1) / math.sqrt(feasible.size))
        worst_sigma = max(worst_sigma, abs(float(feasible.mean()) - lam2) / se2)
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 3.0 and elapsed < 300
    _verdict(6, ok, f"closed-form skip-cost / feasible-power means vs 10^7-sample "
                    f"Monte Carlo on 6 parameterizations: worst deviation "
                    f"{worst_sigma:.2f} standard errors (cap 3), {elapsed:.1f}s")


def test_criterion_07_policy_ordering_at_reference(ref_scale_solution):
    t0 = time.perf_counter()
    frames = 10_000
    seed = 707
    batch = sample_trajectories(REF, seed, frames)

    lam1, lam2 = threshold_lambdas(REF)
    zeta_star = calibrate_zeta(tuple(np.arange(0.0, 200.0001, 0.5)), REF, 2000, seed + 1)[0].zeta

    per_frame = {}
    policies = {
        "GT": GreedyTransmit(),
        "Look-Ahead": MdpTablePolicy(look_ahead_build(REF, M=100, K=25)),
        "Threshold": ThresholdHeuristic(ThresholdParams(zeta_star, lam1, lam2)),
        "MBIA-M25": MdpTablePolicy(_train_table(REF, 25)),
        "MBIA-M100": MdpTablePolicy(ref_scale_solution["table"]),
        "MBIA-M400": MdpTablePolicy(_train_table(REF, 400)),
    }
    for name, arrays in zip(policies, outcomes(batch, policies.values())):
        per_frame[name] = _block_order_totals(*arrays)[0]
    per_frame["GA"], _, _ = plan_totals(greedy_plan, batch)

    def margin(worse, better):
        """Paired mean difference in units of its standard error."""
        d = per_frame[worse] - per_frame[better]
        return float(d.mean() / (d.std(ddof=1) / math.sqrt(frames)))

    failures = []
    for name in policies:
        m = margin(name, "GA")
        if m <= 2.0:
            failures.append(f"GA !<= {name} (margin {m:.1f} se)")
    m = margin("MBIA-M25", "MBIA-M100")
    if m <= 2.0:
        failures.append(f"M=100 !<= M=25 (margin {m:.1f} se)")
    for name in ("Look-Ahead", "Threshold", "MBIA-M25", "MBIA-M100", "MBIA-M400"):
        m = margin("GT", name)
        if m <= 2.0:
            failures.append(f"{name} !<= GT (margin {m:.1f} se)")
    m100, m400 = float(per_frame["MBIA-M100"].mean()), float(per_frame["MBIA-M400"].mean())
    rel_gap = abs(m100 - m400) / m400
    if rel_gap > 0.02:
        failures.append(f"|M100-M400| = {100 * rel_gap:.2f}% > 2%")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _verdict(7, ok, f"reference-point ordering over {frames} paired frames "
                    f"(zeta*={zeta_star:g}): "
                    + ("all margins > 2 se, "
                       f"M100-vs-M400 gap {100 * rel_gap:.2f}%"
                       if ok else "; ".join(failures))
                    + f", {elapsed:.0f}s")


def test_criterion_08_drop_ratio_floors():
    t0 = time.perf_counter()
    params = REF.evolve(w_D=1.0)
    frames = 100_000
    seed = 808
    lam1, lam2 = threshold_lambdas(params)
    zeta_star = calibrate_zeta(tuple(np.arange(0.0, 200.0001, 0.5)), params, 2000,
                               seed + 1)[0].zeta
    policies = {
        "GT": GreedyTransmit(),
        "Look-Ahead": MdpTablePolicy(look_ahead_build(params, M=100, K=25)),
        "MBIA-M100": MdpTablePolicy(_train_table(params, 100)),
        "Threshold": ThresholdHeuristic(ThresholdParams(zeta_star, lam1, lam2)),
    }
    floors = {"GT": 8.19, "Look-Ahead": 3.51, "MBIA-M100": 3.36, "Threshold": 3.32}
    batch = sample_trajectories(params, seed, frames)
    drops_pct = {}
    for name, arrays in zip(policies, outcomes(batch, policies.values())):
        drops = _block_order_totals(*arrays)[2]
        drops_pct[name] = 100.0 * float(drops.sum()) / (frames * params.N)
    detail = ", ".join(f"{k} {v:.2f}% (target {floors[k]})" for k, v in drops_pct.items())
    primary_ok = all(abs(drops_pct[k] - floors[k]) <= 0.5 for k in floors)
    elapsed = time.perf_counter() - t0
    if primary_ok:
        _verdict(8, elapsed < 7200, f"drop floors at unit drop price within "
                                    f"0.5 pp: {detail}, {elapsed:.0f}s")
        return
    # documented fallback: the saturation ordering must still hold even if
    # the exact floor values prove Monte-Carlo sensitive
    others = [drops_pct["Look-Ahead"], drops_pct["MBIA-M100"], drops_pct["Threshold"]]
    fallback_ok = (drops_pct["GT"] >= 2.0 * max(others)
                   and drops_pct["Look-Ahead"] >= drops_pct["MBIA-M100"] - 0.15
                   and abs(drops_pct["MBIA-M100"] - drops_pct["Threshold"]) <= 0.5
                   and elapsed < 7200)
    _verdict(8, fallback_ok, f"drop floors outside 0.5 pp, fallback ordering "
                             f"(benchmark >= 2x proposed): {detail}, {elapsed:.0f}s")


def test_criterion_09_online_never_beats_offline_optimum(trajectory_bank_n15):
    t0 = time.perf_counter()
    bank = trajectory_bank_n15
    params = bank["params"]
    lam1, lam2 = threshold_lambdas(params)
    policies = {
        "GT": GreedyTransmit(),
        "Look-Ahead": MdpTablePolicy(look_ahead_build(params, M=100, K=25)),
        "Threshold": ThresholdHeuristic(ThresholdParams(10.0, lam1, lam2)),
        "MBIA-M25": MdpTablePolicy(_train_table(params, 25)),
    }
    batch = bank["batch"]
    frames = batch.frames
    violations = 0
    for arrays in outcomes(batch, policies.values()):
        costs, _, _ = frame_totals(*arrays)
        # exact comparison, frame by frame: both sides are exact-sum costs
        violations += sum(cost < opt for cost, opt in zip(costs.tolist(),
                                                          bank["cost_opt"].tolist()))
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _verdict(9, ok, f"per-trajectory dominance of the offline optimum over "
                    f"{len(policies)} online policies x {frames} trajectories: "
                    f"{violations} violations, {elapsed:.0f}s")


def test_criterion_10_two_user_extension():
    t0 = time.perf_counter()
    frames = 2000
    seed = 1010
    failures = []
    points = []
    for p_avg_mw in (10.0, 20.0, 30.0):
        point = REF.evolve(P_avg=p_avg_mw * 1e-3)
        batch = sample_trajectories(point, seed, frames, users=2)

        lam1, lam2 = threshold_lambdas(point)
        zeta = calibrate_zeta(tuple(np.arange(0.0, 60.0001, 1.0)), point, 800, seed + 1)[0].zeta
        mu_policies = {
            "GT": GreedyTransmit(),
            "Threshold": ThresholdHeuristic(ThresholdParams(zeta, lam1, lam2)),
        }
        costs = {name: frame_totals(*arrays)[0]
                 for name, arrays in zip(mu_policies, outcomes(batch, mu_policies.values()))}
        # each frame's pooled offline plan
        costs["GA"] = plan_totals(greedy_plan, batch)[0]

        def margin(worse, better):
            d = costs[worse] - costs[better]
            return float(d.mean() / (d.std(ddof=1) / math.sqrt(frames)))

        m_ga = margin("GT", "GA")
        m_th = margin("GT", "Threshold")
        points.append(f"{p_avg_mw:g}mW: GA margin {m_ga:.1f} se, "
                      f"Threshold margin {m_th:.1f} se")
        if m_ga < 2.0:
            failures.append(f"{p_avg_mw:g}mW GA !<= benchmark ({m_ga:.1f} se)")
        if m_th < 2.0:
            failures.append(f"{p_avg_mw:g}mW Threshold !< benchmark ({m_th:.1f} se)")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _verdict(10, ok, ("two-user pooled scheduling: " + "; ".join(points)
                      if ok else "; ".join(failures)) + f", {elapsed:.0f}s")


def test_criterion_11_greedy_near_optimal_at_the_papers_n():
    # criterion 03's bound at the default preset's 50-block frames, where
    # only the Pareto walk reaches the optimum
    t0 = time.perf_counter()
    cfg = resolve_config()
    batch = sample_trajectories(cfg.params, cfg.seed, 100)
    cost_greedy, _, _ = plan_totals(greedy_plan, batch)
    cost_opt, _, _ = plan_totals(optimal_plan, batch)
    below = int(np.sum(cost_greedy < cost_opt))
    ratio = float(cost_greedy.mean() / cost_opt.mean())
    elapsed = time.perf_counter() - t0
    ok = below == 0 and ratio <= 1.05
    _verdict(11, ok, f"greedy mean-cost ratio over 100 N={cfg.params.N} default-preset "
                     f"trajectories = {ratio:.4f} (cap 1.05), {below} frames below the "
                     f"optimum, {elapsed:.1f}s")

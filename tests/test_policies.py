"""Online decision rules: closed forms, equivalences, table lookups."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from hesnet import policies
from hesnet.cli import resolve_config
from hesnet.errors import InvalidActionError, InvalidParameterError, StalePolicyError
from hesnet.mdp import build_grid, build_mdp_model, monotone_backward_induction
from hesnet.model import (
    FrameBatch,
    SystemParams,
    channel_gain,
    cost_parameter,
    inversion_power,
    link_terms,
    make_rng,
    power_limit,
    sample_trajectories,
    serve_feasible,
)
from hesnet.offline import ratio_metric
from hesnet.policies import (
    GreedyTransmit,
    MdpTablePolicy,
    ThresholdHeuristic,
    ThresholdParams,
    _scaled_e1_tail,
    _threshold_level,
    _threshold_serve,
    calibrate_zeta,
    exponential_integral_E1,
    look_ahead_build,
    look_ahead_table,
    threshold_lambdas,
)
from hesnet.sim import GridOnlyPolicy, _battery_slack, apply_axis
from oracles import ActionValues, DenseTablePolicy, ValuePlay, block_totals, value_play, walk

P = SystemParams()


# ---------------------------------------------------------------------------
# special function
# ---------------------------------------------------------------------------

def test_e1_reference_value():
    assert np.isclose(exponential_integral_E1(1.0), 0.21938393439552027, rtol=1e-13)


def test_e1_against_quadrature():
    xs = np.logspace(-6, math.log10(50.0), 40)
    for x in xs:
        ref, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert np.isclose(exponential_integral_E1(float(x)), ref, rtol=1e-10)


def test_e1_upper_bound():
    xs = np.logspace(-6, math.log10(50.0), 40)
    vals = exponential_integral_E1(xs)
    assert np.all(vals < np.exp(-xs) / xs)
    assert np.all(vals > 0)


def test_e1_matches_scipy_exp1():
    xs = np.logspace(-6, math.log10(700.0), 2000)
    np.testing.assert_allclose(exponential_integral_E1(xs), special.exp1(xs), rtol=1e-14, atol=0)


def test_e1_keeps_scalars_and_shapes():
    assert type(exponential_integral_E1(2.0)) is float
    assert type(exponential_integral_E1(np.float64(0.5))) is float
    assert exponential_integral_E1(np.ones((2, 3))).shape == (2, 3)


def test_e1_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            exponential_integral_E1(bad)
    with pytest.raises(InvalidParameterError):
        exponential_integral_E1(np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# threshold constants
# ---------------------------------------------------------------------------

def test_lambdas_reference_values():
    l1, l2 = threshold_lambdas(P)
    assert np.isclose(l1, 0.0020464474268296671, rtol=1e-10)
    assert np.isclose(l2, 0.094026326014883453, rtol=1e-10)


def test_lambda2_at_large_x_matches_hyperu():
    # e^x E1(x) = U(1, 1, x); past x = 700 exp(x) nears overflow and E1(x)
    # goes subnormal, so lambda2 takes the continued fraction itself
    assert _scaled_e1_tail(700.0) == 0.0014265364183008867
    _, a_h, _, _ = (float(term) for term in link_terms(P.mu_G, P.mu_H, P))
    for x in (700.0, 701.0, 1e3, 1e4, 1e6):
        params = P.evolve(p_H_max=a_h / x)
        x_h = a_h / params.p_H_max
        _, l2 = threshold_lambdas(params)
        assert math.isclose(l2, a_h * float(special.hyperu(1.0, 1.0, x_h)), rel_tol=1e-14)


# preset -> (axis value, or None for the preset's own point; lambda1 and
# lambda2 reprs).  fig3's lambda2 at d_H = 40, 50 and 60 m read
# 0.1780264243211348, 0.2618994923604876 and 0.33177507451289107 with
# scipy.special.exp1: the power series here differs from it by a few ulps
# at x_h = 0.282 and 0.689, and at x_h = 1.429 lambda2 is a_h times the
# scaled continued fraction rather than a_h E1(x) e^x.
DEFAULT_LAMBDAS = ("0.0020464474268296674", "0.09402632601488346")
LAMBDA_REPRS = {
    "default": ((None, *DEFAULT_LAMBDAS),),
    "fig3": (
        (None, *DEFAULT_LAMBDAS),
        (20.0, "0.0035609960823462608", "0.03122197592424606"),
        (30.0, *DEFAULT_LAMBDAS),
        (40.0, "0.0009837848492323597", "0.17802642432113489"),
        (50.0, "0.000365775043381085", "0.26189949236048765"),
        (60.0, "8.679168886399755e-05", "0.331775074512891"),
    ),
    "fig4": ((None, *DEFAULT_LAMBDAS),
             *((v, *DEFAULT_LAMBDAS) for v in (0.01, 0.015, 0.02, 0.025, 0.03))),
    "fig5-two-user": ((None, *DEFAULT_LAMBDAS),
                      *((v, *DEFAULT_LAMBDAS) for v in (0.01, 0.02, 0.03))),
}
LAMBDA_REPRS["fig6"] = LAMBDA_REPRS["fig7"] = (
    (None, *DEFAULT_LAMBDAS),
    (0.001, "0.0005689219897203204", DEFAULT_LAMBDAS[1]),
    (0.00316, "0.0009640255052439889", DEFAULT_LAMBDAS[1]),
    (0.01, *DEFAULT_LAMBDAS),
    (0.0316, "0.005464621916047598", DEFAULT_LAMBDAS[1]),
    (0.1, "0.01628884113190438", DEFAULT_LAMBDAS[1]),
    (0.316, "0.0504705860240837", DEFAULT_LAMBDAS[1]),
    (1.0, "0.1587127781826515", DEFAULT_LAMBDAS[1]),
)


@pytest.mark.parametrize("preset", sorted(LAMBDA_REPRS))
def test_lambdas_pinned_at_preset_and_axis_points(preset):
    cfg = resolve_config(preset=preset)
    table = LAMBDA_REPRS[preset]
    assert [value for value, _, _ in table[1:]] == list(cfg.axis_values)
    for value, l1, l2 in table:
        point = cfg.params if value is None else apply_axis(cfg.params, cfg.axis, value)
        assert tuple(map(repr, threshold_lambdas(point))) == (l1, l2), value


def lambdas_by_monte_carlo(params, n=1_000_000, seed=41):
    rng = make_rng(seed)
    gamma_g = rng.exponential(params.mu_G, n)
    gamma_h = rng.exponential(params.mu_H, n)
    c = cost_parameter(inversion_power(channel_gain(params.d_G, gamma_g, params), params),
                       params)
    p_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
    feas = p_h <= params.p_H_max
    l1_hat = float(c.mean())
    l1_se = float(c.std(ddof=1) / math.sqrt(n))
    sub = p_h[feas]
    l2_hat = float(sub.mean())
    l2_se = float(sub.std(ddof=1) / math.sqrt(sub.size))
    return l1_hat, l1_se, l2_hat, l2_se


@pytest.mark.parametrize("changes", [
    {},
    {"mu_G": 0.6, "mu_H": 1.8},       # non-unit fading means
    {"d_H": 45.0, "p_H_max": 0.2},
    {"w_D": 0.3, "d_G": 65.0},
])
def test_lambdas_match_monte_carlo(changes):
    params = P.evolve(**changes)
    l1, l2 = threshold_lambdas(params)
    l1_hat, l1_se, l2_hat, l2_se = lambdas_by_monte_carlo(params)
    assert abs(l1 - l1_hat) <= 4 * l1_se
    assert abs(l2 - l2_hat) <= 4 * l2_se


def test_lambda_ranges_over_random_parameters():
    rng = make_rng(42)
    for trial in range(30):
        params = P.evolve(
            d_H=float(rng.uniform(10.0, 70.0)),
            d_G=float(rng.uniform(10.0, 70.0)),
            w_D=float(10.0 ** rng.uniform(-3, 0.5)),
            p_H_max=float(rng.uniform(0.02, 2.0)),
            mu_G=float(rng.uniform(0.3, 3.0)),
            mu_H=float(rng.uniform(0.3, 3.0)),
        )
        l1, l2 = threshold_lambdas(params)
        assert 0 < l1 <= params.w_D + 1e-15
        assert 0 < l2 <= params.p_H_max + 1e-15


# ---------------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------------

def column_batch(gamma_g, gamma_h, params=P):
    """A FrameBatch whose every block holds these (rows,) one-user or
    (rows, users) gains, so column `block` is the same states at any
    block."""
    rows = len(gamma_g)
    gg, gh = (np.repeat(np.reshape(np.asarray(x, dtype=float), (rows, -1, 1)), params.N, axis=2)
              for x in (gamma_g, gamma_h))
    return FrameBatch(params, gg, gh, np.zeros((rows, params.N)))


def joint_action(policy, block, battery, gamma_g, gamma_h, params=P):
    """The (users,) joint action for one state, through a one-frame batch."""
    acts = policy.decide_batch(block, np.array([battery]),
                               column_batch([gamma_g], [gamma_h], params))
    assert acts.shape == (1, len(gamma_g))
    return acts[0]


def decide_one(policy, block=0, battery=1e-4, g=1.0, h=1.0, params=P):
    """The action for one state, through a one-row decide_batch (what the
    scalar frame walk sends)."""
    act = policy.decide_batch(block, np.array([battery]), column_batch([g], [h], params))
    assert act.shape == (1, 1)
    return int(act[0, 0])


def one_at_a_time(policy, block, battery, gamma_g, gamma_h, params=P):
    """(rows, 1) actions of one-row calls."""
    return np.array([[decide_one(policy, block, float(battery[i]), float(gamma_g[i]),
                                 float(gamma_h[i]), params)]
                     for i in range(battery.shape[0])])


def test_greedy_transmit_feasibility_gate():
    # gamma_H = 1 at 30 m needs 0.0446 W, i.e. 4.47e-5 J per block
    gt = GreedyTransmit()
    assert decide_one(gt, battery=1e-4, h=1.0) == 1
    assert decide_one(gt, battery=1e-5, h=1.0) == 0
    assert decide_one(gt, battery=1.0, h=0.0) == 0
    spend = 0.044652595986077352 * P.tau
    assert decide_one(gt, battery=spend, h=1.0) == 1
    tight = P.evolve(p_H_max=0.01)
    assert decide_one(gt, battery=1.0, h=1.0, params=tight) == 0


def test_threshold_zero_zeta_equals_greedy_everywhere():
    l1, l2 = threshold_lambdas(P)
    th = ThresholdHeuristic(ThresholdParams(0.0, l1, l2))
    gt = GreedyTransmit()
    rng = make_rng(43)
    for _ in range(300):
        state = dict(block=int(rng.integers(0, P.N)),
                     battery=float(rng.uniform(0, P.B_m)),
                     g=float(rng.exponential(1.0)), h=float(rng.exponential(1.0)))
        assert decide_one(th, **state) == decide_one(gt, **state)


def test_threshold_terminal_and_infeasible_rules():
    l1, l2 = threshold_lambdas(P)
    th = ThresholdHeuristic(ThresholdParams(1e9, l1, l2))  # absurd threshold: never serve interior
    assert decide_one(th, block=0) == 0
    # the last block ignores the threshold and serves when feasible
    assert decide_one(th, block=P.N - 1) == 1
    assert decide_one(th, block=P.N - 1, battery=0.0) == 0


def test_threshold_monotone_in_zeta():
    l1, l2 = threshold_lambdas(P)
    batch = sample_trajectories(P, 44, 100)
    served_prev = None
    for zeta in (0.0, 5.0, 50.0, 500.0):
        policy = ThresholdHeuristic(ThresholdParams(zeta, l1, l2))
        # count serves through identical states: per-block decisions on a
        # fixed battery level (bypasses trajectory feedback)
        battery = np.full(100, 8e-5)
        served = int(policy.decide_batch(0, battery, batch).sum())
        if served_prev is not None:
            assert served <= served_prev
        served_prev = served


@pytest.mark.parametrize("users", [1, 2, 3])
def test_joint_rules_decide_batch_rows_independently(users):
    # one call over many frames equals one one-frame call per frame
    rng = make_rng(58)
    tp = ThresholdParams(8.5, *threshold_lambdas(P))
    gamma_g, gamma_h = rng.exponential(1.0, (2, 200, users))
    gamma_h[::9, 0] = 0.0    # dead harvesting channels
    battery = rng.uniform(0, P.B_m / 10, 200)
    batch = column_batch(gamma_g, gamma_h)
    for policy in (GreedyTransmit(), ThresholdHeuristic(tp)):
        for block in (0, P.N - 1):
            acts = policy.decide_batch(block, battery, batch)
            assert acts.shape == (200, users) and 0 < acts.sum() < acts.size
            for f in range(200):
                np.testing.assert_array_equal(
                    acts[f], joint_action(policy, block, battery[f], gamma_g[f], gamma_h[f]))


one_user_params = st.builds(
    lambda n, tau_ms, d_h, w_d, cap, p_avg, mu_g, mu_h: P.evolve(
        N=n, tau=tau_ms * 1e-3, d_H=d_h, w_D=w_d, p_H_max=cap, P_avg=p_avg, mu_G=mu_g,
        mu_H=mu_h),
    st.integers(1, 60), st.floats(0.1, 10.0), st.floats(10.0, 45.0), st.floats(0.001, 1.0),
    st.floats(0.01, 2.0), st.floats(0.002, 0.05), st.floats(0.5, 2.0), st.floats(0.5, 2.0))


def assert_one_user_rules_are_single_user_rules(params, gamma_g, gamma_h, battery, zeta):
    batch = column_batch(gamma_g, gamma_h, params)
    tp = ThresholdParams(zeta, *threshold_lambdas(params))
    level = _threshold_level(tp.zeta, tp.lambda1, tp.lambda2, params)
    for block in sorted({0, params.N // 2, params.N - 1}):
        p_h = batch.p_h[:, :, block]
        score = ratio_metric(batch.skip[:, :, block], p_h)
        gt = GreedyTransmit().decide_batch(block, battery, batch)
        th = ThresholdHeuristic(tp).decide_batch(block, battery, batch)
        assert gt.dtype == th.dtype == bool
        np.testing.assert_array_equal(gt, serve_feasible(p_h, battery[:, None], params))
        np.testing.assert_array_equal(
            th, _threshold_serve(block, battery[:, None], power_limit(battery[:, None], params),
                                 p_h, score, level, params))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(params=one_user_params, seed=st.integers(0, 2**16), zeta=st.floats(0.0, 50.0))
# a power-of-two tau: battery / tau == p_h exactly for every battery = p_h * tau,
# so p_h == min(battery / tau, p_H_max) on both sides of the min at the cap
@example(params=P.evolve(tau=2.0 ** -10, P_avg=0.02), seed=0, zeta=5.0)
# level 0: a dead channel (p_h = inf, score 0) and an empty battery clear the
# threshold, so serve_feasible alone must refuse them
@example(params=P, seed=1, zeta=0.0)
# one block, the last: both rules are serve_feasible at p_h = inf and battery = 0
@example(params=P.evolve(N=1), seed=2, zeta=50.0)
def test_property_one_user_rules_are_the_single_user_rules(params, seed, zeta):
    # at one user the admission is serve_feasible itself, bit for bit, on
    # random states and on the battery, cap and dead-channel edges
    rng = make_rng(seed)
    gamma_g = rng.exponential(params.mu_G, 64)
    gamma_h = rng.exponential(params.mu_H, 64)
    gamma_h[-4:] = 0.0                                   # dead channel: p_h = inf
    p_h = column_batch(gamma_g, gamma_h, params).p_h[:, 0, 0]
    battery = rng.uniform(0.0, params.B_m, 64)
    battery[:24] = p_h[:24] * params.tau                 # battery == p_h * tau exactly
    battery[24:28] = 0.0
    assert_one_user_rules_are_single_user_rules(params, gamma_g, gamma_h, battery, zeta)
    # p_h == p_H_max exactly, with a battery that covers it and one that
    # holds exactly its spend
    at_cap = params.evolve(p_H_max=float(p_h[0]))
    battery[32:40] = np.where(np.arange(8) % 2 == 0, params.B_m, p_h[0] * params.tau)
    gamma_h[32:40] = gamma_h[0]
    assert_one_user_rules_are_single_user_rules(at_cap, gamma_g, gamma_h, battery, zeta)


def test_one_user_greedy_refuses_where_only_the_spend_fits():
    # a battery of exactly p_h * tau where p_h * tau / tau rounds below p_h:
    # the spend fits the battery, serve_feasible does not, and both rules
    # at one user follow serve_feasible
    batch = column_batch([1.0], [0.722])
    p = float(batch.p_h[0, 0, 0])
    battery = np.array([p * P.tau])
    assert p * P.tau <= battery[0] and p > battery[0] / P.tau
    assert GreedyTransmit().decide_batch(0, battery, batch).tolist() == [[0]]
    th = ThresholdHeuristic(ThresholdParams(0.0, *threshold_lambdas(P)))
    assert th.decide_batch(P.N - 1, battery, batch).tolist() == [[0]]


# ---------------------------------------------------------------------------
# table policies
# ---------------------------------------------------------------------------

def small_table(params, m=12, k=4):
    grid = build_grid(params, M=m, K=k)
    model = build_mdp_model(params, grid)
    policy, _, _ = monotone_backward_induction(model, params.N)
    return policy


def test_mdp_policy_stale_hash_rejected():
    table = small_table(P)
    other = P.evolve(w_D=0.5)
    with pytest.raises(StalePolicyError):
        decide_one(MdpTablePolicy(table), params=other)
    policy = MdpTablePolicy(table)
    with pytest.raises(StalePolicyError):
        policy.decide_batch(0, np.array([1e-4]), column_batch([1.0], [1.0], other))


def test_stale_table_raises_from_its_walk():
    batch = sample_trajectories(P, 51, 4)
    stale = FrameBatch(P.evolve(w_D=0.5), batch.gamma_g, batch.gamma_h, batch.e_h)
    for policy in (MdpTablePolicy(small_table(P)), MdpTablePolicy(look_ahead_build(P, M=10, K=4))):
        walk(policy, batch)   # a matching run first must not mask the stale one
        with pytest.raises(StalePolicyError):
            walk(policy, stale)


def test_matching_table_hashes_params_once_per_run(monkeypatch):
    calls = []
    as_dict = SystemParams.as_dict

    def counting(self):
        calls.append(self)
        return as_dict(self)

    monkeypatch.setattr(SystemParams, "as_dict", counting)
    batch = sample_trajectories(P, 52, 4)
    for policy in (MdpTablePolicy(small_table(P)), MdpTablePolicy(look_ahead_build(P, M=10, K=4))):
        # equal content, new objects never hashed before
        first, again = (FrameBatch(P.evolve(), batch.gamma_g, batch.gamma_h, batch.e_h)
                        for _ in range(2))
        calls.clear()
        walk(policy, first)
        assert len(calls) == 1
        walk(policy, again)
        assert len(calls) == 2


def test_table_policies_refuse_more_than_one_user():
    # one-user tables would play against a shared battery: refused, not
    # blamed on an overdraw or played silently
    batch = sample_trajectories(P, 1, 50, users=2)
    for policy in (MdpTablePolicy(small_table(P)), MdpTablePolicy(look_ahead_build(P, M=10, K=5))):
        with pytest.raises(InvalidParameterError, match="one user"):
            walk(policy, batch)
        with pytest.raises(InvalidParameterError, match="one user"):
            policy.decide_batch(0, np.zeros(batch.frames), batch)


def test_mdp_policy_demotes_infeasible_lookup():
    table = small_table(P)
    # terminal block serves whenever the mid-value battery affords it; a
    # true battery far below the mid cannot, so the lookup demotes
    grid = table.grid
    kh_best = grid.K - 1
    raw = int(table.top[P.N - 1, 0, kh_best] >= 0)   # G-state 0 serves
    assert raw == 1
    tiny = 1e-9  # bin 0 mid is 8.3e-5 J, the true battery is not enough
    assert decide_one(MdpTablePolicy(table), P.N - 1, tiny, 1.0, float(grid.levels_H[kh_best])) == 0


def test_mdp_policy_respects_table_horizon():
    table = small_table(P)
    with pytest.raises(InvalidParameterError):
        decide_one(MdpTablePolicy(table), block=P.N)


def test_table_policy_batch_matches_one_at_a_time():
    table = small_table(P)
    policy = MdpTablePolicy(table)
    rng = make_rng(46)
    battery = rng.uniform(0, P.B_m, 64)
    gamma_g = rng.exponential(1.0, 64)
    gamma_h = rng.exponential(1.0, 64)
    for block in (0, 17, P.N - 1):
        batch = policy.decide_batch(block, battery, column_batch(gamma_g, gamma_h))
        np.testing.assert_array_equal(
            batch, one_at_a_time(policy, block, battery, gamma_g, gamma_h))


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_threshold_lookup_decides_as_the_dense_table(preset):
    # one H search and a strict compare against bounds_G[top + 1] against
    # searches of both channels into the dense mask, on every block, with
    # gains of exactly 0 and exactly on every interior bound of either
    # channel, where side="right" and the strict "<" must agree
    params = resolve_config(preset=preset).params
    model = build_mdp_model(params, build_grid(params, M=25, K=25))
    table, u_hat, _ = monotone_backward_induction(model, params.N)
    grid = table.grid
    lookup = MdpTablePolicy(table)
    dense = DenseTablePolicy(ActionValues.of(model, u_hat).actions, grid)
    rng = make_rng(48)
    edges_g = np.concatenate([[0.0], grid.bounds_G[1:-1], rng.exponential(params.mu_G, 40)])
    edges_h = np.concatenate([[0.0], grid.bounds_H[1:-1], rng.exponential(params.mu_H, 40)])
    gamma_g, gamma_h = (a.ravel() for a in np.meshgrid(edges_g, edges_h))
    # each state at a battery on a bin edge, at a bin mid-value and at random
    battery = np.concatenate([np.resize(grid.bin_edges, gamma_g.size),
                              np.resize(grid.battery_levels, gamma_g.size),
                              rng.uniform(0.0, params.B_m, gamma_g.size)])
    batch = column_batch(np.tile(gamma_g, 3), np.tile(gamma_h, 3), params)
    served = 0
    for block in range(params.N):
        got = lookup.decide_batch(block, battery, batch)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, dense.decide_batch(block, battery, batch))
        served += int(got.sum())
    assert 0 < served < params.N * battery.size   # both actions are exercised


def near_tie(q0, q1):
    """Where value play's two values lie within 4 ulps of each other, so
    that the order of a sum could decide between them."""
    return np.abs(q1 - q0) <= 4 * np.spacing(np.abs(q0))


@pytest.mark.parametrize("w_D", [0.01, 1.0])
def test_value_play_decides_as_the_mbia_table_at_grid_states(w_D):
    # at a bin mid-value battery and the representative gains of both
    # channel states, value play compares the values the solve compared,
    # so it serves where the table serves, near-ties aside
    params = P.evolve(w_D=w_D)
    model = build_mdp_model(params, build_grid(params, M=100, K=25))
    table, u_hat, _ = monotone_backward_induction(model, params.N)
    grid = model.grid
    kg = np.arange(grid.K)[:, None]
    compared = 0
    for block in range(params.N):
        # (M, K_G, K_H) states: battery by level, skip cost by G-state, power by H-state
        q0, q1 = np.broadcast_arrays(*value_play(
            model, u_hat, block, grid.battery_levels[:, None, None],
            model.cost_G[None, :, None], model.p_inv_H[None, None, :]))
        clear = ~near_tie(q0, q1)
        np.testing.assert_array_equal((q1 <= q0)[clear],
                                      (kg <= table.top[block][:, None, :])[clear])
        compared += int(clear.sum())
    assert compared >= 0.99 * params.N * grid.M * grid.K ** 2


def test_value_play_walks_as_the_table_plays_at_grid_states():
    # the same agreement through both players' decide_batch on a batch of
    # grid states: the real gains' link terms and channel states, the
    # battery's bin and the peak-cap demotion
    params = P.evolve(w_D=1.0)
    model = build_mdp_model(params, build_grid(params, M=12, K=4))
    table, u_hat, _ = monotone_backward_induction(model, params.N)
    grid = model.grid
    m, kg, kh = (a.ravel() for a in np.indices((grid.M, grid.K, grid.K)))
    batch = column_batch(grid.levels_G[kg], grid.levels_H[kh], params)
    battery = grid.battery_levels[m]
    player, lookup = ValuePlay(model, u_hat), MdpTablePolicy(table)
    served = 0
    for block in range(params.N):
        clear = ~near_tie(*value_play(model, u_hat, block, battery, batch.skip[:, 0, block],
                                      batch.p_h[:, 0, block]))
        got = player.decide_batch(block, battery, batch)
        np.testing.assert_array_equal(got[clear], lookup.decide_batch(block, battery, batch)[clear])
        served += int(got.sum())
    assert 0 < served < params.N * battery.size   # both actions are exercised


def test_table_policies_search_the_h_states_once_per_batch(monkeypatch):
    # Look-Ahead and MBIA at two M share K, so one search of each link's
    # states (H, then G) serves all three
    calls = []
    search = policies.channel_state_index
    monkeypatch.setattr(policies, "channel_state_index",
                        lambda gamma, bounds: calls.append(gamma.shape) or search(gamma, bounds))
    players = [MdpTablePolicy(look_ahead_build(P, M=100, K=25))] + [
        MdpTablePolicy(monotone_backward_induction(
            build_mdp_model(P, build_grid(P, M=m, K=25)), P.N)[0]) for m in (25, 100)]
    for seed in (1, 2):
        batch = sample_trajectories(P, seed, 40)
        for policy in players:
            walk(policy, batch)
    assert calls == [(P.N, 40)] * 4


@pytest.mark.parametrize("users", [1, 2])
def test_every_shipped_policy_returns_a_bool_mask(users):
    # the walk stores a bool action as it is and checks any other for 0/1
    batch = sample_trajectories(P, 61, 30, users)
    players = [GreedyTransmit(), ThresholdHeuristic(ThresholdParams(2.0, *threshold_lambdas(P))),
               GridOnlyPolicy()]
    if users == 1:
        players += [MdpTablePolicy(look_ahead_build(P, M=10, K=4)), MdpTablePolicy(
            monotone_backward_induction(build_mdp_model(P, build_grid(P, M=10, K=4)), P.N)[0])]
    battery = np.linspace(0.0, P.B_m, batch.frames)
    for policy in players:
        for block in (0, P.N // 2, P.N - 1):
            act = policy.decide_batch(block, battery, batch)
            assert act.dtype == bool and act.shape == (batch.frames, users), type(policy)


def test_look_ahead_structure():
    # N blocks: the 2-block solve's first slice on every interior block,
    # every G-state served (K - 1) on the last
    two = monotone_backward_induction(build_mdp_model(P, build_grid(P, M=10, K=4)), 2)[0]
    table = look_ahead_build(P, M=10, K=4)
    assert table.top.shape == (P.N, 10, 4) and table.top.dtype == two.top.dtype
    assert table.params_hash == two.params_hash
    np.testing.assert_array_equal(table.top[:-1], np.broadcast_to(two.top[0], (P.N - 1, 10, 4)))
    assert (table.top[-1] == 3).all()
    assert look_ahead_table(two, 1).top.tolist() == [[[3] * 4] * 10]
    la = MdpTablePolicy(table)
    rng = make_rng(47)
    battery = rng.uniform(0, P.B_m, 64)
    gamma_g = rng.exponential(1.0, 64)
    gamma_h = rng.exponential(1.0, 64)
    batch = column_batch(gamma_g, gamma_h)
    a0 = la.decide_batch(0, battery, batch)
    a1 = la.decide_batch(25, battery, batch)
    np.testing.assert_array_equal(a0, a1)
    # the terminal block is pure greedy
    gt = GreedyTransmit()
    np.testing.assert_array_equal(
        la.decide_batch(P.N - 1, battery, batch),
        gt.decide_batch(P.N - 1, battery, batch))
    np.testing.assert_array_equal(a1, one_at_a_time(la, 25, battery, gamma_g, gamma_h))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate_by_lone_walks(cand, params, budget, seed):
    """Reference calibrator: one ThresholdHeuristic walk per candidate, its
    frame costs summed in block order."""
    l1, l2 = threshold_lambdas(params)
    batch = sample_trajectories(params, seed, budget)
    costs = np.empty(len(cand))
    for i, zeta in enumerate(cand):
        policy = ThresholdHeuristic(ThresholdParams(float(zeta), l1, l2))
        frame_costs, _, _ = block_totals(policy, batch)
        costs[i] = frame_costs.mean()
    return float(cand[int(np.argmin(costs))]), costs


def assert_matches_oracle(cand, params, budget, seed):
    cand = np.asarray(cand, dtype=float)
    tp, costs = calibrate_zeta(cand, params, budget, seed)
    ref_zeta, ref_costs = calibrate_by_lone_walks(cand, params, budget, seed)
    assert np.array_equal(costs, ref_costs)
    assert tp.zeta == ref_zeta
    assert (tp.lambda1, tp.lambda2) == threshold_lambdas(params)
    return tp.zeta, costs


def test_calibrate_zeta_deterministic_argmin():
    cand = np.arange(0.0, 30.1, 3.0)
    z1, costs = assert_matches_oracle(cand, P, 200, 48)
    z2 = calibrate_zeta(cand, P, budget=200, seed=48)[0].zeta
    assert z1 == z2
    assert z1 in cand
    assert costs.shape == cand.shape
    assert z1 == cand[int(np.argmin(costs))]


def test_calibrate_zeta_exact_at_fig4_middle_point():
    cfg = resolve_config(preset="fig4")
    point = apply_axis(cfg.params, cfg.axis, cfg.axis_values[len(cfg.axis_values) // 2])
    assert_matches_oracle(cfg.zeta_grid, point, 400, cfg.seed + 1)


def shipped_presets():
    files = resources.files("hesnet").joinpath("presets").iterdir()
    return sorted(f.name[:-len(".cfg")] for f in files if f.name.endswith(".cfg"))


def test_calibrate_zeta_exact_at_every_preset_calibration_point():
    # calibrate-zeta scores the preset's own point at its seed; sweeps score
    # every axis point at seed + 1.  The candidates are thinned to 2..13
    # around the reference zeta*, and the budget is cut.
    points = {}
    for name in shipped_presets():
        cfg = resolve_config(preset=name)
        points[(cfg.params.content_hash(), cfg.seed)] = (cfg, cfg.params, cfg.seed)
        for value in cfg.axis_values:
            point = apply_axis(cfg.params, cfg.axis, value)
            points[(point.content_hash(), cfg.seed + 1)] = (cfg, point, cfg.seed + 1)
    assert len(points) >= 10
    for cfg, point, seed in points.values():
        assert_matches_oracle(cfg.zeta_grid[4:28:2], point, 60, seed)


def test_calibrate_zeta_exact_when_nothing_is_feasible():
    params = P.evolve(p_H_max=1e-3)
    assert np.all(sample_trajectories(params, 54, 100).p_h > params.p_H_max)
    cand = np.arange(0.0, 20.1, 5.0)
    zeta, costs = assert_matches_oracle(cand, params, 100, 54)
    assert np.all(costs == costs[0])
    assert zeta == cand[0]


def test_calibrate_zeta_exact_across_chunks(monkeypatch):
    cand = np.arange(0.0, 50.1, 5.0)
    whole = calibrate_zeta(cand, P, 120, 55)
    monkeypatch.setattr(policies, "_CALIBRATION_ROWS", 3 * 120 + 1)   # chunks of 3
    zeta, costs = assert_matches_oracle(cand, P, 120, 55)
    assert zeta == whole[0].zeta
    assert np.array_equal(costs, whole[1])


@pytest.mark.parametrize("budget", [1, 37])
def test_calibrate_zeta_costs_are_per_row_means(budget):
    # one mean over the (candidates, frames) cost matrix is bitwise each
    # row's own 1-D mean, at one frame and at an odd frame count
    cand = np.arange(0.0, 40.1, 0.5)
    _, costs = calibrate_zeta(cand, P, budget, 58)
    l1, l2 = threshold_lambdas(P)
    batch = sample_trajectories(P, 58, budget)
    level = _threshold_level(cand, l1, l2, P)
    order = np.argsort(level, kind="stable")
    matrix = policies._calibration_costs(batch, ratio_metric(batch.skip[:, 0], batch.p_h[:, 0]),
                                         level[order])
    want = np.empty(cand.size)
    want[order] = [row.mean() for row in matrix]
    assert np.array_equal(costs, want)
    assert_matches_oracle(cand[::8], P, budget, 58)


def test_calibrate_zeta_costs_do_not_depend_on_segment_order(monkeypatch):
    # the walk keeps its segments in no order: children shuffled every
    # block give the same cost vector, bit for bit
    cand = np.arange(0.0, 40.1, 0.5)
    _, want = calibrate_zeta(cand, P, 60, 59)
    split_block, rng = policies._split_block, np.random.default_rng(59)

    def shuffled(*args):
        out = split_block(*args)
        order = rng.permutation(out[0].size)
        return tuple(a[order] for a in out)

    monkeypatch.setattr(policies, "_split_block", shuffled)
    _, costs = calibrate_zeta(cand, P, 60, 59)
    assert np.array_equal(costs, want)


def test_calibrate_zeta_tie_resolves_to_first_candidate():
    # thresholds this high never serve an interior block: every cost ties
    cand = [3e9, 1e9, 2e9]
    zeta, costs = assert_matches_oracle(cand, P, 80, 56)
    assert np.all(costs == costs[0])
    assert zeta == 3e9


def test_calibrate_zeta_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        calibrate_zeta([], P, budget=10, seed=0)
    with pytest.raises(InvalidParameterError):
        calibrate_zeta([-1.0], P, budget=10, seed=0)
    with pytest.raises(InvalidParameterError):
        calibrate_zeta([1.0], P, budget=0, seed=0)


# adversarial values for one segment step: exact ties with a level, NaN
# and inf scores, dead channels, peak-cap edges, arrivals past B_m
CAP = P.p_H_max
STEP_LEVELS = st.sampled_from([0.0, -0.0, 1e-9, 2e-9, 3e-6, 1.0, math.inf])
STEP_SCORES = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 3e-3, math.inf, math.nan])
STEP_POWERS = st.sampled_from([1e-6, 1e-3, 0.01, CAP, np.nextafter(CAP, math.inf), math.inf])
STEP_ENERGIES = st.sampled_from([0.0, 1e-9, 1e-6, 1e-5, P.E_m, P.B_m, 2 * P.B_m])


def step_segments(draw, frames, candidates):
    """(frame, lo, hi, battery, cost) segments tiling [0, candidates) of each
    frame in (frame, lo) order; some frames are cut into one-candidate
    segments."""
    segments = []
    for f in range(frames):
        if draw(st.booleans()):
            cuts = list(range(1, candidates))
        else:
            cuts = sorted(draw(st.sets(st.integers(1, candidates - 1),
                                       max_size=candidates - 1)) if candidates > 1 else [])
        for lo, hi in zip([0, *cuts], [*cuts, candidates]):
            segments.append((f, lo, hi, draw(st.sampled_from([0.0, 1e-9, 1e-6, P.E_m, P.B_m])),
                             draw(st.sampled_from([0.0, 0.5, 2.0]))))
    frame, lo, hi, battery, cost = zip(*segments)
    return (np.array(frame), np.array(lo), np.array(hi), np.array(battery), np.array(cost))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_property_split_block_matches_per_candidate_rule(data):
    draw = data.draw
    n = draw(st.sampled_from([1, 2, 5]))
    params = P.evolve(N=n)
    block = draw(st.integers(0, n - 1))
    frames = draw(st.integers(1, 3))
    e, p_h, score = (np.array(draw(st.lists(values, min_size=frames, max_size=frames)))
                     for values in (STEP_ENERGIES, STEP_POWERS, STEP_SCORES))
    skip = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                  min_size=frames, max_size=frames)))
    # sorted candidate levels with duplicates; when a segment's battery *
    # score product is finite, one level equals it exactly: the segment's
    # first level, its last or any other, the rest moved aside to keep the
    # levels nondecreasing
    levels = np.sort(draw(st.lists(STEP_LEVELS, min_size=1, max_size=6)))
    segments = step_segments(draw, frames, levels.size)
    frame, lo, hi, battery, cost = segments
    charged = np.minimum(battery + e[frame], params.B_m)
    with np.errstate(invalid="ignore"):
        products = charged * score[frame]
    hit = draw(st.integers(0, len(products) - 1))
    if np.isfinite(products[hit]):
        x = float(products[hit])
        k = draw(st.sampled_from([lo[hit], hi[hit] - 1, draw(st.integers(0, levels.size - 1))]))
        levels[:k] = np.minimum(levels[:k], x)
        levels[k:] = np.maximum(levels[k:], x)
        levels[k] = x
    assert_split_block_matches_per_candidate_rule(block, segments, e, p_h, skip, score, levels,
                                                  params)


def assert_split_block_matches_per_candidate_rule(block, segments, e, p_h, skip, score, levels,
                                                  params):
    """Checks `_split_block`'s children against `_threshold_serve` applied
    to each candidate of each segment alone; returns the children."""
    slack = _battery_slack(e)
    out = policies._split_block(block, segments, e, p_h, skip, score, slack, levels, params)
    # nonempty children, in any order, one battery and cost per cell
    assert np.all(out[1] < out[2])
    got = {}
    for f, a, b, bat, c in zip(*out):
        for k in range(a, b):
            assert (f, k) not in got
            got[(f, k)] = (bat, c)
    for f, a, b, bat, c in zip(*segments):
        for k in range(a, b):
            b_k = min(bat + e[f], params.B_m)
            serve = policies._threshold_serve(block, b_k, power_limit(b_k, params), p_h[f],
                                              score[f], levels[k], params)
            want = ((np.maximum(b_k - p_h[f] * params.tau, 0.0), c) if serve
                    else (b_k, c + skip[f]))
            assert got.pop((f, k)) == want
    assert not got
    return out


def test_split_block_keeps_dead_links_free_zero_costs_and_clamps_exact():
    # the walk forms a segment's kept battery and cost by arithmetic, not
    # by selects: a dead harvesting link (p_h = inf) must skip with no NaN
    # from inf * 0, a segment that serves whole must keep a cost of
    # exactly +0.0, and an arrival onto a full battery must clamp at B_m
    levels = np.array([0.0, 1e-6, 1e-3, 1.0])
    segments = (np.arange(3), np.zeros(3, dtype=np.intp), np.full(3, 4, dtype=np.intp),
                np.array([1e-3, 1e-3, P.B_m]), np.array([0.5, 0.0, 0.5]))
    e = np.array([P.E_m, 0.0, P.E_m])
    p_h = np.array([math.inf, 1e-3, 0.01])
    skip = np.array([0.25, 0.5, 1.0])
    score = np.array([0.0, 1e3, 1.0])   # battery * score: 0, 1 (the top level), B_m
    out = assert_split_block_matches_per_candidate_rule(0, segments, e, p_h, skip, score,
                                                        levels, P)
    frame, lo, hi, battery, cost = out
    assert not np.isnan(battery).any() and not np.isnan(cost).any()
    children = sorted(zip(frame.tolist(), lo.tolist(), hi.tolist(), battery, cost))
    dead, whole, served, clamped = children
    assert dead == (0, 0, 4, 1e-3 + P.E_m, 0.75)            # skipped whole, no serve paid
    assert whole[:3] == (1, 0, 4) and whole[4] == 0.0 and not np.signbit(whole[4])
    assert served[:3] == (2, 0, 3) and clamped[:3] == (2, 3, 4)
    assert clamped[3] == P.B_m and clamped[4] == 1.5


def test_threshold_cut_decides_segment_edges():
    # battery * score equal to a segment's first level, its last level, a
    # level in between; below and above the segment; one-candidate
    # segments; NaN and inf products
    levels = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    x, lo, hi = (np.array(a) for a in zip(
        (1.0, 0, 5), (2.0, 1, 4), (4.0, 0, 5), (3.0, 1, 4), (2.0, 0, 5), (2.5, 0, 5),
        (0.5, 0, 5), (9.0, 2, 5), (3.0, 3, 4), (2.9, 3, 4), (math.nan, 0, 5),
        (math.inf, 0, 5)))
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    battery, p_h = np.ones(x.size), np.full(x.size, 1e-3)
    cut = policies._threshold_cut(0, battery, p_h, x, levels, lo, hi, P)
    want = [a + sum(bool(_threshold_serve(0, 1.0, power_limit(1.0, P), 1e-3, s, levels[k], P))
                    for k in range(a, b))
            for s, a, b in zip(x, lo, hi)]
    assert cut.tolist() == want == [1, 3, 5, 4, 3, 3, 0, 5, 4, 3, 0, 5]


def test_calibration_walk_checks_every_serve(monkeypatch):
    # a rule that serves regardless of the battery trips the walk's check
    def serve_all(block, battery, p_h, score, levels, lo, hi, params):
        return hi

    monkeypatch.setattr(policies, "_threshold_cut", serve_all)
    with pytest.raises(InvalidActionError, match="policy served block 1 of frame"):
        calibrate_zeta([0.0, 5.0], P, 20, 57)
    # under the same rule the peak check is exact: a serve at the cap
    # passes, one ulp above it raises
    params = P.evolve(N=1, P_avg=0.5)   # one block's arrival pays a 0.5 W serve
    segments = (np.array([0]), np.array([0]), np.array([2]), np.zeros(1), np.zeros(1))
    e, slack, levels = np.array([params.E_m]), np.array([1e-18]), np.zeros(2)
    for power, raises in ((params.p_H_max, False), (np.nextafter(params.p_H_max, 1.0), True)):
        p_h = np.array([power])
        if raises:
            with pytest.raises(InvalidActionError, match="block 1 of frame 0"):
                policies._split_block(0, segments, e, p_h, np.ones(1), np.ones(1), slack,
                                      levels, params)
        else:
            policies._split_block(0, segments, e, p_h, np.ones(1), np.ones(1), slack, levels,
                                  params)


def test_calibrated_threshold_beats_greedy():
    zeta = calibrate_zeta(np.arange(0.0, 40.1, 2.0), P, budget=400, seed=49)[0].zeta
    l1, l2 = threshold_lambdas(P)
    batch = sample_trajectories(P, 50, 2000)
    c_th, _, _ = block_totals(ThresholdHeuristic(ThresholdParams(zeta, l1, l2)), batch)
    c_gt, _, _ = block_totals(GreedyTransmit(), batch)
    diff = c_gt - c_th
    assert diff.mean() > 2 * diff.std(ddof=1) / math.sqrt(diff.size)


# ---------------------------------------------------------------------------
# multi-user rules
# ---------------------------------------------------------------------------

def test_joint_threshold_admits_by_metric_under_caps():
    l1, l2 = threshold_lambdas(P)
    tp = ThresholdParams(0.0, l1, l2)  # zeta 0: tentative == feasible
    # both users feasible alone; battery covers only the cheaper one...
    # power cap set so only one fits; user 2's better H-gain costs less
    # power, but user 1's worse G-channel gives the higher metric
    battery = 6e-5
    p1 = float(inversion_power(channel_gain(P.d_H, 1.0, P), P))
    capped = P.evolve(p_H_max=p1 * 1.5)
    acts = joint_action(ThresholdHeuristic(tp), 0, battery, [0.05, 3.0], [1.0, 1.2], capped)
    assert acts.sum() == 1
    assert acts[0] == 1  # drop-risk user (bad G-channel) wins the slot


def test_joint_threshold_pools_battery():
    l1, l2 = threshold_lambdas(P)
    th = ThresholdHeuristic(ThresholdParams(0.0, l1, l2))
    roomy = P.evolve(p_H_max=10.0)
    p1 = float(inversion_power(channel_gain(P.d_H, 1.0, P), P))
    ones = np.ones(2)
    # battery affords both spends jointly
    acts = joint_action(th, 0, 2.5 * p1 * P.tau, ones, ones, roomy)
    assert acts.sum() == 2
    # but not when it only covers one
    acts = joint_action(th, 0, 1.5 * p1 * P.tau, ones, ones, roomy)
    assert acts.sum() == 1


def admit_oracle(candidates, users, battery, p):
    """Admit (key, u, p_h) candidates in sorted order in plain floats while
    the summed power fits min(battery / tau, p_H_max)."""
    acts = np.zeros(users, dtype=np.int8)
    power_used = 0.0
    for _, u, p_h in sorted(candidates):
        if power_used + p_h <= min(battery / p.tau, p.p_H_max):
            power_used += p_h
            acts[u] = 1
    return acts


def joint_threshold_oracle(block, battery, gamma_g, gamma_h, tp, p):
    """The threshold rule at any user count one user at a time in plain
    floats: the reference for ThresholdHeuristic.decide_batch."""
    scored = []
    for u in range(len(gamma_g)):
        p_h = float(inversion_power(channel_gain(p.d_H, gamma_h[u], p), p))
        if not p_h <= min(battery / p.tau, p.p_H_max):
            continue
        p_g = inversion_power(channel_gain(p.d_G, gamma_g[u], p), p)
        score = float(cost_parameter(p_g, p)) / p_h
        level = tp.zeta * p.P_avg * p.tau * (tp.lambda1 / tp.lambda2)
        if block >= p.N - 1 or battery * score >= level:
            scored.append((-score, u, p_h))
    return admit_oracle(scored, len(gamma_g), battery, p)


def joint_greedy_oracle(battery, gamma_h, p):
    """GT at any user count in plain floats: cheapest inversion power first
    (ties: lower user)."""
    powers = [float(inversion_power(channel_gain(p.d_H, g, p), p)) for g in gamma_h]
    return admit_oracle([(p_h, u, p_h) for u, p_h in enumerate(powers)], len(gamma_h),
                        battery, p)


def oracle_states():
    """(point, zeta, block, battery, gamma_g, gamma_h) two-user states: 900
    random ones, then 900 whose battery is exactly the two users' summed
    spends, where summing powers and summing spends can round apart."""
    rng = make_rng(57)
    for exact in (False, True):
        for p_avg_mw in (10.0, 20.0, 30.0):
            point = P.evolve(P_avg=p_avg_mw * 1e-3)
            for zeta in (0.0, 8.5, 50.0):
                for _ in range(100):
                    block = int(rng.integers(0, point.N))
                    battery = float(rng.uniform(0, point.B_m / 10))
                    gamma_g, gamma_h = rng.exponential(1.0, 2), rng.exponential(1.0, 2)
                    if exact:
                        spends = inversion_power(channel_gain(point.d_H, gamma_h, point),
                                                 point) * point.tau
                        battery = float(spends[0]) + float(spends[1])
                    yield point, zeta, block, battery, gamma_g, gamma_h


def count_rounding_states(states):
    """How many battery-equals-summed-spends states the two admission forms
    (summed power against battery / tau, summed spend against the battery)
    decide apart: the oracle tests below must meet some."""
    apart = 0
    for point, _, _, battery, _, gamma_h in states:
        p = [float(x) for x in inversion_power(channel_gain(point.d_H, gamma_h, point), point)]
        if max(p) <= min(battery / point.tau, point.p_H_max) and p[0] + p[1] <= point.p_H_max:
            apart += (p[0] + p[1] <= battery / point.tau) != (
                p[0] * point.tau + p[1] * point.tau <= battery)
    return apart


def test_joint_threshold_matches_per_user_oracle():
    states = list(oracle_states())
    assert count_rounding_states(states) > 0
    for point, zeta, block, battery, gamma_g, gamma_h in states:
        tp = ThresholdParams(zeta, *threshold_lambdas(point))
        np.testing.assert_array_equal(
            joint_action(ThresholdHeuristic(tp), block, battery, gamma_g, gamma_h, point),
            joint_threshold_oracle(block, battery, gamma_g, gamma_h, tp, point))


def test_joint_gt_matches_per_user_oracle():
    for point, _, block, battery, gamma_g, gamma_h in oracle_states():
        np.testing.assert_array_equal(
            joint_action(GreedyTransmit(), block, battery, gamma_g, gamma_h, point),
            joint_greedy_oracle(battery, gamma_h, point))


def test_joint_gt_admits_cheapest_first():
    gt = GreedyTransmit()
    # user 2 has the better harvesting channel: lower power, admitted first
    gamma_h = np.array([0.3, 2.0])
    gamma_g = np.array([1.0, 1.0])
    p = inversion_power(channel_gain(P.d_H, gamma_h, P), P)
    battery = float(p[1] * P.tau * 1.2)  # covers the cheap user only
    acts = joint_action(gt, 0, battery, gamma_g, gamma_h)
    np.testing.assert_array_equal(acts, [0, 1])
    # plenty of battery: both fit under the summed peak
    acts = joint_action(gt, 0, 1.0, gamma_g, gamma_h)
    np.testing.assert_array_equal(acts, [1, 1])


def test_joint_gt_breaks_power_ties_toward_the_lower_user():
    # three users at one inversion power, a battery for two of them
    roomy = P.evolve(p_H_max=10.0)
    p = float(inversion_power(channel_gain(roomy.d_H, 1.0, roomy), roomy))
    acts = joint_action(GreedyTransmit(), 0, 2.5 * p * roomy.tau, np.ones(3), np.ones(3), roomy)
    np.testing.assert_array_equal(acts, [1, 1, 0])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 60), block=st.integers(0, 58), seed=st.integers(0, 2**16),
       zetas=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=5))
def test_property_threshold_serves_fewer_blocks_as_zeta_grows(n, block, seed, zetas):
    # on the same states, a larger zeta never serves a block a smaller one skips
    params = P.evolve(N=n)
    l1, l2 = threshold_lambdas(params)
    rng = make_rng(seed)
    battery = rng.uniform(0, params.B_m / 5, 64)
    gamma_g = rng.exponential(1.0, 64)
    gamma_h = rng.exponential(1.0, 64)
    block = min(block, n - 1)
    batch = column_batch(gamma_g, gamma_h, params)
    served = [ThresholdHeuristic(ThresholdParams(z, l1, l2)).decide_batch(block, battery, batch)
              for z in sorted(zetas)]
    for fewer, more in zip(served[1:], served[:-1]):
        assert np.all(fewer <= more)

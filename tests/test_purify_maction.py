"""General-m purification: variance potential, set growth, stage bounds."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from helpers import (
    constant_gap_game,
    growing_set_game,
    payoff_matrix_oracle,
    random_game,
    zero_game,
)
from lippoly import (
    MixedProfile,
    PolymatrixGame,
    PreconditionViolation,
    SolverConfig,
    ane_to_wsne_m,
    correct_m,
    pipeline_constants,
    purify,
    purify_rounding_m,
    regret_report,
    replay,
    solve_mixed,
    trace_to_json,
)

PIPELINE_SHAPES = ((3, 12, 0), (3, 12, 1), (4, 10, 2), (4, 10, 3), (8, 10, 4), (8, 10, 5))


def run_pipeline(m, n, seed, order=None):
    lam = 1.0 / n
    game = random_game(n, m, lam, seed)
    target = ((m - 1) / m) ** 2 * lam
    solved = solve_mixed(game, SolverConfig(target_epsilon=target, seed=seed))
    assert solved.converged
    final, trace = purify(game, solved.profile, mode="m_action", order=order)
    return game, solved.profile, final, trace


@pytest.fixture(scope="module")
def pipelines():
    # The solved games' relevant sets never grow; the last pipeline's do.
    runs = [run_pipeline(m, n, seed) for m, n, seed in PIPELINE_SHAPES]
    game, profile = growing_set_game()
    final, trace = purify(game, profile, mode="m_action")
    assert any(len(added) for added in trace.additions[1:])
    return runs + [(game, profile, final, trace)]


def recompute_stats(game, profile, sets):
    u = payoff_matrix_oracle(game, profile)
    mean = np.zeros(game.n)
    var = np.zeros(game.n)
    for i, S in enumerate(sets):
        idx = sorted(S)
        mean[i] = u[i, idx].mean()
        var[i] = ((u[i, idx] - mean[i]) ** 2).mean()
    return u, mean, var


# ----------------------------------------------------------- thresholds


def test_threshold_formulas():
    game = zero_game(n=10, m=4, lam=0.3)
    consts = pipeline_constants(game, "m_action")
    eps0, eps1, delta0 = consts["input"], consts["support"], consts["snap"]
    assert eps0 == pytest.approx((3.0 / 4.0) ** 2 * 0.3, rel=1e-15)
    assert delta0 == pytest.approx(math.sqrt(2.0 * 9 * 0.3 * eps0), rel=1e-15)
    assert eps1 == pytest.approx(2.0 * math.sqrt(2.0 * 10 * 0.3 * eps0), rel=1e-15)
    # Degenerate m: the general input level is lam/4, not lam/8.
    eps0_binary = pipeline_constants(zero_game(n=5, m=2, lam=0.8), "m_action")["input"]
    assert eps0_binary == pytest.approx(0.2, rel=1e-15)


def test_delta1_is_the_minimizer():
    for n, m, lam in ((20, 3, 0.05), (50, 8, 0.02), (10, 4, 0.1)):
        logterm = math.log(3.0 * m)
        delta1 = 4.0 * lam * (n * n * m * logterm) ** (1.0 / 3.0)

        def total(d):
            return d + 32.0 * n * n * lam**3 * m * logterm / (d * d)

        found = minimize_scalar(total, bounds=(delta1 / 100, delta1 * 100), method="bounded")
        assert found.x == pytest.approx(delta1, rel=1e-5)
        # At the optimum the two terms are in ratio 2:1, total 1.5 delta1.
        assert total(delta1) == pytest.approx(1.5 * delta1, rel=1e-12)
        assert 1.5 * delta1 == pytest.approx(
            6.0 * lam * (n * n * m * logterm) ** (1.0 / 3.0), rel=1e-12
        )


# -------------------------------------------------------------- stage 1


def test_wsne_pure_zero_regret_unchanged():
    game = constant_gap_game([0.5, 0.0, 0.0], lam=0.1)
    profile = MixedProfile([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    out, _ = ane_to_wsne_m(game, profile)
    assert np.array_equal(out.probs, profile.probs)


def test_wsne_forced_move_above_delta0():
    game = constant_gap_game([0.5, 0.0, 0.0], lam=0.1)
    delta0 = pipeline_constants(game, "m_action")["snap"]
    gaps = [0.5, 0.5 - 2.0 * delta0, 0.0]
    game = constant_gap_game(gaps, lam=0.1)
    profile = MixedProfile([[0.95, 0.05, 0.0], [1.0, 0.0, 0.0]])
    out, _ = ane_to_wsne_m(game, profile)
    # Action 1 sits at regret 2*delta0: its mass lands on the best response.
    assert out.probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.probs[0, 1] == 0.0 and out.probs[0, 2] == 0.0


def test_wsne_keeps_mass_below_delta0():
    game = constant_gap_game([0.5, 0.0, 0.0], lam=0.1)
    delta0 = pipeline_constants(game, "m_action")["snap"]
    gaps = [0.5, 0.5 - 0.5 * delta0, 0.0]
    game = constant_gap_game(gaps, lam=0.1)
    profile = MixedProfile([[0.9, 0.1, 0.0], [1.0, 0.0, 0.0]])
    out, _ = ane_to_wsne_m(game, profile)
    assert np.array_equal(out.probs, profile.probs)


def test_wsne_support_bound_on_solver_output(pipelines):
    for game, _, _, trace in pipelines:
        wsne = trace.wsne_profile
        U = payoff_matrix_oracle(game, wsne)
        reg = U.max(axis=1, keepdims=True) - U
        support = wsne.probs > 0.0
        assert reg[support].max() <= trace.thresholds["epsilon1"] + 1e-9


def test_precondition_ladder_m():
    game = constant_gap_game([1.0, 0.0, 0.0], lam=0.9)
    eps0 = pipeline_constants(game, "m_action")["input"]  # 0.4

    def with_regret(r):
        return MixedProfile([[1.0 - r, r, 0.0], [1.0, 0.0, 0.0]])

    assert ane_to_wsne_m(game, with_regret(0.3))[1] is False
    with pytest.warns(RuntimeWarning):
        assert ane_to_wsne_m(game, with_regret(0.6))[1] is True
    with pytest.raises(PreconditionViolation) as info:
        ane_to_wsne_m(game, with_regret(0.85))
    assert info.value.player == 0
    assert info.value.required == pytest.approx(eps0, rel=1e-15)


# -------------------------------------------------------------- stage 2


def test_m2_runs_through_both_pipelines():
    n = 10
    lam = 1.0 / n
    game = random_game(n, 2, lam, 17)
    solved = solve_mixed(game, SolverConfig(target_epsilon=lam / 8.0, seed=17))
    final_m, trace_m = purify(game, solved.profile, mode="m_action")
    final_b, trace_b = purify(game, solved.profile, mode="binary")
    assert all(entry["ok"] for entry in trace_m.bounds.values())
    assert all(entry["ok"] for entry in trace_b.bounds.values())
    # log(m-1) + 1 degenerates to 1 at m = 2; the budget must stay finite.
    assert trace_m.bounds["addition_variance_budget"]["allowed"] == pytest.approx(
        4.0 * n * lam * lam, rel=1e-12
    )


def test_variance_update_formula():
    rng = np.random.default_rng(123)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        values = rng.uniform(0.0, 1.0, size=k)
        x = float(rng.uniform(0.0, 1.0))
        mu = values.mean()
        var = values.var()
        grown = np.append(values, x)
        predicted = var + (1.0 / (k + 1)) * ((k / (k + 1)) * (x - mu) ** 2 - var)
        assert grown.var() == pytest.approx(predicted, abs=1e-12)


def test_initial_sets_are_epsilon1_bands(pipelines):
    for game, _, _, trace in pipelines:
        u = payoff_matrix_oracle(game, trace.wsne_profile)
        reg = u.max(axis=1, keepdims=True) - u
        sets = replay(trace, game).relevant_sets
        for i in range(game.n):
            expect = frozenset(np.flatnonzero(reg[i] <= trace.thresholds["epsilon1"]))
            assert sets[0][i] == expect


def test_relevant_sets_monotone(pipelines):
    for game, _, _, trace in pipelines:
        sets = replay(trace, game).relevant_sets
        for earlier, later in zip(sets, sets[1:]):
            for a, b in zip(earlier, later):
                assert a <= b


def test_stats_match_recomputation(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        for k in range(len(state.profiles)):
            u, mean, var = recompute_stats(game, state.profiles[k], state.relevant_sets[k])
            assert np.abs(u - state.payoffs[k]).max() <= 1e-12
            assert np.abs(mean - state.means[k]).max() <= 1e-12
            assert np.abs(var - state.variances[k]).max() <= 1e-12
            assert trace.potentials[k] == pytest.approx(float(var.sum()), abs=1e-12)


def test_set_growth_postcondition(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        for k in range(len(state.profiles)):
            u = state.payoffs[k]
            for i, S in enumerate(state.relevant_sets[k]):
                outside = [j for j in range(game.m) if j not in S]
                if outside:
                    assert max(u[i, j] for j in outside) < state.means[k][i] + 1e-12


def test_set_growth_matches_while_loop_oracle(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        for k, _actor in enumerate(trace.order):
            u = state.payoffs[k + 1]
            for i in range(game.n):
                S = set(state.relevant_sets[k][i])
                mean = np.mean([u[i, j] for j in S])
                while len(S) < game.m:
                    outside = [j for j in range(game.m) if j not in S]
                    best = outside[int(np.argmax([u[i, j] for j in outside]))]
                    if u[i, best] >= mean:
                        S.add(best)
                        mean = np.mean([u[i, j] for j in S])
                    else:
                        break
                assert frozenset(S) == state.relevant_sets[k + 1][i]


def test_chosen_action_minimizes_aggregate_coefficient(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        for k, actor in enumerate(trace.order):
            b = trace.coefficients[k]
            inside = sorted(state.relevant_sets[k][actor])
            want = inside[int(np.argmin([b[j] for j in inside]))]
            assert trace.chosen_actions[k] == want
            after = state.profiles[k + 1].probs[actor]
            assert after[want] == 1.0 and after.sum() == 1.0


def test_aggregate_coefficient_matches_centered_definition(pipelines):
    # b sums, over the other players, twice the centered restricted payoff
    # against the centered influence block, weighted by one over set size.
    for game, _, _, trace in pipelines[:3]:
        m = game.m
        cap = (m - 1) / m * game.lam
        state = replay(trace, game)
        for k, actor in enumerate(trace.order):
            P = state.profiles[k].probs
            u = state.payoffs[k]
            b_oracle = np.zeros(m)
            for a in range(game.n):
                if a == actor:
                    continue
                idx = sorted(state.relevant_sets[k][a])
                own = game.beta[a, actor] @ P[actor]
                u_other = u[a] - own
                c = u_other[idx] - u_other[idx].mean()
                L = game.beta[a, actor][idx] - game.beta[a, actor][idx].mean(axis=0)
                assert np.abs(L).max() <= cap + 1e-9
                b_oracle += 2.0 * (c @ L) / len(idx)
            assert np.abs(b_oracle - trace.coefficients[k]).max() <= 1e-9


def test_variance_budget_components(pipelines):
    for game, _, _, trace in pipelines:
        n, m, lam = game.n, game.m, game.lam
        moves = trace.bounds["move_variance_budget"]["observed"]
        additions = trace.bounds["addition_variance_budget"]["observed"]
        assert trace.potentials[0] <= 2.0 * (n * lam * (m - 1) / m) ** 2 + 1e-9
        assert moves <= ((m - 1) * n * lam / m) ** 2 + 1e-9
        assert additions <= 4.0 * n * lam * lam * (math.log(m - 1) + 1.0) + 1e-9
        assert trace.potentials[-1] < 8.0 * n * n * lam * lam * math.log(3.0 * m) + 1e-9
        for name in (
            "initial_variance",
            "move_variance_budget",
            "addition_variance_budget",
            "terminal_variance",
        ):
            assert trace.bounds[name]["ok"], name


def test_increase_totals_decompose_terminal_variance(pipelines):
    for _, _, _, trace in pipelines:
        drift = trace.potentials[-1] - trace.potentials[0]
        moves = trace.bounds["move_variance_budget"]["observed"]
        additions = trace.bounds["addition_variance_budget"]["observed"]
        assert moves + additions == pytest.approx(
            drift, abs=1e-9
        )


# -------------------------------------------------------------- stage 3


def test_correct_no_switchers_identity():
    game = zero_game(n=4, m=3)
    wsne = MixedProfile(np.full((4, 3), 1.0 / 3.0))
    pure, trace = purify_rounding_m(game, wsne)
    final = correct_m(game, pure, trace)
    assert np.array_equal(final.actions, pure.actions)
    assert trace.switched_players == ()
    assert trace.final_max_regret == 0.0


def test_correct_switch_rule(pipelines):
    for game, _, final, trace in pipelines:
        rounded = replay(trace, game).profiles[-1].to_pure()
        as_mixed = MixedProfile.from_pure(rounded, game.m)
        report = regret_report(game, as_mixed)
        expect = set(np.flatnonzero(report.per_player_regret > trace.thresholds["delta1"]))
        assert set(trace.switched_players) == expect
        U = payoff_matrix_oracle(game, as_mixed)
        for i in trace.switched_players:
            assert final.actions[i] == int(U[i].argmax())
        keep = [i for i in range(game.n) if i not in expect]
        assert np.array_equal(final.actions[keep], rounded.actions[keep])


def test_switcher_budget_and_final_bound(pipelines):
    for game, _, final, trace in pipelines:
        n, m, lam = game.n, game.m, game.lam
        logterm = math.log(3.0 * m)
        budget = 16.0 * n * n * lam * lam * m * logterm / trace.thresholds["delta1"] ** 2
        assert len(trace.switched_players) <= budget + 1e-9
        bound = 6.0 * lam * (n * n * m * logterm) ** (1.0 / 3.0)
        fresh = regret_report(game, MixedProfile.from_pure(final, m)).max_regret
        assert fresh <= bound + 1e-9
        assert abs(fresh - trace.final_max_regret) <= 1e-9


# ------------------------------------------------------- order effects


def test_sweep_order_variant_keeps_bounds():
    m, n, seed = 4, 10, 2
    game, profile, _, _ = run_pipeline(m, n, seed)
    order = tuple(np.random.default_rng(5).permutation(n))
    final, trace = purify(game, profile, mode="m_action", order=order)
    assert trace.order == order
    assert all(entry["ok"] for entry in trace.bounds.values())


def test_pipeline_commutes_with_player_relabeling():
    m, n = 3, 9
    lam = 1.0 / n
    game = random_game(n, m, lam, 61)
    target = ((m - 1) / m) ** 2 * lam
    solved = solve_mixed(game, SolverConfig(target_epsilon=target, seed=61))
    final, trace = purify(game, solved.profile, mode="m_action")

    perm = np.random.default_rng(9).permutation(n)
    inv = np.argsort(perm)
    relabeled = PolymatrixGame(
        n=n, m=m, beta=game.beta[np.ix_(perm, perm)], lam=lam
    )
    profile = MixedProfile(solved.profile.probs[perm])
    order = tuple(int(inv[p]) for p in trace.order)
    final2, trace2 = purify(relabeled, profile, mode="m_action", order=order)

    assert np.array_equal(final2.actions, final.actions[perm])
    assert list(trace2.chosen_actions) == list(trace.chosen_actions)
    assert np.allclose(trace2.potentials, trace.potentials, atol=1e-12)
    sets, sets2 = replay(trace, game).relevant_sets, replay(trace2, relabeled).relevant_sets
    for k in range(len(sets)):
        for a in range(n):
            assert sets2[k][a] == sets[k][int(perm[a])]
    assert set(trace2.switched_players) == {int(inv[p]) for p in trace.switched_players}


def test_trace_json_details(pipelines):
    game, _, _, trace = pipelines[0]
    full = trace_to_json(trace, game, detail="full")
    assert full["pipeline"] == "m_action"
    assert full["bounds"]["terminal_variance"]["ok"]
    assert {"epsilon0", "epsilon1", "delta0", "delta1"} <= set(full["thresholds"])
    skinny = trace_to_json(trace, game, detail="potentials")
    assert len(skinny["steps"]) == len(full["steps"])
    assert "relevant_sets" not in skinny["steps"][0]

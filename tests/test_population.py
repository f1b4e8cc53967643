"""Population lift: the lifted game against the base-at-aggregates oracle,
aggregation, round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coordination_game,
    lifted_payoff_oracle,
    payoff_matrix_oracle,
    random_game,
    random_mixed,
    zero_game,
)
from lippoly import (
    BudgetExceeded,
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    SolverConfig,
    UsageError,
    Valid,
    aggregate,
    check_game,
    default_target_epsilon,
    induce,
    reduce_and_solve,
    regret_report,
    solve_mixed,
)
from lippoly.game import payoff_matrix
from lippoly.purify import purify


def lifted_profile(N, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(N, m))
    return MixedProfile(raw / raw.sum(axis=1, keepdims=True))


def test_induce_validates_arguments():
    base = zero_game()
    for L in (0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError):
            induce(base, L)


def test_L1_materialized_is_the_base_game():
    base = random_game(3, 2, 0.2, seed=5)
    lifted = induce(base, 1)
    assert np.array_equal(lifted.beta, base.beta)
    assert lifted.lam == base.lam
    assert lifted.n == base.n


def test_zero_base_lifts_to_zero():
    base = zero_game(n=2, m=2)
    lifted = induce(base, 3)
    assert not lifted.beta.any()
    probs = lifted_profile(lifted.n, 2, 0)
    assert not lifted_payoff_oracle(base, 3, probs).any()
    assert not payoff_matrix_oracle(lifted, probs).any()


def test_lazy_matches_materialized_everywhere():
    # A replica's payoff in the lift is the base payoff at the population
    # aggregates, for every replica, action and lifted profile.
    base = random_game(4, 3, 0.2, seed=11)
    L = 5
    lifted = induce(base, L)
    for seed in range(4):
        probs = lifted_profile(lifted.n, base.m, seed)
        U = payoff_matrix_oracle(lifted, probs)
        assert np.abs(lifted_payoff_oracle(base, L, probs) - U).max() <= 1e-12
        assert np.abs(payoff_matrix(lifted, probs) - U).max() <= 1e-12


def test_aggregate_counts_actions():
    base = zero_game(n=2, m=2)
    agg = aggregate(base, 3, PureProfile([1, 1, 0, 0, 0, 0]))
    assert np.array_equal(agg.probs[0], [1.0 / 3.0, 2.0 / 3.0])
    assert np.array_equal(agg.probs[1], [1.0, 0.0])
    same = aggregate(base, 3, [1, 1, 1, 0, 0, 0])
    assert np.array_equal(same.probs[0], [0.0, 1.0])
    with pytest.raises(UsageError):
        aggregate(base, 3, PureProfile([0, 0]))
    # Actions outside [0, m): a negative index must not count as the last
    # action, and one past the end must not escape as an IndexError.
    with pytest.raises(UsageError):
        aggregate(base, 3, [-1, 0, 0, 1, 1, 1])
    with pytest.raises(UsageError):
        aggregate(base, 3, [2, 0, 0, 1, 1, 1])


def test_regret_transfers_through_aggregation():
    base = random_game(3, 3, 0.15, seed=23)
    L = 4
    lifted = induce(base, L)
    rng = np.random.default_rng(2)
    for _ in range(5):
        pure = PureProfile(rng.integers(0, 3, size=lifted.n))
        lifted_reg = regret_report(
            lifted, MixedProfile.from_pure(pure, base.m)
        ).per_player_regret
        agg = aggregate(base, L, pure)
        base_reg = regret_report(base, agg).per_player_regret
        by_population = lifted_reg.reshape(base.n, L)
        # Population regret at the aggregate is the mean replica regret.
        assert np.abs(by_population.mean(axis=1) - base_reg).max() <= 1e-9
        assert base_reg.max() <= by_population.max() + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.integers(1, 8), st.integers(0, 10**6))
def test_replicated_profile_has_the_base_regrets(n, m, L, seed):
    # A lift where every replica plays its population's base strategy
    # faces the base game's payoffs, so each replica has its base regret.
    base = random_game(n, m, 0.3, seed)
    probs = random_mixed(n, m, seed + 1).probs
    U = payoff_matrix_oracle(base, probs)
    base_regret = np.maximum(U.max(axis=1) - (U * probs).sum(axis=1), 0.0)
    lifted = induce(base, L)
    replicated = MixedProfile(np.repeat(probs, L, axis=0))
    per = regret_report(lifted, replicated).per_player_regret.reshape(n, L)
    assert np.abs(per - base_regret[:, None]).max() <= 1e-12


def test_reduce_and_solve_round_trip():
    base = coordination_game(lam=1.0)
    profile, report = reduce_and_solve(base, epsilon=0.3, L=20, seed=3)
    assert report["population_players"] == 40
    assert report["population_lambda"] == pytest.approx(1.0 / 20, rel=1e-15)
    assert report["solver_converged"]
    assert report["aggregate_base_regret"] <= report["purified_regret"] + 1e-9
    # The aggregate is 1/L-uniform: every probability a multiple of 1/20.
    scaled = profile.probs * 20
    assert np.abs(scaled - np.round(scaled)).max() <= 1e-9
    assert report["paper_L"] == math.ceil(2**4 / 0.3**5)
    assert report["meets_paper_scale"] is False


def test_reduce_at_L1_degenerates_to_direct_pipeline():
    base = random_game(3, 2, 0.3, seed=7)
    profile, report = reduce_and_solve(base, epsilon=0.5, L=1, seed=7)
    solved = solve_mixed(
        base, SolverConfig(target_epsilon=default_target_epsilon(base), seed=7)
    )
    final, _ = purify(base, solved.profile)
    assert np.array_equal(profile.probs, MixedProfile.from_pure(final, base.m).probs)
    assert report["L"] == 1


def test_reduce_reports_the_configured_solver_target():
    # The config drives the base-game solve, here the exhaustive grid
    # scan; the report names its target, not the default lifted one.
    base = coordination_game(lam=1.0)
    config = SolverConfig(target_epsilon=0.01, uniform_grid_k=2)
    profile, report = reduce_and_solve(base, epsilon=0.3, L=4, config=config)
    assert report["solver_target"] == 0.01
    assert report["solver_achieved"] == 0.0 and report["solver_converged"]
    assert report["aggregate_base_regret"] == 0.0
    _, default = reduce_and_solve(base, epsilon=0.3, L=4)
    assert default["solver_target"] == pytest.approx(1.0 / (8 * 4), rel=1e-15)


def test_materialization_budget():
    base = zero_game(n=3, m=2)
    with pytest.raises(BudgetExceeded) as info:
        induce(base, 2000)
    assert info.value.estimate == 6000 * 6000 * 4


def test_lifted_game_passes_check_at_scaled_lambda():
    base = random_game(3, 2, 0.4, seed=31)
    lifted = induce(base, 5)
    assert lifted.lam == pytest.approx(0.08, rel=1e-15)
    assert isinstance(check_game(lifted), Valid)


def test_spread_scales_exactly_under_power_of_two_L():
    base = random_game(2, 3, 0.25, seed=41)
    lifted = induce(base, 8)
    for v in range(lifted.n):
        for w in range(lifted.n):
            # Replica l of population i is player i * L + l.
            i, ip = v // 8, w // 8
            if i == ip:
                assert not lifted.beta[v, w].any()
            else:
                # Division by a power of two is exact in binary floats.
                assert np.array_equal(lifted.beta[v, w], base.beta[i, ip] / 8.0)


def test_reduce_rejects_bad_epsilon():
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            reduce_and_solve(zero_game(), epsilon=epsilon, L=2)

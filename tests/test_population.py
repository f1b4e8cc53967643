"""Population lift: lazy vs materialized views, aggregation, round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coordination_game,
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
from lippoly.population import (
    lazy_payoff,
    population_aggregates,
    population_payoff_matrix,
)
from lippoly.purify import purify


def lifted_profile(pop, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(pop.N, pop.base.m))
    return MixedProfile(raw / raw.sum(axis=1, keepdims=True))


def test_induce_validates_arguments():
    base = zero_game()
    with pytest.raises(UsageError):
        induce(base, 0)
    with pytest.raises(UsageError):
        induce(base, 1.5)
    with pytest.raises(UsageError):
        induce(base, 3, mode="eager")


def test_flat_replica_indexing():
    pop = induce(zero_game(n=3, m=2), 4)
    assert pop.N == 12
    assert pop.replica_index(1, 0) == 4
    assert pop.replica_index(2, 3) == 11
    assert pop.population_of(4) == 1
    assert pop.population_of(11) == 2
    with pytest.raises(UsageError):
        pop.replica_index(3, 0)
    with pytest.raises(UsageError):
        pop.population_of(12)


def test_L1_materialized_is_the_base_game():
    base = random_game(3, 2, 0.2, seed=5)
    pop = induce(base, 1, mode="materialized")
    assert np.array_equal(pop.materialized.beta, base.beta)
    assert pop.materialized.lam == base.lam
    assert pop.materialized.n == base.n


def test_zero_base_lifts_to_zero():
    pop = induce(zero_game(n=2, m=2), 3, mode="materialized")
    assert not pop.materialized.beta.any()
    probs = lifted_profile(pop, 0)
    for v in range(pop.N):
        for j in range(2):
            assert lazy_payoff(pop, v, j, probs) == 0.0


def test_lazy_matches_materialized_everywhere():
    base = random_game(4, 3, 0.2, seed=11)
    L = 5
    pop = induce(base, L, mode="materialized")
    for seed in range(4):
        probs = lifted_profile(pop, seed)
        U = payoff_matrix_oracle(pop.materialized, probs)
        agg = population_aggregates(pop, probs)
        base_rows = payoff_matrix_oracle(base, agg)
        for v in range(pop.N):
            for j in range(base.m):
                lazy = lazy_payoff(pop, v, j, probs, aggregates=agg)
                assert abs(lazy - U[v, j]) <= 1e-12
                # Querying through the base game at the aggregates is the
                # whole point: same number, n*L times cheaper.
                assert abs(lazy - base_rows[pop.population_of(v), j]) <= 1e-12
        repeated = population_payoff_matrix(pop, probs)
        assert np.abs(repeated - U).max() <= 1e-12


def test_aggregate_counts_actions():
    base = zero_game(n=2, m=2)
    pop = induce(base, 3)
    agg = aggregate(pop, PureProfile([1, 1, 0, 0, 0, 0]))
    assert np.array_equal(agg.probs[0], [1.0 / 3.0, 2.0 / 3.0])
    assert np.array_equal(agg.probs[1], [1.0, 0.0])
    same = aggregate(pop, [1, 1, 1, 0, 0, 0])
    assert np.array_equal(same.probs[0], [0.0, 1.0])
    with pytest.raises(UsageError):
        aggregate(pop, PureProfile([0, 0]))


def test_regret_transfers_through_aggregation():
    base = random_game(3, 3, 0.15, seed=23)
    L = 4
    pop = induce(base, L, mode="materialized")
    rng = np.random.default_rng(2)
    for _ in range(5):
        pure = PureProfile(rng.integers(0, 3, size=pop.N))
        lifted_reg = regret_report(
            pop.materialized, MixedProfile.from_pure(pure, base.m)
        ).per_player_regret
        agg = aggregate(pop, pure)
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
    lifted = induce(base, L, "materialized").materialized
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
        induce(base, 2000, mode="materialized")
    assert info.value.estimate == 6000 * 6000 * 4
    pop = induce(base, 2000, mode="lazy")
    assert pop.N == 6000 and pop.materialized is None


def test_budget_env_override(monkeypatch):
    base = zero_game(n=2, m=2)
    monkeypatch.setenv("LIPPOLY_MEM_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        induce(base, 2, mode="materialized")
    monkeypatch.setenv("LIPPOLY_MEM_BUDGET", "plenty")
    with pytest.raises(UsageError):
        induce(base, 2, mode="materialized")


def test_lifted_game_passes_check_at_scaled_lambda():
    base = random_game(3, 2, 0.4, seed=31)
    pop = induce(base, 5, mode="materialized")
    assert pop.materialized.lam == pytest.approx(0.08, rel=1e-15)
    assert isinstance(check_game(pop.materialized), Valid)


def test_spread_scales_exactly_under_power_of_two_L():
    base = random_game(2, 3, 0.25, seed=41)
    pop = induce(base, 8, mode="materialized")
    lifted = pop.materialized
    for v in range(lifted.n):
        for w in range(lifted.n):
            i, ip = pop.population_of(v), pop.population_of(w)
            if i == ip:
                assert not lifted.beta[v, w].any()
            else:
                # Division by a power of two is exact in binary floats.
                assert np.array_equal(lifted.beta[v, w], base.beta[i, ip] / 8.0)


def test_reduce_rejects_bad_epsilon():
    with pytest.raises(UsageError):
        reduce_and_solve(zero_game(), epsilon=0.0, L=2)

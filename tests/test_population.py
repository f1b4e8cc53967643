"""Population lift: the lifted game against the base-at-aggregates oracle,
aggregation, round trip."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coordination_game,
    cycle_game,
    growing_set_game,
    lifted_payoff_oracle,
    matching_pennies_game,
    payoff_matrix_oracle,
    population_mismatches,
    random_game,
    random_mixed,
    zero_game,
)
import lippoly.population
from lippoly import (
    BoundBreach,
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
    trace_to_json,
)
from lippoly.game import payoff_matrix
from lippoly.harness.pipeline import run_instance
from lippoly.purify import purify, purify_rounding_m
from lippoly.purify.common import correct, open_snap, open_sweep


def lifted_profile(N, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(N, m))
    return MixedProfile(raw / raw.sum(axis=1, keepdims=True))


def test_induce_validates_arguments():
    base = zero_game()
    for L in (0, 1.5, math.nan, math.inf, -math.inf, "3", True):
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


def test_induce_allocates_one_lifted_operator():
    # The gathered operator is divided in place and handed to the game, so
    # no second tensor-sized array is alive while the lift is built.
    base = random_game(3, 2, 0.3, 1)
    tracemalloc.start()
    try:
        lifted = induce(base, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * lifted.operator.nbytes, f"peak {peak} for {lifted.operator.nbytes}"


def test_materialization_budget():
    base = zero_game(n=3, m=2)
    with pytest.raises(BudgetExceeded) as info:
        induce(base, 2000)
    assert info.value.estimate == 6000 * 6000 * 4
    # The reduction keeps per-replica state only; a count no memory could
    # hold is refused before any solve.
    with pytest.raises(BudgetExceeded) as info:
        reduce_and_solve(base, epsilon=0.3, L=10**9)
    assert info.value.estimate == 3 * 10**9


# Refusals only: no lift of this size is ever built.
@pytest.mark.parametrize("mode", ["binary", "m_action"])
def test_purify_refuses_a_lift_over_the_replica_guard(mode):
    game = random_game(3, 2, 0.3, seed=1)
    profile = MixedProfile(np.full((3, 2), 0.5))
    L = 10**9
    for call in (
        lambda: purify(game, profile, mode=mode, L=L),
        lambda: open_snap(game, profile, mode, L),
        lambda: open_sweep(game, profile, mode, None, L),
        lambda: correct(game, PureProfile([0, 0, 0]), None, L),
    ):
        with pytest.raises(BudgetExceeded, match="purifying 3000000000 lifted players") as info:
            call()
        assert info.value.estimate == 3 * 10**9


def test_reduce_past_the_lift_guard():
    # 6,000 lifted players need 1.44e8 lifted coefficients, past TENSOR_GUARD,
    # so this would raise if the reduction still built the lift.
    base = random_game(3, 2, 0.3, seed=4)
    profile, report = reduce_and_solve(base, epsilon=0.3, L=2000)
    assert report["population_players"] == 6000
    assert report["solver_converged"]
    assert report["aggregate_base_regret"] <= report["purified_regret"] + 1e-9
    scaled = profile.probs * 2000
    assert np.abs(scaled - np.round(scaled)).max() <= 1e-9
    # The base game's equilibrium mixes two players: their populations split.
    assert (profile.probs.max(axis=1) < 1.0).sum() == 2


def test_reduce_asserts_the_aggregate_regret_bound(monkeypatch):
    # A population's base regret is the mean of its replicas' regrets, so
    # it cannot exceed the purified lifted regret.  An aggregation that
    # returns the base game's worst pure profile instead must be caught.
    base = random_game(3, 2, 0.3, seed=2)
    _, report = reduce_and_solve(base, epsilon=0.3, L=4, seed=2)
    pures = [
        MixedProfile(np.eye(2)[[a, b, c]]) for a in range(2) for b in range(2) for c in range(2)
    ]
    worst = max(pures, key=lambda p: regret_report(base, p).max_regret)
    assert regret_report(base, worst).max_regret > report["purified_regret"] + 1e-9
    monkeypatch.setattr(lippoly.population, "aggregate", lambda base, L, pure: worst)

    with pytest.raises(BoundBreach) as info:
        reduce_and_solve(base, epsilon=0.3, L=4, seed=2)
    assert info.value.bound_name == "aggregate_base_regret"
    assert info.value.allowed == report["purified_regret"]

    rec = run_instance(base, seed=2, L=4)
    assert rec.outcome == "bound_breach"
    assert "aggregate_base_regret" in rec.reduction["error"]


def solved_for_lift(base, L, seed=0):
    config = SolverConfig(target_epsilon=default_target_epsilon(base, L=L), seed=seed)
    return solve_mixed(base, config).profile


# At L = 120 the lift's own payoff evaluation sums 720 terms per entry, and
# its potentials and coefficients part from the population state's by up
# to about 1e-12 of their largest value (1e-11 at L = 400); the decisions
# stay identical.
@pytest.mark.parametrize("L, tol", [(2, 1e-12), (7, 1e-12), (50, 1e-12), (120, 1e-11)])
def test_binary_population_state_matches_the_lift(L, tol):
    # Matching pennies mixes both players; random_game seed 4 mixes two of
    # three.  Every replica of a mixed population is rounded by the sweep.
    for base in (matching_pennies_game(), random_game(3, 2, 0.3, seed=4)):
        profile = solved_for_lift(base, L)
        problems, trace = population_mismatches(base, profile, L, tol=tol)
        assert problems == []
        assert sum(c is not None for c in trace.coefficients) >= L
    order = np.random.default_rng(L).permutation(base.n * L)
    problems, _ = population_mismatches(base, profile, L, order=order, tol=tol)
    assert problems == []


@pytest.mark.parametrize("L", [1, 2, 5])
@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_maction_population_state_matches_the_lift(n, m, L):
    for seed in range(5):
        base = random_game(n, m, 0.3 if n < 5 else 0.2, seed=100 * n + 10 * m + seed)
        problems, _ = population_mismatches(base, solved_for_lift(base, L, seed), L)
        assert problems == [], seed


@pytest.mark.parametrize("L", [2, 3])
def test_growing_sets_on_population_state(L):
    # The sweep alone (the fixture's profile is not an equilibrium): a set
    # grows late in the sweep, and the addition budget is asserted on the
    # population state as on the lift.
    game, profile = growing_set_game()
    reference = MixedProfile(np.repeat(profile.probs, L, axis=0))
    ref_pure, ref = purify_rounding_m(induce(game, L), reference)
    pure, trace = purify_rounding_m(game, profile, L=L)
    assert np.array_equal(pure.actions, ref_pure.actions)
    assert trace.chosen_actions == ref.chosen_actions
    assert [a.tolist() for a in trace.additions] == [a.tolist() for a in ref.additions]
    grew = [k for k, added in enumerate(trace.additions) if k and added.size]
    assert grew and trace.additions[grew[0]].size == L
    observed = trace.bounds["addition_variance_budget"]["observed"]
    assert observed > 0.0
    assert abs(observed - ref.bounds["addition_variance_budget"]["observed"]) <= 1e-12 * observed
    gap = np.abs(np.subtract(trace.potentials, ref.potentials)).max()
    assert gap <= 1e-12 * max(ref.potentials)


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
    for epsilon in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(UsageError):
            reduce_and_solve(zero_game(), epsilon=epsilon, L=2)


def test_a_lifted_trace_replays_against_the_lift_not_the_base_game():
    # The trace of a purification at L is over the lift's n*L players, so
    # its full detail needs induce(base, L); against the base game it is
    # refused naming both player counts, and its potentials need no replay.
    base, L = cycle_game(3, 0.3), 20
    config = SolverConfig(target_epsilon=default_target_epsilon(base, L=L))
    _, trace = purify(base, solve_mixed(base, config).profile, L=L)
    with pytest.raises(UsageError, match=r"60 players with 2 actions .* 3 players .*induce\(game, L\)"):
        trace_to_json(trace, base, "full")
    assert len(trace_to_json(trace, base, "potentials")["steps"]) == base.n * L + 1
    assert len(trace_to_json(trace, induce(base, L), "full")["steps"]) == base.n * L + 1


def test_a_trace_replays_only_against_a_game_of_its_action_count():
    # The cycle's only equilibrium plays 1/2 everywhere.
    _, trace = purify(cycle_game(3, 0.3), MixedProfile(np.full((3, 2), 0.5)))
    with pytest.raises(UsageError, match=r"3 players with 2 actions .* 3 players with 3 actions"):
        trace_to_json(trace, random_game(3, 3, 0.3, 5), "full")

"""Three-stage binary purification: bounds, trace coherence, order effects."""

import math

import numpy as np
import pytest

from helpers import (
    constant_gap_game,
    random_game,
    reference_sweep,
    sweep_step_oracle,
    zero_game,
)
from lippoly import (
    BinaryOnlyError,
    MixedProfile,
    PolymatrixGame,
    PreconditionViolation,
    PureProfile,
    SolverConfig,
    UsageError,
    ane_to_wsne_binary,
    correct_binary,
    purify,
    purify_rounding_binary,
    regret_report,
    replay,
    solve_mixed,
    trace_to_json,
)
from lippoly.game import BOUND_TOL, action_regrets, discrepancy_vector, payoff_matrix
from lippoly.purify.binary import sweep_step

PIPELINE_SEEDS = (0, 1, 2, 3, 4, 5)
# At lam = 1/n every player starts in the relevant set; at n = 12,
# lam = 0.04 these seeds start with 11 and 9 players and the set grows.
GROWING_SEEDS = (3, 6)


def run_pipeline(seed, n=16, order=None, lam=None):
    lam = 1.0 / n if lam is None else lam
    game = random_game(n, 2, lam, seed)
    solved = solve_mixed(game, SolverConfig(target_epsilon=lam / 8.0, seed=seed))
    assert solved.converged
    final, trace = purify(game, solved.profile, order=order)
    return game, solved.profile, final, trace


@pytest.fixture(scope="module")
def pipelines():
    growing = [run_pipeline(seed, n=12, lam=0.04) for seed in GROWING_SEEDS]
    assert all(any(len(added) for added in run[3].additions[1:]) for run in growing)
    return [run_pipeline(seed) for seed in PIPELINE_SEEDS] + growing


# ---------------------------------------------------------------- stage 1


def test_wsne_pure_zero_regret_input_unchanged():
    game = constant_gap_game([0.9, 0.0], lam=1.0)
    profile = MixedProfile([[1.0, 0.0], [1.0, 0.0]])
    out, _ = ane_to_wsne_binary(game, profile)
    assert np.array_equal(out.probs, profile.probs)


def test_wsne_forced_switch_direction():
    # Player 0's first action dominates by 0.9 > (lam/2) sqrt(2): snapped
    # there; player 1 is indifferent and keeps its mix.
    game = constant_gap_game([0.9, 0.0], lam=1.0)
    profile = MixedProfile([[0.9, 0.1], [0.5, 0.5]])
    out, _ = ane_to_wsne_binary(game, profile)
    assert np.array_equal(out.probs[0], [1.0, 0.0])
    assert np.array_equal(out.probs[1], [0.5, 0.5])


def test_wsne_support_bound_on_solver_output(pipelines):
    for game, _, _, trace in pipelines:
        wsne = trace.wsne_profile
        bound = game.lam * math.sqrt(game.n)
        reg = action_regrets(payoff_matrix(game, wsne))
        support = wsne.probs > 0.0
        assert reg[support].max() <= bound + 1e-9
        d = discrepancy_vector(game, wsne)
        mixed = (wsne.probs[:, 1] > 0.0) & (wsne.probs[:, 1] < 1.0)
        if mixed.any():
            assert np.abs(d[mixed]).max() <= bound + 1e-9


def test_wsne_snap_rule_follows_input_discrepancies(pipelines):
    for game, profile, _, trace in pipelines:
        d = discrepancy_vector(game, profile)
        snap = np.abs(d) > 0.5 * game.lam * math.sqrt(game.n)
        expect = profile.probs.copy()
        expect[snap] = np.eye(2)[(d[snap] > 0.0).astype(int)]
        assert np.array_equal(trace.wsne_profile.probs, expect)


def test_wsne_rejects_three_actions():
    game = zero_game(n=2, m=3)
    with pytest.raises(BinaryOnlyError):
        ane_to_wsne_binary(game, MixedProfile(np.full((2, 3), 1.0 / 3.0)))


def test_precondition_ladder():
    game = constant_gap_game([0.8, 0.0], lam=0.8)
    required = game.lam / 8.0  # 0.1

    def with_regret(r):
        p = 1.0 - r / 0.8
        return MixedProfile([[p, 1.0 - p], [0.5, 0.5]])

    # Clean: at the required level.
    assert ane_to_wsne_binary(game, with_regret(0.05))[1] is False
    # Warn band: above required but within twice.
    with pytest.warns(RuntimeWarning):
        assert ane_to_wsne_binary(game, with_regret(0.15))[1] is True
    # Beyond twice: hard failure naming the player.
    with pytest.raises(PreconditionViolation) as info:
        ane_to_wsne_binary(game, with_regret(0.25))
    err = info.value
    assert err.player == 0
    assert err.measured == pytest.approx(0.25, abs=1e-12)
    assert err.required == pytest.approx(required, abs=1e-15)


def test_precondition_warning_lands_in_trace():
    game = constant_gap_game([0.8, 0.0], lam=0.8)
    p = 1.0 - 0.15 / 0.8
    profile = MixedProfile([[p, 1.0 - p], [0.5, 0.5]])
    with pytest.warns(RuntimeWarning):
        _, trace = purify(game, profile)
    assert trace.precondition_warning


# ---------------------------------------------------------------- stage 2


def test_rounding_pure_input_identity():
    game = random_game(6, 2, 0.2, 42)
    pure_probs = np.eye(2)[[0, 1, 0, 0, 1, 1]]
    wsne = MixedProfile(pure_probs)
    pure, trace = purify_rounding_binary(game, wsne)
    assert np.array_equal(pure.actions, [0, 1, 0, 0, 1, 1])
    assert all(a is None for a in trace.coefficients)
    assert len(set(trace.potentials)) == 1


def test_rounding_single_mixed_player_bit_choice():
    for seed in range(6):
        game = random_game(8, 2, 0.125, seed + 700)
        probs = np.eye(2)[np.random.default_rng(seed).integers(0, 2, size=8)].astype(float)
        probs[3] = (0.4, 0.6)
        wsne = MixedProfile(probs)
        d0 = discrepancy_vector(game, wsne)
        S = np.abs(d0) <= game.lam * math.sqrt(8)

        P0 = probs.copy()
        P0[3] = (1.0, 0.0)
        P1 = probs.copy()
        P1[3] = (0.0, 1.0)
        c = discrepancy_vector(game, MixedProfile(P0))
        ell = discrepancy_vector(game, MixedProfile(P1)) - c
        A = 2.0 * float(c[S] @ ell[S])

        pure, trace = purify_rounding_binary(game, wsne)
        bit = int(pure.actions[3])
        if A > 0.0:
            assert bit == 0
        elif A < 0.0:
            assert bit == 1
        else:
            assert bit == int(d0[3] > 0.0)
        assert A * (bit - 0.6) <= 1e-12


def test_rounding_a_times_delta_p_nonpositive(pipelines):
    checked = 0
    for game, _, _, trace in pipelines:
        profiles = replay(trace, game).profiles
        for k, actor in enumerate(trace.order):
            A = trace.coefficients[k]
            if A is None:
                continue
            before = profiles[k].probs[actor, 1]
            after = profiles[k + 1].probs[actor, 1]
            assert A * (after - before) <= 1e-12
            checked += 1
    assert checked > 0


def test_rounding_coefficients_match_formula(pipelines):
    # The column update must agree with two whole-profile evaluations and
    # with the direct coefficient reading, and the stored A with its
    # recomputation.
    for game, _, _, trace in pipelines:
        beta = game.beta
        state = replay(trace, game)
        for k, actor in enumerate(trace.order):
            A = trace.coefficients[k]
            if A is None:
                continue
            P = state.profiles[k].probs
            c, ell = sweep_step_oracle(game, P, actor)
            d = discrepancy_vector(game, state.profiles[k])
            c_new, ell_new = sweep_step(game, d, float(P[actor, 1]), actor)
            assert np.abs(c_new - c).max() <= 1e-12
            assert np.abs(ell_new - ell).max() <= 1e-12
            slope = (beta[:, actor, 1, 1] - beta[:, actor, 0, 1]) - (
                beta[:, actor, 1, 0] - beta[:, actor, 0, 0]
            )
            assert np.abs(ell - slope).max() <= 1e-9
            S = np.zeros(game.n, dtype=bool)
            S[list(state.relevant_sets[k])] = True
            assert 2.0 * float(c[S] @ ell[S]) == pytest.approx(A, abs=1e-9)


@pytest.mark.parametrize("n, seed", [(16, 900), (40, 901), (40, 902), (90, 903)])
def test_sweep_matches_reference_sweep(n, seed):
    game, _, _, trace = run_pipeline(seed, n=n)
    order = tuple(np.random.default_rng(seed).permutation(n))
    _, trace = purify_rounding_binary(game, trace.wsne_profile, order=order)
    assert trace.chosen_actions == reference_sweep(game, trace.wsne_profile.probs, order)
    drift = trace.bounds["sweep_drift"]
    assert drift["ok"] and drift["allowed"] == BOUND_TOL
    # The running discrepancies end where a fresh evaluation puts them.
    state = replay(trace, game)
    d = discrepancy_vector(game, state.profiles[-1])
    S = sorted(state.relevant_sets[-1])
    terminal = trace.bounds["terminal_cost"]["observed"]
    assert terminal == pytest.approx(float(d[S] @ d[S]), rel=1e-12)


def test_relevant_sets_monotone(pipelines):
    for game, _, _, trace in pipelines:
        sets = replay(trace, game).relevant_sets
        for earlier, later in zip(sets, sets[1:]):
            assert earlier <= later


def test_membership_rule_from_profiles(pipelines):
    for game, _, _, trace in pipelines:
        bound = game.lam * math.sqrt(game.n)
        state = replay(trace, game)
        for k in range(1, len(state.profiles)):
            d = discrepancy_vector(game, state.profiles[k])
            joined = frozenset(np.flatnonzero(np.abs(d) <= bound))
            assert state.relevant_sets[k] == (state.relevant_sets[k - 1] | joined)


def test_cost_matches_definition(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        for profile, S, cost in zip(state.profiles, state.relevant_sets, trace.potentials):
            d = discrepancy_vector(game, profile)
            idx = list(S)
            assert cost == pytest.approx(float(d[idx] @ d[idx]), abs=1e-12)


def test_step_cost_increase_bound(pipelines):
    for game, _, _, trace in pipelines:
        n, lam = game.n, game.lam
        sets = replay(trace, game).relevant_sets
        for k in range(1, len(trace.potentials)):
            new = len(sets[k]) - len(sets[k - 1])
            increase = trace.potentials[k] - trace.potentials[k - 1]
            assert increase <= 4.0 * lam * lam * n + lam * lam * n * new + 1e-9


def test_terminal_cost_bound(pipelines):
    for game, _, _, trace in pipelines:
        assert trace.potentials[-1] <= 5.0 * game.lam**2 * game.n**2 + 1e-9
        entry = trace.bounds["terminal_cost"]
        assert entry["ok"]
        assert entry["observed"] == pytest.approx(trace.potentials[-1])


def test_sign_change_implies_membership(pipelines):
    # With n >= 4 one sweep step moves any discrepancy by at most
    # 2 lam <= lam sqrt(n), so a sign flip forces the flipped player
    # inside the support band, hence into the relevant set.
    flips = 0
    for game, _, _, trace in pipelines:
        assert game.n >= 4
        state = replay(trace, game)
        vectors = [discrepancy_vector(game, p) for p in state.profiles]
        for k in range(1, len(vectors)):
            flipped = np.flatnonzero(vectors[k - 1] * vectors[k] < 0.0)
            for player in flipped:
                assert player in state.relevant_sets[k]
                flips += 1
    # Not asserting flips > 0: genuinely rare; the invariant is what counts.


def test_players_outside_final_set_have_zero_regret(pipelines):
    for game, _, _, trace in pipelines:
        state = replay(trace, game)
        rounded = state.profiles[-1]
        assert rounded.is_pure_valued()
        report = regret_report(game, rounded)
        outside = [i for i in range(game.n) if i not in state.relevant_sets[-1]]
        for i in outside:
            assert report.per_player_regret[i] <= 1e-9


# ---------------------------------------------------------------- stage 3


def test_correct_no_switchers_identity():
    game = zero_game(n=5, m=2)
    wsne = MixedProfile(np.full((5, 2), 0.5))
    pure, trace = purify_rounding_binary(game, wsne)
    final = correct_binary(game, pure, trace)
    assert np.array_equal(final.actions, pure.actions)
    assert trace.switched_players == ()
    assert trace.final_max_regret == 0.0


def test_correct_switch_rule_and_simultaneity(pipelines):
    for game, _, final, trace in pipelines:
        rounded = replay(trace, game).profiles[-1].to_pure()
        report = regret_report(game, MixedProfile.from_pure(rounded, 2))
        expect_switch = set(np.flatnonzero(report.per_player_regret >= trace.thresholds["delta"]))
        assert set(trace.switched_players) == expect_switch
        # All switch targets are best responses against the pre-switch profile.
        d = discrepancy_vector(game, MixedProfile.from_pure(rounded, 2))
        for i in trace.switched_players:
            assert final.actions[i] == int(d[i] > 0.0)
        keep = [i for i in range(game.n) if i not in expect_switch]
        assert np.array_equal(final.actions[keep], rounded.actions[keep])


def test_switcher_budget(pipelines):
    for game, _, _, trace in pipelines:
        delta = trace.thresholds["delta"]
        assert len(trace.switched_players) <= trace.potentials[-1] / delta**2 + 1e-9
        assert trace.bounds["switcher_count"]["ok"]


def test_delta_value(pipelines):
    for game, _, _, trace in pipelines:
        assert trace.thresholds["delta"] == pytest.approx(
            game.lam * (20.0 * game.n**2) ** (1.0 / 3.0), rel=1e-12
        )


def test_final_regret_bound_recomputed(pipelines):
    for game, _, final, trace in pipelines:
        bound = game.lam * (70.0 * game.n**2) ** (1.0 / 3.0)
        fresh = regret_report(game, MixedProfile.from_pure(final, 2)).max_regret
        assert fresh <= bound + 1e-9
        assert abs(fresh - trace.final_max_regret) <= 1e-9
        assert trace.bounds["final_regret"]["ok"]


def test_bound_chain_constants():
    # Stage 3 gives 1.5 * delta; the advertised bound has cube-root slack.
    assert 1.5**3 * 20.0 == 67.5 <= 70.0
    assert 1.5 * 20.0 ** (1.0 / 3.0) == pytest.approx(4.07163, abs=1e-4)
    assert 70.0 ** (1.0 / 3.0) == pytest.approx(4.12129, abs=1e-4)
    assert 1.5 * 20.0 ** (1.0 / 3.0) < 70.0 ** (1.0 / 3.0)


# ------------------------------------------------------- order and routing


def test_sweep_order_variants_keep_bounds():
    n = 16
    lam = 1.0 / n
    game = random_game(n, 2, lam, 9)
    solved = solve_mixed(game, SolverConfig(target_epsilon=lam / 8.0, seed=9))
    orders = [
        tuple(range(n - 1, -1, -1)),
        tuple(np.random.default_rng(3).permutation(n)),
    ]
    for order in orders:
        final, trace = purify(game, solved.profile, order=order)
        assert trace.order == order
        assert all(entry["ok"] for entry in trace.bounds.values())
        fresh = regret_report(game, MixedProfile.from_pure(final, 2)).max_regret
        assert fresh <= lam * (70.0 * n * n) ** (1.0 / 3.0) + 1e-9


def permute_game(game, perm):
    return PolymatrixGame(
        n=game.n, m=game.m, beta=game.beta[np.ix_(perm, perm)], lam=game.lam
    )


def test_pipeline_commutes_with_player_relabeling():
    n = 12
    lam = 1.0 / n
    game = random_game(n, 2, lam, 31)
    solved = solve_mixed(game, SolverConfig(target_epsilon=lam / 8.0, seed=31))
    final, trace = purify(game, solved.profile)

    rng = np.random.default_rng(8)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    relabeled = permute_game(game, perm)
    profile = MixedProfile(solved.profile.probs[perm])
    # Process the same underlying players in the same sequence.
    order = tuple(int(inv[p]) for p in trace.order)
    final2, trace2 = purify(relabeled, profile, order=order)

    assert np.array_equal(final2.actions, final.actions[perm])
    assert np.allclose(trace2.potentials, trace.potentials, atol=1e-12)
    relabeled_sets = [
        frozenset(int(inv[p]) for p in S) for S in replay(trace, game).relevant_sets
    ]
    assert replay(trace2, relabeled).relevant_sets == relabeled_sets
    assert set(trace2.switched_players) == {int(inv[p]) for p in trace.switched_players}


def test_purify_routing():
    binary = random_game(6, 2, 0.15, 50)
    solved = solve_mixed(binary, SolverConfig(target_epsilon=binary.lam / 8.0, seed=1))
    _, trace = purify(binary, solved.profile)
    assert trace.pipeline == "binary"

    _, trace = purify(binary, solved.profile, mode="m_action")
    assert trace.pipeline == "m_action"

    wide = random_game(5, 3, 0.2, 51)
    target = (2.0 / 3.0) ** 2 * wide.lam
    solved = solve_mixed(wide, SolverConfig(target_epsilon=target, seed=1))
    _, trace = purify(wide, solved.profile)
    assert trace.pipeline == "m_action"

    with pytest.raises(BinaryOnlyError):
        purify(wide, solved.profile, mode="binary")
    with pytest.raises(UsageError):
        purify(wide, solved.profile, mode="exact")


def test_trace_json_details(pipelines):
    game, _, _, trace = pipelines[0]
    full = trace_to_json(trace, game, detail="full")
    assert full["pipeline"] == "binary"
    assert full["bounds"]["final_regret"]["ok"]
    assert min(full["order"]) == 1
    assert all(isinstance(s, dict) for s in full["steps"])
    skinny = trace_to_json(trace, game, detail="potentials")
    assert "input_profile" not in skinny
    assert len(skinny["steps"]) == len(full["steps"])
    with pytest.raises(UsageError):
        trace_to_json(trace, game, detail="everything")

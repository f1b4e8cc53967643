"""Game representation, payoff/regret evaluation, validity checking."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coordination_game,
    mixed_payoff_oracle,
    payoff_matrix_oracle,
    payoff_oracle,
    random_game,
    random_mixed,
    random_pure_actions,
    regret_oracle,
    zero_game,
)
from lippoly import (
    BinaryOnlyError,
    DistributionError,
    LipschitzViolation,
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    RangeViolation,
    UsageError,
    Valid,
    canonical_bytes,
    check_game,
    game_digest,
    game_from_json,
    game_to_json,
    load_game,
    profile_from_json,
    profile_to_json,
    pure_payoff,
    regret_report,
)
from lippoly.game import discrepancy_vector, payoff_matrix
from lippoly.purify.common import replica_regrets


def test_pure_payoff_zero_game():
    game = zero_game(n=4, m=2)
    profile = PureProfile(np.zeros(4, dtype=int))
    for i in range(4):
        for j in range(2):
            assert pure_payoff(game, i, j, profile) == 0.0


def test_pure_payoff_coordination_single_term():
    game = coordination_game()
    # Opponent matches: the single bimatrix term contributes 1.
    assert pure_payoff(game, 0, 0, PureProfile([0, 0])) == 1.0
    assert pure_payoff(game, 0, 0, PureProfile([0, 1])) == 0.0


def test_pure_payoff_matches_resummation():
    for seed in range(5):
        game = random_game(4, 2, 0.25, seed)
        for trial in range(8):
            actions = random_pure_actions(4, 2, 100 * seed + trial)
            profile = PureProfile(actions)
            for i in range(4):
                for j in range(2):
                    got = pure_payoff(game, i, j, profile)
                    want = payoff_oracle(game, i, j, actions)
                    assert abs(got - want) <= 1e-12


def test_pure_payoff_rejects_bad_indices():
    game = zero_game(n=3, m=2)
    profile = PureProfile([0, 0, 0])
    with pytest.raises(UsageError):
        pure_payoff(game, 3, 0, profile)
    with pytest.raises(UsageError):
        pure_payoff(game, 0, 2, profile)


def test_mixed_payoff_coordination_half():
    game = coordination_game()
    profile = MixedProfile([[1.0, 0.0], [0.5, 0.5]])
    assert payoff_matrix(game, profile)[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_mixed_payoff_pure_valued_equals_pure():
    game = random_game(5, 3, 0.2, 7)
    actions = random_pure_actions(5, 3, 11)
    pure = PureProfile(actions)
    U = payoff_matrix(game, MixedProfile.from_pure(pure, 3))
    for i in range(5):
        for j in range(3):
            assert U[i, j] == pytest.approx(
                pure_payoff(game, i, j, pure), abs=1e-12
            )


def test_mixed_payoff_exhaustive_expectation():
    for seed in range(6):
        n = 3 + seed
        game = random_game(n, 2, 1.0 / n, seed)
        profile = random_mixed(n, 2, seed + 40)
        U = payoff_matrix(game, profile)
        for i in range(n):
            for j in range(2):
                got = U[i, j]
                want = mixed_payoff_oracle(game, i, j, profile.probs)
                assert abs(got - want) <= 1e-9


def test_mixed_profile_rejects_bad_rows():
    with pytest.raises(DistributionError):
        MixedProfile([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(DistributionError):
        MixedProfile([[1.2, -0.2], [0.5, 0.5]])


def test_mixed_profile_rejects_non_finite_rows():
    with pytest.raises(DistributionError):
        MixedProfile([[np.nan, np.nan], [0.5, 0.5]])


def test_game_rejects_non_finite_coefficients():
    beta = np.zeros((3, 3, 2, 2))
    beta[0, 2, 1, 0] = np.nan
    with pytest.raises(UsageError):
        PolymatrixGame(n=3, m=2, beta=beta, lam=0.5)
    beta[0, 2, 1, 0] = np.inf
    with pytest.raises(UsageError):
        PolymatrixGame(n=3, m=2, beta=beta, lam=0.5)


def test_load_game_rejects_non_finite_literals(tmp_path):
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "game.json"
        path.write_text(
            '{"n": 2, "m": 2, "lambda": 0.5, "beta": '
            f'[{{"i": 1, "ip": 2, "matrix": [[{literal}, 0], [0, 0]]}}]}}'
        )
        with pytest.raises(UsageError, match=literal):
            load_game(str(path))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(2, 5), st.integers(0, 10**6))
def test_operator_matches_the_contraction_oracle(n, m, seed):
    rng = np.random.default_rng(seed)
    game = PolymatrixGame(n=n, m=m, beta=rng.uniform(0.0, 1.0 / n, size=(n, n, m, m)), lam=1.0)
    profile = random_mixed(n, m, seed + 1)
    U = payoff_matrix_oracle(game, profile)
    assert np.abs(payoff_matrix(game, profile) - U).max() <= 1e-12
    per = np.maximum(U.max(axis=1) - (U * profile.probs).sum(axis=1), 0.0)
    assert np.abs(regret_report(game, profile).per_player_regret - per).max() <= 1e-12


def test_regret_zero_for_played_best_response():
    game = random_game(4, 3, 0.3, 3)
    profile = random_mixed(4, 3, 9)
    probs = profile.probs.copy()
    probs[1] = 0.0
    probs[1, int(np.argmax(payoff_matrix(game, profile)[1]))] = 1.0
    # Opponent rows unchanged, so player 1's payoffs are unchanged too.
    assert regret_report(game, MixedProfile(probs)).per_player_regret[1] == 0.0


def test_regret_zero_game():
    game = zero_game(n=3, m=3)
    profile = random_mixed(3, 3, 1)
    assert not regret_report(game, profile).per_player_regret.any()


def test_regret_matches_enumeration():
    for seed in range(8):
        n = 3 + seed % 2
        m = 2 + seed % 2
        game = random_game(n, m, 0.3, seed + 50)
        profile = random_mixed(n, m, seed + 60)
        report = regret_report(game, profile)
        for i in range(n):
            want = regret_oracle(game, i, profile.probs)
            assert abs(report.per_player_regret[i] - want) <= 1e-9
        assert report.max_regret == report.per_player_regret.max()
        assert report.argmax_player == int(np.argmax(report.per_player_regret))


def test_discrepancy_symmetric_coordination_zero():
    game = coordination_game()
    profile = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    assert discrepancy_vector(game, profile)[0] == 0.0


def test_discrepancy_coordination_opponent_pure_high():
    game = coordination_game()
    profile = MixedProfile([[0.5, 0.5], [0.0, 1.0]])
    assert discrepancy_vector(game, profile)[0] == 1.0


def test_discrepancy_matches_payoff_difference():
    for seed in range(5):
        game = random_game(6, 2, 0.2, seed + 70)
        profile = random_mixed(6, 2, seed + 80)
        d = discrepancy_vector(game, profile)
        for i in range(6):
            want = (mixed_payoff_oracle(game, i, 1, profile.probs)
                    - mixed_payoff_oracle(game, i, 0, profile.probs))
            assert abs(d[i] - want) <= 1e-12


def test_discrepancy_rejects_three_actions():
    game = zero_game(n=2, m=3)
    with pytest.raises(BinaryOnlyError):
        discrepancy_vector(game, MixedProfile(np.full((2, 3), 1.0 / 3.0)))


# Best responses as stage 3 takes them: `replica_regrets` at L = 1.


def test_best_response_zero_game_tie_breaks_low():
    game = zero_game(n=3, m=4)
    _, best = replica_regrets(game, 1, random_pure_actions(3, 4, 2))
    assert not best.any()


def test_best_response_coordination():
    game = coordination_game()
    _, best = replica_regrets(game, 1, np.array([0, 1]))
    assert best[0] == 1


def test_best_response_is_argmax_of_recomputed_payoffs():
    for seed in range(5):
        game = random_game(5, 3, 0.25, seed + 90)
        actions = random_pure_actions(5, 3, seed + 95)
        per, best = replica_regrets(game, 1, actions)
        for i in range(5):
            values = [payoff_oracle(game, i, j, actions) for j in range(3)]
            assert best[i] == int(np.argmax(values))
            assert abs(per[i] - (max(values) - values[actions[i]])) <= 1e-12


def test_check_game_zero_valid():
    assert isinstance(check_game(zero_game(n=3, m=2, lam=0.5)), Valid)


def test_check_game_coordination_lipschitz_violation():
    game = coordination_game(lam=0.1)
    outcome = check_game(game)
    assert isinstance(outcome, LipschitzViolation)
    w = outcome.witness
    assert w.observed_gap == 1.0
    assert w.allowed_gap == pytest.approx(0.1)
    assert w.observed_gap > w.allowed_gap
    # The pair agrees at the affected player and differs at exactly one other.
    a, b = w.profile_a.actions, w.profile_b.actions
    assert a[w.player] == b[w.player]
    assert int((a != b).sum()) == 1


def test_check_game_planted_perturbation_names_the_pair():
    for seed in range(10):
        game = random_game(6, 3, 0.15, seed + 200)
        assert isinstance(check_game(game), Valid)
        rng = np.random.default_rng(seed + 300)
        i, ip = rng.choice(6, size=2, replace=False)
        j, jp = rng.integers(0, 3, size=2)
        beta = game.beta.copy()
        beta[i, ip, j, jp] += 2.0 * game.lam
        bad = PolymatrixGame(n=6, m=3, beta=beta, lam=game.lam)
        outcome = check_game(bad)
        assert isinstance(outcome, LipschitzViolation)
        w = outcome.witness
        assert w.player == i
        diff = np.flatnonzero(w.profile_a.actions != w.profile_b.actions)
        assert list(diff) == [ip]
        # Witness invariant: the gap recomputes from pure payoffs.
        gap = abs(
            pure_payoff(bad, w.player, int(w.profile_a.actions[w.player]), w.profile_a)
            - pure_payoff(bad, w.player, int(w.profile_a.actions[w.player]), w.profile_b)
        )
        assert abs(gap - w.observed_gap) <= 1e-12
        assert w.observed_gap > w.allowed_gap


def test_check_game_range_violation():
    beta = np.zeros((2, 2, 2, 2))
    beta[0, 1] = 1.5  # constant block: no spread, but sums exceed 1
    game = PolymatrixGame(n=2, m=2, beta=beta, lam=0.5)
    outcome = check_game(game)
    assert isinstance(outcome, RangeViolation)
    assert outcome.player == 0
    assert outcome.direction == "upper"

    beta = np.zeros((2, 2, 2, 2))
    beta[0, 1] = -0.2
    game = PolymatrixGame(n=2, m=2, beta=beta, lam=0.5)
    outcome = check_game(game)
    assert isinstance(outcome, RangeViolation)
    assert outcome.direction == "lower"


def test_payoff_range_on_valid_games():
    game = random_game(8, 3, 0.125, 5)
    assert isinstance(check_game(game), Valid)
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        actions = rng.integers(0, 3, size=8)
        i = int(rng.integers(0, 8))
        j = int(rng.integers(0, 3))
        value = pure_payoff(game, i, j, PureProfile(actions))
        assert -1e-9 <= value <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_payoff_is_tv_lipschitz_between_profiles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m = int(rng.integers(2, 4))
    lam = float(rng.uniform(0.05, 1.0 / (n - 1)))
    game = random_game(n, m, lam, seed + 1)
    p = random_mixed(n, m, seed + 2)
    q_rows = random_mixed(n, m, seed + 3).probs.copy()
    i = int(rng.integers(0, n))
    q_rows[i] = p.probs[i]
    q = MixedProfile(q_rows)
    moved = 0.5 * float(np.abs(p.probs - q.probs).sum())  # total variation, summed over rows
    realized = [payoff_matrix(game, r)[i] @ r.probs[i] for r in (p, q)]
    gap = abs(realized[0] - realized[1])
    assert gap <= game.lam * moved + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_regret_is_two_lambda_lipschitz_in_one_row(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m = int(rng.integers(2, 4))
    lam = float(rng.uniform(0.05, 1.0 / (n - 1)))
    game = random_game(n, m, lam, seed + 5)
    p = random_mixed(n, m, seed + 6)
    i = int(rng.integers(0, n))
    k = int(rng.integers(0, n - 1))
    k += k >= i  # any opponent row
    q_rows = p.probs.copy()
    other = random_mixed(n, m, seed + 7).probs[k]
    q_rows[k] = other
    rho = 0.5 * float(np.abs(p.probs[k] - other).sum())  # total variation of row k
    before, after = (
        regret_report(game, r).per_player_regret[i] for r in (p, MixedProfile(q_rows))
    )
    gap = abs(before - after)
    assert gap <= 2.0 * game.lam * rho + 1e-9


def test_game_json_round_trip():
    game = random_game(4, 3, 0.2, 21)
    doc = game_to_json(game)
    assert doc["n"] == 4 and doc["m"] == 3
    back = game_from_json(json.loads(json.dumps(doc)))
    assert back.n == game.n and back.m == game.m and back.lam == game.lam
    assert np.array_equal(back.beta, game.beta)


def test_game_json_one_based_blocks_and_zero_omission():
    doc = game_to_json(coordination_game())
    pairs = {(block["i"], block["ip"]) for block in doc["beta"]}
    assert pairs == {(1, 2), (2, 1)}
    # Zero game serializes with no blocks at all.
    assert game_to_json(zero_game())["beta"] == []


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"beta": [{"i": 1, "ip": 4, "matrix": [[0, 0], [0, 0]]}]}, r"block \(1, 4\) out of range"),
        ({"beta": [{"i": 0, "ip": 2, "matrix": [[0, 0], [0, 0]]}]}, r"block \(0, 2\) out of range"),
        ({"beta": [{"i": 2, "ip": 2, "matrix": [[0, 0], [0, 0]]}]}, r"block \(2, 2\) out of range"),
        ({"beta": [{"i": 1, "ip": 2, "matrix": [[0, 0, 0], [0, 0, 0]]}]}, r"block \(1, 2\) has shape"),
        (
            {
                "beta": [
                    {"i": 1, "ip": 2, "matrix": [[0, 0], [0, 0]]},
                    {"i": 2, "ip": 3, "matrix": [[0, 0, 0], [0]]},
                ]
            },
            r"block \(2, 3\) has shape ragged rows",
        ),
        (
            {
                "beta": [
                    {"i": 1, "ip": 2, "matrix": [[0, 0], [0, 0]]},
                    {"i": 2, "ip": 1, "matrix": [[0.1, 0], [0, 0]]},
                    {"i": 1, "ip": 2, "matrix": [[0.2, 0], [0, 0]]},
                ]
            },
            r"block \(1, 2\) appears more than once",
        ),
        ({"beta": [{"i": 1, "matrix": [[0, 0], [0, 0]]}]}, "malformed game JSON"),
        ({"beta": [{"i": 1, "ip": 2, "matrix": [["x", 0], [0, 0]]}]}, "malformed game JSON"),
        ({"n": -1}, r"player count must be >= 1, got -1"),
        ({"m": -2}, r"action count must be >= 2, got -2"),
        ({"n": 2.5}, r"player count must be an integer, got 2.5"),
        ({"m": 2.5}, r"action count must be an integer, got 2.5"),
        (
            {"beta": [{"i": 1.7, "ip": 2, "matrix": [[0, 0], [0, 0]]}]},
            r"block \(1.7, 2\) has a non-integer index",
        ),
        ({"n": "3", "lambda": "0.3"}, r"player count must be a number, got '3'"),
        ({"lambda": "0.3"}, r"lambda must be a number, got '0.3'"),
        ({"m": True}, r"action count must be a number, got True"),
    ],
    ids=[
        "past-n", "zero", "self", "shape", "ragged", "duplicate", "no-ip", "not-a-number",
        "negative-n", "negative-m", "fractional-n", "fractional-m", "fractional-i",
        "string-n", "string-lambda", "bool-m",
    ],
)
def test_game_from_json_rejects_malformed_blocks(fields, message):
    with pytest.raises(UsageError, match=message):
        game_from_json({"n": 3, "m": 2, "lambda": 0.5, "beta": [], **fields})


def test_profile_json_round_trip():
    pure = PureProfile([2, 0, 1])
    doc = profile_to_json(pure)
    assert doc == {"pure": [3, 1, 2]}
    assert np.array_equal(profile_from_json(doc).actions, pure.actions)

    mixed = random_mixed(3, 3, 4)
    back = profile_from_json(profile_to_json(mixed))
    assert np.array_equal(back.probs, mixed.probs)


def test_canonical_bytes_ignores_insertion_order():
    a = canonical_bytes({"b": 1, "a": [1, 2]})
    b = canonical_bytes({"a": [1, 2], "b": 1})
    assert a == b


def test_game_digest_stability():
    game = random_game(4, 2, 0.25, 31)
    same = PolymatrixGame(n=4, m=2, beta=game.beta.copy(), lam=game.lam)
    other = random_game(4, 2, 0.25, 32)
    assert game_digest(game) == game_digest(same)
    assert game_digest(game) != game_digest(other)
    assert len(game_digest(game)) == 16


def test_pure_valued_round_trip():
    pure = PureProfile([1, 0, 2])
    mixed = MixedProfile.from_pure(pure, 3)
    assert mixed.is_pure_valued()
    assert np.array_equal(mixed.to_pure().actions, pure.actions)
    assert not random_mixed(3, 3, 8).is_pure_valued()

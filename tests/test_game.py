"""Game representation, payoff/regret evaluation, validity checking."""

import json
import re
import tomllib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coordination_game,
    discrepancy_vector,
    mixed_payoff_oracle,
    payoff_matrix_oracle,
    payoff_oracle,
    random_game,
    random_mixed,
    random_pure_actions,
    read_outcome,
    reference_check_game,
    reference_game_from_json,
    regret_oracle,
    zero_game,
)
from lippoly import (
    BinaryOnlyError,
    BudgetExceeded,
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
    save_game,
)
import lippoly.game
from lippoly.game import TENSOR_GUARD, payoff_matrix, tensor_guard
from lippoly.harness.generator import GeneratorSpec, generate
from lippoly.harness.pipeline import run_instance
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


@pytest.mark.parametrize("n, m, seed", [(1, 2, 0), (5, 2, 1), (7, 4, 2)])
def test_regret_report_carries_its_payoffs_read_only(n, m, seed):
    game = random_game(n, m, 0.3, seed) if n > 1 else zero_game(n=1, m=m)
    profile = random_mixed(n, m, seed + 10)
    U = regret_report(game, profile).payoffs
    assert U.dtype == np.float64
    assert np.array_equal(U, payoff_matrix(game, profile))
    assert U.tobytes() == payoff_matrix(game, profile).tobytes()
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 1.0


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


def check_outcome(outcome):
    """check_game's outcome as plain values, the gaps as their exact bits."""
    if isinstance(outcome, LipschitzViolation):
        w = outcome.witness
        return ("witness", w.player, w.profile_a.actions.tolist(), w.profile_b.actions.tolist(),
                w.observed_gap.hex(), w.allowed_gap.hex())
    if isinstance(outcome, RangeViolation):
        return ("range", outcome.player, outcome.action, outcome.direction)
    assert isinstance(outcome, Valid)
    return ("valid",)


def _planted(game, *changes):
    """The game with each (i, ip, j, row) change setting beta[i, ip, j] to row."""
    beta = game.beta.copy()
    for i, ip, j, row in changes:
        beta[i, ip, j] = row
    return PolymatrixGame(n=game.n, m=game.m, beta=beta, lam=game.lam)


def _shifted(game, i, j, by):
    """The game with player i's action j paid `by` more by opponent 0 (or 1),
    which moves its payoff range and no spread."""
    beta = game.beta.copy()
    beta[i, 1 if i == 0 else 0, j] += by
    return PolymatrixGame(n=game.n, m=game.m, beta=beta, lam=game.lam)


_BASE_12 = random_game(12, 2, 0.1, 40)
_BASE_9 = random_game(9, 3, 0.15, 41)
CHECKED_GAMES = {
    "zero": zero_game(n=3, m=2, lam=0.5),
    "coordination": coordination_game(lam=0.1),
    "coordination-valid": coordination_game(lam=1.0),
    "range-upper-n2": _planted(zero_game(2, 2, 0.5), (0, 1, 0, 1.5), (0, 1, 1, 1.5)),
    "range-lower-n2": _planted(zero_game(2, 2, 0.5), (0, 1, 0, -0.2), (0, 1, 1, -0.2)),
    "valid-12": _BASE_12,
    "valid-9-m3": _BASE_9,
    "spread-first-chunk": _planted(_BASE_12, (0, 5, 1, [0.0, 0.6])),
    "spread-last-chunk": _planted(_BASE_12, (11, 3, 0, [0.7, 0.0])),
    "spread-last-chunk-m3": _planted(_BASE_9, (8, 2, 2, [0.0, 0.5, 0.1])),
    "equal-spreads-in-two-chunks": _planted(
        _BASE_12, (1, 4, 0, [0.0, 0.5]), (10, 2, 1, [0.5, 0.0])
    ),
    # (i, ip, j) order puts the second first; (i, j, ip) order would not.
    "equal-spreads-in-one-row": _planted(
        _BASE_9, (4, 7, 1, [0.0, 0.4, 0.2]), (4, 2, 2, [0.4, 0.0, 0.0])
    ),
    "upper-last-chunk": _shifted(_BASE_12, 11, 1, 1.0),
    "lower-last-chunk": _shifted(_BASE_12, 11, 0, -1.0),
    "upper-first-and-larger-last": _shifted(_shifted(_BASE_9, 0, 2, 1.0), 8, 1, 1.5),
}
CHECKED_GAMES.update({
    f"planted-{seed}": _planted(
        random_game(6, 3, 0.15, seed + 200), (seed % 6, (seed + 1) % 6, seed % 3, [0.0, 0.3, 0.1])
    )
    for seed in range(3)
})


@pytest.mark.parametrize("step", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(CHECKED_GAMES))
def test_check_game_in_row_chunks_gives_the_one_scan_outcome(name, step):
    # _PIECE patched so that a chunk holds `step` rows (at most n - 1):
    # every game here spans several chunks, and the outcome is the one-scan
    # reference's.
    game = CHECKED_GAMES[name]
    step = min(step, game.n - 1)
    with mock.patch.object(lippoly.game, "_PIECE", step * 8 * game.n * game.m + 7):
        got = check_outcome(check_game(game))
    assert got == check_outcome(reference_check_game(game))
    assert got == check_outcome(check_game(game))  # unpatched: one chunk
    expected = {
        "spread-first-chunk": ("witness", 0),
        "spread-last-chunk": ("witness", 11),
        "equal-spreads-in-two-chunks": ("witness", 1),
        "upper-last-chunk": ("range", 11, 1, "upper"),
        "lower-last-chunk": ("range", 11, 0, "lower"),
        "upper-first-and-larger-last": ("range", 8, 1, "upper"),
    }.get(name)
    if expected:
        assert got[:len(expected)] == expected


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


# Malformed game documents, as fields merged into a 3-player binary game
# (see _game_document_text), and the error each must give.
MALFORMED_GAMES = [
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
    (
        {"beta": [
            {"i": 1, "ip": 2, "matrix": [[0.1, 0], [0, 0]]},
            {"i": "2", "ip": 1, "matrix": [[0.1, 0], [0, 0]]},
        ]},
        r"block \('2', 1\) has an index that is not a number",
    ),
    (
        {"beta": [{"i": "1", "ip": 2, "matrix": [[0.1, 0], [0, 0]]}]},
        r"block \('1', 2\) has an index that is not a number",
    ),
    (
        {"beta": [{"i": 1, "ip": True, "matrix": [[0.1, 0], [0, 0]]}]},
        r"block \(1, True\) has an index that is not a number",
    ),
    (
        {"beta": [
            {"i": 1, "ip": 2, "matrix": [[0.1, 0], [0, 0]]},
            {"i": 2, "ip": 1, "matrix": [["0.1", 0], [0, 0]]},
        ]},
        r"malformed game JSON: '0.1' is not a number",
    ),
    (
        {"beta": [{"i": 1, "ip": 2, "matrix": [[0.1, True], [0, 0]]}]},
        "malformed game JSON: True is not a number",
    ),
    (
        {"beta": [{"i": 1, "ip": 2, "matrix": [[10**400, 0], [0, 0]]}]},
        "malformed game JSON: int too large to convert to float",
    ),
    (
        {"beta": [{"i": 1, "ip": 2, "matrix": []}]},
        r"block \(1, 2\) has shape \(0,\), want \(2, 2\)",
    ),
    (
        # As many objects carry a matrix as there are blocks, but one of
        # them is not a block.
        {"beta": [{"i": 1, "ip": 2}], "note": {"matrix": [[0, 0], [0, 0]]}},
        r"block \(1, 2\) has shape \(\), want \(2, 2\)",
    ),
    (
        # The last "beta" counts; the first one's matrix is no block's.
        [("beta", [{"i": 1, "ip": 2, "matrix": [[0, 0], [0, 0]]}]), ("beta", [{"i": 2, "ip": 1}])],
        r"block \(2, 1\) has shape \(\), want \(2, 2\)",
    ),
]
MALFORMED_IDS = [
    "past-n", "zero", "self", "shape", "ragged", "duplicate", "no-ip", "not-a-number",
    "negative-n", "negative-m", "fractional-n", "fractional-m", "fractional-i",
    "string-n", "string-lambda", "bool-m", "second-string-index", "string-index",
    "bool-index", "string-entry", "bool-entry", "huge-entry", "empty-matrix",
    "matrix-outside-block", "second-beta",
]


@pytest.mark.parametrize("fields, message", MALFORMED_GAMES, ids=MALFORMED_IDS)
def test_game_from_json_rejects_malformed_blocks(fields, message, tmp_path):
    # Both entry points share one reader, so each is held to the
    # reference copy of the reader they replaced.
    text = _game_document_text(fields)
    path = tmp_path / "game.json"
    path.write_text(text)
    with pytest.raises(UsageError, match=message) as loaded:
        load_game(str(path))
    with pytest.raises(UsageError) as reference:
        reference_game_from_json(json.loads(text))
    assert str(loaded.value) == str(reference.value)
    assert read_outcome(game_from_json, json.loads(text)) == read_outcome(load_game, str(path))


def _game_document_text(fields):
    """A 3-player binary game document as JSON text, with fields merged in;
    a list of (key, value) pairs is appended instead, repeated keys kept."""
    base = {"n": 3, "m": 2, "lambda": 0.5, "beta": []}
    if isinstance(fields, dict):
        return json.dumps({**base, **fields})
    pairs = "".join(f", {json.dumps(key)}: {json.dumps(value)}" for key, value in fields)
    return json.dumps(base)[:-1] + pairs + "}"


# Block objects where the format wants a number, a matrix or the block
# list.  The reader takes each as a block while it parses, and each is
# named as a block by its indices.  A "beta" that is no list is refused
# even when it is empty.
_STRAY_BLOCK = {"i": 1, "ip": 2, "matrix": [[0, 0], [0, 0]]}
_INNER_BLOCK = {"i": 1, "ip": 3, "matrix": [[0, 0], [0, 0]]}
STRAY_BLOCK_GAMES = {
    "block-as-n": ({"n": _STRAY_BLOCK}, "player count must be a number, got block (1, 2)"),
    "block-as-lambda": ({"lambda": _STRAY_BLOCK}, "lambda must be a number, got block (1, 2)"),
    "block-with-an-entry-too-large-for-a-float-as-n": (
        {"n": {"i": 1, "ip": 2, "matrix": [[10**400]]}},
        "player count must be a number, got block (1, 2)",
    ),
    "block-in-a-matrix-row": (
        {"beta": [{"i": 1, "ip": 2, "matrix": [[{"i": 1, "ip": 3, "matrix": [[0]]}, 0], [0, 0]]}]},
        "malformed game JSON: block (1, 3) is not a number",
    ),
    "block-as-an-index": (
        {"beta": [{"i": _INNER_BLOCK, "ip": 2, "matrix": [[0, 0], [0, 0]]}]},
        "malformed game JSON: block (block (1, 3), 2) has an index that is not a number",
    ),
    "block-as-a-matrix": (
        {"beta": [{"i": 1, "ip": 2, "matrix": _INNER_BLOCK}]},
        "block (1, 2) has block (1, 3) as its matrix, want (2, 2)",
    ),
    "block-as-beta": ({"beta": _STRAY_BLOCK}, 'malformed game JSON: "beta" must be a list, got block (1, 2)'),
    "empty-object-as-beta": ({"beta": {}}, 'malformed game JSON: "beta" must be a list, got dict'),
}


@pytest.mark.parametrize("name", sorted(STRAY_BLOCK_GAMES))
def test_a_block_out_of_place_is_named_as_a_block(name, tmp_path):
    fields, message = STRAY_BLOCK_GAMES[name]
    text = _game_document_text(fields)
    path = tmp_path / "game.json"
    path.write_text(text)
    assert read_outcome(load_game, str(path)) == ("UsageError", message)
    assert read_outcome(game_from_json, json.loads(text)) == ("UsageError", message)


@pytest.mark.parametrize("n, m, seed", [(2, 2, 1), (9, 2, 2), (6, 3, 3), (5, 8, 4)])
def test_load_game_is_bit_identical_to_game_from_json(tmp_path, n, m, seed):
    game = random_game(n, m, 0.2, seed)
    # Drop some blocks, which the wire format then omits.
    beta = game.beta.copy()
    keep = np.random.default_rng(seed).random((n, n)) < 0.7
    beta[~keep] = 0.0
    path = tmp_path / "game.json"
    save_game(PolymatrixGame(n=n, m=m, beta=beta, lam=game.lam), str(path))
    with open(path) as fh:
        document = json.load(fh)
    # (n, m, lambda and the operator's bytes) as the reference reads them.
    expected = read_outcome(reference_game_from_json, document)
    assert expected[0] == "game"
    assert read_outcome(load_game, str(path)) == expected
    # The document's compact dump is read in pieces, never whole.
    with mock.patch.object(lippoly.game, "_build_game") as whole:
        assert read_outcome(game_from_json, document) == expected
    assert not whole.called


@pytest.mark.parametrize("n, m", [(129, 2), (40, 8)])
def test_a_large_game_with_reordered_block_keys_reads_as_its_canonical_file(tmp_path, n, m):
    # Keys in another order send the blocks through the whole-text reader,
    # which scatters them a chunk of blocks at a time; both games have
    # more entries than a chunk has blocks.
    game = random_game(n, m, 1 / n, 1)
    canonical = tmp_path / "canonical.json"
    save_game(game, str(canonical))
    document = game_to_json(game)
    document["beta"] = [
        {"matrix": b["matrix"], "i": b["i"], "ip": b["ip"]} for b in document["beta"]
    ]
    assert len(document["beta"]) * m * m > lippoly.game._SCATTER
    path = tmp_path / "game.json"
    path.write_text(json.dumps(document))
    expected = game_digest(load_game(str(canonical)))
    assert game_digest(load_game(str(path))) == expected
    assert game_digest(game_from_json(json.loads(path.read_text()))) == expected


# What a mutation may put in place of an index, an entry or a size.
ODD_VALUES = ["1", "0.1", True, False, None, 2.0, 1.5, -1, 0, 10**400, []]
# What a mutation may add under a new key; a block-shaped object only
# where the format reads no value.
ADDED_VALUES = [0, 1, 2, "x", [[0, 0], [0, 0]]]
OBJECT_VALUES = [{"matrix": [[0, 0], [0, 0]]}, {"i": 1, "ip": 2, "matrix": [[0.5, 0], [0, 0.25]]}]


@st.composite
def mutated_game_texts(draw, compact=False):
    """The JSON text of a small game document after one to three
    mutations: a key dropped; an index, entry or size made a string, a
    boolean, a float or another odd value; a matrix reshaped; a block
    repeated; keys added to a block or to the document; a "matrix"
    outside "beta"; "beta" repeated.  Keys may repeat in the text, which
    is written with json.dumps's separators, or without spaces if
    `compact`."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    doc = game_to_json(random_game(n, m, 0.2, draw(st.integers(0, 9))))
    blocks = doc["beta"]
    pairs = [[key, doc[key]] for key in ("n", "m", "lambda", "beta")]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["drop", "value", "shape", "repeat-block", "add-key", "outside", "repeat-beta"]
        ))
        block = draw(st.sampled_from(blocks)) if blocks else {}
        matrix = block.get("matrix")
        if kind == "drop":
            if draw(st.booleans()) or not block:
                pairs.pop(draw(st.integers(0, len(pairs) - 1)))
            else:
                del block[draw(st.sampled_from(sorted(block)))]
        elif kind == "value":
            value = draw(st.sampled_from(ODD_VALUES))
            where = draw(st.sampled_from(["n", "m", "lambda", "i", "ip", "entry"]))
            if where in ("n", "m", "lambda"):
                pairs.append([where, value])
            elif where != "entry":
                block[where] = value
            elif isinstance(matrix, list) and matrix and isinstance(matrix[0], list) and matrix[0]:
                matrix[0][draw(st.integers(0, len(matrix[0]) - 1))] = value
        elif kind == "shape":
            k = draw(st.integers(1, 4))
            block["matrix"] = draw(st.sampled_from([
                [], 5, [[0.1] * k] * k, [[0.1] * k] * (k + 1), [[0.1] * m] * (m - 1) + [[0.1]],
                [[0.1] * (m + 1)] * m, [[0.1] * m for _ in range(m)] + [[0.1] * m],
            ]))
        elif kind == "repeat-block" and blocks:
            blocks.insert(draw(st.integers(0, len(blocks))), json.loads(json.dumps(block)))
        elif kind == "add-key":
            key = draw(st.sampled_from(["note", "x", "i", "ip", "matrix"]))
            pool = ADDED_VALUES + (OBJECT_VALUES if key in ("note", "x") else [])
            value = draw(st.sampled_from(pool))
            if draw(st.booleans()) or not block:
                pairs.append([key, value])
            else:
                block[key] = value
        elif kind == "outside":
            stray = [[0.5] * m] * m
            pairs.insert(draw(st.integers(0, len(pairs))), ["matrix", stray] if draw(st.booleans())
                         else ["note", {"matrix": stray}])
        elif kind == "repeat-beta":
            again = json.loads(json.dumps(blocks[:draw(st.integers(0, len(blocks)))]))
            pairs.insert(draw(st.integers(0, len(pairs))), ["beta", again])
    comma, colon = separators = (",", ":") if compact else (", ", ": ")
    return "{" + comma.join(
        f"{json.dumps(key)}{colon}{json.dumps(value, separators=separators)}" for key, value in pairs
    ) + "}"


@settings(max_examples=200, deadline=None)
@given(text=mutated_game_texts())
def test_load_game_reads_mutated_documents_as_the_reference_does(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated-game.json"
    path.write_text(text)
    with mock.patch.object(lippoly.game.json, "loads", wraps=json.loads) as loads:
        got = read_outcome(load_game, str(path))
    assert loads.call_count == 1
    assert got == read_outcome(reference_game_from_json, json.loads(text))


def test_load_game_parses_its_text_once(tmp_path):
    # Booleans, a second "beta" and a matrix outside a block used to make
    # the reader parse the whole text a second time.
    texts = [_game_document_text(fields) for fields, _ in MALFORMED_GAMES]
    texts.append(_game_document_text(
        {"note": True, "beta": [{"i": 1, "ip": 2, "matrix": [[0.5, 0], [0, 0]]}]}
    ))
    path = tmp_path / "game.json"
    for text in texts:
        path.write_text(text)
        with mock.patch.object(lippoly.game.json, "loads", wraps=json.loads) as loads:
            read_outcome(load_game, str(path))
        assert loads.call_count == 1, text


# Piece sizes small enough that blocks straddle the cuts; the smaller is
# just over the head of a document written with "n", "m" and "lambda"
# first.
PIECES = [48, 256]
COMPACT = (",", ":")


def read_in_pieces(path, piece):
    """load_game's outcome on `path` with pieces of `piece` bytes, and
    whether the pieces gave it (the whole text was never read)."""
    with mock.patch.object(lippoly.game, "_PIECE", piece), \
            mock.patch.object(lippoly.game, "_read_text", wraps=lippoly.game._read_text) as whole:
        got = read_outcome(load_game, str(path))
    return got, not whole.called


def read_whole(path):
    """load_game's outcome on `path` with the piece reader declining, so
    that the whole-text reader gives it."""
    with mock.patch.object(lippoly.game, "_read_pieces", lambda fh: None):
        return read_outcome(load_game, str(path))


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("n, m, seed", [(9, 2, 1), (6, 3, 2), (4, 8, 3)])
def test_load_game_reads_compact_games_in_pieces_as_whole(tmp_path, piece, n, m, seed):
    # Both key orders: canonical_bytes ("beta" first, as save_game writes)
    # and perfbench's writer ("n", "m", "lambda", "beta"); with and without
    # a trailing newline.  An m = 8 block is larger than either piece.
    document = game_to_json(random_game(n, m, 0.2, seed))
    path = tmp_path / "game.json"
    for text in (
        canonical_bytes(document),
        canonical_bytes(document) + b"\n",
        json.dumps(document, separators=COMPACT).encode() + b"\n",
    ):
        path.write_bytes(text)
        got, in_pieces = read_in_pieces(path, piece)
        assert got[0] == "game" and in_pieces
        assert got == read_whole(path)


def _compact_text(pairs):
    """A game document's compact text from (key, value) pairs; keys may repeat."""
    return "{" + ",".join(
        json.dumps(key) + ":" + json.dumps(value, separators=COMPACT) for key, value in pairs
    ) + "}"


_PIECE_GAME = game_to_json(random_game(6, 2, 0.2, 1))
_BLOCKS = _PIECE_GAME["beta"]
_SIZES = [("lambda", _PIECE_GAME["lambda"]), ("m", 2), ("n", 6)]


def _blocks_with_entry(value, at=len(_BLOCKS) // 2, key="matrix"):
    """The blocks, block `at`'s first entry (or its index `key`) made `value`."""
    blocks = json.loads(json.dumps(_BLOCKS))
    if key == "matrix":
        blocks[at]["matrix"][0][0] = value
    else:
        blocks[at][key] = value
    return blocks


def _block_of_records():
    """A 5 x 5 block (6, 4) whose 25 entries followed by 6, 4 and 5, cut
    into runs of seven numbers as an m = 2 game's blocks would be (four
    entries, then i, ip and 2), read as blocks (6, 1) to (6, 4)."""
    entries = [0.01] * 25
    for row, ip in enumerate((1, 2, 3)):
        entries[7 * row + 4:7 * row + 6] = [6, ip]
    return {"i": 6, "ip": 4, "matrix": [entries[row:row + 5] for row in range(0, 25, 5)]}


# Compact documents the piece reader must read as the whole-text reader
# does: markers in strings, repeated keys, entries it declines, damage in a
# late piece, a pair in two pieces or out of row-major order, a tail that
# does not fit in the last piece, a byte that is not UTF-8, and spacing;
# numbers JSON refuses, indices the whole-text reader refuses or reads as
# integers, and blocks the skeleton of m x m entries does not match.
_VALID = _compact_text([("beta", _BLOCKS), *_SIZES])


def _with_entry(literal, at=len(_BLOCKS) // 2):
    """The valid document's text, block `at`'s first entry written `literal`."""
    return _compact_text([("beta", _blocks_with_entry(12345.5, at)), *_SIZES]).replace(
        "12345.5", literal
    )


def _with_block_text(old, new, at=len(_BLOCKS) // 2):
    """The valid document's text, `old` made `new` in block `at`'s text."""
    block = json.dumps(_BLOCKS[at], separators=COMPACT)
    assert old in block
    return _VALID.replace(block, block.replace(old, new, 1))


_MIDDLE = _BLOCKS[len(_BLOCKS) // 2]
_ROWS = json.dumps(_MIDDLE["matrix"], separators=COMPACT)
_ENTRIES = _MIDDLE["matrix"][0] + _MIDDLE["matrix"][1]
ODD_COMPACT = {
    "empty-beta": _compact_text([("beta", []), *_SIZES, ("note", "x" * 300)]),
    "block-end-in-a-string-first": _compact_text([("note", "]]},"), ("beta", _BLOCKS), *_SIZES]),
    "block-ends-in-a-string-last": _compact_text([("beta", _BLOCKS), *_SIZES, ("note", "]]},{]]}]")]),
    "beta-in-a-string": _compact_text([("note", '"beta":['), ("beta", _BLOCKS), *_SIZES]),
    "beta-in-a-key": _compact_text([('x"beta', [0]), ("beta", _BLOCKS), *_SIZES]),
    "blocks-under-a-key-ending-in-beta": _compact_text([('x"beta', _BLOCKS), *_SIZES]),
    "block-list-in-a-note": _compact_text([("note", {"beta": _BLOCKS}), ("beta", []), *_SIZES]),
    "repeated-beta": _compact_text([("beta", _BLOCKS), ("beta", _BLOCKS[::2]), *_SIZES]),
    "repeated-beta-last": _compact_text([("beta", _BLOCKS), *_SIZES, ("beta", [])]),
    "repeated-size": _compact_text([("beta", _BLOCKS), *_SIZES, ("n", 5)]),
    "repeated-size-and-blocks-of-another": _compact_text(
        [("beta", _BLOCKS), *_SIZES[:1], ("m", 3), ("n", 6), ("n", 6)]
    ),
    "boolean-in-a-block": _compact_text([("beta", _blocks_with_entry(True)), *_SIZES]),
    "block-end-as-an-entry": _compact_text([("beta", _blocks_with_entry("]]},")), *_SIZES]),
    "nan-entry": _compact_text([("beta", _blocks_with_entry(12345.5)), *_SIZES]).replace(
        "12345.5", "NaN"
    ),
    "truncated": _VALID[:-60],
    "pair-in-two-pieces": _compact_text([("beta", _BLOCKS + _BLOCKS[:1]), *_SIZES]),
    "pair-twice-in-a-row": _compact_text([("beta", _BLOCKS + _BLOCKS[-1:]), *_SIZES]),
    "blocks-out-of-order": _compact_text([("beta", _BLOCKS[::-1]), *_SIZES]),
    "infinite-entry-last": _compact_text(
        [("beta", _blocks_with_entry(12345.5, -1)), *_SIZES]
    ).replace("12345.5", "1e400"),
    "index-out-of-range-last": _compact_text([("beta", _blocks_with_entry(7, -1, "ip")), *_SIZES]),
    "another-m-last": _compact_text(
        [("beta", _BLOCKS[:-1] + [{**_BLOCKS[-1], "matrix": [[0.1] * 3] * 3}]), *_SIZES]
    ),
    "another-m-cut-as-records-last": _compact_text(
        [("beta", [block for block in _BLOCKS if block["i"] < 6] + [_block_of_records()]), *_SIZES]
    ),
    "tail-past-the-last-piece": _compact_text([("beta", _BLOCKS), *_SIZES, ("note", "x" * 300)]),
    "crlf-ending": _VALID + "\r\n",
    "spaced": json.dumps({"beta": _BLOCKS, **dict(_SIZES)}),
    "not-a-game": _compact_text([("beta", _BLOCKS)]),
    "entry-with-a-leading-zero": _with_entry("01"),
    "entry-without-an-integer-part": _with_entry(".5"),
    "entry-without-a-fraction": _with_entry("1."),
    "entry-with-a-plus": _with_entry("+1"),
    "entry-that-is-a-minus": _with_entry("-"),
    "entry-without-an-exponent": _with_entry("1e"),
    "entry-with-a-signed-empty-exponent": _with_entry("1e+"),
    "infinite-entry": _with_entry("1e400"),
    "entry-of-400-digits": _with_entry("9" * 400),
    "index-as-a-float": _with_block_text(f'"i":{_MIDDLE["i"]}', f'"i":{_MIDDLE["i"]}.0'),
    "index-with-an-exponent": _with_block_text(f'"i":{_MIDDLE["i"]}', f'"i":{_MIDDLE["i"]}e0'),
    "negative-index": _with_block_text(f'"ip":{_MIDDLE["ip"]}', '"ip":-1'),
    "index-past-2-to-the-53": _with_block_text(f'"ip":{_MIDDLE["ip"]}', f'"ip":{2**53 + 1}'),
    "rows-of-m-plus-and-minus-one": _with_block_text(
        _ROWS, json.dumps([_ENTRIES[:3], _ENTRIES[3:]], separators=COMPACT)
    ),
    "space-in-a-block": _with_block_text('"ip":', '"ip": '),
    "extra-key": _with_block_text("]]}", ']],"x":0}'),
    "keys-swapped": _with_block_text(
        f'"i":{_MIDDLE["i"]},"ip":{_MIDDLE["ip"]}', f'"ip":{_MIDDLE["ip"]},"i":{_MIDDLE["i"]}'
    ),
    # A numeral moved into a key leaves the skeleton of numerals deleted
    # unchanged, and reads as the index it left if the keys are dropped.
    "index-moved-into-a-key": _with_block_text(f'"ip":{_MIDDLE["ip"]}', f'"i{_MIDDLE["ip"]}p":'),
    "numeral-between-brackets": _with_block_text("],[", "],5["),
}
ODD_COMPACT = {name: text.encode() for name, text in ODD_COMPACT.items()}
ODD_COMPACT["not-utf8-note"] = _compact_text([("beta", _BLOCKS), *_SIZES, ("note", "?")]).encode().replace(
    b'"?"', b'"\xff"'
)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("name", sorted(ODD_COMPACT))
def test_load_game_reads_odd_compact_documents_in_pieces_as_whole(tmp_path, piece, name):
    path = tmp_path / "game.json"
    path.write_bytes(ODD_COMPACT[name])
    got, in_pieces = read_in_pieces(path, piece)
    assert got == read_whole(path)
    declined = ("spaced", "blocks-out-of-order", "tail-past-the-last-piece", "space-in-a-block")
    if name in declined:
        assert got[0] == "game" and not in_pieces


def test_load_game_reads_a_size_too_large_for_a_float_in_pieces_as_whole(tmp_path):
    # Pieces larger than PIECES, so that the tail, with its 401 digits,
    # sits in the last piece and its sizes are checked there.
    path = tmp_path / "game.json"
    path.write_bytes(_compact_text([("beta", _BLOCKS), *_SIZES[:2], ("n", 10**400)]).encode())
    got = read_whole(path)
    assert got == ("UsageError", "malformed game JSON: int too large to convert to float")
    assert read_in_pieces(path, 1024) == (got, False)


def test_load_game_refuses_an_oversize_game_before_reading_its_pieces(tmp_path):
    # The sizes are checked from the head and the tail, so a game over the
    # tensor guard is refused before a piece, or the whole text, is read.
    path = tmp_path / "game.json"
    path.write_bytes(_VALID.encode())
    assert path.stat().st_size > 256
    with mock.patch.object(lippoly.game, "TENSOR_GUARD", 100):
        with pytest.raises(BudgetExceeded) as whole:
            game_from_json(json.loads(_VALID))
        with mock.patch.object(lippoly.game, "_PIECE", 256), \
                mock.patch.object(lippoly.game, "_read_text") as read_text, \
                pytest.raises(BudgetExceeded) as pieces:
            load_game(str(path))
    assert not read_text.called
    assert str(whole.value) == "a game of 6 players and 2 actions needs 144 coefficients, " \
        "over the budget of 100"
    assert (str(pieces.value), pieces.value.estimate) == (str(whole.value), whole.value.estimate)


@settings(max_examples=200, deadline=None)
@given(text=mutated_game_texts(compact=True), piece=st.sampled_from(PIECES))
def test_load_game_reads_compact_mutated_documents_in_pieces_as_whole(tmp_path_factory, text, piece):
    path = tmp_path_factory.getbasetemp() / "mutated-compact-game.json"
    path.write_text(text)
    assert read_in_pieces(path, piece)[0] == read_whole(path)


# A document nested deeper than the parser goes, and one cut short.
_DEEP = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize("read, template", [
    (load_game, '{"n": 3, "m": 2, "lambda": 0.5, "beta": [], "note": %s}'),
    (lippoly.game.load_json, '{"pure": %s}'),
])
def test_a_deeply_nested_file_is_refused_as_a_truncated_one_is(tmp_path, read, template):
    path = tmp_path / "deep.json"
    for text in (template % _DEEP, (template % "[1]")[:-3]):
        path.write_text(text)
        with pytest.raises(UsageError, match=re.escape(str(path))):
            read(str(path))


@pytest.mark.parametrize("fields, message", [
    ({"n": np.int64(3)}, "Object of type int64 is not JSON serializable"),
    ({"beta": [{"i": 1, "ip": 2, "matrix": [[np.nan, 0], [0, 0]]}]},
     "Out of range float values are not JSON compliant"),
])
def test_game_from_json_refuses_what_json_cannot_encode(fields, message):
    document = {"n": 3, "m": 2, "lambda": 0.5, "beta": [], **fields}
    with pytest.raises(UsageError, match=f"malformed game JSON: {message}"):
        game_from_json(document)


def test_load_game_reads_integer_and_exponent_literals(tmp_path):
    text = ('{"n": 2, "m": 2, "lambda": 0.5, "beta": [{"i": 2, "ip": 1, '
            '"matrix": [[1, 0], [2.5e-1, -0.0]]}]}')
    path = tmp_path / "game.json"
    path.write_text(text)
    loaded = load_game(str(path))
    assert loaded.beta[1, 0].tolist() == [[1.0, 0.0], [0.25, 0.0]]
    assert loaded.operator.tobytes() == game_from_json(json.loads(text)).operator.tobytes()


def test_load_game_peak_memory(tmp_path):
    # No parsed coefficient may outlive its block.
    assert_load_peak(tmp_path, random_game(60, 8, 0.005, 3), 2.5)


def save_sizes_first(game, path):
    """A game file as perfbench writes it: compact, "n", "m" and "lambda" first."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(game_to_json(game), separators=COMPACT).encode() + b"\n")


def test_load_game_peak_stays_within_a_few_pieces(tmp_path):
    # A file over one piece is read a piece at a time, each scattered into
    # the operator, so beside the operator the load holds a piece's bytes,
    # its text and its numbers, however large the file;
    # 64 KiB is for a block on either side of a cut and the reader's own
    # objects.  Its whole text would be twice the file.  Both key orders:
    # save_game's ("beta" first) and perfbench's ("n", "m", "lambda" first).
    for n in (60, 100):
        game = generate(GeneratorSpec(n, 8, 1 / n, seed=1))
        for write in (save_game, save_sizes_first):
            path = tmp_path / f"game-{n}-{write.__name__}.json"
            write(game, str(path))
            tracemalloc.start()
            try:
                loaded = load_game(str(path))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert game_digest(loaded) == game_digest(game)
            size = path.stat().st_size
            assert size > 3 * lippoly.game._PIECE
            bound = game.operator.nbytes + 2 * lippoly.game._PIECE + (1 << 16)
            assert peak <= bound, f"peak {peak} bytes for a {size}-byte file"


def test_load_game_in_pieces_peaks_no_higher_than_whole_just_over_a_piece(tmp_path):
    # The smallest file read in pieces: it must not cost more memory than
    # reading its text whole would.
    path = tmp_path / "game.json"
    save_sizes_first(generate(GeneratorSpec(40, 3, 1 / 40, seed=1)), path)
    assert lippoly.game._PIECE < path.stat().st_size < 1.1 * lippoly.game._PIECE
    peaks = {}
    for way, read_pieces in (("pieces", lippoly.game._read_pieces), ("whole", lambda fh: None)):
        with mock.patch.object(lippoly.game, "_read_pieces", read_pieces):
            load_game(str(path))  # once first, so that no first-call cache counts
            tracemalloc.start()
            try:
                load_game(str(path))
                _, peaks[way] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert peaks["pieces"] <= peaks["whole"], peaks


def test_the_python_floor_compiles_the_piece_patterns_possessive_quantifiers():
    # Python's re takes "++" and "*+" from 3.11 on; with plain quantifiers
    # the match keeps a frame per number, and the two peak tests above and
    # below fail.
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["requires-python"] == ">=3.11"
    pattern = lippoly.game._blocks_pattern(2)
    assert b"0++" in pattern.pattern and pattern.pattern.endswith(b"*+")
    block = b'{"i":0,"ip":0,"matrix":[[0,0],[0,0]]}'
    assert pattern.fullmatch(b",".join([block] * 3))


@pytest.mark.parametrize("n, m", [(300, 2), (100, 8)])
def test_a_pipeline_pass_peaks_at_the_operator_and_two_pieces(tmp_path, n, m):
    # Every transient of a pass is bounded by the piece size: the load's
    # text and records, check_game's row chunks of per-row extremes, and
    # what the solve and purification add, which is smaller.
    game = generate(GeneratorSpec(n, m, 1 / n, seed=1))
    path = tmp_path / "game.json"
    save_game(game, str(path))
    tracemalloc.start()
    try:
        record = run_instance(load_game(str(path)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.outcome == "ok" and record.game_digest == game_digest(game)
    bound = game.operator.nbytes + 2 * lippoly.game._PIECE + (1 << 16)
    assert peak <= bound, f"peak {peak} bytes, {peak - game.operator.nbytes} above the operator"


def test_load_game_peak_memory_on_a_binary_game(tmp_path):
    # A binary game's file is small next to its tensor, so the build may add
    # only the operator to the entry buffer, and no Python object may
    # outlive the parse of its block.
    assert_load_peak(tmp_path, random_game(120, 2, 0.005, 3), 2.1)


def assert_load_peak(tmp_path, game, bound):
    path = tmp_path / "game.json"
    save_game(game, str(path))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_game(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * size, f"peak {peak} bytes for a {size}-byte file"


def test_a_game_takes_its_operator_as_given():
    game = random_game(5, 3, 0.2, 7)
    operator = np.array(game.operator)
    operator.reshape(5, 3, 5, 3)[1, :, 1, :] = 0.5  # a self block, zeroed
    same = PolymatrixGame(n=5, m=3, lam=game.lam, operator=operator)
    assert np.shares_memory(same.operator, operator) and not operator.flags.writeable
    assert game_digest(same) == game_digest(game)
    assert same.beta.tobytes() == game.beta.tobytes()
    # A read-only operator is copied, not written to.
    again = PolymatrixGame(n=5, m=3, lam=game.lam, operator=game.operator)
    assert not np.shares_memory(again.operator, game.operator)
    assert game_digest(again) == game_digest(game)
    for value in (np.inf, -np.inf, np.nan):
        operator = np.array(game.operator)
        operator[0, 4] = value
        with pytest.raises(UsageError, match="game coefficients must be finite"):
            PolymatrixGame(n=5, m=3, lam=game.lam, operator=operator)
    # Finite coefficients whose sum overflows are finite.
    operator = np.array(game.operator)
    operator[0, 4] = operator[1, 5] = 1e308
    with np.errstate(over="ignore"):
        assert np.isinf(operator.sum())
    assert PolymatrixGame(n=5, m=3, lam=game.lam, operator=operator).operator[0, 4] == 1e308


def test_profile_from_json_refuses_numbers_too_large_for_a_float():
    for doc in ({"mixed": [[10**400, 0]]}, {"pure": [10**400, 1]}):
        with pytest.raises(UsageError, match="malformed profile JSON"):
            profile_from_json(doc)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: PolymatrixGame(n=2, m=2, beta=np.zeros((2, 2, 2)), lam=0.5),
            "coefficient array must have shape (2, 2, 2, 2), got (2, 2, 2)",
        ),
        (
            lambda: PolymatrixGame(n=2, m=2, lam=0.5, operator=np.zeros((2, 4))),
            "operator must have shape (4, 4), got (2, 4)",
        ),
        (lambda: PureProfile(np.zeros((2, 2), dtype=int)), "pure profile must be a flat vector"),
        (lambda: MixedProfile([0.5, 0.5]), "mixed profile must be an (n, m) probability matrix"),
        (
            lambda: MixedProfile(np.full((2, 2), 0.5)).validate_for(zero_game(n=3, m=2)),
            "profile shape (2, 2) does not match game (3, 2)",
        ),
        (lambda: MixedProfile([[0.5, 0.5], [1.0, 0.0]]).to_pure(), "profile is not pure-valued"),
        (lambda: profile_from_json({}), 'profile JSON needs a "pure" or "mixed" key'),
    ],
    ids=["game beta shape", "game operator shape", "pure 2-D", "mixed 1-D", "mixed other game",
         "to_pure mixed", "profile no key"],
)
def test_malformed_games_and_profiles_raise_usage_errors(build, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        build()


def test_pure_valued_round_trip():
    pure = PureProfile([1, 0, 2])
    mixed = MixedProfile.from_pure(pure, 3)
    assert mixed.is_pure_valued()
    assert np.array_equal(mixed.to_pure().actions, pure.actions)
    assert not random_mixed(3, 3, 8).is_pure_valued()


@pytest.mark.parametrize("actions, message", [
    ([0, 1, -1], "player 2 action -1 out of range [0, 2)"),
    ([2, 1, 0], "player 0 action 2 out of range [0, 2)"),
])
def test_from_pure_refuses_an_action_out_of_range(actions, message):
    # -1 used to select the last action, 2 to raise a raw IndexError.
    with pytest.raises(UsageError, match=re.escape(message)):
        MixedProfile.from_pure(PureProfile(actions), 2)


# Refusals only: each size below is refused before anything is allocated.
def test_a_game_tensor_over_the_guard_is_refused_with_its_estimate():
    assert TENSOR_GUARD == 10**8
    tensor_guard(5000, 2, "a game")  # exactly 10**8 coefficients
    with pytest.raises(BudgetExceeded, match="a game needs 100040004 coefficients") as info:
        tensor_guard(5001, 2, "a game")
    assert info.value.estimate == 5001**2 * 4
    document = {"n": 100000, "m": 2, "lambda": 0.5, "beta": []}
    for build in (
        lambda: game_from_json(document),
        lambda: generate(GeneratorSpec(n=100000, m=2, lam=0.5)),
    ):
        with pytest.raises(BudgetExceeded, match="a game of 100000 players and 2 actions") as info:
            build()
        assert info.value.estimate == 4 * 10**10

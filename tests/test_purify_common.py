"""What both purification pipelines share: the constants table, the
payoff evaluations and stage 3."""

import importlib

import numpy as np
import pytest

from helpers import constant_gap_game, random_game, zero_game
from lippoly import (
    MixedProfile,
    PureProfile,
    PurifyTrace,
    SolverConfig,
    correct_binary,
    correct_m,
    default_target_epsilon,
    pipeline_constants,
    purify,
    regret_report,
    solve_mixed,
)

game_module = importlib.import_module("lippoly.game")


@pytest.mark.parametrize("n, lam", [(1, 1.0), (7, 0.1), (300, 1.0 / 300)])
def test_binary_constants_match_the_bound_table(n, lam):
    consts = pipeline_constants(zero_game(n=n, m=2, lam=lam), "binary")
    expect = {
        "input": lam / 8,
        "snap": lam * np.sqrt(n) / 2,
        "support": lam * np.sqrt(n),
        "step_cost_increase": 4 * lam**2 * n,
        "entry_cost": lam**2 * n,
        "terminal_cost": 5 * lam**2 * n**2,
        "switch": lam * np.cbrt(20 * n**2),
        "final_regret": lam * np.cbrt(70 * n**2),
    }
    assert consts == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n, m, lam", [(1, 2, 1.0), (10, 4, 0.3), (150, 8, 0.005)])
def test_m_action_constants_match_the_bound_table(n, m, lam):
    consts = pipeline_constants(zero_game(n=n, m=m, lam=lam), "m_action")
    eps0 = (1 - 1 / m) ** 2 * lam
    expect = {
        "input": eps0,
        "snap": np.sqrt(2 * (n - 1) * lam * eps0),
        "support": 2 * np.sqrt(2 * n * lam * eps0),
        "initial_variance": 2 * (n * lam * (m - 1) / m) ** 2,
        "move_variance_budget": ((m - 1) * n * lam / m) ** 2,
        "addition_variance_budget": 4 * n * lam**2 * (np.log(m - 1) + 1),
        "terminal_variance": 8 * n**2 * lam**2 * np.log(3 * m),
        "switch": 4 * lam * np.cbrt(n**2 * m * np.log(3 * m)),
        "switcher_mass": 16 * n**2 * lam**2 * m * np.log(3 * m),
        "final_regret": 6 * lam * np.cbrt(n**2 * m * np.log(3 * m)),
    }
    assert consts == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_purify_evaluates_payoffs_seven_times(monkeypatch, m):
    # The input twice (input regret, stage 1), the stage-1 output twice
    # (stage 1's support check, then stage 2's bound and initial values),
    # the sweep's aggregate twice (sweep_drift, stage 3) and the final
    # profile once.
    game = random_game(12, m, 1.0 / 12, seed=1)
    config = SolverConfig(target_epsilon=default_target_epsilon(game), seed=1)
    profile = solve_mixed(game, config).profile
    calls = []
    kernel = game_module.payoffs

    def counted(game_, probs):
        calls.append(probs.shape)
        return kernel(game_, probs)

    monkeypatch.setattr(game_module, "payoffs", counted)
    purify(game, profile)
    assert calls == [(12, m)] * 7


@pytest.mark.parametrize("pipeline, switches", [("binary", True), ("m_action", False)])
def test_stage3_rule_at_a_regret_exactly_on_the_threshold(pipeline, switches):
    # Player 0's action 0 pays the threshold, action 1 pays 0: on action 1
    # its pure regret is exactly delta (binary) or delta1 (m-action).
    lam = 0.05
    delta = pipeline_constants(zero_game(n=2, m=2, lam=lam), pipeline)["switch"]
    game = constant_gap_game([delta, 0.0], lam=lam)
    pure = PureProfile([1, 0])
    as_mixed = MixedProfile.from_pure(pure, 2)
    assert regret_report(game, as_mixed).per_player_regret[0] == delta

    # A stage-2 trace ending on `pure`, with the cost of player 0 alone.
    trace = PurifyTrace(
        pipeline=pipeline, order=(0, 1), wsne_profile=as_mixed, thresholds={},
        potentials=[delta * delta],
    )
    final = (correct_binary if pipeline == "binary" else correct_m)(game, pure, trace)

    # Binary switches at delta; m-action only strictly above delta1.
    assert trace.switched_players == ((0,) if switches else ())
    assert final.actions.tolist() == ([0, 0] if switches else [1, 0])
    assert trace.final_max_regret == (0.0 if switches else delta)
    assert trace.bounds["final_regret"]["ok"] and trace.bounds["switcher_count"]["ok"]
    assert trace.thresholds["delta" if pipeline == "binary" else "delta1"] == delta

"""What both purification pipelines share: the constants table, the
payoff evaluations and stage 3."""

import importlib

import numpy as np
import pytest

from helpers import constant_gap_game, random_game, switcher_game, zero_game
from lippoly import (
    BoundBreach,
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    PurifyTrace,
    SolverConfig,
    ane_to_wsne_binary,
    ane_to_wsne_m,
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


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = game_module.payoffs

    def counted(game_, probs):
        calls.append(probs.shape)
        return kernel(game_, probs)

    monkeypatch.setattr(game_module, "payoffs", counted)
    return calls


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("L", [1, 3])
def test_purify_evaluates_payoffs_four_times_when_nobody_switches(monkeypatch, m, L):
    # The input once (the input check, whose payoffs stage 1 snaps from),
    # the stage-1 output once (stage 2's support bound and initial
    # values) and the sweep's aggregate twice (sweep_drift, stage 3).
    # With no switcher the final profile is the swept one, so its regret
    # is stage 3's first evaluation.  At L > 1 every call is on the base
    # game's per-population profiles.
    game = random_game(12, m, 1.0 / 12, seed=1)
    config = SolverConfig(target_epsilon=default_target_epsilon(game, L=L), seed=1)
    profile = solve_mixed(game, config).profile
    calls = _count_kernel_calls(monkeypatch)
    _, trace = purify(game, profile, L=L)
    assert trace.switched_players == ()
    assert calls == [(12, m)] * 4


def test_a_switcher_costs_purify_a_fifth_evaluation(monkeypatch):
    # The four evaluations above, and the final profile once more.
    game, profile = switcher_game()
    calls = _count_kernel_calls(monkeypatch)
    final, trace = purify(game, profile)
    assert trace.switched_players == (0,)
    assert calls == [(12, 2)] * 5
    assert trace.final_max_regret == 0.0
    assert regret_report(game, MixedProfile.from_pure(final, 2)).max_regret == 0.0


@pytest.mark.parametrize(
    "mode, stage1", [("binary", ane_to_wsne_binary), ("m_action", ane_to_wsne_m)]
)
def test_a_stage1_output_over_the_support_allowance_breaches_in_stage2(mode, stage1):
    # The declared lam = 0.01 understates the coefficients, which purify
    # does not scan for.  Player 0 is paid 0.008 more for action 1 and
    # leaves 0.1 on action 0 (input regret 0.0008); player 1 is indifferent
    # at that mix, but 0.1 ahead on action 1 once player 0 snaps to action
    # 1.  So stage 1 returns player 1 still mixed on an action 0.1 behind,
    # over the support allowance (0.014 binary, 0.02 m-action).
    beta = np.zeros((2, 2, 2, 2))
    beta[0, 1] = [[0.0, 0.0], [0.008, 0.008]]
    beta[1, 0] = [[0.9, 0.0], [0.0, 0.1]]
    game = PolymatrixGame(n=2, m=2, beta=beta, lam=0.01)
    profile = MixedProfile([[0.1, 0.9], [0.5, 0.5]])
    wsne, warning = stage1(game, profile)
    assert not warning
    assert wsne.probs.tolist() == [[0.0, 1.0], [0.5, 0.5]]
    with pytest.raises(BoundBreach) as info:
        purify(game, profile, mode=mode)
    assert info.value.bound_name == "wsne_support_regret"
    assert info.value.observed == pytest.approx(0.1, abs=1e-12)
    assert info.value.allowed == pipeline_constants(game, mode)["support"]


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

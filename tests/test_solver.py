"""Mixed-equilibrium search and the exhaustive grid fallback."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import lippoly.game as game_module
import lippoly.solver as solver_module
from helpers import (
    coordination_game,
    matching_pennies_game,
    random_game,
    zero_game,
)
from lippoly import (
    BudgetExceeded,
    MixedProfile,
    SolverConfig,
    UsageError,
    brute_force_kuniform,
    default_target_epsilon,
    regret_report,
    solve_mixed,
)
from lippoly.solver import (
    POLISH_CUT,
    _anneal,
    _polish,
    _softmax_rows,
    kuniform_grid,
    polish_objective,
)


def test_zero_game_uniform_profile_converged():
    game = zero_game(n=4, m=3, lam=0.5)
    result = solve_mixed(game, SolverConfig(target_epsilon=0.01))
    assert result.converged
    assert result.achieved_max_regret == 0.0
    assert np.allclose(result.profile.probs, 1.0 / 3.0)


def test_coordination_game_reaches_target():
    game = coordination_game()
    target = default_target_epsilon(game)
    assert target == game.lam / 8.0
    result = solve_mixed(game, SolverConfig(target_epsilon=target))
    assert result.converged
    assert result.achieved_max_regret <= target + 1e-15
    fresh = regret_report(game, result.profile).max_regret
    assert abs(fresh - result.achieved_max_regret) <= 1e-9


def test_default_target_m_action():
    game = zero_game(n=3, m=4, lam=0.8)
    assert default_target_epsilon(game) == pytest.approx((3.0 / 4.0) ** 2 * 0.8)


def test_brute_force_zero_game_k1():
    result = brute_force_kuniform(zero_game(n=3, m=2), 1)
    assert result.converged
    assert result.achieved_max_regret == 0.0


def test_brute_force_matching_pennies_k2():
    result = brute_force_kuniform(matching_pennies_game(), 2)
    assert result.achieved_max_regret == 0.0
    assert np.array_equal(result.profile.probs, np.full((2, 2), 0.5))


def test_brute_force_coordination_k1():
    result = brute_force_kuniform(coordination_game(), 1)
    assert result.achieved_max_regret == 0.0
    assert result.profile.is_pure_valued()
    pure = result.profile.to_pure()
    assert pure.actions[0] == pure.actions[1]


def test_brute_force_guard_refuses_large_instances():
    game = random_game(8, 2, 0.125, 0)
    with pytest.raises(BudgetExceeded) as info:
        brute_force_kuniform(game, 50)
    assert info.value.estimate is not None
    assert info.value.estimate > 10_000_000


@pytest.mark.parametrize("n, m", [(2, 3), (8, 2)])
def test_brute_force_guard_refuses_before_building_the_grid(monkeypatch, n, m):
    # C(k + m - 1, m - 1)^n at k = 10**400 has about 1,600 or 3,200 digits,
    # too many for a float; the grid it would need could never be built.
    def kuniform_grid(*args):
        raise AssertionError("the grid was built before the guard")

    monkeypatch.setattr(solver_module, "kuniform_grid", kuniform_grid)
    with pytest.raises(BudgetExceeded, match=f"\\^{n} candidate profiles") as info:
        brute_force_kuniform(random_game(n, m, 0.1, 0), 10**400)
    assert info.value.estimate == math.comb(10**400 + m - 1, m - 1) ** n


def test_grid_dispatch_matches_brute_force():
    game = random_game(3, 2, 1.0 / 3.0, 13)
    config = SolverConfig(target_epsilon=1e-6, uniform_grid_k=50)
    via_solver = solve_mixed(game, config)
    direct = brute_force_kuniform(game, 50)
    assert np.array_equal(via_solver.profile.probs, direct.profile.probs)
    assert via_solver.achieved_max_regret == direct.achieved_max_regret
    assert direct.phase == "grid"
    # The 50-grid's best profile misses the 1e-6 target on this game.
    assert not via_solver.converged
    assert via_solver.phase is None


def test_brute_force_is_grid_minimum():
    game = random_game(3, 2, 1.0 / 3.0, 29)
    k = 8
    best = min(
        regret_report(game, MixedProfile(np.array(rows))).max_regret
        for rows in __import__("itertools").product(kuniform_grid(2, k), repeat=3)
    )
    result = brute_force_kuniform(game, k)
    assert result.achieved_max_regret == pytest.approx(best, abs=1e-12)


def test_solver_never_beats_feasible_grid_optimum():
    for seed in range(4):
        game = random_game(3, 2, 1.0 / 3.0, seed + 400)
        result = solve_mixed(game, SolverConfig(target_epsilon=default_target_epsilon(game)))
        grid = brute_force_kuniform(game, 100)
        assert result.achieved_max_regret >= grid.achieved_max_regret - 1e-9


def test_reported_regret_recomputable():
    for seed, (n, m) in enumerate([(6, 2), (10, 2), (5, 3), (4, 4)]):
        game = random_game(n, m, 1.0 / n, seed + 500)
        result = solve_mixed(game, SolverConfig(target_epsilon=default_target_epsilon(game)))
        fresh = regret_report(game, result.profile).max_regret
        assert abs(fresh - result.achieved_max_regret) <= 1e-9


def test_determinism_bit_for_bit():
    game = random_game(12, 3, 1.0 / 12.0, 77)
    config = SolverConfig(target_epsilon=default_target_epsilon(game), seed=5)
    a = solve_mixed(game, config)
    b = solve_mixed(game, config)
    assert np.array_equal(a.profile.probs, b.profile.probs)
    assert a.achieved_max_regret == b.achieved_max_regret
    assert a.iterations_used == b.iterations_used
    assert a.converged == b.converged


def test_an_anneal_solve_evaluates_payoffs_once_per_iteration_and_once_more(monkeypatch):
    # The start's payoffs serve both the temperature and iteration 0; the
    # one call beyond the iterations is the final regret report.
    game = random_game(12, 2, 1.0 / 12, 1)
    config = SolverConfig(target_epsilon=default_target_epsilon(game), seed=1)
    calls = []
    kernel = game_module.payoffs

    def counted(game_, probs):
        calls.append(probs.shape)
        return kernel(game_, probs)

    monkeypatch.setattr(game_module, "payoffs", counted)
    monkeypatch.setattr(solver_module, "payoffs", counted)
    result = solve_mixed(game, config)
    assert result.phase == "anneal"
    assert result.iterations_used == 135
    assert len(calls) == result.iterations_used + 1


def test_seed_changes_are_allowed_to_differ():
    game = random_game(12, 3, 1.0 / 12.0, 78)
    a = solve_mixed(game, SolverConfig(target_epsilon=1e-9, seed=1, max_iterations=40))
    b = solve_mixed(game, SolverConfig(target_epsilon=1e-9, seed=2, max_iterations=40))
    # Not asserting inequality of profiles (seeds may coincide), but both
    # must report honestly.
    for result in (a, b):
        fresh = regret_report(game, result.profile).max_regret
        assert abs(fresh - result.achieved_max_regret) <= 1e-9


def test_nonconvergence_is_soft():
    game = random_game(8, 2, 0.125, 91)
    result = solve_mixed(game, SolverConfig(target_epsilon=1e-300))
    assert result.converged == (result.achieved_max_regret <= 1e-300)
    assert result.achieved_max_regret >= 0.0
    assert result.phase is None


# (n, m, seed, target as a fraction of the default, max_iterations) of a
# small random game with lam = 1/n, for each phase that ends such a solve.
# A one-iteration anneal returns its start, so polish has to close the gap;
# at 1e-3 of the default target the plain start's polish stalls at about
# 120 times the target and the jittered restart's polish gets there.  The
# restart's anneal rarely ends a solve (1 of 1,074 restarted solves in a
# seeded sweep); in the n = 9, m = 8 case the plain start's polish stalls
# at about 27 times the target and the jittered anneal reaches it.
PHASE_CASES = {
    "anneal": (3, 2, 0, 1.0, 300),
    "polish": (3, 2, 0, 1.0, 1),
    "restart_anneal": (9, 8, 69320, 1e-3, 300),
    "restart_polish": (5, 2, 51, 1e-3, 1),
}


@pytest.mark.parametrize("phase", sorted(PHASE_CASES))
def test_phase_names_the_stage_that_reached_the_target(phase):
    n, m, seed, scale, max_iterations = PHASE_CASES[phase]
    game = random_game(n, m, 1.0 / n, seed)
    config = SolverConfig(
        target_epsilon=scale * default_target_epsilon(game),
        seed=seed,
        max_iterations=max_iterations,
    )
    if phase.startswith("restart_"):
        # The case rests on the polish stalling above the target from the
        # plain start; if that changes, another game is needed.
        probs, _, _ = _anneal(game, config, config.seed, False)
        _, polished, _ = _polish(game, probs, POLISH_CUT * config.target_epsilon)
        assert polished > config.target_epsilon, "plain-start polish now reaches the target"
    result = solve_mixed(game, config)
    assert result.converged
    assert result.phase == phase
    # iterations_used still counts anneal iterations plus polish evaluations.
    if phase == "anneal":
        assert result.iterations_used <= max_iterations
    else:
        assert result.iterations_used > max_iterations


def test_harmonic_schedule_supported():
    game = random_game(8, 2, 0.125, 92)
    result = solve_mixed(
        game,
        SolverConfig(target_epsilon=0.125 / 8.0, step_schedule="harmonic"),
    )
    fresh = regret_report(game, result.profile).max_regret
    assert abs(fresh - result.achieved_max_regret) <= 1e-9


def test_config_validation():
    for target in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(UsageError):
            SolverConfig(target_epsilon=target)
    with pytest.raises(UsageError):
        SolverConfig(target_epsilon=0.1, max_iterations=0)
    with pytest.raises(UsageError):
        SolverConfig(target_epsilon=0.1, step_schedule="adaptive")


def test_polish_gradient_matches_central_differences():
    game = random_game(5, 3, 0.2, seed=17)
    z = np.random.default_rng(4).normal(size=game.n * game.m)
    # A cut below every regret keeps each player in the hinge.
    f, grad = polish_objective(z, game, 0.0)
    assert f > 0.0
    step = 1e-6
    numeric = np.empty_like(z)
    for k in range(z.size):
        e = np.zeros_like(z)
        e[k] = step
        numeric[k] = (polish_objective(z + e, game, 0.0)[0]
                      - polish_objective(z - e, game, 0.0)[0]) / (2.0 * step)
    assert np.abs(grad - numeric).max() <= 1e-7 * max(1.0, np.abs(numeric).max())


@pytest.fixture(scope="module")
def polish_corpus():
    """(game, start, cut, target) of every polish that seeded solves of 150
    small random games run: n 3-12, m 2-4, at the purifier's input level
    for L = 1 and L = 120, after a 1- or 20-iteration anneal."""
    corpus = []
    polish = solver_module._polish

    def record(game, probs0, cut, maxiter=400):
        corpus.append((game, probs0.copy(), cut, target))
        return polish(game, probs0, cut, maxiter)

    rng = np.random.default_rng(19)
    solver_module._polish = record
    try:
        for _ in range(150):
            n, m, seed = int(rng.integers(3, 13)), int(rng.integers(2, 5)), int(rng.integers(1000))
            L, max_iterations = int(rng.choice([1, 120])), int(rng.choice([1, 20]))
            game = random_game(n, m, 1.0 / n, seed)
            target = default_target_epsilon(game, L=L)
            config = SolverConfig(target_epsilon=target, seed=seed, max_iterations=max_iterations)
            solve_mixed(game, config)
    finally:
        solver_module._polish = polish
    return corpus


def test_polish_reaches_the_target_as_often_as_scipy_lbfgsb(polish_corpus):
    # scipy's L-BFGS-B on the same objective, as the polish ran before it
    # was written in numpy, is the oracle.
    assert len(polish_corpus) >= 100
    ours = theirs = 0
    for game, probs0, cut, target in polish_corpus:
        ours += _polish(game, probs0, cut)[1] <= target
        res = minimize(
            polish_objective,
            np.log(np.clip(probs0, 1e-12, None)).ravel(),
            args=(game, cut),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-14},
        )
        P = _softmax_rows(res.x.reshape(game.n, game.m))
        P /= P.sum(axis=1, keepdims=True)
        theirs += regret_report(game, MixedProfile(P)).max_regret <= target
    assert theirs > 0
    assert ours >= theirs


def test_polish_counts_every_evaluation_and_accepted_steps_never_rise(
    monkeypatch, polish_corpus
):
    evaluated, used = [], []
    objective, direction = polish_objective, solver_module._lbfgs_direction

    def counted(z, game, cut):
        f, g = objective(z, game, cut)
        evaluated.append((z.copy(), f, g))
        return f, g

    def traced(g, pairs):
        # The gradient a direction starts from is that of the current iterate.
        used.append(next(k for k, e in enumerate(evaluated) if e[2] is g))
        return direction(g, pairs)

    monkeypatch.setattr(solver_module, "polish_objective", counted)
    monkeypatch.setattr(solver_module, "_lbfgs_direction", traced)
    for game, probs0, cut, _ in polish_corpus:
        evaluated.clear()
        used.clear()
        P, _, evals = _polish(game, probs0, cut)
        assert evals == len(evaluated)
        # The returned profile is the last iterate's: the first evaluation
        # from the last direction's start on with that profile.
        final = next(
            k for k in range(used[-1], evals)
            if np.array_equal(P, _normalized_softmax(evaluated[k][0], game))
        )
        path = used + [final] if final != used[-1] else used
        assert path[0] == 0 and path == sorted(path)
        values = [evaluated[k][1] for k in path]
        assert all(b < a for a, b in zip(values, values[1:]))


def _normalized_softmax(z, game):
    P = _softmax_rows(z.reshape(game.n, game.m))
    return P / P.sum(axis=1, keepdims=True)


def test_import_leaves_scipy_unloaded():
    # scipy.optimize is most of the import time and only the polish uses
    # it, so the package and its command line load without it.
    import lippoly

    env = dict(os.environ, PYTHONPATH=str(Path(lippoly.__file__).parents[1]))
    code = "import sys, lippoly, lippoly.harness.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_a_polishing_run_leaves_scipy_unloaded():
    # The polish is numpy only: a solve that ends in it and a whole
    # pipeline run with a population reduction never load scipy.
    import lippoly

    paths = (Path(lippoly.__file__).parents[1], Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    n, m, seed, scale, max_iterations = PHASE_CASES["polish"]
    code = f"""
import sys
from helpers import random_game
from lippoly import SolverConfig, default_target_epsilon, solve_mixed
from lippoly.harness.generator import GeneratorSpec
from lippoly.harness.pipeline import run_pipeline

game = random_game({n}, {m}, 1.0 / {n}, {seed})
config = SolverConfig(
    target_epsilon={scale} * default_target_epsilon(game),
    seed={seed},
    max_iterations={max_iterations},
)
assert solve_mixed(game, config).phase == "polish"
run_pipeline(spec=GeneratorSpec(n=3, m=2, lam=0.3, seed=9), L=3)
print("scipy" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"

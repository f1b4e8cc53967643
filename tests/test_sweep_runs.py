"""The binary sweep's runs of one population's replicas, stepped on
scalars, against the per-replica reference sweep (`per_replica_sweep`)."""

import importlib
import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    cycle_game,
    matching_pennies_game,
    per_replica_sweep,
    random_game,
    sweep_mismatches,
)
from lippoly import (
    BoundBreach,
    MixedProfile,
    PolymatrixGame,
    SolverConfig,
    default_target_epsilon,
    solve_mixed,
)
from lippoly.purify import ane_to_wsne_binary, purify_rounding_binary

binary = importlib.import_module("lippoly.purify.binary")
common = importlib.import_module("lippoly.purify.common")

GAMES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "games.py"
# Solved once to the level the largest L needs, which every smaller L accepts.
L_MAX = 1000


@lru_cache(maxsize=None)
def benchmark_reduce_games():
    """The benchmark's reduce-L120 base games for seeds 1-10, four per seed."""
    spec = importlib.util.spec_from_file_location("perfbench_games", GAMES_PATH)
    games = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = games  # its dataclasses look their module up
    spec.loader.exec_module(games)
    workload = games.WORKLOADS["reduce-L120"]
    return tuple(
        PolymatrixGame(n=g.n, m=g.m, beta=g.beta, lam=g.lam)
        for seed in range(1, 11)
        for g in games.make_inputs(workload, seed)
    )


@lru_cache(maxsize=None)
def small_games():
    """Matching pennies and random_game at n = 3, 4, 5, 40 seeds each."""
    return (matching_pennies_game(),) + tuple(
        random_game(n, 2, 0.3 if n < 5 else 0.2, seed=seed)
        for n in (3, 4, 5)
        for seed in range(40)
    )


_solved = {}


def sweep_input(game, L):
    """Stage 1's output at L for a solve to the level L_MAX needs."""
    key = (game.n, game.lam, game.operator.tobytes())
    if key not in _solved:
        config = SolverConfig(target_epsilon=default_target_epsilon(game, L=L_MAX), seed=0)
        _solved[key] = solve_mixed(game, config).profile
    wsne, _ = ane_to_wsne_binary(game, _solved[key], L)
    return wsne


def sweep_cases(L):
    """The benchmark's reduce games at L = 1, 7, 120 and 1000, and the small
    games at every L but 1."""
    games = small_games() if L != 1 else ()
    if L in (1, 7, 120, 1000):
        games += benchmark_reduce_games()
    for game in games:
        yield game, sweep_input(game, L)


@pytest.fixture
def segment_starts(monkeypatch):
    """The steps at which the sweep starts a segment (reads the vectors),
    in the order taken."""
    taken = []
    original = binary._Sweep.glide

    def recorded(self, k, end, i, p_i, ell):
        taken.append(k)
        return original(self, k, end, i, p_i, ell)

    monkeypatch.setattr(binary._Sweep, "glide", recorded)
    return taken


def run_starts(order, L):
    pops = np.asarray(order) // L
    return {0, *(np.flatnonzero(pops[1:] != pops[:-1]) + 1).tolist()}


# Coefficients and potentials stay within 1e-12 of their largest magnitude
# at every L tried, L = 1000 included.
@pytest.mark.parametrize("L", [1, 2, 7, 120, 1000])
def test_run_wise_sweep_matches_the_per_replica_sweep(L):
    rng = np.random.default_rng(L)
    scalar_steps = 0
    for game, wsne in sweep_cases(L):
        for order in (None, rng.permutation(game.n * L)):
            _, ref = per_replica_sweep(game, wsne, order=order, L=L)
            pure, trace = purify_rounding_binary(game, wsne, order=order, L=L)
            assert sweep_mismatches(ref, trace) == []
            assert pure.actions.tolist() == [ref.chosen_actions[k] for k in np.argsort(ref.order)]
            rounded = [k for k, c in enumerate(trace.coefficients) if c is not None]
            scalar_steps += len(set(rounded) - run_starts(trace.order, L))
    # Beyond L = 1 the default order's runs are long enough to glide.
    assert scalar_steps > 0 or L == 1


def test_a_set_grown_inside_a_run_starts_a_new_segment(segment_starts):
    # Population 2 (p = 0.959) is rounded in one run of 120 replicas, and
    # two players join the set while it glides.
    game, L = random_game(5, 2, 0.2, seed=13), 120
    wsne = sweep_input(game, L)
    _, ref = per_replica_sweep(game, wsne, L=L)
    _, trace = purify_rounding_binary(game, wsne, L=L)
    assert sweep_mismatches(ref, trace) == []

    starts = run_starts(trace.order, L)
    grown = [k for k in range(len(trace.order)) if trace.additions[k + 1].size and k not in starts]
    assert grown
    assert {k + 1 for k in grown} <= set(segment_starts)
    # Most of the run is stepped inside one segment.
    run = range(2 * L, 3 * L)
    assert sum(k in segment_starts for k in run) <= 10


def test_an_exact_tie_is_decided_on_scalars(segment_starts):
    # Matching pennies at (1/2, 1/2): d starts at 0, the first replica of a
    # population rounds to 1, and the next one faces A = 0 exactly.  The
    # tie rule takes bit 0 (d[i] = 0), so every second replica is a tie.
    game, L = matching_pennies_game(), 8
    wsne = MixedProfile(np.full((2, 2), 0.5))
    _, ref = per_replica_sweep(game, wsne, L=L)
    _, trace = purify_rounding_binary(game, wsne, L=L)
    assert sweep_mismatches(ref, trace) == []

    ties = [k for k, c in enumerate(trace.coefficients) if c == 0.0]
    assert ties == [1, 3, 5, 7, 9, 11, 13, 15]
    assert segment_starts == [0, L]
    assert trace.chosen_actions == [1, 0] * L
    assert trace.coefficients[2] == ref.coefficients[2] < 0.0


def test_a_cycle_at_the_paper_scale_takes_one_segment_per_run(segment_starts):
    # The cycle's only equilibrium is (1/2, ..., 1/2), so every replica is
    # rounded and every second one is a tie; L is paper_L at n = 3,
    # epsilon = 0.3.
    game, L = cycle_game(3, 0.3), 33_334
    wsne = MixedProfile(np.full((3, 2), 0.5))
    _, ref = per_replica_sweep(game, wsne, L=L)
    _, trace = purify_rounding_binary(game, wsne, L=L)
    assert sweep_mismatches(ref, trace) == []
    assert segment_starts == [0, L, 2 * L]


def test_a_segment_the_set_does_not_see_is_all_ties(segment_starts):
    # Player 0 has no payoffs (d = 0) and is mixed, player 1 is paid 0.1
    # plus 0.3 times player 0's mean for action 1, player 2 has no payoffs.
    # Player 0's replicas move only player 1, who starts outside the set,
    # so h = 0: every step is a tie (bit 0, as d[0] = 0) until player 1's
    # discrepancy falls to the support bound and player 1 joins.
    beta = np.zeros((3, 3, 2, 2))
    beta[1, 0, 1] = (0.0, 0.3)
    beta[1, 2, 1] = 0.1
    game, L = PolymatrixGame(n=3, m=2, beta=beta, lam=0.3), 20
    wsne = MixedProfile([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
    for order in (np.random.default_rng(0).permutation(3 * L), None):
        segment_starts.clear()
        _, ref = per_replica_sweep(game, wsne, order=order, L=L)
        _, trace = purify_rounding_binary(game, wsne, order=order, L=L)
        assert sweep_mismatches(ref, trace) == []

    joined = [k for k in range(3 * L) if trace.additions[k + 1].size]
    assert joined == [17]
    assert segment_starts == [0, 18]
    assert [k for k, c in enumerate(trace.coefficients) if c == 0.0] == list(range(18))
    assert trace.chosen_actions[:L] == [0] * L


def test_a_step_past_the_allowance_raises_naming_its_replica(monkeypatch, segment_starts):
    # The mixed-equilibrium base game of the benchmark's seed 1 rounds two
    # populations of 120.  Pick the gliding step whose cost increase is the
    # first to beat all earlier ones by a margin, and set the allowance just
    # under it.
    game, L = benchmark_reduce_games()[3], 120
    wsne = sweep_input(game, L)
    _, ref = per_replica_sweep(game, wsne, L=L)
    excess = np.diff(ref.potentials[:-1])  # no step of this sweep grows the set
    assert not any(a.size for a in ref.additions[1:])
    starts = run_starts(ref.order, L)
    record = np.maximum.accumulate(np.concatenate(([0.0], excess[:-1])))
    step = next(
        k for k in range(len(excess))
        if k not in starts and ref.coefficients[k] is not None and excess[k] > record[k] + 1e-6
    )
    allowed = (record[step] + excess[step]) / 2.0
    consts = common.pipeline_constants

    def lowered(game_, mode="auto", L_=1):
        table = dict(consts(game_, mode, L_))
        table["step_cost_increase"] = allowed
        return table

    monkeypatch.setattr(common, "pipeline_constants", lowered)
    with pytest.raises(BoundBreach) as info:
        purify_rounding_binary(game, wsne, L=L)
    assert info.value.bound_name == "step_cost_increase"
    assert info.value.context == f"player {ref.order[step]}"
    assert info.value.observed == pytest.approx(excess[step], rel=1e-9)
    assert step not in segment_starts


def test_a_step_past_the_allowance_at_L_1_raises_naming_its_player(monkeypatch, segment_starts):
    # At L = 1 every rounded step starts a segment.  Set the allowance
    # between the largest cost increase of a shuffled sweep and the largest
    # one before it.
    game = random_game(12, 2, 1.0 / 12, seed=2)
    config = SolverConfig(target_epsilon=default_target_epsilon(game), seed=0)
    wsne, _ = ane_to_wsne_binary(game, solve_mixed(game, config).profile)
    order = np.random.default_rng(2).permutation(game.n)
    _, ref = per_replica_sweep(game, wsne, order=order)
    excess = np.diff(ref.potentials[:-1])  # no step of this sweep grows the set
    assert not any(a.size for a in ref.additions[1:])
    step = int(np.argmax(excess))
    below = excess[:step].max(initial=0.0)
    assert step > 0 and excess[step] > below + 1e-6
    allowed = (below + excess[step]) / 2.0
    consts = common.pipeline_constants

    def lowered(game_, mode="auto", L_=1):
        table = dict(consts(game_, mode, L_))
        table["step_cost_increase"] = allowed
        return table

    monkeypatch.setattr(common, "pipeline_constants", lowered)
    with pytest.raises(BoundBreach) as info:
        purify_rounding_binary(game, wsne, order=order)
    assert info.value.bound_name == "step_cost_increase"
    assert info.value.context == f"player {order[step]}"
    assert info.value.observed == pytest.approx(excess[step], rel=1e-9)
    assert segment_starts == [k for k in range(step + 1) if ref.coefficients[k] is not None]


def test_a_set_growing_step_past_the_allowance_raises_naming_its_replica(
    monkeypatch, segment_starts
):
    # Replica 1 of population 0, the second step of its run, brings an
    # outside population to the support bound.  Net of the entry allowance
    # it lowers the cost, as step 0 does, but by less; set the allowance,
    # below zero, between the two.
    game, L = random_game(5, 2, 0.2, seed=12), 3
    wsne = sweep_input(game, L)
    _, ref = per_replica_sweep(game, wsne, L=L)
    entry = common.pipeline_constants(game, "binary", L)["entry_cost"]
    joined = np.array([a.size for a in ref.additions[1:-1]])
    excess = np.diff(ref.potentials[:-1]) - entry * joined
    step = 1
    assert joined[step] == L and ref.order[step] == 1
    assert excess[step] > excess[0] + 1e-6
    allowed = (excess[0] + excess[step]) / 2.0
    consts = common.pipeline_constants

    def lowered(game_, mode="auto", L_=1):
        table = dict(consts(game_, mode, L_))
        table["step_cost_increase"] = allowed
        return table

    monkeypatch.setattr(common, "pipeline_constants", lowered)
    with pytest.raises(BoundBreach) as info:
        purify_rounding_binary(game, wsne, L=L)
    assert info.value.bound_name == "step_cost_increase"
    assert info.value.context == "player 1"
    assert info.value.observed == pytest.approx(excess[step], rel=1e-9)
    # Decided inside the segment the run started with.
    assert segment_starts == [0]


def test_pure_runs_are_logged_whole():
    game = random_game(3, 2, 0.3, seed=4)
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    pure, trace = purify_rounding_binary(game, MixedProfile(probs), L=50)
    assert trace.coefficients == [None] * 150
    assert trace.chosen_actions == [0] * 50 + [1] * 50 + [0] * 50
    assert len(set(trace.potentials)) == 1 and len(trace.additions) == 151
    assert trace.bounds["step_cost_increase"]["observed"] == 0.0
    assert pure.actions.tolist() == trace.chosen_actions

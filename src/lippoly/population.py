"""Population lift of a polymatrix game and the round trip back.

Replacing every player of a game by L replicas that face the aggregate
behavior of the other populations yields a game on n*L players whose
pairwise coefficients are the originals divided by L, and zero between
replicas of the same population.  The lifted game's Lipschitz parameter
is therefore lam/L, so pure profiles become reachable by purification at
a precision the base game cannot offer; aggregating such a pure profile
back gives a 1/L-uniform mixed profile of the base game with the same
regret guarantee.

A replica's payoffs are the base game's payoffs at the population
averages.  A lifted profile in which all replicas of each population play
the same strategy therefore has exactly the base profile's regrets, and
`reduce_and_solve` finds its lifted starting point by solving the base
game to the lifted target and replicating the result; only the lifted
purification reads the lifted coefficients.

Two views exist: a materialized view (an actual PolymatrixGame, memory
permitting) and a lazy view that answers payoff queries through the base
game using per-population aggregates, without ever holding the lifted
coefficient tensor.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, UsageError
from .game import (
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    payoff_matrix,
    regret_report,
)
from .purify import default_target_epsilon, purify
from .solver import SolverConfig, solve_mixed

VIEW_MODES = ("materialized", "lazy")
# Largest materialized coefficient count accepted by default; override with
# the LIPPOLY_MEM_BUDGET environment variable.
DEFAULT_MEM_BUDGET = 100_000_000


@dataclass(frozen=True)
class PopulationGame:
    """The lifted game: base game, replication factor, and chosen view.

    materialized is the lifted PolymatrixGame when the view mode asked
    for it, else None.  Replica (i, l) of population i lives at flat
    index i * L + l (zero based).
    """

    base: PolymatrixGame
    L: int
    mode: str
    materialized: PolymatrixGame | None = None

    @property
    def N(self):
        return self.base.n * self.L

    def population_of(self, v):
        if not 0 <= v < self.N:
            raise UsageError(f"replica index {v} out of range for {self.N} players")
        return v // self.L

    def replica_index(self, i, l):
        if not 0 <= i < self.base.n:
            raise UsageError(f"population {i} out of range for n = {self.base.n}")
        if not 0 <= l < self.L:
            raise UsageError(f"replica {l} out of range for L = {self.L}")
        return i * self.L + l


def mem_budget():
    """Coefficient-count ceiling for materialization (env-overridable)."""
    raw = os.environ.get("LIPPOLY_MEM_BUDGET")
    if raw is None:
        return DEFAULT_MEM_BUDGET
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"LIPPOLY_MEM_BUDGET must be a number, got {raw!r}")
    return value


def induce(base, L, mode="lazy"):
    """Build the L-fold population view of a base game.

    Materialized mode allocates the full (nL, nL, m, m) tensor and is
    refused with a size estimate when that exceeds the memory budget;
    the lazy view always works.
    """
    if int(L) != L or L < 1:
        raise UsageError(f"replication L must be a positive integer, got {L!r}")
    L = int(L)
    if mode not in VIEW_MODES:
        raise UsageError(f"mode must be one of {VIEW_MODES}, got {mode!r}")
    game = _materialized_game(base, L) if mode == "materialized" else None
    return PopulationGame(base=base, L=L, mode=mode, materialized=game)


def _materialized_game(base, L):
    n, m = base.n, base.m
    entries = (n * L) ** 2 * m * m
    budget = mem_budget()
    if entries > budget:
        raise BudgetExceeded(
            f"materializing {n * L} players needs {entries} coefficients, "
            f"over the budget of {budget:g} (set LIPPOLY_MEM_BUDGET to raise it)",
            estimate=entries,
        )
    pops = np.repeat(np.arange(n), L)
    lifted = base.beta[np.ix_(pops, pops)] / L
    lifted[pops[:, None] == pops[None, :]] = 0.0
    return PolymatrixGame(n=n * L, m=m, beta=lifted, lam=base.lam / L)


def population_aggregates(pop, probs):
    """Per-population mean strategy of a lifted profile, as a base profile."""
    arr = probs.probs if isinstance(probs, MixedProfile) else np.asarray(probs, dtype=np.float64)
    if arr.shape != (pop.N, pop.base.m):
        raise UsageError(f"expected a ({pop.N}, {pop.base.m}) profile, got {arr.shape}")
    return MixedProfile(arr.reshape(pop.base.n, pop.L, pop.base.m).mean(axis=1))


def lazy_payoff(pop, v, j, probs, aggregates=None):
    """Expected payoff of replica v playing action j in the lifted game.

    Evaluated through the base game at the population aggregates: O(nm)
    per query once the aggregates are in hand.  Replicas never interact
    inside a population, which the base game's zero self-block encodes
    already, so no exclusion term is needed.
    """
    i = pop.population_of(v)
    if not 0 <= j < pop.base.m:
        raise UsageError(f"action {j} out of range for m = {pop.base.m}")
    agg = aggregates if aggregates is not None else population_aggregates(pop, probs)
    return float((pop.base.beta[i, :, j, :] * agg.probs).sum())


def population_payoff_matrix(pop, probs):
    """All replicas' action payoffs in the lifted game, shape (nL, m)."""
    agg = population_aggregates(pop, probs)
    return np.repeat(payoff_matrix(pop.base, agg), pop.L, axis=0)


def aggregate(pop, pure):
    """Empirical action distribution of each population: a 1/L-uniform
    mixed profile of the base game."""
    if not isinstance(pure, PureProfile):
        pure = PureProfile(pure)
    if pure.n != pop.N:
        raise UsageError(f"expected {pop.N} actions, got {pure.n}")
    n, m, L = pop.base.n, pop.base.m, pop.L
    counts = np.zeros((n, m))
    np.add.at(counts, (np.repeat(np.arange(n), L), pure.actions), 1.0)
    return MixedProfile(counts / L)


def reduce_and_solve(base, epsilon, L, seed=0, config=None):
    """Full reduction round trip; returns (base profile, report dict).

    Solves the base game to the lifted purifier's input level (lam/(8L)
    for m = 2), repeats the solution L times as the lifted profile (it
    has the base regrets, see the module docstring), purifies that on the
    materialized lift (under the memory budget guard), and aggregates
    the pure result back to a 1/L-uniform profile of the base game.
    `config`, when given, configures the base-game solve (its
    uniform_grid_k scan included); by default it targets the lifted level
    with `seed`.  The report compares the supplied L against
    ceil(n^4 / epsilon^5), the scale the reduction needs for the
    guarantee to reach epsilon.
    """
    if epsilon <= 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    pop = induce(base, L, "materialized")
    lifted = pop.materialized

    if config is None:
        config = SolverConfig(target_epsilon=default_target_epsilon(lifted), seed=seed)
    result = solve_mixed(base, config)
    start = MixedProfile(np.repeat(result.profile.probs, pop.L, axis=0))
    achieved = regret_report(lifted, start).max_regret
    final, trace = purify(lifted, start)
    profile = aggregate(pop, final)
    base_report = regret_report(base, profile)

    paper_L = math.ceil(base.n ** 4 / epsilon ** 5)
    report = {
        "n": base.n,
        "m": base.m,
        "base_lambda": base.lam,
        "L": pop.L,
        "population_players": pop.N,
        "population_lambda": lifted.lam,
        "epsilon": epsilon,
        "solver_target": config.target_epsilon,
        "solver_achieved": achieved,
        "solver_converged": bool(achieved <= config.target_epsilon),
        "purified_regret": trace.final_max_regret,
        "aggregate_base_regret": base_report.max_regret,
        "paper_L": paper_L,
        "meets_paper_scale": bool(pop.L >= paper_L),
    }
    return profile, report

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
the same strategy therefore has exactly the base profile's regrets, so
`reduce_and_solve` finds its lifted starting point by solving the base
game to the lifted target.  The lifted purification, `purify(base,
profile, L=L)`, runs on per-population state for the same reason (see
`lippoly.purify.common`): nothing in the round trip reads the lifted
coefficients.  `induce` still builds them, for tests and callers that
want the lift as a game.

Replica l of population i is player i * L + l of the lift (zero based).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, UsageError
from .game import PolymatrixGame, PureProfile, regret_report
from .purify import default_target_epsilon, purify
from .purify.common import aggregate_profile, record_bound, replication
from .solver import SolverConfig, solve_mixed

# Largest lifted coefficient count (n L)^2 m^2 that `induce` allocates.
LIFT_GUARD = 100_000_000
# Largest lifted player count n L that `reduce_and_solve` purifies.  Each
# lifted player holds about 0.2 KB of sweep state and trace (its order
# entry, chosen action, potential, coefficient and lifted profile rows),
# so the guard keeps that under about 0.4 GB; paper_L at n = 5, epsilon =
# 0.3 is 1.29 million lifted players.
REPLICA_GUARD = 2_000_000


def induce(base, L):
    """The L-fold population lift of a base game, as a PolymatrixGame on
    n*L players with parameter lam/L.

    The full (nL, nL, m, m) tensor is allocated, so a lift of more than
    LIFT_GUARD coefficients is refused with its size estimate.
    """
    L = replication(L)
    n, m = base.n, base.m
    entries = (n * L) ** 2 * m * m
    if entries > LIFT_GUARD:
        raise BudgetExceeded(
            f"materializing {n * L} players needs {entries} coefficients, "
            f"over the budget of {LIFT_GUARD:g}",
            estimate=entries,
        )
    # Same-population blocks copy the base game's zero self-blocks.
    pops = np.repeat(np.arange(n), L)
    lifted = base.beta[np.ix_(pops, pops)] / L
    return PolymatrixGame(n=n * L, m=m, beta=lifted, lam=base.lam / L)


def aggregate(base, L, pure):
    """Empirical action distribution of each population of a pure profile
    of the L-fold lift: a 1/L-uniform mixed profile of the base game."""
    L = replication(L)
    if not isinstance(pure, PureProfile):
        pure = PureProfile(pure)
    pure.validate_for(base, L)
    return aggregate_profile(base, L, pure.actions)


def reduce_and_solve(base, epsilon, L, seed=0, config=None):
    """Full reduction round trip; returns (base profile, report dict).

    Solves the base game to the lifted purifier's input level (lam/(8L)
    for m = 2); every replica plays its population's row of the solution,
    which gives each replica its population's base regret (see the module
    docstring).  Purifies that lifted profile with `purify(base, profile,
    L=L)` on per-population state, and aggregates the pure result back to
    a 1/L-uniform profile of the base game, asserting on the lifted trace
    that its regret is at most the purified regret (bound
    aggregate_base_regret; a breach raises BoundBreach).  `config`, when
    given, configures the base-game solve (its uniform_grid_k scan
    included); by default it targets the lifted level with `seed`.  An
    n*L above REPLICA_GUARD is refused with BudgetExceeded before any
    work.  The report compares the supplied L against ceil(n^4 /
    epsilon^5), the scale the reduction needs for the guarantee to reach
    epsilon.
    """
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise UsageError(f"epsilon must be positive and finite, got {epsilon}")
    L = replication(L)
    players = base.n * L
    if players > REPLICA_GUARD:
        raise BudgetExceeded(
            f"purifying {players} lifted players is over the budget of {REPLICA_GUARD:g}",
            estimate=players,
        )

    if config is None:
        config = SolverConfig(target_epsilon=default_target_epsilon(base, L=L), seed=seed)
    result = solve_mixed(base, config)
    achieved = result.achieved_max_regret
    final, trace = purify(base, result.profile, L=L)
    profile = aggregate(base, L, final)
    # A population's base regret is the mean of its replicas' regrets.
    base_regret = regret_report(base, profile).max_regret
    record_bound(trace, "aggregate_base_regret", base_regret, trace.final_max_regret)

    paper_L = math.ceil(base.n ** 4 / epsilon ** 5)
    report = {
        "n": base.n,
        "m": base.m,
        "base_lambda": base.lam,
        "L": L,
        "population_players": players,
        "population_lambda": base.lam / L,
        "epsilon": epsilon,
        "solver_target": config.target_epsilon,
        "solver_achieved": achieved,
        "solver_converged": bool(achieved <= config.target_epsilon),
        "purified_regret": trace.final_max_regret,
        "aggregate_base_regret": base_regret,
        "paper_L": paper_L,
        "meets_paper_scale": bool(L >= paper_L),
    }
    return profile, report

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

from .game import PolymatrixGame, PureProfile, _number, regret_report, tensor_guard
from .purify import default_target_epsilon, purify
from .purify.common import aggregate_profile, guarded_replication, record_bound, replication
from .solver import SolverConfig, solve_mixed


def induce(base, L):
    """The L-fold population lift of a base game, as a PolymatrixGame on
    n*L players with parameter lam/L.

    Only the lifted operator is allocated, and a lift of more than
    TENSOR_GUARD coefficients is refused with its size estimate.
    """
    L = replication(L)
    n, m = base.n, base.m
    tensor_guard(n * L, m, f"materializing {n * L} players")
    # Same-population blocks copy the base game's zero self-blocks.
    rows = np.repeat(np.arange(n * m).reshape(n, m), L, axis=0).ravel()
    operator = base.operator[np.ix_(rows, rows)]
    operator /= L
    return PolymatrixGame(n=n * L, m=m, lam=base.lam / L, operator=operator)


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
    epsilon = _number(epsilon, "epsilon", "level")
    L = guarded_replication(base.n, L)

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
        "population_players": base.n * L,
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

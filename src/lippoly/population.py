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

Replica l of population i is player i * L + l of the lift (zero based).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, UsageError
from .game import MixedProfile, PolymatrixGame, PureProfile, regret_report
from .purify import default_target_epsilon, purify
from .solver import SolverConfig, solve_mixed

# Largest lifted coefficient count (n L)^2 m^2 that `induce` allocates.
LIFT_GUARD = 100_000_000


def _replication(L):
    if not math.isfinite(L) or int(L) != L or L < 1:
        raise UsageError(f"replication L must be a positive integer, got {L!r}")
    return int(L)


def induce(base, L):
    """The L-fold population lift of a base game, as a PolymatrixGame on
    n*L players with parameter lam/L.

    The full (nL, nL, m, m) tensor is allocated, so a lift of more than
    LIFT_GUARD coefficients is refused with its size estimate.
    """
    L = _replication(L)
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
    L = _replication(L)
    if not isinstance(pure, PureProfile):
        pure = PureProfile(pure)
    n, m = base.n, base.m
    if pure.n != n * L:
        raise UsageError(f"expected {n * L} actions, got {pure.n}")
    bad = (pure.actions < 0) | (pure.actions >= m)
    if bad.any():
        v = int(np.argmax(bad))
        raise UsageError(f"replica {v} action {pure.actions[v]} out of range [0, {m})")
    counts = np.zeros((n, m))
    np.add.at(counts, (np.repeat(np.arange(n), L), pure.actions), 1.0)
    return MixedProfile(counts / L)


def reduce_and_solve(base, epsilon, L, seed=0, config=None):
    """Full reduction round trip; returns (base profile, report dict).

    Solves the base game to the lifted purifier's input level (lam/(8L)
    for m = 2), repeats the solution L times as the lifted profile (it
    has the base regrets, see the module docstring), purifies that on the
    lift built by `induce` (refused past LIFT_GUARD coefficients), and
    aggregates the pure result back to a 1/L-uniform profile of the base
    game.  `config`, when given, configures the base-game solve (its
    uniform_grid_k scan included); by default it targets the lifted level
    with `seed`.  The report compares the supplied L against
    ceil(n^4 / epsilon^5), the scale the reduction needs for the
    guarantee to reach epsilon.
    """
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise UsageError(f"epsilon must be positive and finite, got {epsilon}")
    L = _replication(L)
    lifted = induce(base, L)

    if config is None:
        config = SolverConfig(target_epsilon=default_target_epsilon(lifted), seed=seed)
    result = solve_mixed(base, config)
    start = MixedProfile(np.repeat(result.profile.probs, L, axis=0))
    achieved = regret_report(lifted, start).max_regret
    final, trace = purify(lifted, start)
    profile = aggregate(base, L, final)
    base_report = regret_report(base, profile)

    paper_L = math.ceil(base.n ** 4 / epsilon ** 5)
    report = {
        "n": base.n,
        "m": base.m,
        "base_lambda": base.lam,
        "L": L,
        "population_players": lifted.n,
        "population_lambda": lifted.lam,
        "epsilon": epsilon,
        "solver_target": config.target_epsilon,
        "solver_achieved": achieved,
        "solver_converged": bool(achieved <= config.target_epsilon),
        "purified_regret": trace.final_max_regret,
        "aggregate_base_regret": base_report.max_regret,
        "paper_L": paper_L,
        "meets_paper_scale": bool(L >= paper_L),
    }
    return profile, report

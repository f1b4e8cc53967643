"""General-action purification: mixed profile to pure profile in three stages.

The potential here is the sum over players of the payoff variance over
that player's relevant action set (the actions whose payoffs have come
close enough to the top to matter).  Stage 1 moves all probability
sitting on clearly bad actions to the best response, leaving a profile
whose played actions are near-optimal.  Stage 2 sweeps the players in
order; the acting player goes pure on the action minimizing an
aggregated linear coefficient vector b, chosen so the first-order effect
on everyone else's variance is nonpositive, after which every player's
relevant set absorbs any outside action that has climbed to its set
average.  Stage 3 switches every player whose pure regret exceeds the
correction threshold to their best response, all at once.

Variance budgets (initial, per-move, per-addition) and the final regret
bound are asserted as the pipeline runs; a breach raises BoundBreach.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BoundBreach
from ..game import (
    BOUND_TOL,
    MixedProfile,
    PureProfile,
    best_response_vector,
    payoff_matrix,
    regret_report,
)
from .common import (
    PurifyTrace,
    check_input_regret,
    default_target_epsilon,
    record_bound,
    resolve_order,
    support_regret_max,
)


def thresholds_m(game):
    """(eps0, eps1, delta0): input level, support level, stage-1 cutoff."""
    n, lam = game.n, game.lam
    eps0 = default_target_epsilon(game, "m_action")
    delta0 = math.sqrt(2.0 * (n - 1) * lam * eps0)
    eps1 = 2.0 * math.sqrt(2.0 * n * lam * eps0)
    return eps0, eps1, delta0


def ane_to_wsne_m(game, profile):
    """Stage 1: move mass off clearly bad actions, all at once.

    Input must have max regret at most eps0 = ((m-1)/m)^2 * lam (twice
    that tolerated with a warning).  Every action whose regret against
    the input profile exceeds delta0 = sqrt(2 (n-1) lam eps0) loses its
    probability to the owner's best response.  On return every played
    action has regret at most eps1 = 2 sqrt(2 n lam eps0); asserted.
    Returns (profile, warning), warning True when the input regret
    needed the tolerance.
    """
    profile.validate_for(game)
    eps0, eps1, delta0 = thresholds_m(game)
    warning = check_input_regret(game, profile, eps0)

    U = payoff_matrix(game, profile)
    reg = U.max(axis=1, keepdims=True) - U
    br = U.argmax(axis=1)
    probs = profile.probs.copy()
    keep = reg <= delta0
    moved = (probs * ~keep).sum(axis=1)
    probs *= keep
    probs[np.arange(game.n), br] += moved
    out = MixedProfile(probs)

    observed = support_regret_max(game, out)
    if observed > eps1 + BOUND_TOL:
        raise BoundBreach("wsne_support_regret", observed, eps1)
    return out, warning


def purify_rounding_m(game, wsne, order=None):
    """Stage 2: ordered sweep; each player goes pure on the argmin of b.

    The relevant set of a player starts as the actions within eps1 of
    their best payoff.  For the acting player, every other player
    contributes 2 c^T L weighted by one over their set size, where c is
    their set-centered payoff vector with the acting player's influence
    removed and L is the acting player's set-centered influence block;
    the acting player picks the action of their own set minimizing the
    aggregate.  Every set then absorbs, repeatedly, the best outside
    action that reaches the set's running mean.

    Asserts the initial variance budget 2 (n lam (m-1)/m)^2, the
    cumulative move budget ((m-1) n lam / m)^2, the cumulative addition
    budget 4 n lam^2 (log(m-1) + 1), and the terminal variance bound
    8 n^2 lam^2 log(3m).  The trace logs, per step, the chosen action,
    b, the variance sum and the (player, action) pairs that joined a set;
    `replay` rebuilds the payoffs, sets and set statistics.
    """
    wsne.validate_for(game)
    n, m, lam = game.n, game.m, game.lam
    order = resolve_order(n, order)
    eps0, eps1, delta0 = thresholds_m(game)

    trace = PurifyTrace(
        pipeline="m_action",
        order=order,
        wsne_profile=wsne,
        thresholds={"epsilon0": eps0, "epsilon1": eps1, "delta0": delta0, "delta1": None},
    )
    record_bound(trace, "wsne_support_regret", support_regret_max(game, wsne), eps1)

    B = game.operator
    P = wsne.probs.copy()
    u = (B @ P.ravel()).reshape(n, m)
    member = (u.max(axis=1, keepdims=True) - u) <= eps1
    _, var = _set_stats(u, member)
    vsum = float(var.sum())
    record_bound(trace, "initial_variance", vsum, 2.0 * (n * lam * (m - 1) / m) ** 2)
    trace.additions.append(np.flatnonzero(member))
    trace.potentials.append(vsum)

    move_increase = addition_increase = 0.0
    for actor in order:
        sizes = member.sum(axis=1).astype(float)
        # The operator columns of the acting player's actions: their
        # influence on u, to be stripped from the centering.
        cols = B[:, actor * m:(actor + 1) * m]
        own = (cols @ P[actor]).reshape(n, m)
        u_other = u - own
        mean_other = (u_other * member).sum(axis=1) / sizes
        centered = (u_other - mean_other[:, None]) * member
        weights = centered / sizes[:, None]
        weights[actor] = 0.0
        b = 2.0 * (weights.ravel() @ cols)

        # Own payoffs ignore the own action, so the acting player's set is
        # still the pre-step one; argmin restricted to it, lowest index wins.
        inside = np.flatnonzero(member[actor])
        chosen = int(inside[np.argmin(b[inside])])
        P[actor] = 0.0
        P[actor, chosen] = 1.0
        u = (B @ P.ravel()).reshape(n, m)

        _, var = _set_stats(u, member)
        moved_sum = float(var.sum())
        move_increase += moved_sum - vsum

        before = member.copy()
        member = _grow_sets(u, member)
        _, var = _set_stats(u, member)
        vsum = float(var.sum())
        addition_increase += vsum - moved_sum

        trace.coefficients.append(b)
        trace.chosen_actions.append(chosen)
        trace.additions.append(np.flatnonzero(member & ~before))
        trace.potentials.append(vsum)

    record_bound(trace, "move_variance_budget", move_increase, ((m - 1) * n * lam / m) ** 2)
    record_bound(
        trace,
        "addition_variance_budget",
        addition_increase,
        # log here and below is natural; the harmonic-sum bound needs it.
        4.0 * n * lam * lam * (math.log(m - 1) + 1.0),
    )
    record_bound(trace, "terminal_variance", vsum, 8.0 * n * n * lam * lam * math.log(3.0 * m))
    pure = PureProfile(P.argmax(axis=1))
    return pure, trace


def correct_m(game, pure, trace):
    """Stage 3: simultaneous best-response switch above the threshold.

    The threshold is delta1 = 4 lam (n^2 m log 3m)^(1/3); every player
    strictly above it switches, decisions taken against the input pure
    profile.  Asserts the switcher budget 16 n^2 lam^2 m log(3m) /
    delta1^2 and the final regret bound 6 lam (n^2 m log 3m)^(1/3).
    """
    pure.validate_for(game)
    n, m, lam = game.n, game.m, game.lam
    scale = n * n * m * math.log(3.0 * m)
    delta1 = 4.0 * lam * scale ** (1.0 / 3.0)
    trace.thresholds["delta1"] = delta1

    as_mixed = MixedProfile.from_pure(pure, m)
    report = regret_report(game, as_mixed)
    switchers = np.flatnonzero(report.per_player_regret > delta1)
    record_bound(
        trace,
        "switcher_count",
        float(len(switchers)),
        16.0 * n * n * lam * lam * m * math.log(3.0 * m) / (delta1 * delta1),
    )

    actions = pure.actions.copy()
    if len(switchers):
        br = best_response_vector(game, as_mixed)
        actions[switchers] = br[switchers]
    final = PureProfile(actions)
    final_report = regret_report(game, MixedProfile.from_pure(final, m))
    record_bound(trace, "final_regret", final_report.max_regret, 6.0 * lam * scale ** (1.0 / 3.0))

    trace.switched_players = tuple(int(i) for i in switchers)
    trace.final_profile = final
    trace.final_max_regret = float(final_report.max_regret)
    return final


def _set_stats(u, member):
    """Per-player mean and population variance over the member actions."""
    count = member.sum(axis=1).astype(float)
    mean = (u * member).sum(axis=1) / count
    dev = (u - mean[:, None]) * member
    var = (dev * dev).sum(axis=1) / count
    return mean, var


def _grow_sets(u, member):
    """Absorb outside actions that reach their set's running mean.

    Per player: while the best action outside the set has payoff >= the
    set mean, add it (lowest index on ties) and recompute the mean.
    Mutates and returns the membership mask.
    """
    mean = (u * member).sum(axis=1) / member.sum(axis=1)
    outside_best = np.where(member, -np.inf, u).max(axis=1)
    for a in np.flatnonzero(outside_best >= mean):
        row = u[a]
        mask = member[a]
        k = int(mask.sum())
        total = float(row[mask].sum())
        while k < mask.size:
            outside = np.flatnonzero(~mask)
            j = int(outside[np.argmax(row[outside])])
            if row[j] >= total / k:
                mask[j] = True
                total += float(row[j])
                k += 1
            else:
                break
    return member


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
correction threshold to their best response, all at once (stage 3 is
`common.correct`).  Every threshold and allowance comes from
`pipeline_constants(game, "m_action")`.

Variance budgets (initial, per-move, per-addition) and the final regret
bound are asserted as the pipeline runs; a breach raises BoundBreach.
"""

from __future__ import annotations

import numpy as np

from ..game import BOUND_TOL, MixedProfile, PureProfile, action_regrets
from ..game import regret_report  # noqa: F401 (not called; perfbench/spans.py wraps it here)
from .common import (
    NO_ADDITIONS,
    actor_columns,
    close_sweep,
    lifted_indices,
    open_snap,
    open_sweep,
    record_bound,
)


def ane_to_wsne_m(game, profile, L=1):
    """Stage 1: move mass off clearly bad actions, all at once.

    Input must have max regret at most eps0 = ((m-1)/m)^2 * lam (twice
    that tolerated with a warning).  Every action whose regret against
    the input profile (the input check's payoffs) exceeds delta0 =
    sqrt(2 (n-1) lam eps0) loses its probability to the owner's best
    response.  On return every played action has regret at most eps1 =
    2 sqrt(2 n lam eps0), which stage 2 asserts (wsne_support_regret).  At
    L > 1 the thresholds are the L-fold lift's and every replica of a
    population plays its row of `profile`.  Returns (profile, warning),
    warning True when the input regret needed the tolerance.
    """
    consts, warning, U = open_snap(game, profile, "m_action", L)

    reg = action_regrets(U)
    br = U.argmax(axis=1)
    probs = profile.probs.copy()
    keep = reg <= consts["snap"]
    moved = (probs * ~keep).sum(axis=1)
    probs *= keep
    probs[np.arange(game.n), br] += moved
    return MixedProfile(probs), warning


def purify_rounding_m(game, wsne, order=None, L=1):
    """Stage 2: ordered sweep; each player goes pure on the argmin of b.

    The relevant set of a player starts as the actions within eps1 of
    their best payoff.  For the acting player, every other player
    contributes 2 c^T L weighted by one over their set size, where c is
    their set-centered payoff vector with the acting player's influence
    removed and L is the acting player's set-centered influence block;
    the acting player picks the action of their own set minimizing the
    aggregate.  The payoffs then move by the acting player's operator
    columns (`actor_columns`): O(n m^2) per step.  Every set then absorbs,
    repeatedly, the best outside action that reaches the set's running
    mean.

    At L > 1 the sweep runs over the n*L replicas of the L-fold lift
    (`order` is a permutation of them) on per-population state: every
    replica of population i has the payoffs u[i] and the same relevant
    set, and a replica plays its population's row of `wsne` until its
    turn, so b and the variance sum count each population L times.

    Asserts the initial variance budget 2 (n lam (m-1)/m)^2, the
    cumulative move budget ((m-1) n lam / m)^2, the cumulative addition
    budget 4 n lam^2 (log(m-1) + 1), and the terminal variance bound
    8 n^2 lam^2 log(3m), at the lift's n and lam.  The running payoffs
    are checked against a recomputation at the aggregate profile at the
    end (bound sweep_drift, allowance BOUND_TOL), and the terminal
    variance is taken from the recomputed payoffs.  The trace logs, per
    step, the chosen action, b, the variance sum and the (player, action)
    pairs that joined a set; `replay` rebuilds the payoffs, sets and set
    statistics.
    """
    L, consts, order, trace, u = open_sweep(game, wsne, "m_action", order, L)
    n, m = game.n, game.m
    eps1 = consts["support"]
    trace.thresholds.update(
        epsilon0=consts["input"], epsilon1=eps1, delta0=consts["snap"], delta1=None
    )
    W = wsne.probs
    member = action_regrets(u) <= eps1
    _, var = _set_stats(u, member)
    vsum = L * float(var.sum())
    record_bound(trace, "initial_variance", vsum, consts["initial_variance"])
    trace.additions.append(lifted_indices(member, L))
    trace.potentials.append(vsum)

    scale = 2.0 * L
    move_increase = addition_increase = 0.0
    sizes = member.sum(axis=1).astype(float)
    for v in order:
        actor = v // L
        # The acting replica's influence on u, to be stripped from the
        # centering and then moved to the chosen action.
        cols = actor_columns(game, actor, L)
        u_other = u - (cols @ W[actor]).reshape(n, m)
        mean_other = (u_other * member).sum(axis=1) / sizes
        centered = (u_other - mean_other[:, None]) * member
        weights = centered / sizes[:, None]
        weights[actor] = 0.0
        b = scale * (weights.ravel() @ cols)

        # Own payoffs ignore the own action, so the acting player's set is
        # still the pre-step one; argmin restricted to it, lowest index wins.
        inside = np.flatnonzero(member[actor])
        chosen = int(inside[np.argmin(b[inside])])
        u = u_other + cols[:, chosen].reshape(n, m)

        mean, var = _set_stats(u, member)
        moved_sum = L * float(var.sum())
        move_increase += moved_sum - vsum

        grown = _grow_sets(u, member, mean)
        if grown is None:
            vsum = moved_sum
            trace.additions.append(NO_ADDITIONS)
        else:
            _, var = _set_stats(u, member)
            vsum = L * float(var.sum())
            sizes = member.sum(axis=1).astype(float)
            trace.additions.append(lifted_indices(grown, L))
        addition_increase += vsum - moved_sum

        trace.coefficients.append(b)
        trace.chosen_actions.append(chosen)
        trace.potentials.append(vsum)

    actions, u_full = close_sweep(game, L, trace)
    record_bound(trace, "sweep_drift", float(np.abs(u_full - u).max()), BOUND_TOL)
    _, var = _set_stats(u_full, member)
    trace.potentials[-1] = L * float(var.sum())
    for name, observed in (
        ("move_variance_budget", move_increase),
        ("addition_variance_budget", addition_increase),
        ("terminal_variance", trace.potentials[-1]),
    ):
        record_bound(trace, name, observed, consts[name])
    return PureProfile(actions), trace


def _set_stats(u, member):
    """Per-player mean and population variance over the member actions."""
    count = member.sum(axis=1).astype(float)
    mean = (u * member).sum(axis=1) / count
    dev = (u - mean[:, None]) * member
    var = (dev * dev).sum(axis=1) / count
    return mean, var


def _grow_sets(u, member, mean):
    """Absorb outside actions that reach their set's running mean.

    Per player: while the best action outside the set has payoff >= the
    set mean (at first `mean`, from `_set_stats`), add it (lowest index on
    ties) and recompute the mean.  Mutates the membership mask; returns
    the mask of the actions added, or None when no set grew.
    """
    outside_best = np.where(member, -np.inf, u).max(axis=1)
    candidates = np.flatnonzero(outside_best >= mean)
    if not candidates.size:
        return None
    before = member.copy()
    for a in candidates:
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
    grown = member & ~before
    return grown if grown.any() else None

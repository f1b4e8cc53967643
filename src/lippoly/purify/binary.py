"""Two-action purification: mixed profile to pure profile in three stages.

Stage 1 snaps every strongly decided player (discrepancy beyond half the
support bound) to their best response, which leaves a profile where every
played action is within lam*sqrt(n) of optimal.  Stage 2 sweeps the
players in order and rounds each remaining mixed one to the bit that does
not increase the running cost, defined as the sum of squared
discrepancies over the relevant players.  Stage 3 (`common.correct`) lets
every player whose pure regret reached the correction threshold switch
to their best response, all at once.  Every threshold and allowance comes
from `pipeline_constants(game, "binary")`.

Each stage asserts the bound it must preserve; a violated bound raises
BoundBreach rather than returning a bad profile.  What the sweep decided
lands in a PurifyTrace.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BoundBreach
from ..game import BOUND_TOL, MixedProfile, PureProfile, discrepancy_vector
from ..game import regret_report  # noqa: F401 (not called; perfbench/spans.py wraps it here)
from .common import (
    NO_ADDITIONS,
    PurifyTrace,
    actor_columns,
    aggregate_profile,
    check_input_regret,
    lifted,
    lifted_indices,
    pipeline_constants,
    record_bound,
    replication,
    resolve_order,
    support_regret_max,
)


def ane_to_wsne_binary(game, profile, L=1):
    """Stage 1: snap strongly decided players to their best response.

    Input must have max regret at most lam/8 (up to twice that is
    tolerated with a warning).  Every player with |discrepancy| above
    (lam/2)*sqrt(n) goes pure, all decisions taken against the input
    profile.  On return every played action has regret at most
    lam*sqrt(n); asserted.  A still-mixed player plays both actions, so
    their |discrepancy| is the regret of one of them and is bounded by
    the same check.  At L > 1 the thresholds are the L-fold lift's and
    every replica of a population plays its row of `profile`, so a
    population snaps as one.  Returns (profile, warning), warning True
    when the input regret needed the tolerance.
    """
    consts = pipeline_constants(game, "binary", L)
    profile.validate_for(game)
    warning = check_input_regret(game, profile, consts["input"], L)

    d = discrepancy_vector(game, profile)
    snap = np.abs(d) > consts["snap"]
    probs = profile.probs.copy()
    # d > 0 favors action 1; snap implies d != 0, so no tie to break.
    probs[snap] = np.eye(2)[(d > 0.0).astype(int)][snap]
    out = MixedProfile(probs)

    observed = support_regret_max(game, out)
    if observed > consts["support"] + BOUND_TOL:
        raise BoundBreach("wsne_support_regret", observed, consts["support"])
    return out, warning


def sweep_step(game, d, p_i, i, L=1):
    """The acting player's rounding vectors (c, ell), read off the operator.

    Every discrepancy is linear in p_i, d = c + ell * p_i, with slope ell
    the change of player i's coefficient columns (`actor_columns`, divided
    by L in the lift) from action 0 to action 1 as seen in each player's
    payoff gap.  Given the current d this costs O(n): four operator
    columns, no whole-profile evaluation.
    """
    cols = actor_columns(game, i, L)
    ell = (cols[1::2, 1] - cols[0::2, 1]) - (cols[1::2, 0] - cols[0::2, 0])
    return d - p_i * ell, ell


def purify_rounding_binary(game, wsne, order=None, L=1):
    """Stage 2: ordered sweep rounding every mixed player to a bit.

    For the acting player i the discrepancy of every player i' is linear
    in p_i, d = c + ell * p_i; `sweep_step` reads ell from player i's
    operator columns and updates the running d in O(n) per step.  The
    rounding coefficient A sums 2*c*ell over the current relevant set,
    and the chosen bit makes A * (change in p_i) nonpositive, so the
    quadratic part of the cost cannot grow through the linear term.
    Players whose discrepancy has come within the support bound join the
    relevant set after each step.

    At L > 1 the sweep runs over the n*L replicas of the L-fold lift
    (`order` is a permutation of them) on per-population state: every
    replica of population i has the discrepancy d[i] and the same set
    membership, and a replica plays its population's row of `wsne` until
    its turn, so a step costs O(n) and the cost and A count each
    population L times.

    Asserts the per-step cost increase allowance 4*lam^2*n (plus
    lam^2*n per new member) and the terminal cost bound 5*lam^2*n^2, at
    the lift's n and lam.  The running d is checked against a recomputation
    at the aggregate profile at the end (bound sweep_drift, allowance
    BOUND_TOL), and the terminal cost is taken from the recomputed d.  The
    trace logs, per step, the bit, A, the cost and the replicas that
    joined: O(n*L) in all.
    """
    L = replication(L)
    consts = pipeline_constants(game, "binary", L)
    wsne.validate_for(game)
    order = resolve_order(game.n * L, order)
    support_bound = consts["support"]

    trace = PurifyTrace(
        pipeline="binary", order=order, wsne_profile=lifted(wsne, L), thresholds={"delta": None}
    )
    record_bound(trace, "wsne_support_regret", support_regret_max(game, wsne), support_bound)

    p = wsne.probs[:, 1].tolist()
    d = discrepancy_vector(game, wsne)
    S = np.abs(d) <= support_bound
    cost = L * float(d[S] @ d[S])
    trace.additions.append(lifted_indices(S, L))
    trace.potentials.append(cost)

    step_cap, entry_cap = consts["step_cost_increase"], consts["entry_cost"]
    worst_step_excess = -math.inf
    for v in order:
        i = v // L
        p_i = p[i]
        if p_i == 0.0 or p_i == 1.0:
            # Nothing to round: d, the relevant set and the cost stay put.
            trace.coefficients.append(None)
            bit, excess, added = int(p_i), 0.0, NO_ADDITIONS
        else:
            c, ell = sweep_step(game, d, p_i, i, L)
            A = L * float(2.0 * (c[S] @ ell[S]))
            if A > 0.0:
                bit = 0
            elif A < 0.0:
                bit = 1
            else:
                # Free choice; take the regret-minimizing bit.
                bit = int(d[i] > 0.0)
            trace.coefficients.append(A)
            d = c if bit == 0 else c + ell

            new_members = (np.abs(d) <= support_bound) & ~S
            joined = int(new_members.sum())
            S = S | new_members
            new_cost = L * float(d[S] @ d[S])
            excess = new_cost - cost - entry_cap * (joined * L)
            cost = new_cost
            added = lifted_indices(new_members, L) if joined else NO_ADDITIONS
        worst_step_excess = max(worst_step_excess, excess)
        # Records the worst step so far; raises at the first step past the cap.
        record_bound(
            trace, "step_cost_increase", worst_step_excess, step_cap, context=f"player {v}"
        )
        trace.chosen_actions.append(bit)
        trace.additions.append(added)
        trace.potentials.append(cost)

    actions = np.empty(len(order), dtype=np.int64)
    actions[list(order)] = trace.chosen_actions
    d_full = discrepancy_vector(game, aggregate_profile(game, L, actions))
    drift = float(np.abs(d_full - d).max())
    record_bound(trace, "sweep_drift", drift, BOUND_TOL)
    trace.potentials[-1] = L * float(d_full[S] @ d_full[S])
    record_bound(trace, "terminal_cost", trace.potentials[-1], consts["terminal_cost"])
    return PureProfile(actions), trace

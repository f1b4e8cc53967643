"""Two-action purification: mixed profile to pure profile in three stages.

Stage 1 snaps every strongly decided player (discrepancy beyond half the
support bound) to their best response, which leaves a profile where every
played action is within lam*sqrt(n) of optimal.  Stage 2 sweeps the
players in order and rounds each remaining mixed one to the bit that does
not increase the running cost, defined as the sum of squared
discrepancies over the relevant players.  Stage 3 lets every player whose
pure regret reached the correction threshold switch to their best
response, all at once.

Each stage asserts the bound it must preserve; a violated bound raises
BoundBreach rather than returning a bad profile.  What the sweep decided
lands in a PurifyTrace.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BinaryOnlyError, BoundBreach
from ..game import (
    BOUND_TOL,
    MixedProfile,
    PureProfile,
    best_response_vector,
    discrepancy_vector,
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


def ane_to_wsne_binary(game, profile):
    """Stage 1: snap strongly decided players to their best response.

    Input must have max regret at most lam/8 (up to twice that is
    tolerated with a warning).  Every player with |discrepancy| above
    (lam/2)*sqrt(n) goes pure, all decisions taken against the input
    profile.  On return every played action has regret at most
    lam*sqrt(n) and every still-mixed player has |discrepancy| at most
    lam*sqrt(n); both are asserted.  Returns (profile, warning), warning
    True when the input regret needed the tolerance.
    """
    if game.m != 2:
        raise BinaryOnlyError(f"binary pipeline needs m = 2, got m = {game.m}")
    profile.validate_for(game)
    warning = check_input_regret(game, profile, default_target_epsilon(game, "binary"))

    n = game.n
    d = discrepancy_vector(game, profile)
    snap = np.abs(d) > 0.5 * game.lam * math.sqrt(n)
    probs = profile.probs.copy()
    # d > 0 favors action 1; snap implies d != 0, so no tie to break.
    probs[snap] = np.eye(2)[(d > 0.0).astype(int)][snap]
    out = MixedProfile(probs)

    support_bound = game.lam * math.sqrt(n)
    observed = support_regret_max(game, out)
    if observed > support_bound + BOUND_TOL:
        raise BoundBreach("wsne_support_regret", observed, support_bound)
    d_out = discrepancy_vector(game, out)
    still_mixed = (probs[:, 1] > 0.0) & (probs[:, 1] < 1.0)
    if still_mixed.any():
        worst = float(np.abs(d_out[still_mixed]).max())
        if worst > support_bound + BOUND_TOL:
            raise BoundBreach("wsne_mixed_discrepancy", worst, support_bound)
    return out, warning


def sweep_step(game, d, p_i, i):
    """The acting player's rounding vectors (c, ell), read off the operator.

    Every discrepancy is linear in p_i, d = c + ell * p_i, with slope ell
    the change of player i's coefficient columns from action 0 to action
    1 as seen in each player's payoff gap.  Given the current d this costs
    O(n): four operator columns, no whole-profile evaluation.
    """
    B = game.operator
    col0, col1 = 2 * i, 2 * i + 1
    ell = (B[1::2, col1] - B[0::2, col1]) - (B[1::2, col0] - B[0::2, col0])
    return d - p_i * ell, ell


def purify_rounding_binary(game, wsne, order=None):
    """Stage 2: ordered sweep rounding every mixed player to a bit.

    For the acting player i the discrepancy of every player i' is linear
    in p_i, d = c + ell * p_i; `sweep_step` reads ell from player i's
    operator columns and updates the running d in O(n) per step.  The
    rounding coefficient A sums 2*c*ell over the current relevant set,
    and the chosen bit makes A * (change in p_i) nonpositive, so the
    quadratic part of the cost cannot grow through the linear term.
    Players whose discrepancy has come within the support bound join the
    relevant set after each step.

    Asserts the per-step cost increase allowance 4*lam^2*n (plus
    lam^2*n per new member) and the terminal cost bound 5*lam^2*n^2.
    The running d is checked against a whole-profile recomputation at
    the end (bound sweep_drift, allowance BOUND_TOL), and the terminal
    cost is taken from the recomputed d.  The trace logs, per step, the
    bit, A, the cost and the players that joined: O(n) in all.
    """
    if game.m != 2:
        raise BinaryOnlyError(f"binary pipeline needs m = 2, got m = {game.m}")
    wsne.validate_for(game)
    n, lam = game.n, game.lam
    order = resolve_order(n, order)
    support_bound = lam * math.sqrt(n)

    trace = PurifyTrace(
        pipeline="binary", order=order, wsne_profile=wsne, thresholds={"delta": None}
    )
    record_bound(trace, "wsne_support_regret", support_regret_max(game, wsne), support_bound)

    P = wsne.probs.copy()
    d = discrepancy_vector(game, wsne)
    S = np.abs(d) <= support_bound
    cost = float(d[S] @ d[S])
    trace.additions.append(np.flatnonzero(S))
    trace.potentials.append(cost)

    step_cap = 4.0 * lam * lam * n
    entry_cap = lam * lam * n
    worst_step_excess = -math.inf
    for i in order:
        p_i = float(P[i, 1])
        if p_i == 0.0 or p_i == 1.0:
            # Nothing to round; the cost cannot move on this turn.
            trace.coefficients.append(None)
            bit = int(p_i)
        else:
            c, ell = sweep_step(game, d, p_i, i)
            A = float(2.0 * (c[S] @ ell[S]))
            if A > 0.0:
                bit = 0
            elif A < 0.0:
                bit = 1
            else:
                # Free choice; take the regret-minimizing bit.
                bit = int(d[i] > 0.0)
            trace.coefficients.append(A)
            P[i] = (1.0, 0.0) if bit == 0 else (0.0, 1.0)
            d = c if bit == 0 else c + ell

        new_members = (np.abs(d) <= support_bound) & ~S
        S = S | new_members
        new_cost = float(d[S] @ d[S])
        excess = new_cost - cost - entry_cap * int(new_members.sum())
        worst_step_excess = max(worst_step_excess, excess)
        # Records the worst step so far; raises at the first step past the cap.
        record_bound(
            trace, "step_cost_increase", worst_step_excess, step_cap, context=f"player {i}"
        )
        cost = new_cost
        trace.chosen_actions.append(bit)
        trace.additions.append(np.flatnonzero(new_members))
        trace.potentials.append(cost)

    d_full = discrepancy_vector(game, MixedProfile(P))
    drift = float(np.abs(d_full - d).max())
    record_bound(trace, "sweep_drift", drift, BOUND_TOL)
    trace.potentials[-1] = float(d_full[S] @ d_full[S])
    record_bound(trace, "terminal_cost", trace.potentials[-1], 5.0 * lam * lam * n * n)
    pure = PureProfile(P.argmax(axis=1))
    return pure, trace


def correct_binary(game, pure, trace):
    """Stage 3: simultaneous best-response switch for high-regret players.

    The threshold is delta = lam * (20 n^2)^(1/3); every player at or
    above it switches, with all decisions taken against the input pure
    profile.  Asserts the switcher budget (terminal cost / delta^2) and
    the final regret bound lam * (70 n^2)^(1/3).
    """
    if game.m != 2:
        raise BinaryOnlyError(f"binary pipeline needs m = 2, got m = {game.m}")
    pure.validate_for(game)
    n, lam = game.n, game.lam
    delta = lam * (20.0 * n * n) ** (1.0 / 3.0)
    trace.thresholds["delta"] = delta

    as_mixed = MixedProfile.from_pure(pure, game.m)
    report = regret_report(game, as_mixed)
    switchers = np.flatnonzero(report.per_player_regret >= delta)
    record_bound(
        trace,
        "switcher_count",
        float(len(switchers)),
        trace.potentials[-1] / (delta * delta),
    )

    actions = pure.actions.copy()
    if len(switchers):
        br = best_response_vector(game, as_mixed)
        actions[switchers] = br[switchers]
    final = PureProfile(actions)
    final_report = regret_report(game, MixedProfile.from_pure(final, game.m))
    record_bound(
        trace,
        "final_regret",
        final_report.max_regret,
        lam * (70.0 * n * n) ** (1.0 / 3.0),
    )

    trace.switched_players = tuple(int(i) for i in switchers)
    trace.final_profile = final
    trace.final_max_regret = float(final_report.max_regret)
    return final

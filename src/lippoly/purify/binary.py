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

Each bound is asserted once, stage 1's support bound by stage 2 on its
input; a violated bound raises BoundBreach rather than returning a bad
profile.  What the sweep decided lands in a PurifyTrace.
"""

from __future__ import annotations

import math

import numpy as np

from ..game import BOUND_TOL, MixedProfile, PureProfile
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


def ane_to_wsne_binary(game, profile, L=1):
    """Stage 1: snap strongly decided players to their best response.

    Input must have max regret at most lam/8 (up to twice that is
    tolerated with a warning).  Every player with |discrepancy| above
    (lam/2)*sqrt(n) goes pure, all decisions taken against the input
    profile (the input check's payoffs).  On return every played action
    has regret at most lam*sqrt(n), a still-mixed player's |discrepancy|
    included; stage 2 asserts that (bound wsne_support_regret).  At L > 1
    the thresholds are the L-fold lift's and every replica of a
    population snaps as one, playing its row of `profile`.  Returns
    (profile, warning), warning True when the input regret needed the
    tolerance.
    """
    consts, warning, U = open_snap(game, profile, "binary", L)

    d = U[:, 1] - U[:, 0]
    snap = np.abs(d) > consts["snap"]
    probs = profile.probs.copy()
    # d > 0 favors action 1; snap implies d != 0, so no tie to break.
    probs[snap] = np.eye(2)[(d > 0.0).astype(int)][snap]
    return MixedProfile(probs), warning


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
    in p_i, d = c + ell * p_i, with the slope ell read off player i's
    operator columns (`sweep_step`).  The rounding coefficient A sums
    2*c*ell over the current relevant set, and the chosen bit makes
    A * (change in p_i) nonpositive, so the quadratic part of the cost
    cannot grow through the linear term.  Players whose discrepancy has
    come within the support bound join the relevant set after each step.

    At L > 1 the sweep runs over the n*L replicas of the L-fold lift
    (`order` is a permutation of them) on per-population state: every
    replica of population i has the discrepancy d[i] and the same set
    membership, and a replica plays its population's row of `wsne` until
    its turn, so the cost and A count each population L times.  The
    order falls into runs of consecutive replicas of one population, in
    which p_i and ell stay fixed and d moves along ell only; at L = 1
    every run is one step long.  Each run reads ell once, and every
    rounded step is decided on the run's scalars (`_Sweep.glide`), O(1)
    per replica, exact ties included.  The vectors are read in O(n) at
    the start of a run and after each step that grows the relevant set.
    Runs of already-pure replicas are logged in one go.

    Asserts the per-step cost increase allowance 4*lam^2*n (plus
    lam^2*n per new member) and the terminal cost bound 5*lam^2*n^2, at
    the lift's n and lam; a step past the allowance raises naming its
    (lifted) player.  The running d is checked against a recomputation
    at the aggregate profile at the end (bound sweep_drift, allowance
    BOUND_TOL), and the terminal cost is taken from the recomputed d.  The
    trace logs, per step, the bit, A, the cost and the replicas that
    joined: O(n*L) in all.
    """
    L, consts, order, trace, U = open_sweep(game, wsne, "binary", order, L)
    trace.thresholds["delta"] = None

    p = wsne.probs[:, 1].tolist()
    sweep = _Sweep(game, U[:, 1] - U[:, 0], order, L, consts, trace)
    pops = np.asarray(order, dtype=np.intp) // L
    edges = [0, *(np.flatnonzero(pops[1:] != pops[:-1]) + 1).tolist(), len(order)]
    for start, end in zip(edges[:-1], edges[1:]):
        i = int(pops[start])
        p_i = p[i]
        if p_i == 0.0 or p_i == 1.0:
            sweep.keep(end - start, int(p_i))
            continue
        _, ell = sweep_step(game, sweep.d, p_i, i, L)
        k = start
        while k < end:
            k = sweep.glide(k, end, i, p_i, ell)
    record_bound(trace, "step_cost_increase", sweep.worst, consts["step_cost_increase"])

    actions, U = close_sweep(game, L, trace)
    d_full, S = U[:, 1] - U[:, 0], sweep.S
    record_bound(trace, "sweep_drift", float(np.abs(d_full - sweep.d).max()), BOUND_TOL)
    trace.potentials[-1] = L * float(d_full[S] @ d_full[S])
    record_bound(trace, "terminal_cost", trace.potentials[-1], consts["terminal_cost"])
    return PureProfile(actions), trace


class _Sweep:
    """The running state of one stage-2 sweep and the trace it logs to.

    d holds every population's discrepancy, S the relevant set, cost the
    running cost and worst the largest step excess so far (cost increase
    less the entry allowance of the replicas that joined).
    """

    def __init__(self, game, d, order, L, consts, trace):
        self.game, self.order, self.L, self.trace = game, order, L, trace
        self.bound = consts["support"]
        self.entry_cap = consts["entry_cost"]
        self.step_cap = consts["step_cost_increase"]
        self.d = d
        self.S = S = np.abs(d) <= self.bound
        self.cost = L * float(d[S] @ d[S])
        self.worst = -math.inf
        trace.additions.append(lifted_indices(S, L))
        trace.potentials.append(self.cost)

    def _breach(self, k, excess):
        # The first step past the allowance; record_bound raises naming it.
        record_bound(
            self.trace, "step_cost_increase", excess, self.step_cap,
            context=f"player {self.order[k]}",
        )

    def keep(self, count, bit):
        """Log `count` steps of already-pure replicas: nothing moves."""
        trace = self.trace
        trace.coefficients.extend([None] * count)
        trace.chosen_actions.extend([bit] * count)
        trace.additions.extend([NO_ADDITIONS] * count)
        trace.potentials.extend([self.cost] * count)
        self.worst = max(self.worst, 0.0)

    def glide(self, k, end, i, p_i, ell):
        """One segment of a run of population i: steps k .. end - 1 on
        scalars, up to and including the first step that grows the
        relevant set; returns the first step not taken.

        With S fixed, d = d0 + t*ell after the run moved t = sum(bit - p_i)
        since d0.  So with h = ell[S].ell[S] and g = d0[S].ell[S], the
        coefficient is A = 2L*h*x for x = g/h + t - p_i, the bit is 0 for
        x > 0 and 1 for x < 0, and the cost is L*(q + 2t*g + t^2*h) with
        q = d0[S].d0[S].  At an exact tie (x = 0, or h = 0, where A = 0 at
        every step) the tie rule reads d[i], which the zero self block
        keeps at d0[i] along the run.  An outside player j joins once
        d0[j] + t*ell[j] reaches the support bound, at a t computed here
        once.  The step that gets there is decided like any other; only
        then are the vectors touched: d is rebuilt from t, the new members
        join S, and the step's cost is L*d[S].d[S] less their entry
        allowance.  Otherwise d is rebuilt from t at the end of the run.
        """
        L, d0, S = self.L, self.d, self.S
        ell_S = ell[S]
        h = float(ell_S @ ell_S)
        d_S = d0[S]
        g = float(d_S @ ell_S)
        q = float(d_S @ d_S)
        # Outside players have |d| > bound; each moves toward the set as t
        # rises (d*ell < 0) or as it falls, and joins `reach` away.
        outside = ~S & (ell != 0.0)
        d_out, ell_out = d0[outside], ell[outside]
        reach = (np.abs(d_out) - self.bound) / np.abs(ell_out)
        rising = d_out * ell_out < 0.0
        t_high = float(reach[rising].min(initial=math.inf))
        t_low = -float(reach[~rising].min(initial=math.inf))

        # NaN at h = 0, so that every step takes the tie branch below.
        x0 = g / h - p_i if h else math.nan
        two_Lh = 2.0 * L * h
        tie_bit = int(d0[i] > 0.0)
        limit = self.step_cap + BOUND_TOL
        cost, worst = self.cost, self.worst
        t = 0.0
        trace = self.trace
        log_A = trace.coefficients.append
        log_bit = trace.chosen_actions.append
        log_added = trace.additions.append
        log_cost = trace.potentials.append
        while k < end:
            x = x0 + t
            if x > 0.0:
                bit = 0
            elif x < 0.0:
                bit = 1
            else:
                # Free choice; take the regret-minimizing bit.
                bit, x = tie_bit, 0.0
            t_next = t + (bit - p_i)
            if not t_low < t_next < t_high:
                break
            t = t_next
            new_cost = L * (q + t * (2.0 * g + t * h))
            excess = new_cost - cost
            cost = new_cost
            if excess > worst:
                worst = excess
                if excess > limit:
                    self._breach(k, excess)
            log_A(two_Lh * x)
            log_bit(bit)
            log_added(NO_ADDITIONS)
            log_cost(cost)
            k += 1
        self.cost, self.worst = cost, worst
        if k == end:
            self.d = d0 + t * ell
            return k

        # Step k brings an outside population to the support bound.
        self.d = d = d0 + t_next * ell
        new_members = (np.abs(d) <= self.bound) & ~S
        joined = int(new_members.sum())
        self.S = S = S | new_members
        self.cost = new_cost = L * float(d[S] @ d[S])
        excess = new_cost - cost - self.entry_cap * (joined * L)
        if excess > worst:
            self.worst = excess
            if excess > limit:
                self._breach(k, excess)
        log_A(two_Lh * x)
        log_bit(bit)
        log_added(lifted_indices(new_members, L) if joined else NO_ADDITIONS)
        log_cost(new_cost)
        return k + 1

"""What the two purification pipelines share: the trace, the constants
table, the bound log, the stage frame around each pipeline's snap rule
and sweep (`open_snap`, `open_sweep`, `close_sweep`), the population
state and stage 3.

Every stage takes a replication count L.  Each player i of the game then
stands for L identical replicas, lifted players i*L .. i*L + L - 1 of the
L-fold population lift (`lippoly.population.induce`), whose coefficients
are the game's divided by L and whose parameter is lam/L.  A replica's
payoffs are the game's payoffs at the population aggregates, so the
stages keep per-population state only (the aggregate profile, its
payoffs or discrepancies, one relevant set per population) plus each
replica's chosen action, and never build the (nL)^2 m^2 lift.  The
thresholds are the lift's, `pipeline_constants` at (n*L, m, lam/L), and
the trace is the lift's: lifted players, lifted set indices.  At L = 1
the stages are the plain per-player pipelines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import BinaryOnlyError, BoundBreach, BudgetExceeded, PreconditionViolation, UsageError
from ..game import (
    BOUND_TOL,
    MixedProfile,
    PureProfile,
    _choice,
    _integer,
    _integer_type,
    action_regrets,
    payoff_matrix,
    regret_report,
)

MODES = ("binary", "m_action", "auto")

# Largest lifted player count n L that any stage purifies.  The
# trace keeps one entry per lifted player (its order entry, chosen action,
# potential, coefficient and lifted profile rows), about 0.2 KB each, so
# the guard keeps that under about 0.45 GB; paper_L at n = 5, epsilon =
# 0.3 is 1.29 million lifted players.  The binary sweep steps a run of one
# population's replicas on scalars, so memory, not time, is what binds.
REPLICA_GUARD = 2_000_000

# The additions entry of a step at which no set grew, shared by every such
# step so that a long sweep does not hold one empty array per step.
NO_ADDITIONS = np.empty(0, dtype=np.intp)
NO_ADDITIONS.setflags(write=False)


@dataclass
class PurifyTrace:
    """What one purification decided, step by step, as an event log.

    pipeline is "binary" or "m_action".  Sweep step k (0-based) is taken
    by order[k]: chosen_actions[k] is the action that player ends on and
    coefficients[k] the step coefficient it minimized (binary: the
    rounding coefficient A, None when the player was already pure;
    m-action: the aggregated vector b).  potentials[k] is the potential
    after k steps (binary: the cost; m-action: the variance sum), k = 0
    being the sweep input.  additions[k] holds the flat indices of the
    relevant-set membership mask that joined at step k, additions[0] the
    initial sets: players for binary, i*m + j for action j of player i
    for m-action.  Per-step profiles, sets and payoff statistics are not
    stored; `replay` rebuilds them from this log.  Purified at L > 1,
    every player index above is a lifted player (order is a permutation
    of the n*L lifted players) and the profiles are the lift's, so the
    trace replays on `induce(game, L)`.

    thresholds holds the pipeline's constants (binary delta; m-action
    epsilon0, epsilon1, delta0, delta1), the stage-3 one None until stage
    3 runs.  bounds maps each asserted bound to its observed value, its
    allowance, and whether it held.
    """

    pipeline: str
    order: tuple
    wsne_profile: MixedProfile
    thresholds: dict
    input_profile: MixedProfile | None = None
    precondition_warning: bool = False
    potentials: list = field(default_factory=list)
    coefficients: list = field(default_factory=list)
    chosen_actions: list = field(default_factory=list)
    additions: list = field(default_factory=list)
    switched_players: tuple = ()
    final_profile: PureProfile | None = None
    final_max_regret: float | None = None
    bounds: dict = field(default_factory=dict)


def resolve_mode(game, mode):
    """The pipeline ("binary" or "m_action") a `purify` mode selects for this game."""
    if _choice(mode, "mode", MODES) == "auto":
        return "binary" if game.m == 2 else "m_action"
    if mode == "binary" and game.m != 2:
        raise BinaryOnlyError(f"binary pipeline needs m = 2, got m = {game.m}")
    return mode


def replication(L):
    """The replication count L as an int; UsageError unless a positive integer."""
    return _integer(L, "replication L", least=1)


def guarded_replication(n, L):
    """L as `replication` checks it; a lift of n*L players over REPLICA_GUARD
    raises BudgetExceeded.  Each stage and `reduce_and_solve` call it first."""
    L = replication(L)
    if n * L > REPLICA_GUARD:
        raise BudgetExceeded(
            f"purifying {n * L} lifted players is over the budget of {REPLICA_GUARD:g}",
            estimate=n * L,
        )
    return L


def pipeline_constants(game, mode="auto", L=1):
    """Every threshold and allowance of one pipeline's three stages, as a dict.

    `mode` selects the pipeline as in `resolve_mode`.  The constants are
    those of the L-fold lift: n*L players at parameter lam/L.  input is stage 1's
    input regret level, snap its cutoff (binary |discrepancy|, m-action
    action regret), support the played-action regret it leaves (bound
    wsne_support_regret; also the sweep's initial set radius), switch the
    stage-3 threshold (delta, delta1); the other keys are allowances named
    after their bounds, plus binary entry_cost (per player joining the
    relevant set) and m-action switcher_mass (over delta1^2, the switcher
    budget; binary uses the terminal cost).  Logarithms are natural.
    """
    L = replication(L)
    n, m, lam = game.n * L, game.m, game.lam / L
    if resolve_mode(game, mode) == "binary":
        return {
            "input": lam / 8.0,
            "snap": 0.5 * lam * math.sqrt(n),
            "support": lam * math.sqrt(n),
            "step_cost_increase": 4.0 * lam * lam * n,
            "entry_cost": lam * lam * n,
            "terminal_cost": 5.0 * lam * lam * n * n,
            "switch": lam * (20.0 * n * n) ** (1.0 / 3.0),
            "final_regret": lam * (70.0 * n * n) ** (1.0 / 3.0),
        }
    eps0 = ((m - 1) / m) ** 2 * lam
    scale = n * n * m * math.log(3.0 * m)
    return {
        "input": eps0,
        "snap": math.sqrt(2.0 * (n - 1) * lam * eps0),
        "support": 2.0 * math.sqrt(2.0 * n * lam * eps0),
        "initial_variance": 2.0 * (n * lam * (m - 1) / m) ** 2,
        "move_variance_budget": ((m - 1) * n * lam / m) ** 2,
        "addition_variance_budget": 4.0 * n * lam * lam * (math.log(m - 1) + 1.0),
        "terminal_variance": 8.0 * n * n * lam * lam * math.log(3.0 * m),
        "switch": 4.0 * lam * scale ** (1.0 / 3.0),
        "switcher_mass": 16.0 * n * n * lam * lam * m * math.log(3.0 * m),
        "final_regret": 6.0 * lam * scale ** (1.0 / 3.0),
    }


def default_target_epsilon(game, mode="auto", L=1):
    """The input regret level a purification pipeline requires.

    lam/8 for the two-action pipeline, ((m-1)/m)^2 lam for the general
    one, with lam/L in place of lam in the L-fold lift; `mode` selects
    the pipeline as in `resolve_mode`.
    """
    return pipeline_constants(game, mode, L)["input"]


def record_bound(trace, name, observed, allowed, context=""):
    """Log a bound check in the trace; raise if it failed."""
    ok = observed <= allowed + BOUND_TOL
    trace.bounds[name] = {
        "observed": float(observed),
        "allowed": float(allowed),
        "ok": bool(ok),
    }
    if not ok:
        raise BoundBreach(name, observed, allowed, context=context)


def open_snap(game, profile, pipeline, L=1):
    """Stage 1's opening: the lift's constants, the profile checked for
    shape and for the pipeline's input regret level; returns (consts,
    warning, payoffs), payoffs being the profile's read-only payoff
    matrix, which stage 1 snaps from.

    Clean inputs pass silently.  Inputs within twice the required level get
    a warning and warning True (stage 1 hands it on; `purify` records it
    in the trace), so bound slack can be explored without forging inputs.
    Anything worse raises, naming the first player of highest regret; in
    the L-fold lift every replica has its population's regret, so that is
    lifted player i*L.
    """
    L = guarded_replication(game.n, L)
    consts = pipeline_constants(game, pipeline, L)
    profile.validate_for(game)
    required = consts["input"]
    report = regret_report(game, profile)
    measured = report.max_regret
    if measured <= required + BOUND_TOL:
        return consts, False, report.payoffs
    if measured <= 2.0 * required + BOUND_TOL:
        warnings.warn(
            f"input max regret {measured:.6g} exceeds the required "
            f"{required:.6g} but is within twice it; continuing",
            RuntimeWarning,
            stacklevel=3,
        )
        return consts, True, report.payoffs
    raise PreconditionViolation(report.argmax_player * L, measured, required)


def open_sweep(game, wsne, pipeline, order, L):
    """Stage 2's opening: L, the lift's constants and the sweep order
    resolved, an empty trace, and the payoffs U of the stage-1 profile,
    evaluated once here; returns (L, consts, order, trace, U).

    Asserts stage 1's support bound on `wsne` (wsne_support_regret): every
    played action within consts["support"] of its owner's best.  The
    pipeline adds its own thresholds to the trace.
    """
    L = guarded_replication(game.n, L)
    consts = pipeline_constants(game, pipeline, L)
    wsne.validate_for(game)
    order = resolve_order(game.n * L, order)
    trace = PurifyTrace(pipeline=pipeline, order=order, wsne_profile=lifted(wsne, L), thresholds={})
    U = payoff_matrix(game, wsne)
    record_bound(trace, "wsne_support_regret", support_regret_max(U, wsne.probs), consts["support"])
    return L, consts, order, trace, U


def close_sweep(game, L, trace):
    """Stage 2's closing: the chosen actions scattered back to lifted
    order, and the payoffs U at their aggregate profile, evaluated once
    here, against which the sweep checks its running values (bound
    sweep_drift); returns (actions, U)."""
    actions = np.empty(len(trace.order), dtype=np.int64)
    actions[list(trace.order)] = trace.chosen_actions
    return actions, payoff_matrix(game, aggregate_profile(game, L, actions))


def support_regret_max(U, probs):
    """Largest regret of any action actually played (probability > 0), from
    the payoffs U of the profile probs."""
    return float(action_regrets(U)[probs > 0.0].max())


def lifted(profile, L):
    """The L-fold lift's profile in which every replica plays its population's row."""
    return profile if L == 1 else MixedProfile(np.repeat(profile.probs, L, axis=0))


def lifted_indices(mask, L):
    """Flat indices of a per-population membership mask (players, or
    (player, action) pairs) repeated for the L replicas of each population."""
    return np.flatnonzero(mask if L == 1 else np.repeat(mask, L, axis=0))


def actor_columns(game, i, L=1):
    """Player i's m columns of the payoff operator, as the lift sees them.

    Entry [ip*m + jp, j] is what a replica of population i playing action
    j adds to the payoff of action jp of a replica of population ip: the
    game's coefficient divided by L (zero for ip = i).  Both sweeps move
    their running payoffs (binary: discrepancies) by these columns when
    the acting replica's row changes, O(n m^2) per step instead of a
    whole-profile evaluation; their sweep_drift bound checks the running
    values against a full recomputation at the end.
    """
    cols = game.operator[:, i * game.m:(i + 1) * game.m]
    return cols if L == 1 else cols / L


def aggregate_profile(game, L, actions):
    """Each population's empirical action distribution under a pure
    profile of the L-fold lift (actions validated by the caller)."""
    n, m = game.n, game.m
    counts = np.bincount(np.repeat(np.arange(n) * m, L) + actions, minlength=n * m)
    return MixedProfile(counts.reshape(n, m) / L)


def replica_regrets(game, L, actions):
    """Every lifted player's regret under a pure profile of the L-fold lift,
    and each population's best response (lowest index on ties).

    A replica faces the game's payoffs at the population aggregates, so
    one payoff evaluation of the aggregate profile gives them all.
    """
    U = payoff_matrix(game, aggregate_profile(game, L, actions))
    pops = np.repeat(np.arange(game.n), L)
    return action_regrets(U)[pops, actions], U.argmax(axis=1)


def resolve_order(n, order):
    """Normalize the sweep order: default ascending, else a permutation of
    integers."""
    if order is None:
        return tuple(range(n))
    out = tuple(order)
    # One check per distinct entry type, not per entry.
    if not all(map(_integer_type, set(map(type, out)))) or sorted(out) != list(range(n)):
        raise UsageError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    return tuple(map(int, out))


def correct(game, pure, trace, L=1):
    """Stage 3 of either pipeline: one simultaneous best-response switch.

    The pipeline comes from trace.pipeline, the constants from
    `pipeline_constants`; `pure` is a profile of the L-fold lift.  One
    payoff evaluation of the aggregate profile gives every replica's
    regret and best response; a binary replica switches at or above
    delta, an m-action one only strictly above delta1, all decisions
    taken against the input profile.  Asserts the switcher budget and the
    final regret bound; the final regret is evaluated here once, only
    when someone switched (else it is the input's), and stored as
    trace.final_max_regret.
    """
    L = guarded_replication(game.n, L)
    pure.validate_for(game, L)
    binary = trace.pipeline == "binary"
    consts = pipeline_constants(game, trace.pipeline, L)
    delta = consts["switch"]
    trace.thresholds["delta" if binary else "delta1"] = delta

    regrets, best = replica_regrets(game, L, pure.actions)
    switchers = np.flatnonzero(regrets >= delta if binary else regrets > delta)
    mass = trace.potentials[-1] if binary else consts["switcher_mass"]
    record_bound(trace, "switcher_count", float(len(switchers)), mass / (delta * delta))

    actions = pure.actions.copy()
    actions[switchers] = best[switchers // L]
    final = PureProfile(actions)
    if len(switchers):
        regrets = replica_regrets(game, L, actions)[0]
    final_regret = float(regrets.max())
    record_bound(trace, "final_regret", final_regret, consts["final_regret"])

    trace.switched_players = tuple(int(i) for i in switchers)
    trace.final_profile = final
    trace.final_max_regret = float(final_regret)
    return final

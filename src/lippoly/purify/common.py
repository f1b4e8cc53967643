"""What the two purification pipelines share: the trace, the constants
table, the bound log, the population state and stage 3.

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

from ..errors import BinaryOnlyError, BoundBreach, PreconditionViolation, UsageError
from ..game import (
    BOUND_TOL,
    MixedProfile,
    PureProfile,
    action_regrets,
    payoff_matrix,
    regret_report,
)

MODES = ("binary", "m_action", "auto")

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
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "auto":
        return "binary" if game.m == 2 else "m_action"
    if mode == "binary" and game.m != 2:
        raise BinaryOnlyError(f"binary pipeline needs m = 2, got m = {game.m}")
    return mode


def replication(L):
    """The replication count L as an int; UsageError unless a positive integer."""
    if not math.isfinite(L) or int(L) != L or L < 1:
        raise UsageError(f"replication L must be a positive integer, got {L!r}")
    return int(L)


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


def check_input_regret(game, profile, required, L=1):
    """Enforce the pipeline's input regret level.

    Clean inputs pass silently.  Inputs within twice the required level get
    a warning and a True return (stage 1 hands it on; `purify` records it
    in the trace), so bound slack can be explored without forging inputs.
    Anything worse raises, naming the first player of highest regret; in
    the L-fold lift every replica has its population's regret, so that is
    lifted player i*L.
    """
    report = regret_report(game, profile)
    measured = report.max_regret
    if measured <= required + BOUND_TOL:
        return False
    if measured <= 2.0 * required + BOUND_TOL:
        warnings.warn(
            f"input max regret {measured:.6g} exceeds the required "
            f"{required:.6g} but is within twice it; continuing",
            RuntimeWarning,
            stacklevel=3,
        )
        return True
    raise PreconditionViolation(report.argmax_player * L, measured, required)


def support_regret_max(game, profile):
    """Largest regret of any action actually played (probability > 0)."""
    reg = action_regrets(payoff_matrix(game, profile))
    return float(reg[profile.probs > 0.0].max())


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
    """Normalize the sweep order: default ascending, else a permutation."""
    if order is None:
        return tuple(range(n))
    out = tuple(int(i) for i in order)
    if sorted(out) != list(range(n)):
        raise UsageError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    return out


def correct(game, pure, trace, L=1):
    """Stage 3 of either pipeline: one simultaneous best-response switch.

    The pipeline comes from trace.pipeline, the constants from
    `pipeline_constants`; `pure` is a profile of the L-fold lift.  One
    payoff evaluation of the aggregate profile gives every replica's
    regret and best response; a binary replica switches at or above
    delta, an m-action one only strictly above delta1, all decisions
    taken against the input profile.  Asserts the switcher budget and the
    final regret bound; the final regret is evaluated here once, and
    stored as trace.final_max_regret.
    """
    L = replication(L)
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
    final_regret = float(replica_regrets(game, L, actions)[0].max())
    record_bound(trace, "final_regret", final_regret, consts["final_regret"])

    trace.switched_players = tuple(int(i) for i in switchers)
    trace.final_profile = final
    trace.final_max_regret = float(final_regret)
    return final

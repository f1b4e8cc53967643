"""Helpers shared by the two purification pipelines."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..errors import BinaryOnlyError, BoundBreach, PreconditionViolation, UsageError
from ..game import BOUND_TOL, MixedProfile, PureProfile, action_regrets, regret_report

MODES = ("binary", "m_action", "auto")


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
    stored; `replay` rebuilds them from this log.

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


def default_target_epsilon(game, mode="auto"):
    """The input regret level a purification pipeline requires.

    lam/8 for the two-action pipeline, ((m-1)/m)^2 lam for the general
    one; `mode` selects the pipeline as in `resolve_mode`.
    """
    if resolve_mode(game, mode) == "binary":
        return game.lam / 8.0
    return ((game.m - 1) / game.m) ** 2 * game.lam


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


def check_input_regret(game, profile, required):
    """Enforce the pipeline's input regret level.

    Clean inputs pass silently.  Inputs within twice the required level get
    a warning and a True return (stage 1 hands it on; `purify` records it
    in the trace), so bound slack can be explored without forging inputs.
    Anything worse raises.
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
    raise PreconditionViolation(report.argmax_player, measured, required)


def support_regret_max(game, profile):
    """Largest regret of any action actually played (probability > 0)."""
    reg = action_regrets(game, profile)
    on_support = profile.probs > 0.0
    if not on_support.any():
        return 0.0
    return float(reg[on_support].max())


def resolve_order(n, order):
    """Normalize the sweep order: default ascending, else a permutation."""
    if order is None:
        return tuple(range(n))
    out = tuple(int(i) for i in order)
    if sorted(out) != list(range(n)):
        raise UsageError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    return out


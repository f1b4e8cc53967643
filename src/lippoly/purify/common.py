"""Helpers shared by the two purification pipelines."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import BinaryOnlyError, BoundBreach, PreconditionViolation, UsageError
from ..game import BOUND_TOL, action_regrets, regret_report

MODES = ("binary", "m_action", "auto")


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
    a warning and a True return (callers record it in the trace), so bound
    slack can be explored without forging inputs.  Anything worse raises.
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


def members(mask):
    """Frozen index set for a boolean membership row."""
    return frozenset(int(i) for i in np.flatnonzero(mask))

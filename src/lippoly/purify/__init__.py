"""Deterministic mixed-to-pure purification.

`purify` routes a low-regret mixed profile through the matching
three-stage pipeline (two-action or general) and re-verifies the final
regret bound before returning.  `trace_to_json` turns either trace kind
into a plain serializable report, with the level of per-step detail the
caller asks for.
"""

from __future__ import annotations

from ..errors import BoundBreach, UsageError
from ..game import BOUND_TOL, MixedProfile, profile_to_json, regret_report
from .binary import (
    BinaryPurifyTrace,
    ane_to_wsne_binary,
    correct_binary,
    purify_rounding_binary,
)
from .common import MODES, default_target_epsilon, resolve_mode
from .maction import (
    MActionPurifyTrace,
    ane_to_wsne_m,
    correct_m,
    purify_rounding_m,
    thresholds_m,
)

TRACE_DETAILS = ("full", "potentials")

__all__ = [
    "BinaryPurifyTrace",
    "MActionPurifyTrace",
    "MODES",
    "TRACE_DETAILS",
    "ane_to_wsne_binary",
    "ane_to_wsne_m",
    "correct_binary",
    "correct_m",
    "default_target_epsilon",
    "purify",
    "purify_rounding_binary",
    "purify_rounding_m",
    "thresholds_m",
    "trace_to_json",
]


def purify(game, profile, mode="auto", order=None):
    """Run a full purification pipeline; returns (PureProfile, trace).

    mode "auto" picks the two-action pipeline exactly when m = 2,
    "binary" forces it (m = 2 only), "m_action" runs the general
    pipeline for any m.  order overrides the sweep order of the rounding
    stage (default ascending).  The final profile's max regret is
    recomputed and checked against the pipeline's bound before return.
    """
    mode = resolve_mode(game, mode)
    input_regret = regret_report(game, profile).max_regret
    if mode == "binary":
        wsne = ane_to_wsne_binary(game, profile)
        pure, trace = purify_rounding_binary(game, wsne, order=order)
        final = correct_binary(game, pure, trace)
    else:
        wsne = ane_to_wsne_m(game, profile)
        pure, trace = purify_rounding_m(game, wsne, order=order)
        final = correct_m(game, pure, trace)

    trace.input_profile = profile
    trace.precondition_warning = input_regret > default_target_epsilon(game, mode) + BOUND_TOL
    verified = regret_report(game, MixedProfile.from_pure(final, game.m)).max_regret
    bound = trace.bounds["final_regret"]["allowed"]
    if verified > bound + BOUND_TOL:
        raise BoundBreach("final_regret", verified, bound, context="post-pipeline re-verification")
    return final, trace


def trace_to_json(trace, detail="full"):
    """Serializable report for either trace kind.

    detail "full" includes per-step profiles, relevant sets, and
    coefficient data; "potentials" keeps only the step skeleton (acting
    player, chosen action, potential value) next to the bound table.
    Players and actions are 1-based in the output.
    """
    if detail not in TRACE_DETAILS:
        raise UsageError(f"detail must be one of {TRACE_DETAILS}, got {detail!r}")
    if isinstance(trace, BinaryPurifyTrace):
        return _binary_json(trace, detail)
    if isinstance(trace, MActionPurifyTrace):
        return _maction_json(trace, detail)
    raise UsageError(f"not a purification trace: {type(trace).__name__}")


def _common_json(trace, pipeline):
    out = {
        "pipeline": pipeline,
        "precondition_warning": bool(trace.precondition_warning),
        "order": [i + 1 for i in trace.order],
        "bounds": {name: dict(entry) for name, entry in trace.bounds.items()},
        "switched_players": [i + 1 for i in trace.switched_players],
        "final_max_regret": trace.final_max_regret,
    }
    if trace.final_profile is not None:
        out["final_profile"] = profile_to_json(trace.final_profile)
    return out


def _binary_json(trace, detail):
    out = _common_json(trace, "binary")
    out["delta"] = trace.delta
    steps = []
    for k, cost in enumerate(trace.costs):
        entry = {"step": k, "cost": cost}
        if k > 0:
            entry["acting_player"] = trace.order[k - 1] + 1
            entry["chosen_action"] = trace.chosen_actions[k - 1] + 1
        if detail == "full":
            if k > 0:
                entry["step_coefficient"] = trace.step_coefficients[k - 1]
            entry["relevant_set"] = sorted(i + 1 for i in trace.relevant_sets[k])
            entry["profile"] = profile_to_json(trace.step_profiles[k])
        steps.append(entry)
    out["steps"] = steps
    if detail == "full":
        if trace.input_profile is not None:
            out["input_profile"] = profile_to_json(trace.input_profile)
        if trace.wsne_profile is not None:
            out["wsne_profile"] = profile_to_json(trace.wsne_profile)
    return out


def _maction_json(trace, detail):
    out = _common_json(trace, "m_action")
    out["thresholds"] = {
        "epsilon0": trace.epsilon0,
        "epsilon1": trace.epsilon1,
        "delta0": trace.delta0,
        "delta1": trace.delta1,
    }
    out["move_increase_total"] = trace.move_increase_total
    out["addition_increase_total"] = trace.addition_increase_total
    steps = []
    for k, vsum in enumerate(trace.variance_sums):
        entry = {"step": k, "variance_sum": vsum}
        if k > 0:
            entry["acting_player"] = trace.order[k - 1] + 1
            entry["chosen_action"] = trace.chosen_actions[k - 1] + 1
        if detail == "full":
            if k > 0:
                entry["aggregate_coefficients"] = [float(x) for x in trace.step_b[k - 1]]
            entry["relevant_sets"] = [
                sorted(j + 1 for j in s) for s in trace.relevant_sets[k]
            ]
            entry["set_means"] = [float(x) for x in trace.means[k]]
            entry["set_variances"] = [float(x) for x in trace.variances[k]]
            entry["payoffs"] = [[float(x) for x in row] for row in trace.payoffs[k]]
            entry["profile"] = profile_to_json(trace.step_profiles[k])
        steps.append(entry)
    out["steps"] = steps
    if detail == "full":
        if trace.input_profile is not None:
            out["input_profile"] = profile_to_json(trace.input_profile)
        if trace.wsne_profile is not None:
            out["wsne_profile"] = profile_to_json(trace.wsne_profile)
    return out

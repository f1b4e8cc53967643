"""Deterministic mixed-to-pure purification.

`purify` routes a low-regret mixed profile through the matching
three-stage pipeline (two-action or general); stages 1 and 2 differ per
pipeline, stage 3 is one function, and every threshold and allowance
comes from `pipeline_constants`.  Either pipeline logs its sweep in one
PurifyTrace; `replay` rebuilds the per-step state from that log, and
`trace_to_json` turns it into a plain serializable report, with the
level of per-step detail the caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError
from ..game import MixedProfile, payoffs, profile_to_json
from ..game import regret_report  # noqa: F401 (not called; perfbench/spans.py wraps it here)
from .binary import ane_to_wsne_binary, purify_rounding_binary
from .common import MODES, PurifyTrace, correct, default_target_epsilon, pipeline_constants
from .common import lifted, replication, resolve_mode
from .maction import _set_stats, ane_to_wsne_m, purify_rounding_m

TRACE_DETAILS = ("full", "potentials")

# Stage 3 under one name per pipeline: perfbench/spans.py wraps these
# names, and `purify` calls stage 3 through them.
correct_binary = correct_m = correct

__all__ = [
    "MODES",
    "PurifyTrace",
    "SweepReplay",
    "TRACE_DETAILS",
    "ane_to_wsne_binary",
    "ane_to_wsne_m",
    "correct_binary",
    "correct_m",
    "default_target_epsilon",
    "pipeline_constants",
    "purify",
    "purify_rounding_binary",
    "purify_rounding_m",
    "replay",
    "trace_to_json",
]


def purify(game, profile, mode="auto", order=None, L=1):
    """Run a full purification pipeline; returns (PureProfile, trace).

    mode "auto" picks the two-action pipeline exactly when m = 2,
    "binary" forces it (m = 2 only), "m_action" runs the general
    pipeline for any m.  order overrides the sweep order of the rounding
    stage (default ascending).  With L > 1 every player stands for L
    replicas and the pipeline purifies the L-fold population lift
    (`lippoly.population.induce`) in which each replica plays its
    population's row of `profile`, on per-population state (see
    `lippoly.purify.common`): the returned profile, `order` and the trace
    are the lift's, over n*L players.  The final profile's max regret is
    evaluated once, by stage 3, which asserts it against the pipeline's
    bound (trace.bounds["final_regret"]) and stores it as
    trace.final_max_regret.  The tests' payoff_matrix_oracle and the
    benchmark's check.py recompute it independently of this package.
    The trace is a PurifyTrace: the sweep's event log plus the input,
    the stage-1 warning flag, the thresholds and every bound checked.
    """
    mode = resolve_mode(game, mode)
    L = replication(L)
    if mode == "binary":
        wsne, warning = ane_to_wsne_binary(game, profile, L)
        pure, trace = purify_rounding_binary(game, wsne, order=order, L=L)
        final = correct_binary(game, pure, trace, L)
    else:
        wsne, warning = ane_to_wsne_m(game, profile, L)
        pure, trace = purify_rounding_m(game, wsne, order=order, L=L)
        final = correct_m(game, pure, trace, L)

    trace.input_profile = lifted(profile, L)
    trace.precondition_warning = warning
    return final, trace


@dataclass
class SweepReplay:
    """Per-step sweep state rebuilt by `replay`; index k is after k steps.

    relevant_sets[k] is a frozenset of players (binary) or a tuple of one
    frozenset of actions per player (m-action).  payoffs, means and
    variances (the payoff matrix and the per-player statistics over the
    relevant sets) are filled for m-action traces only.
    """

    profiles: list = field(default_factory=list)
    relevant_sets: list = field(default_factory=list)
    payoffs: list = field(default_factory=list)
    means: list = field(default_factory=list)
    variances: list = field(default_factory=list)


def replay(trace, game):
    """Rebuild a sweep's per-step profiles, sets and statistics from its log.

    Starting from the stage-1 profile, step k sets player order[k-1] pure
    on its chosen action (a binary player with no coefficient was already
    pure) and adds additions[k] to the membership mask.  m-action payoffs
    come from the kernel `payoffs` and the statistics from the sweep's own
    `_set_stats`, so they equal what the sweep computed.
    """
    binary = trace.pipeline == "binary"
    n, m = game.n, game.m
    P = trace.wsne_profile.probs.copy()
    member = np.zeros(n if binary else (n, m), dtype=bool)
    out = SweepReplay()
    for k, added in enumerate(trace.additions):
        if k > 0 and trace.coefficients[k - 1] is not None:
            actor = trace.order[k - 1]
            P[actor] = 0.0
            P[actor, trace.chosen_actions[k - 1]] = 1.0
        member.flat[added] = True
        out.profiles.append(MixedProfile(P.copy()))
        if binary:
            out.relevant_sets.append(frozenset(np.flatnonzero(member).tolist()))
            continue
        out.relevant_sets.append(
            tuple(frozenset(np.flatnonzero(row).tolist()) for row in member)
        )
        u = payoffs(game, P)
        mean, var = _set_stats(u, member)
        out.payoffs.append(u)
        out.means.append(mean)
        out.variances.append(var)
    return out


def trace_to_json(trace, game, detail="full"):
    """Serializable report of a purification trace.

    detail "full" adds the replayed per-step profiles, relevant sets, and
    coefficient data (and, for m-action, payoffs and set statistics);
    "potentials" keeps only the step skeleton (acting player, chosen
    action, potential value) next to the bound table.  Players and
    actions are 1-based in the output.
    """
    if detail not in TRACE_DETAILS:
        raise UsageError(f"detail must be one of {TRACE_DETAILS}, got {detail!r}")
    binary = trace.pipeline == "binary"
    out = {
        "pipeline": trace.pipeline,
        "precondition_warning": bool(trace.precondition_warning),
        "order": [i + 1 for i in trace.order],
        "bounds": {name: dict(entry) for name, entry in trace.bounds.items()},
        "switched_players": [i + 1 for i in trace.switched_players],
        "final_max_regret": trace.final_max_regret,
    }
    if trace.final_profile is not None:
        out["final_profile"] = profile_to_json(trace.final_profile)
    if binary:
        out["delta"] = trace.thresholds["delta"]
    else:
        out["thresholds"] = dict(trace.thresholds)
        out["move_increase_total"] = trace.bounds["move_variance_budget"]["observed"]
        out["addition_increase_total"] = trace.bounds["addition_variance_budget"]["observed"]

    state = replay(trace, game) if detail == "full" else None
    steps = []
    for k, potential in enumerate(trace.potentials):
        entry = {"step": k, "cost" if binary else "variance_sum": potential}
        if k > 0:
            entry["acting_player"] = trace.order[k - 1] + 1
            entry["chosen_action"] = trace.chosen_actions[k - 1] + 1
        if state is not None:
            if binary:
                if k > 0:
                    entry["step_coefficient"] = trace.coefficients[k - 1]
                entry["relevant_set"] = sorted(i + 1 for i in state.relevant_sets[k])
            else:
                if k > 0:
                    entry["aggregate_coefficients"] = [float(x) for x in trace.coefficients[k - 1]]
                entry["relevant_sets"] = [sorted(j + 1 for j in s) for s in state.relevant_sets[k]]
                entry["set_means"] = [float(x) for x in state.means[k]]
                entry["set_variances"] = [float(x) for x in state.variances[k]]
                entry["payoffs"] = [[float(x) for x in row] for row in state.payoffs[k]]
            entry["profile"] = profile_to_json(state.profiles[k])
        steps.append(entry)
    out["steps"] = steps
    if state is not None:
        if trace.input_profile is not None:
            out["input_profile"] = profile_to_json(trace.input_profile)
        out["wsne_profile"] = profile_to_json(trace.wsne_profile)
    return out

"""Experiment orchestration: check, solve, purify, optionally reduce, report.

A run takes one game (from a file) or an ensemble (from a generator
spec), pushes each instance through validation, the mixed solver, and
the purifier, and emits one record per instance plus aggregate
quantiles.  A record's final regret is the one purification stage 3
evaluated and asserted against its bound (trace.bounds["final_regret"]);
the tests' payoff_matrix_oracle and the benchmark's check.py recompute
it independently.  Records carry no wall-clock data, so identical seeds
give byte-identical reports.

Exit codes: 0 all clean, 10 a Lipschitz witness was found (a successful
outcome; the instance is answered, just not by an equilibrium), 20 the
solver missed its target, 30 a proof bound was breached, 1 validation
or input failure.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from ..errors import BoundBreach, LippolyError, PreconditionViolation, UsageError
from ..game import (
    LipschitzViolation,
    RangeViolation,
    _choice,
    _integer,
    _number,
    canonical_bytes,
    check_game,
    game_digest,
    load_game,
)
from ..game import regret_report  # noqa: F401 (not called; perfbench/spans.py wraps it here)
from ..population import reduce_and_solve
from ..purify import MODES, TRACE_DETAILS, default_target_epsilon, purify, trace_to_json
from ..purify.common import replication, resolve_mode
from ..solver import SolverConfig, solve_mixed
from .generator import generate

# Trace detail levels of a record; "off" leaves the trace out.
TRACE_CHOICES = TRACE_DETAILS + ("off",)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_WITNESS = 10
EXIT_NOT_CONVERGED = 20
EXIT_BOUND_BREACH = 30
# Record outcomes in order of precedence, each with the exit code it gives a run.
OUTCOME_EXIT_CODES = {
    "bound_breach": EXIT_BOUND_BREACH,
    "invalid": EXIT_INVALID,
    "not_converged": EXIT_NOT_CONVERGED,
    "witness": EXIT_WITNESS,
    "ok": EXIT_OK,
}


@dataclass(frozen=True)
class InstanceRecord:
    """One instance's outcome; to_json() drops the unused branches."""

    index: int
    game_digest: str
    n: int
    m: int
    lam: float
    mode: str
    outcome: str
    family: str | None = None
    seed: int | None = None
    witness: dict | None = None
    solver: dict | None = None
    purifier: dict | None = None
    reduction: dict | None = None
    error: str | None = None

    def to_json(self):
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                out[field.name] = value
        return out


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple
    aggregates: dict
    exit_code: int

    def to_json(self):
        return {
            "aggregates": self.aggregates,
            "exit_code": self.exit_code,
            "records": [r.to_json() for r in self.records],
        }


def witness_to_json(witness):
    return {
        "player": witness.player + 1,
        "profile_a": [int(a) + 1 for a in witness.profile_a.actions],
        "profile_b": [int(a) + 1 for a in witness.profile_b.actions],
        "observed_gap": float(witness.observed_gap),
        "allowed_gap": float(witness.allowed_gap),
    }


def run_instance(
    game,
    *,
    eps=None,
    mode="auto",
    seed=0,
    L=None,
    trace_detail="off",
    index=0,
    family=None,
):
    """Push one game through check, solve, purify, and optional reduce."""
    eps, L = _check_options(eps, mode, L, trace_detail)
    base = dict(
        index=index,
        game_digest=game_digest(game),
        n=game.n,
        m=game.m,
        lam=game.lam,
        mode=mode,
        family=family,
        seed=seed,
    )

    checked = check_game(game)
    if isinstance(checked, LipschitzViolation):
        # The two-sided contract is answered; no solve is attempted.
        return InstanceRecord(outcome="witness", witness=witness_to_json(checked.witness), **base)
    if isinstance(checked, RangeViolation):
        return InstanceRecord(
            outcome="invalid",
            error=f"payoff range violation at player {checked.player + 1}, "
            f"action {checked.action + 1} ({checked.direction})",
            **base,
        )

    resolve_mode(game, mode)  # a binary mode on m != 2 is refused before the solve
    target = eps if eps is not None else default_target_epsilon(game, mode)
    result = solve_mixed(game, SolverConfig(target_epsilon=target, seed=seed))
    solver = {
        "target_epsilon": target,
        "achieved_max_regret": result.achieved_max_regret,
        "iterations_used": result.iterations_used,
        "converged": bool(result.converged),
    }

    reduction = None
    outcome = "ok" if result.converged else "not_converged"
    try:
        final, trace = purify(game, result.profile, mode=mode)
    except (PreconditionViolation, BoundBreach) as exc:
        return InstanceRecord(
            outcome=_error_outcome(exc), solver=solver, error=str(exc), **base
        )

    final_regret = trace.final_max_regret
    bound = trace.bounds["final_regret"]["allowed"]
    purifier = {
        "pipeline": trace.pipeline,
        "final_regret": final_regret,
        "final_bound": bound,
        "bound_ratio": final_regret / bound,
        "terminal_potential": trace.potentials[-1],
        "switched_count": len(trace.switched_players),
        "precondition_warning": bool(trace.precondition_warning),
        "final_profile": [int(a) + 1 for a in final.actions],
        "bounds": {name: dict(entry) for name, entry in trace.bounds.items()},
    }
    if trace_detail != "off":
        purifier["trace"] = trace_to_json(trace, game, detail=trace_detail)

    if L is not None:
        try:
            _, reduction = reduce_and_solve(game, epsilon=target, L=L, seed=seed)
        except LippolyError as exc:
            reduction = {"error": str(exc)}
            outcome = _error_outcome(exc)

    return InstanceRecord(
        outcome=outcome,
        solver=solver,
        purifier=purifier,
        reduction=reduction,
        **base,
    )


def run_pipeline(
    game_path=None,
    spec=None,
    trials=1,
    *,
    eps=None,
    mode="auto",
    seed=0,
    L=None,
    trace_detail="off",
):
    """Run the pipeline on a game file or a generated ensemble.

    Exactly one of game_path and spec must be given; spec runs `trials`
    instances with consecutive seeds, and a game file runs once (trials
    must be 1).  Returns an ExperimentReport whose exit_code follows the
    documented contract.
    """
    if (game_path is None) == (spec is None):
        raise UsageError("provide exactly one of game_path and spec")
    if game_path is not None and trials != 1:
        raise UsageError(f"a game file runs once: trials must be 1, got {trials!r}")

    eps, L = _check_options(eps, mode, L, trace_detail)
    options = dict(eps=eps, mode=mode, L=L, trace_detail=trace_detail)
    records = []
    if game_path is not None:
        records.append(run_instance(load_game(game_path), seed=seed, **options))
    else:
        for t in range(_integer(trials, "trials", least=1)):
            inst = dataclasses.replace(spec, seed=spec.seed + t)
            records.append(
                run_instance(generate(inst), seed=inst.seed, index=t, family=inst.family, **options)
            )

    return ExperimentReport(
        records=tuple(records),
        aggregates=_aggregates(records),
        exit_code=_exit_code(records),
    )


def _check_options(eps, mode, L, trace_detail):
    """Check the run options before any work; eps and L come back normalized."""
    _choice(mode, "mode", MODES)
    _choice(trace_detail, "trace_detail", TRACE_CHOICES)
    eps = None if eps is None else _number(eps, "eps", "level")
    return eps, None if L is None else replication(L)


def _error_outcome(exc):
    """Record outcome of a stage that raised: input level missed, bound breached, or invalid."""
    if isinstance(exc, PreconditionViolation):
        return "not_converged"
    if isinstance(exc, BoundBreach):
        return "bound_breach"
    return "invalid"


def error_exit_code(exc):
    """Exit code of a run stopped by `exc`: the one a record with its outcome gives."""
    return OUTCOME_EXIT_CODES[_error_outcome(exc)]


def _quantiles(values):
    arr = np.asarray(values, dtype=np.float64)
    qs = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "min": float(qs[0]),
        "p25": float(qs[1]),
        "median": float(qs[2]),
        "p75": float(qs[3]),
        "max": float(qs[4]),
    }


def _aggregates(records):
    outcomes = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    agg = {"instances": len(records), "outcomes": outcomes}
    regrets = [r.purifier["final_regret"] for r in records if r.purifier is not None]
    ratios = [r.purifier["bound_ratio"] for r in records if r.purifier is not None]
    if regrets:
        agg["final_regret"] = _quantiles(regrets)
        agg["bound_ratio"] = _quantiles(ratios)
    return agg


def _exit_code(records):
    outcomes = {r.outcome for r in records}
    return next(
        (code for outcome, code in OUTCOME_EXIT_CODES.items() if outcome in outcomes), EXIT_OK
    )


def write_report(report, out_dir):
    """records.jsonl (one canonical line per instance) plus report.json."""
    os.makedirs(out_dir, exist_ok=True)
    lines = b"\n".join(canonical_bytes(r.to_json()) for r in report.records)
    with open(os.path.join(out_dir, "records.jsonl"), "wb") as fh:
        fh.write(lines + b"\n")
    summary = {"aggregates": report.aggregates, "exit_code": report.exit_code}
    with open(os.path.join(out_dir, "report.json"), "wb") as fh:
        fh.write(canonical_bytes(summary) + b"\n")

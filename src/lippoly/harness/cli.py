"""Command line front end: one binary, one subcommand per pipeline stage.

All structured output is canonical JSON (sorted keys, no whitespace), so
identical inputs and seeds reproduce identical bytes.  Exit codes follow
the pipeline contract: 0 clean, 10 Lipschitz witness found, 20 solver
missed its target, 30 proof bound breached, 1 validation or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import BoundBreach, LippolyError, UsageError
from ..game import (
    LipschitzViolation,
    MixedProfile,
    PureProfile,
    RangeViolation,
    canonical_bytes,
    check_game,
    game_digest,
    game_to_json,
    load_game,
    load_json,
    profile_from_json,
    profile_to_json,
)
from ..population import reduce_and_solve
from ..purify import MODES, TRACE_DETAILS, default_target_epsilon, purify, trace_to_json
from ..solver import STEP_SCHEDULES, SolverConfig, solve_mixed
from .baseline import sample_baseline
from .generator import FAMILIES, GeneratorSpec, generate
from .pipeline import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_WITNESS,
    error_exit_code,
    run_pipeline,
    witness_to_json,
    write_report,
)

# Trace detail levels for --trace; "off" leaves the trace out.
TRACE_CHOICES = TRACE_DETAILS + ("off",)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LippolyError as exc:
        if isinstance(exc, BoundBreach):
            _emit({"error": "BoundBreach", "message": str(exc), "bound": exc.bound_name}, None)
        else:
            print(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                file=sys.stderr,
            )
        return error_exit_code(exc)


def _emit(doc, out):
    data = canonical_bytes(doc) + b"\n"
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _load_mixed(path, game):
    data = load_json(path)
    if isinstance(data, dict):
        # A `lippoly solve` document holds its profile under "profile".
        data = data.get("profile", data)
    profile = profile_from_json(data)
    if isinstance(profile, PureProfile):
        profile = MixedProfile.from_pure(profile, game.m)
    profile.validate_for(game)
    return profile


def _generator_spec(args):
    return GeneratorSpec(
        n=args.n,
        m=args.m,
        lam=args.lam,
        family=args.family,
        seed=args.seed,
        density=args.density,
        weight=args.weight,
    )


def cmd_generate(args):
    game = generate(_generator_spec(args))
    _emit(game_to_json(game), args.out)
    return EXIT_OK


def cmd_check(args):
    game = load_game(args.game)
    outcome = check_game(game)
    if isinstance(outcome, LipschitzViolation):
        _emit(
            {
                "outcome": "lipschitz_violation",
                "witness": witness_to_json(outcome.witness),
                "digest": game_digest(game),
            },
            args.out,
        )
        return EXIT_WITNESS
    if isinstance(outcome, RangeViolation):
        _emit(
            {
                "outcome": "range_violation",
                "player": outcome.player + 1,
                "action": outcome.action + 1,
                "direction": outcome.direction,
                "digest": game_digest(game),
            },
            args.out,
        )
        return 1
    _emit({"outcome": "valid", "lambda": game.lam, "digest": game_digest(game)}, args.out)
    return EXIT_OK


def cmd_solve(args):
    game = load_game(args.game)
    target = args.eps if args.eps is not None else default_target_epsilon(game)
    config = SolverConfig(
        target_epsilon=target,
        max_iterations=args.max_iterations,
        step_schedule=args.schedule,
        seed=args.seed,
        uniform_grid_k=args.grid_k,
    )
    result = solve_mixed(game, config)
    doc = {
        "digest": game_digest(game),
        "target_epsilon": target,
        "achieved_max_regret": result.achieved_max_regret,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "phase": result.phase,
        "profile": profile_to_json(result.profile),
    }
    _emit(doc, args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_purify(args):
    game = load_game(args.game)
    profile = _load_mixed(args.profile, game)
    final, trace = purify(game, profile, mode=args.mode)
    doc = {
        "digest": game_digest(game),
        "final_profile": profile_to_json(final),
        "final_max_regret": trace.final_max_regret,
        "bounds": {name: dict(entry) for name, entry in trace.bounds.items()},
        "precondition_warning": trace.precondition_warning,
    }
    if args.trace != "off":
        doc["trace"] = trace_to_json(trace, game, detail=args.trace)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_reduce(args):
    game = load_game(args.game)
    eps = args.eps if args.eps is not None else default_target_epsilon(game)
    profile, report = reduce_and_solve(game, epsilon=eps, L=args.L, seed=args.seed)
    doc = {"digest": game_digest(game), "profile": profile_to_json(profile), "report": report}
    _emit(doc, args.out)
    return EXIT_OK if report["solver_converged"] else EXIT_NOT_CONVERGED


def cmd_baseline(args):
    game = load_game(args.game)
    if args.profile is not None:
        mixed = _load_mixed(args.profile, game)
        solver = None
    else:
        target = args.eps if args.eps is not None else default_target_epsilon(game)
        result = solve_mixed(game, SolverConfig(target_epsilon=target, seed=args.seed))
        mixed = result.profile
        solver = {
            "target_epsilon": target,
            "achieved_max_regret": result.achieved_max_regret,
            "converged": result.converged,
        }
    report = sample_baseline(game, mixed, args.trials, seed=args.seed)
    doc = {"digest": game_digest(game), "baseline": report.to_json()}
    if solver is not None:
        doc["solver"] = solver
    _emit(doc, args.out)
    return EXIT_OK


def cmd_pipeline(args):
    spec = None
    if args.game is None:
        if args.n is None or args.m is None or args.lam is None:
            raise UsageError("pipeline needs either --game or all of --n, --m, --lambda")
        spec = _generator_spec(args)
    report = run_pipeline(
        game_path=args.game,
        spec=spec,
        trials=args.trials,
        eps=args.eps,
        mode=args.mode,
        seed=args.seed,
        L=args.L,
        trace_detail=args.trace,
    )
    if args.out:
        write_report(report, args.out)
    else:
        _emit(report.to_json(), None)
    return report.exit_code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lippoly",
        description="Lipschitz polymatrix games: generate, check, solve, purify, reduce.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("generate", help="emit a random game as JSON")
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--m", type=int, default=2, help="actions per player")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="Lipschitz parameter")
    p.add_argument("--family", choices=FAMILIES, default="uniform_coefficients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5, help="sparse family keep probability")
    p.add_argument("--weight", type=float, default=0.5, help="coordination family mix weight")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="validate a game or produce a witness")
    p.add_argument("game")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="search for a low-regret mixed profile")
    p.add_argument("game")
    p.add_argument("--eps", type=float, default=None, help="target regret (default: pipeline input level)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", choices=STEP_SCHEDULES, default=SolverConfig.step_schedule)
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--grid-k", type=int, default=None, help="route through the exhaustive 1/k-uniform scan")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("purify", help="round a mixed profile to a pure one with a bound")
    p.add_argument("game")
    p.add_argument("profile", help="profile JSON (bare, or a solve output with a profile field)")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--trace", choices=TRACE_CHOICES, default="off")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("reduce", help="population round trip: lift, solve, purify, aggregate")
    p.add_argument("game")
    p.add_argument("--L", type=int, required=True, help="replicas per player")
    p.add_argument("--eps", type=float, default=None, help="epsilon for the scale comparison")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("baseline", help="sampling baseline against the existence threshold")
    p.add_argument("game")
    p.add_argument("--profile", default=None, help="mixed profile JSON (default: solve first)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("pipeline", help="check, solve, purify, report; file or ensemble")
    p.add_argument("--game", default=None, help="game JSON path (alternative to --n/--m/--lambda)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--family", choices=FAMILIES, default="uniform_coefficients")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--weight", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--trace", choices=TRACE_CHOICES, default="off")
    p.add_argument("--out", default=None, help="directory for records.jsonl and report.json")
    p.set_defaults(func=cmd_pipeline)

    return parser


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: one binary, one subcommand per pipeline stage.

All structured output is canonical JSON (sorted keys, no whitespace), so
identical inputs and seeds reproduce identical bytes.  Exit codes follow
the pipeline contract: 0 clean, 10 Lipschitz witness found, 20 solver
missed its target, 30 proof bound breached, 1 validation or usage error.
"""

from __future__ import annotations

import argparse
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
from ..purify import MODES, default_target_epsilon, purify, trace_to_json
from ..solver import STEP_SCHEDULES, SolverConfig, solve_mixed
from .baseline import sample_baseline
from .generator import FAMILIES, GeneratorSpec, generate
from .pipeline import (
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_WITNESS,
    TRACE_CHOICES,
    error_exit_code,
    run_pipeline,
    witness_to_json,
    write_report,
)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.func in (cmd_generate, cmd_pipeline):
            # They read no game and write their own documents.
            return args.func(args)
        game = load_game(args.game)
        if "eps" in args and args.eps is None:
            args.eps = default_target_epsilon(game)
        doc, code = args.func(args, game)
        doc["digest"] = game_digest(game)
        _emit(doc, args.out)
        return code
    except LippolyError as exc:
        if isinstance(exc, BoundBreach):
            _emit({"error": "BoundBreach", "message": str(exc), "bound": exc.bound_name}, None)
        else:
            error = {"error": type(exc).__name__, "message": str(exc)}
            print(canonical_bytes(error).decode("utf-8"), file=sys.stderr)
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
        profile.check_actions(game.m, 1)
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


# The game commands: main reads the game and sets a missing --eps to its
# input level; each returns its document and exit code, and main adds the
# game's digest and writes the document.
def cmd_check(args, game):
    outcome = check_game(game)
    if isinstance(outcome, LipschitzViolation):
        doc = {"outcome": "lipschitz_violation", "witness": witness_to_json(outcome.witness)}
        return doc, EXIT_WITNESS
    if isinstance(outcome, RangeViolation):
        doc = {
            "outcome": "range_violation",
            "player": outcome.player + 1,
            "action": outcome.action + 1,
            "direction": outcome.direction,
        }
        return doc, EXIT_INVALID
    return {"outcome": "valid", "lambda": game.lam}, EXIT_OK


def cmd_solve(args, game):
    config = SolverConfig(
        target_epsilon=args.eps,
        max_iterations=args.max_iterations,
        step_schedule=args.schedule,
        seed=args.seed,
        uniform_grid_k=args.grid_k,
    )
    result = solve_mixed(game, config)
    doc = {
        "target_epsilon": args.eps,
        "achieved_max_regret": result.achieved_max_regret,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "phase": result.phase,
        "profile": profile_to_json(result.profile),
    }
    return doc, EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_purify(args, game):
    profile = _load_mixed(args.profile, game)
    final, trace = purify(game, profile, mode=args.mode)
    doc = {
        "final_profile": profile_to_json(final),
        "final_max_regret": trace.final_max_regret,
        "bounds": {name: dict(entry) for name, entry in trace.bounds.items()},
        "precondition_warning": trace.precondition_warning,
    }
    if args.trace != "off":
        doc["trace"] = trace_to_json(trace, game, detail=args.trace)
    return doc, EXIT_OK


def cmd_reduce(args, game):
    profile, report = reduce_and_solve(game, epsilon=args.eps, L=args.L, seed=args.seed)
    doc = {"profile": profile_to_json(profile), "report": report}
    return doc, EXIT_OK if report["solver_converged"] else EXIT_NOT_CONVERGED


def cmd_baseline(args, game):
    doc = {}
    if args.profile is not None:
        mixed = _load_mixed(args.profile, game)
    else:
        result = solve_mixed(game, SolverConfig(target_epsilon=args.eps, seed=args.seed))
        mixed = result.profile
        doc["solver"] = {
            "target_epsilon": args.eps,
            "achieved_max_regret": result.achieved_max_regret,
            "converged": result.converged,
        }
    doc["baseline"] = sample_baseline(game, mixed, args.trials, seed=args.seed).to_json()
    return doc, EXIT_OK


def cmd_pipeline(args):
    sizes = (args.n, args.m, args.lam)
    spec = None
    if args.game is None:
        if None in sizes:
            raise UsageError("pipeline needs either --game or all of --n, --m, --lambda")
        spec = _generator_spec(args)
    elif sizes != (None, None, None):
        raise UsageError("pipeline --game takes none of --n, --m, --lambda")
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


# The options more than one command takes, each declared once; a command
# may give one its own help.
_SHARED_OPTIONS = {
    "--out": {"default": None},
    "--seed": {"type": int, "default": 0},
    "--eps": {"type": float, "default": None},
    "--mode": {"choices": MODES, "default": "auto"},
    "--trace": {"choices": TRACE_CHOICES, "default": "off"},
    "--family": {"choices": FAMILIES, "default": "uniform_coefficients"},
    "--density": {"type": float, "default": 0.5, "help": "sparse family keep probability"},
    "--weight": {"type": float, "default": 0.5, "help": "coordination family mix weight"},
}


def _add_shared(parser, *flags, **helps):
    """Add the shared options `flags` in order; `helps` maps a dest to its own help."""
    for flag in flags:
        own = {"help": helps[flag.lstrip("-")]} if flag.lstrip("-") in helps else {}
        parser.add_argument(flag, **_SHARED_OPTIONS[flag], **own)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lippoly",
        description="Lipschitz polymatrix games: generate, check, solve, purify, reduce.",
    )
    sub = parser.add_subparsers(required=True)

    def game_command(name, func, help):
        """A subcommand whose first argument is the game file main reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("game")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("generate", help="emit a random game as JSON")
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--m", type=int, default=2, help="actions per player")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="Lipschitz parameter")
    _add_shared(p, "--family", "--seed", "--density", "--weight", "--out")
    p.set_defaults(func=cmd_generate)

    p = game_command("check", cmd_check, "validate a game or produce a witness")
    _add_shared(p, "--out")

    p = game_command("solve", cmd_solve, "search for a low-regret mixed profile")
    _add_shared(p, "--eps", "--seed", eps="target regret (default: pipeline input level)")
    p.add_argument("--schedule", choices=STEP_SCHEDULES, default=SolverConfig.step_schedule)
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--grid-k", type=int, default=None, help="route through the exhaustive 1/k-uniform scan")
    _add_shared(p, "--out")

    p = game_command("purify", cmd_purify, "round a mixed profile to a pure one with a bound")
    p.add_argument("profile", help="profile JSON (bare, or a solve output with a profile field)")
    _add_shared(p, "--mode", "--trace", "--out")

    p = game_command("reduce", cmd_reduce, "population round trip: lift, solve, purify, aggregate")
    p.add_argument("--L", type=int, required=True, help="replicas per player")
    _add_shared(p, "--eps", "--seed", "--out", eps="epsilon for the scale comparison")

    p = game_command("baseline", cmd_baseline, "sampling baseline against the existence threshold")
    p.add_argument("--profile", default=None, help="mixed profile JSON (default: solve first)")
    p.add_argument("--trials", type=int, default=1000)
    _add_shared(p, "--eps", "--seed", "--out")

    p = sub.add_parser("pipeline", help="check, solve, purify, report; file or ensemble")
    p.add_argument("--game", default=None, help="game JSON path (alternative to --n/--m/--lambda)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_shared(p, "--family", "--density", "--weight")
    p.add_argument("--trials", type=int, default=1)
    _add_shared(p, "--eps", "--seed", "--mode")
    p.add_argument("--L", type=int, default=None)
    _add_shared(p, "--trace", "--out", out="directory for records.jsonl and report.json")
    p.set_defaults(func=cmd_pipeline)

    return parser


if __name__ == "__main__":
    sys.exit(main())

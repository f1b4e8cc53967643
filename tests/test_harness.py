"""Generator, baseline sampler, pipeline records, and the CLI."""

import json
import math
import subprocess

import numpy as np
import pytest

from helpers import (
    matching_pennies_game,
    payoff_oracle,
    random_game,
    random_mixed,
    reference_save_game,
    zero_game,
)
from lippoly import (
    BinaryOnlyError,
    BoundBreach,
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    SolverConfig,
    UsageError,
    Valid,
    brute_force_kuniform,
    canonical_bytes,
    check_game,
    game_digest,
    game_to_json,
    regret_report,
    save_game,
)
from lippoly import population
from lippoly.harness.baseline import sample_baseline
from lippoly.harness.cli import main
from lippoly.harness.generator import FAMILIES, GeneratorSpec, generate
from lippoly.harness.pipeline import (
    EXIT_BOUND_BREACH,
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_WITNESS,
    InstanceRecord,
    _exit_code,
    run_instance,
    run_pipeline,
    write_report,
)

# ------------------------------------------------------------- generator


def spec_kwargs(family):
    if family == "sparse":
        return {"density": 0.4}
    if family == "coordination_mix":
        return {"weight": 0.6}
    return {}


def test_generated_games_are_always_valid():
    lams = (1.0, 0.25, 0.05)
    for family in FAMILIES:
        for n, m in ((2, 2), (5, 3), (8, 2), (3, 5)):
            for seed in range(25):
                spec = GeneratorSpec(
                    n=n, m=m, lam=lams[seed % 3], seed=seed, family=family,
                    **spec_kwargs(family),
                )
                game = generate(spec)
                assert isinstance(check_game(game), Valid), (family, n, m, seed)
                assert game.beta.min() >= 0.0
                assert game.beta.max() <= spec.lam + 1e-15
                idx = np.arange(n)
                assert not game.beta[idx, idx].any()


def test_generator_is_deterministic_in_the_spec():
    spec = GeneratorSpec(n=6, m=3, lam=0.3, seed=77)
    a = canonical_bytes(game_to_json(generate(spec)))
    b = canonical_bytes(game_to_json(generate(spec)))
    assert a == b
    c = canonical_bytes(game_to_json(generate(GeneratorSpec(n=6, m=3, lam=0.3, seed=78))))
    assert a != c


@pytest.mark.parametrize("family", FAMILIES)
def test_save_game_writes_what_generate_writes(tmp_path, family):
    # The bytes of the streaming writer save_game replaced, and of
    # `lippoly generate --out`.
    spec = GeneratorSpec(n=9, m=3, lam=0.2, family=family, seed=5, density=0.5, weight=0.5)
    save_game(generate(spec), str(tmp_path / "saved.json"))
    reference_save_game(generate(spec), str(tmp_path / "reference.json"))
    argv = ["generate", "--n", "9", "--m", "3", "--lambda", "0.2", "--family", family,
            "--seed", "5", "--out", str(tmp_path / "generated.json")]
    assert run_cli(*argv) == EXIT_OK
    saved = (tmp_path / "saved.json").read_bytes()
    assert saved == (tmp_path / "reference.json").read_bytes()
    assert saved == (tmp_path / "generated.json").read_bytes()


def test_sparse_density_edges():
    empty = generate(GeneratorSpec(n=4, m=2, lam=0.5, family="sparse", density=0.0, seed=1))
    assert not empty.beta.any()
    assert isinstance(check_game(empty), Valid)
    # Keeping every block reproduces the uniform family bit for bit: the
    # coefficient draw happens before the keep draw on the same stream.
    dense = generate(GeneratorSpec(n=4, m=2, lam=0.5, family="sparse", density=1.0, seed=9))
    uniform = generate(GeneratorSpec(n=4, m=2, lam=0.5, seed=9))
    assert np.array_equal(dense.beta, uniform.beta)


def test_coordination_weight_one_is_pure_identity_blocks():
    game = generate(
        GeneratorSpec(n=3, m=2, lam=0.5, family="coordination_mix", weight=1.0, seed=3)
    )
    eye = 0.5 * np.eye(2)
    for i in range(3):
        for ip in range(3):
            expect = np.zeros((2, 2)) if i == ip else eye
            assert np.array_equal(game.beta[i, ip], expect)


def test_generator_spec_validation():
    with pytest.raises(UsageError):
        GeneratorSpec(n=1, m=2, lam=0.5)
    with pytest.raises(UsageError):
        GeneratorSpec(n=3, m=2, lam=0.0)
    with pytest.raises(UsageError):
        GeneratorSpec(n=3, m=2, lam=0.5, family="adversarial")
    with pytest.raises(UsageError):
        GeneratorSpec(n=3, m=2, lam=0.5, family="sparse")
    with pytest.raises(UsageError):
        GeneratorSpec(n=3, m=2, lam=0.5, family="coordination_mix", weight=1.5)
    # A density or weight is a fraction even for a family that ignores it.
    with pytest.raises(UsageError, match=r"density must be in \[0, 1\], got 1.5"):
        GeneratorSpec(n=3, m=2, lam=0.5, density=1.5)


# Python-API counts, seeds and levels of the wrong type: each is refused
# with UsageError naming the argument, not a TypeError from deep inside
# and not a silent coercion (True as k = 1, a float seed until the
# jittered restart uses it).
BAD_API_ARGUMENTS = {
    "spec n float": lambda: GeneratorSpec(n=3.0, m=2, lam=0.3),
    "spec m bool": lambda: GeneratorSpec(n=3, m=True, lam=0.3),
    "spec seed float": lambda: GeneratorSpec(n=3, m=2, lam=0.3, seed=0.5),
    "spec lam string": lambda: GeneratorSpec(n=3, m=2, lam="0.3"),
    "spec density string": lambda: GeneratorSpec(
        n=3, m=2, lam=0.3, family="sparse", density="0.5"
    ),
    "config max_iterations float": lambda: SolverConfig(target_epsilon=0.1, max_iterations=2.5),
    "config target_epsilon string": lambda: SolverConfig(target_epsilon="x"),
    "config uniform_grid_k float": lambda: SolverConfig(target_epsilon=0.1, uniform_grid_k=2.5),
    "config seed float": lambda: SolverConfig(target_epsilon=0.1, seed=0.5),
    "grid k float": lambda: brute_force_kuniform(zero_game(n=2), 2.5),
    "grid k bool": lambda: brute_force_kuniform(zero_game(n=2), True),
    "baseline trials float": lambda: sample_baseline(
        zero_game(n=2), random_mixed(2, 2, 0), trials=2.5
    ),
    "baseline seed float": lambda: sample_baseline(
        zero_game(n=2), random_mixed(2, 2, 0), trials=3, seed=0.5
    ),
    "pipeline trials float": lambda: run_pipeline(
        spec=GeneratorSpec(n=3, m=2, lam=0.3), trials=2.5
    ),
    "game lam bool": lambda: PolymatrixGame(n=2, m=2, beta=np.zeros((2, 2, 2, 2)), lam=True),
    "game lam string": lambda: PolymatrixGame(n=2, m=2, beta=np.zeros((2, 2, 2, 2)), lam="0.5"),
    "game n string": lambda: PolymatrixGame(n="2", m=2, beta=np.zeros((2, 2, 2, 2)), lam=0.5),
    "game n float": lambda: PolymatrixGame(n=2.0, m=2, beta=np.zeros((2, 2, 2, 2)), lam=0.5),
    "reduce epsilon string": lambda: population.reduce_and_solve(zero_game(n=2), "0.3", 4),
    "reduce epsilon bool": lambda: population.reduce_and_solve(zero_game(n=2), True, 4),
    "instance eps string": lambda: run_instance(zero_game(n=2), eps="0.1"),
    "instance eps bool": lambda: run_instance(zero_game(n=2), eps=True),
    "pipeline eps string": lambda: run_pipeline(
        spec=GeneratorSpec(n=3, m=2, lam=0.3), eps="0.1"
    ),
    "pipeline L float": lambda: run_pipeline(spec=GeneratorSpec(n=3, m=2, lam=0.3), L=2.5),
}


@pytest.mark.parametrize("case", sorted(BAD_API_ARGUMENTS))
def test_api_arguments_of_the_wrong_type_raise_usage_errors(case):
    with pytest.raises(UsageError, match="must be an? (integer|number)"):
        BAD_API_ARGUMENTS[case]()


def test_api_counts_accept_numpy_integers():
    spec = GeneratorSpec(n=np.int64(3), m=np.int32(2), lam=0.3, seed=np.int64(4))
    assert (spec.n, spec.m, spec.seed) == (3, 2, 4) and type(spec.seed) is int
    report = sample_baseline(zero_game(n=2), random_mixed(2, 2, 0), np.int64(3), seed=np.int64(5))
    assert (report.trials, report.seed) == (3, 5)


# -------------------------------------------------------------- baseline


def test_baseline_pure_input_is_a_fixed_point():
    game = random_game(5, 3, 0.2, seed=13)
    pure = PureProfile([0, 2, 1, 0, 1])
    mixed = MixedProfile.from_pure(pure, 3)
    report = sample_baseline(game, mixed, trials=40, seed=4)
    # Every realization of a deterministic profile is that profile.
    assert report.min_regret == report.max_regret == report.mean_regret
    assert np.array_equal(report.best_profile.actions, pure.actions)
    assert abs(report.input_regret - report.min_regret) <= 1e-12
    assert report.threshold == pytest.approx(
        0.2 * math.sqrt(8.0 * 5 * math.log(2.0 * 3 * 5)), rel=1e-15
    )


def test_baseline_zero_game():
    game = zero_game(n=4, m=2)
    mixed = MixedProfile(np.full((4, 2), 0.5))
    report = sample_baseline(game, mixed, trials=30, seed=0)
    assert report.min_regret == 0.0 and report.max_regret == 0.0
    assert report.fraction_within_threshold == 1.0


def test_baseline_matching_pennies_every_draw_regrets_one():
    game = matching_pennies_game()
    mixed = MixedProfile(np.full((2, 2), 0.5))
    report = sample_baseline(game, mixed, trials=200, seed=11)
    # One of the two players always wishes to deviate at a pure profile.
    assert set(report.regrets) == {1.0}
    assert report.fraction_within_threshold == 1.0
    again = sample_baseline(game, mixed, trials=200, seed=11)
    assert report.regrets == again.regrets
    with pytest.raises(UsageError):
        sample_baseline(game, mixed, trials=0)


def test_baseline_min_regret_matches_the_direct_summation_oracle():
    for seed in range(4):
        n, m = 6, 2 + seed % 2
        game = random_game(n, m, 0.15, seed=30 + seed)
        report = sample_baseline(game, random_mixed(n, m, seed=40 + seed), trials=64, seed=seed)
        actions = report.best_profile.actions
        want = 0.0
        for i in range(n):
            values = [payoff_oracle(game, i, j, actions) for j in range(m)]
            want = max(want, max(values) - values[actions[i]])
        assert abs(report.min_regret - want) <= 1e-12
        assert report.min_regret == min(report.regrets)


# ----------------------------------------------------- instance records


def planted_lipschitz_game(n=4, lam=0.1):
    game = random_game(n, 2, lam, seed=2)
    beta = game.beta.copy()
    beta[0, 1, 0, 1] += 2.0 * lam
    return PolymatrixGame(n=n, m=2, beta=beta, lam=lam)


def range_violation_game():
    beta = np.full((3, 3, 2, 2), 0.75)
    idx = np.arange(3)
    beta[idx, idx] = 0.0
    return PolymatrixGame(n=3, m=2, beta=beta, lam=0.5)


def test_run_instance_ok():
    game = random_game(8, 2, 1.0 / 8, seed=5)
    rec = run_instance(game, seed=5)
    assert rec.outcome == "ok"
    assert rec.game_digest == game_digest(game)
    assert rec.solver["converged"]
    p = rec.purifier
    assert p["pipeline"] == "binary"
    assert p["final_regret"] <= p["final_bound"] + 1e-12
    assert all(entry["ok"] for entry in p["bounds"].values())
    replayed = PureProfile([a - 1 for a in p["final_profile"]])
    fresh = regret_report(game, MixedProfile.from_pure(replayed, 2)).max_regret
    assert abs(fresh - p["final_regret"]) <= 1e-9
    doc = rec.to_json()
    assert "witness" not in doc and "error" not in doc and "reduction" not in doc


def test_run_instance_witness_short_circuits():
    rec = run_instance(planted_lipschitz_game())
    assert rec.outcome == "witness"
    assert rec.solver is None and rec.purifier is None
    w = rec.witness
    assert w["observed_gap"] > w["allowed_gap"]
    assert min(min(w["profile_a"]), min(w["profile_b"])) >= 1
    assert "solver" not in rec.to_json()


def test_run_instance_invalid_range():
    rec = run_instance(range_violation_game())
    assert rec.outcome == "invalid"
    assert "payoff range violation" in rec.error
    assert rec.solver is None


def test_run_instance_not_converged_still_purifies():
    # Every pure profile of this game leaves some player 0.03 behind, so
    # only a mixed profile comes near equilibrium and none reaches 1e-300.
    game = random_game(6, 2, 1.0 / 6, seed=6)
    rec = run_instance(game, eps=1e-300, seed=0)
    assert rec.outcome == "not_converged"
    assert not rec.solver["converged"]
    assert rec.purifier is not None


def test_run_instance_mode_override_and_trace():
    game = random_game(6, 2, 1.0 / 6, seed=3)
    rec = run_instance(game, mode="m_action", seed=3, trace_detail="potentials")
    assert rec.purifier["pipeline"] == "m_action"
    assert rec.purifier["trace"]["pipeline"] == "m_action"


def test_run_instance_reduction_branch():
    game = random_game(3, 2, 0.3, seed=9)
    rec = run_instance(game, seed=9, L=3)
    assert rec.reduction["L"] == 3
    assert rec.reduction["aggregate_base_regret"] <= rec.reduction["purified_regret"] + 1e-9
    capped = run_instance(game, seed=9, L=10**9)
    assert "error" in capped.reduction
    assert capped.outcome == "invalid"


def test_failed_lifted_purification_is_not_ok():
    # The base game's only equilibrium is fully mixed: the lifted solve
    # stops above the lifted input level and the lifted purify refuses.
    spec = GeneratorSpec(n=3, m=2, lam=0.3, seed=78)
    report = run_pipeline(spec=spec, seed=78, L=120)
    rec = report.records[0]
    assert "input regret" in rec.reduction["error"]
    assert rec.outcome == "not_converged"
    assert report.exit_code == EXIT_NOT_CONVERGED


def test_a_refused_purify_after_a_converged_solve_is_not_converged(tmp_path):
    # eps = 0.5 is far above the binary input level lam/8 = 0.0156: the
    # solve converges and purify refuses its profile.
    game = random_game(8, 2, 0.125, 0)
    rec = run_instance(game, eps=0.5)
    assert rec.outcome == "not_converged"
    assert rec.solver["converged"]
    assert rec.purifier is None and "exceeds twice the required level" in rec.error
    path = tmp_path / "game.json"
    save_game(game, str(path))
    assert run_pipeline(game_path=str(path), eps=0.5).exit_code == EXIT_NOT_CONVERGED


def test_a_bound_breach_in_purify_is_recorded(monkeypatch):
    def purify(*args, **kwargs):
        raise BoundBreach("final_regret", 1.0, 0.5)

    monkeypatch.setattr("lippoly.harness.pipeline.purify", purify)
    report = run_pipeline(spec=GeneratorSpec(n=4, m=2, lam=0.25, seed=0))
    rec = report.records[0]
    assert rec.outcome == "bound_breach"
    assert rec.solver["converged"] and rec.purifier is None
    assert rec.error.startswith("bound breach [final_regret]")
    assert report.exit_code == EXIT_BOUND_BREACH


def test_run_instance_refuses_a_binary_mode_before_the_solve(monkeypatch):
    def solve_mixed(*args, **kwargs):
        raise AssertionError("solve_mixed was called before the mode was checked")

    monkeypatch.setattr("lippoly.harness.pipeline.solve_mixed", solve_mixed)
    with pytest.raises(BinaryOnlyError, match="binary pipeline needs m = 2, got m = 3"):
        run_instance(random_game(4, 3, 0.25, seed=1), eps=0.1, mode="binary")


def test_exit_code_priority():
    def rec(outcome):
        return InstanceRecord(
            index=0, game_digest="x", n=2, m=2, lam=0.5, mode="auto", outcome=outcome
        )

    assert _exit_code([rec("ok")]) == EXIT_OK
    assert _exit_code([rec("ok"), rec("witness")]) == EXIT_WITNESS
    assert _exit_code([rec("witness"), rec("not_converged")]) == EXIT_NOT_CONVERGED
    assert _exit_code([rec("not_converged"), rec("invalid")]) == EXIT_INVALID
    assert _exit_code([rec("invalid"), rec("bound_breach")]) == EXIT_BOUND_BREACH


def test_run_pipeline_ensemble_and_reports(tmp_path):
    spec = GeneratorSpec(n=6, m=2, lam=1.0 / 6, seed=100)
    report = run_pipeline(spec=spec, trials=3)
    assert [r.index for r in report.records] == [0, 1, 2]
    assert [r.seed for r in report.records] == [100, 101, 102]
    assert all(r.family == "uniform_coefficients" for r in report.records)
    assert report.aggregates["instances"] == 3
    assert report.aggregates["outcomes"]["ok"] == 3
    assert "median" in report.aggregates["final_regret"]
    assert report.exit_code == EXIT_OK

    a, b = tmp_path / "a", tmp_path / "b"
    write_report(report, str(a))
    write_report(run_pipeline(spec=spec, trials=3), str(b))
    assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    lines = (a / "records.jsonl").read_bytes().splitlines()
    assert len(lines) == 3 and all(json.loads(line) for line in lines)


def test_run_pipeline_argument_contract(tmp_path):
    spec = GeneratorSpec(n=4, m=2, lam=0.25, seed=0)
    with pytest.raises(UsageError):
        run_pipeline()
    with pytest.raises(UsageError):
        run_pipeline(game_path="game.json", spec=spec)
    with pytest.raises(UsageError):
        run_pipeline(spec=spec, trials=0)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"L": 0}, "replication L must be >= 1, got 0"),
        ({"mode": "x"}, "mode must be one of"),
        ({"trace_detail": "x"}, "trace_detail must be one of"),
        ({"eps": 0.0}, "eps must be positive and finite, got 0.0"),
    ],
    ids=["L", "mode", "trace_detail", "eps"],
)
def test_run_pipeline_checks_its_options_before_any_solve(monkeypatch, options, message):
    def solve_mixed(*args, **kwargs):
        raise AssertionError("solve_mixed was called before the options were checked")

    monkeypatch.setattr("lippoly.harness.pipeline.solve_mixed", solve_mixed)
    with pytest.raises(UsageError, match=message):
        run_pipeline(spec=GeneratorSpec(n=3, m=2, lam=0.3), **options)
    with pytest.raises(UsageError, match=message):
        run_instance(random_game(3, 2, 0.3, seed=1), **options)


# ------------------------------------------------------------------- CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_and_check(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    rc = run_cli("generate", "--n", "6", "--lambda", "0.2", "--seed", "8",
                 "--out", str(game_path))
    assert rc == 0
    rc = run_cli("check", str(game_path))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "valid"
    assert doc["lambda"] == 0.2


def test_cli_check_reports_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_game(planted_lipschitz_game(), str(path))
    rc = run_cli("check", str(path))
    assert rc == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "lipschitz_violation"
    assert doc["witness"]["observed_gap"] > doc["witness"]["allowed_gap"]


def test_cli_check_reports_a_range_violation(tmp_path, capsys):
    # Each player is paid 0.6 by both opponents for action 0 whatever they
    # play: 1.2, over the payoff range [0, 1].
    beta = np.zeros((3, 3, 2, 2))
    beta[:, :] = [[0.6, 0.6], [0.0, 0.0]]
    path = tmp_path / "game.json"
    save_game(PolymatrixGame(n=3, m=2, beta=beta, lam=0.6), str(path))
    assert run_cli("check", str(path)) == EXIT_INVALID
    doc = json.loads(capsys.readouterr().out)
    assert (doc["outcome"], doc["player"], doc["action"], doc["direction"]) == (
        "range_violation", 1, 1, "upper"
    )


def test_cli_reports_a_bound_breach_on_stdout(tmp_path, capsys, monkeypatch):
    def purify(*args, **kwargs):
        raise BoundBreach("final_regret", 1.0, 0.5)

    monkeypatch.setattr("lippoly.harness.cli.purify", purify)
    game_path, profile_path = tmp_path / "game.json", tmp_path / "profile.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    profile_path.write_text(json.dumps({"pure": [1, 2, 1]}))
    assert run_cli("purify", str(game_path), str(profile_path)) == EXIT_BOUND_BREACH
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert (doc["error"], doc["bound"]) == ("BoundBreach", "final_regret")
    assert doc["message"].startswith("bound breach [final_regret]")


def test_cli_check_rejects_non_finite_json(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "m": 2, "lambda": 0.5, "beta": '
                    '[{"i": 1, "ip": 2, "matrix": [[NaN, 0], [0, 0]]}]}')
    assert run_cli("check", str(path)) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


@pytest.mark.parametrize("data", [b'{"n": 2,', b'{"n": 2, "m": 2, "lambda": 0.5, "beta": []}\xff'])
def test_cli_check_rejects_unreadable_json(tmp_path, capsys, data):
    # A truncated document and one with a byte that is not UTF-8.
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert run_cli("check", str(path)) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UsageError"
    assert str(path) in error["message"]


def test_cli_check_refuses_a_deeply_nested_file_as_a_truncated_one(tmp_path, capsys):
    # Nested deeper than the parser goes: the one-line JSON error of a file
    # that cannot be read, not a RecursionError traceback.
    path = tmp_path / "deep.json"
    outcomes = []
    for note in ("[" * 3000 + "]" * 3000, "[1"):
        path.write_text('{"n": 3, "m": 2, "lambda": 0.5, "beta": [], "note": %s}' % note)
        code = run_cli("check", str(path))
        error = json.loads(capsys.readouterr().err)
        assert str(path) in error["message"]
        outcomes.append((code, error["error"]))
    assert outcomes == [(1, "UsageError")] * 2


def test_cli_purify_rejects_an_unreadable_profile(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    profile_path = tmp_path / "profile.json"
    for data in (b'{"mixed": [[0.5, 0.5],', b'{"pure": [1, 2, 1]}\xfe'):
        profile_path.write_bytes(data)
        assert run_cli("purify", str(game_path), str(profile_path)) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UsageError"
        assert str(profile_path) in error["message"]


def test_cli_refuses_numbers_too_large_for_a_float(tmp_path, capsys):
    huge = "1" + "0" * 400
    game_path = tmp_path / "huge.json"
    game_path.write_text('{"n": 2, "m": 2, "lambda": 0.5, "beta": '
                         f'[{{"i": 1, "ip": 2, "matrix": [[{huge}, 0], [0, 0]]}}]}}')
    assert run_cli("check", str(game_path)) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UsageError"
    assert "too large" in error["message"]
    save_game(random_game(2, 2, 0.3, seed=1), str(game_path))
    profile_path = tmp_path / "profile.json"
    for text in (f'{{"pure": [{huge}, 1]}}', f'{{"mixed": [[{huge}, 0], [0.5, 0.5]]}}'):
        profile_path.write_text(text)
        assert run_cli("purify", str(game_path), str(profile_path)) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UsageError", text


def test_cli_refuses_a_file_that_cannot_be_read(tmp_path, capsys):
    # A missing game file, a directory, and a missing profile file: each is
    # the one-line JSON error naming the path, not a traceback.
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    missing = str(tmp_path / "missing.json")
    for argv in (("check", missing), ("check", str(tmp_path)), ("purify", str(game_path), missing)):
        assert run_cli(*argv) == EXIT_INVALID
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "UsageError"
        assert argv[-1] in error["message"]


def test_cli_pipeline_refuses_L_0_before_any_record(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    out = tmp_path / "out"
    assert run_cli("pipeline", "--game", str(game_path), "--L", "0", "--out", str(out)) == EXIT_INVALID
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UsageError" and "replication L" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["purify", "baseline"])
@pytest.mark.parametrize("actions", [[0, 1, 2], [3, 1, 2]])
def test_cli_refuses_pure_actions_out_of_range(tmp_path, capsys, command, actions):
    # Action 0 used to be read as the last action; 3 raised an IndexError.
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"pure": actions}))
    argv = [command, str(game_path), str(profile_path)]
    if command == "baseline":
        argv[2:2] = ["--profile"]
    assert run_cli(*argv) == EXIT_INVALID
    err = capsys.readouterr().err
    error = json.loads(err)
    assert error["error"] == "UsageError"
    # Numbered as the file numbers players and actions, from 1.
    assert error["message"] == f"player 1 action {actions[0]} out of range [1, 3)"
    assert err == canonical_bytes(error).decode() + "\n"


@pytest.mark.parametrize("command", ["purify", "baseline"])
def test_cli_names_a_mixed_profile_row_as_the_file_numbers_it(tmp_path, capsys, command):
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=1), str(game_path))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"mixed": [[0.5, 0.5], [1.1, -0.1], [0.5, 0.5]]}))
    argv = [command, str(game_path), str(profile_path)]
    if command == "baseline":
        argv[2:2] = ["--profile"]
    assert run_cli(*argv) == EXIT_INVALID
    error = json.loads(capsys.readouterr().err)
    assert error == {
        "error": "DistributionError",
        "message": "player 2 assigns negative probability -0.1 to action 2",
    }


def test_cli_refuses_a_game_too_large_to_allocate(tmp_path, capsys):
    # 100,000 players at m = 2 need 4e10 coefficients (298 GiB).
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000, "m": 2, "lambda": 0.5, "beta": []}')
    for argv in (("check", str(path)), ("generate", "--n", "100000", "--lambda", "0.5")):
        assert run_cli(*argv) == EXIT_INVALID
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "BudgetExceeded"
        assert "needs 40000000000 coefficients" in error["message"]


def test_cli_check_rejects_negative_sizes(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text('{"n": -1, "m": 2, "lambda": 0.5, "beta": []}')
    assert run_cli("check", str(path)) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UsageError"
    assert "player count" in error["message"]


def test_cli_solve_then_purify(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    game = random_game(6, 2, 1.0 / 6, seed=21)
    save_game(game, str(game_path))
    solved_path = tmp_path / "solved.json"
    rc = run_cli("solve", str(game_path), "--seed", "21", "--out", str(solved_path))
    assert rc == 0
    solved = json.loads(solved_path.read_text())
    assert solved["converged"] is True
    assert solved["phase"] in ("anneal", "polish", "restart_anneal", "restart_polish")
    assert "mixed" in solved["profile"]

    rc = run_cli("purify", str(game_path), str(solved_path), "--trace", "potentials")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_max_regret"] <= doc["bounds"]["final_regret"]["allowed"] + 1e-12
    assert doc["trace"]["pipeline"] == "binary"
    assert "pure" in doc["final_profile"]


def test_cli_solve_not_converged_exit(tmp_path):
    game_path = tmp_path / "game.json"
    # No pure equilibrium: see test_run_instance_not_converged_still_purifies.
    save_game(random_game(6, 2, 1.0 / 6, seed=6), str(game_path))
    rc = run_cli("solve", str(game_path), "--eps", "1e-300", "--out",
                 str(tmp_path / "s.json"))
    assert rc == 20
    assert json.loads((tmp_path / "s.json").read_text())["phase"] is None


def test_cli_reduce(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=2), str(game_path))
    rc = run_cli("reduce", str(game_path), "--L", "4", "--eps", "0.4")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["population_players"] == 12
    assert doc["report"]["paper_L"] == math.ceil(3**4 / 0.4**5)


def test_cli_reduce_at_paper_scale(tmp_path, capsys, monkeypatch):
    # n = 3 at epsilon = 0.3 needs L = ceil(3^4 / 0.3^5) = 33,334.  This base
    # game's equilibrium mixes two players, so stage 1 leaves two
    # populations mixed and the sweep rounds their 66,668 replicas.
    traces = []
    purify = population.purify

    def keep_trace(*args, **kwargs):
        final, trace = purify(*args, **kwargs)
        traces.append(trace)
        return final, trace

    monkeypatch.setattr(population, "purify", keep_trace)
    game_path = tmp_path / "game.json"
    save_game(random_game(3, 2, 0.3, seed=4), str(game_path))
    rc = run_cli("reduce", str(game_path), "--L", "33334", "--eps", "0.3")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["paper_L"] == 33334 and report["meets_paper_scale"] is True
    assert report["population_players"] == 100002 and report["solver_converged"]

    (trace,) = traces
    assert len(trace.order) == len(trace.final_profile.actions) == 100002
    assert sum(c is not None for c in trace.coefficients) == 2 * 33334
    assert list(trace.bounds) == [
        "wsne_support_regret", "step_cost_increase", "sweep_drift",
        "terminal_cost", "switcher_count", "final_regret", "aggregate_base_regret",
    ]
    assert all(entry["ok"] for entry in trace.bounds.values())
    # The bounds are the lift's: lam/L on n*L players.
    lam, players = 0.3 / 33334, 100002
    assert trace.bounds["final_regret"]["allowed"] == pytest.approx(
        lam * (70 * players ** 2) ** (1 / 3), rel=1e-12
    )
    assert report["purified_regret"] == trace.final_max_regret
    assert report["aggregate_base_regret"] <= report["purified_regret"] + 1e-9


def test_cli_baseline(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    save_game(random_game(5, 2, 0.2, seed=6), str(game_path))
    rc = run_cli("baseline", str(game_path), "--trials", "50", "--seed", "6")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"]["trials"] == 50
    assert len(doc["baseline"]["regrets"]) == 50
    assert doc["solver"]["converged"] is True

    profile_path = tmp_path / "p.json"
    profile_path.write_text(json.dumps({"pure": [1, 2, 1, 1, 2]}))
    rc = run_cli("baseline", str(game_path), "--profile", str(profile_path),
                 "--trials", "10")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "solver" not in doc
    assert doc["baseline"]["min_regret"] == doc["baseline"]["max_regret"]


def test_cli_pipeline_ensemble_directory(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        "pipeline", "--n", "6", "--m", "2", "--lambda", str(1.0 / 6),
        "--trials", "2", "--seed", "40", "--out", str(out),
    )
    assert rc == 0
    records = (out / "records.jsonl").read_text().splitlines()
    assert len(records) == 2
    summary = json.loads((out / "report.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["aggregates"]["instances"] == 2


def test_cli_usage_errors(tmp_path, capsys):
    rc = run_cli("pipeline", "--n", "4")
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    rc = run_cli("generate", "--n", "4", "--lambda", "0.0")
    assert rc == 1
    capsys.readouterr()
    game_path = tmp_path / "game.json"
    run_cli("generate", "--n", "3", "--lambda", "0.3", "--seed", "1", "--out", str(game_path))
    rc = run_cli("solve", str(game_path), "--eps", "nan")
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    # A game file runs once, as it is: generator options are refused, not
    # ignored, before the file is read (the path below does not exist).
    missing = str(tmp_path / "missing.json")
    for extra, message in (
        (["--n", "40", "--m", "3", "--lambda", "0.01"], "takes none of --n, --m, --lambda"),
        (["--m", "3"], "takes none of --n, --m, --lambda"),
        (["--trials", "5"], "trials must be 1, got 5"),
    ):
        for path in (str(game_path), missing):
            rc = run_cli("pipeline", "--game", path, *extra)
            assert rc == 1, extra
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "UsageError" and message in err["message"], extra
    with pytest.raises(UsageError, match="trials must be 1, got 2"):
        run_pipeline(game_path=missing, trials=2)
    # Malformed profiles: a non-integer, non-number or boolean action, a
    # non-number probability, ragged mixed rows, a bare array.
    for doc in (
        {"pure": [1.5, 2, 1]},
        {"pure": ["a", 1, 1]},
        {"pure": [True, 2, 1]},
        {"mixed": [["x", 0.5], [0.5, 0.5], [0.5, 0.5]]},
        {"mixed": [[0.5, 0.5], [1.0], [0.5, 0.5]]},
        [1, 2, 1],
    ):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(doc))
        rc = run_cli("purify", str(game_path), str(profile_path))
        assert rc == 1, doc
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError", doc


def test_cli_precondition_violation_exits_like_the_pipeline(tmp_path, capsys):
    # The base solve of this game misses the lifted purifier's input level
    # at L = 120; reduce exits with the code the pipeline gives the record.
    game_path = tmp_path / "game.json"
    run_cli("generate", "--n", "3", "--lambda", "0.3", "--seed", "78", "--out", str(game_path))
    capsys.readouterr()
    rc = run_cli("reduce", str(game_path), "--L", "120")
    assert rc == EXIT_NOT_CONVERGED
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionViolation"
    rc = run_cli("pipeline", "--game", str(game_path), "--L", "120")
    assert rc == EXIT_NOT_CONVERGED
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["outcome"] == "not_converged"


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        ["lippoly", "generate", "--n", "4", "--lambda", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4 and doc["m"] == 2 and doc["lambda"] == 0.25

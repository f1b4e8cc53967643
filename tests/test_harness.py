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
    zero_game,
)
from lippoly import (
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    UsageError,
    Valid,
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
    game = random_game(6, 2, 1.0 / 6, seed=0)
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


def test_cli_check_rejects_non_finite_json(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "m": 2, "lambda": 0.5, "beta": '
                    '[{"i": 1, "ip": 2, "matrix": [[NaN, 0], [0, 0]]}]}')
    assert run_cli("check", str(path)) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


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
    save_game(random_game(6, 2, 1.0 / 6, seed=0), str(game_path))
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

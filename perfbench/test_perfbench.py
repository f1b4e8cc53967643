"""Tests of the benchmark itself: tiny runs of every workload, the checker.

    python3 -m pytest perfbench
"""

import dataclasses
import itertools
import json
import os
import tempfile

import numpy as np
import pytest

import run
from check import check_record, check_records_file, paper_bound, pure_regrets
from games import WORKLOADS, game_json_bytes, make_inputs
from spans import METRICS

with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# The workloads at a size that runs in seconds; same kinds, families and L
# semantics as the real ones.
TINY = {
    "binary-n300": dict(n=20),
    "maction-m8": dict(n=10),
    "reduce-L120": dict(L=6),
    "ensemble-n40": dict(n=10, mix=(("sparse", 2), ("coordination_mix", 2))),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(METRICS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(METRICS.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_every_workload(name, trace):
    with tempfile.TemporaryDirectory() as work:
        result = run.run(tiny(name), seed=3, seconds=0, trace=trace, work=work)
    assert result["problems"] == []
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * sum(c for _, c in tiny(name).mix)
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: u for k, (_, u) in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v > 0 for v, _ in result["metrics"].values())


def test_inputs_depend_on_the_seed_only():
    w = tiny("ensemble-n40")
    first = [game_json_bytes(g) for g in make_inputs(w, 5)]
    assert first == [game_json_bytes(g) for g in make_inputs(w, 5)]
    assert first != [game_json_bytes(g) for g in make_inputs(w, 6)]


@pytest.fixture(scope="module")
def reduce_record():
    """A real record of a tiny reduce game, written by lippoly's pipeline."""
    from lippoly.harness import pipeline

    game = make_inputs(tiny("reduce-L120"), 3)[0]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "game.json")
        with open(path, "wb") as fh:
            fh.write(game_json_bytes(game))
        report = pipeline.run_pipeline(game_path=path, L=game.L)
        pipeline.write_report(report, work)
        with open(os.path.join(work, "records.jsonl"), "rb") as fh:
            data = fh.read()
    assert report.exit_code == 0
    return game, data


def test_checker_accepts_the_pipeline_record(reduce_record):
    game, data = reduce_record
    problems, ratio = check_records_file(game, data)
    assert problems == []
    assert 0.0 <= ratio <= 1.0


def _tampered(data, edit):
    record = json.loads(data)
    edit(record)
    return record


def test_checker_rejects_an_altered_final_profile(reduce_record):
    game, data = reduce_record

    def flip_all(record):
        profile = record["purifier"]["final_profile"]
        record["purifier"]["final_profile"] = [3 - a for a in profile]

    problems, _ = check_record(game, _tampered(data, flip_all))
    assert any("final_regret" in p for p in problems)


def test_checker_rejects_an_altered_final_regret(reduce_record):
    game, data = reduce_record

    def nudge(record):
        record["purifier"]["final_regret"] += 1e-6

    problems, _ = check_record(game, _tampered(data, nudge))
    assert any("final_regret" in p for p in problems)


def test_checker_rejects_a_broken_averaging_property(reduce_record):
    game, data = reduce_record

    def raise_base(record):
        reduction = record["reduction"]
        reduction["aggregate_base_regret"] = reduction["purified_regret"] + 1e-6

    problems, _ = check_record(game, _tampered(data, raise_base))
    assert any("aggregate base regret" in p for p in problems)


def test_checker_rejects_a_regret_above_the_paper_bound(reduce_record):
    game, data = reduce_record
    # The pure profile with the largest regret, reported truthfully, checked
    # against a game whose lambda (and so whose bound) is 1000 times smaller.
    profiles = [np.array(a) for a in itertools.product(range(game.m), repeat=game.n)]
    worst = max(profiles, key=lambda a: pure_regrets(game.beta, a).max())
    shrunk = dataclasses.replace(game, lam=game.lam / 1000)
    assert pure_regrets(game.beta, worst).max() > paper_bound(game.n, game.m, shrunk.lam)

    def relabel(record):
        record["lam"] = shrunk.lam
        record["purifier"]["final_profile"] = [int(a) + 1 for a in worst]
        record["purifier"]["final_regret"] = float(pure_regrets(game.beta, worst).max())

    problems, _ = check_record(shrunk, _tampered(data, relabel))
    assert any("paper bound" in p for p in problems)

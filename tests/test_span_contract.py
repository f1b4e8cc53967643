"""The benchmark's span contract: the names perfbench/spans.py wraps exist.

perfbench/spans.py replaces functions at the module names where lippoly
looks them up; a name that moves or disappears makes `Tracer.install`
raise, which only the benchmark's own tests would otherwise notice.  The
file is loaded from the checkout and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import random_game
from lippoly import SolverConfig, purify, solve_mixed

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(spans):
    missing = [
        (module, attr)
        for module, attr, _ in spans.TARGETS
        # import_module: the `lippoly.purify` attribute is the function.
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


@pytest.mark.parametrize("m, lam", [(2, 1.0 / 12), (3, 1.0 / 12)])
def test_traced_purify_records_every_stage(spans, m, lam):
    game = random_game(12, m, lam, seed=1)
    target = lam / 8.0 if m == 2 else ((m - 1) / m) ** 2 * lam
    solved = solve_mixed(game, SolverConfig(target_epsilon=target, seed=1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        purify(game, solved.profile)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"purify.snap", "purify.sweep", "purify.correct", "game.regret"} <= names

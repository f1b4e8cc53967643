"""The purification trace: pinned JSON bytes, the replay, degenerate games."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_game, zero_game
from lippoly import (
    BOUND_TOL,
    MixedProfile,
    canonical_bytes,
    profile_from_json,
    purify,
    trace_to_json,
)
from lippoly.harness.pipeline import run_instance

# SHA-256 of canonical_bytes(trace_to_json(trace, detail)) on two seeded
# games, taken from the two per-pipeline JSON writers this schema replaced.
# The binary game's relevant set grows during the sweep (9 -> 12 players);
# the m-action game's sets hold 19 of its 24 actions.  The m-action digests
# were retaken when its sweep began updating the payoffs by the acting
# player's operator columns: the bound table gained sweep_drift, and the
# variance sums and b vectors moved in their last digits (the chosen
# actions, sets and final profile did not).  The binary digests were
# retaken when every rounded step of its sweep came to be decided on the
# run's scalars (A = 2L*h*x): step coefficients, costs and the sweep_drift
# residual moved in their last digits, no other field did
# (`tests/pinned_diff.py`).
GOLDEN = {
    ((12, 2, 0.04, 6), "full"): "27e80de7fcef11ef609c890826d475d92f78ba281f965d8bda23d906072664cd",
    ((12, 2, 0.04, 6), "potentials"): "c0206f9edef4748ae8c1206d7513afc1596eb179e9abedbd0e8b2ed5e7b92e95",
    ((8, 3, 0.03, 0), "full"): "d4ad10748cce1e19c4be1a10d8909ee38daa7d432fec289aaf868cc8358f3e33",
    ((8, 3, 0.03, 0), "potentials"): "9cf7902aabf0387efb7aa366f5aec5a54d866aa14f8503392bb65d77199b033d",
}

# The mixed profiles the digests were taken from: solve_mixed's converged
# output (3,000-iteration cooling) on the same games, stored so that the
# digests pin the trace writer and not the solver.
SOLVED = {
    tuple(entry["shape"]): entry["mixed"]
    for entry in json.loads((Path(__file__).parent / "solved_profiles.json").read_text())
}


def solved_trace(n, m, lam, seed):
    game = random_game(n, m, lam, seed)
    _, trace = purify(game, MixedProfile(np.array(SOLVED[(n, m, lam, seed)])))
    return game, trace


@pytest.mark.parametrize("shape, detail", sorted(GOLDEN))
def test_trace_json_bytes_are_pinned(shape, detail):
    game, trace = solved_trace(*shape)
    data = canonical_bytes(trace_to_json(trace, game, detail))
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(shape, detail)]


@st.composite
def degenerate_games(draw):
    """One player, all-zero coefficients, lam = 1, or up to twelve actions."""
    kind = draw(st.sampled_from(("single", "zero", "lam-one", "wide")))
    m = draw(st.integers(2, 12))
    if kind == "single":
        return zero_game(n=1, m=m, lam=draw(st.sampled_from((0.05, 0.5, 1.0))))
    n = draw(st.integers(2, 5))
    if kind == "zero":
        return zero_game(n=n, m=m, lam=draw(st.sampled_from((0.05, 0.5, 1.0))))
    lam = 1.0 if kind == "lam-one" else 1.0 / n
    return random_game(n, m, lam, draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(degenerate_games(), st.integers(0, 1000))
def test_degenerate_games_purify_within_their_bounds(game, seed):
    record = run_instance(game, seed=seed, trace_detail="full")
    assert record.outcome == "ok"
    purifier = record.purifier
    assert purifier["final_regret"] <= purifier["final_bound"] + BOUND_TOL
    assert all(entry["ok"] for entry in purifier["bounds"].values())
    # The replayed sweep ends on the rounded profile: pure, and equal to
    # the final one except at the players stage 3 switched.
    trace = purifier["trace"]
    assert len(trace["steps"]) == game.n + 1
    rounded = profile_from_json(trace["steps"][-1]["profile"])
    assert rounded.is_pure_valued()
    final = np.asarray(purifier["final_profile"]) - 1
    switched = np.zeros(game.n, dtype=bool)
    switched[np.asarray(trace["switched_players"], dtype=int) - 1] = True
    assert np.array_equal(rounded.to_pure().actions != final, switched)

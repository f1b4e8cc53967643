"""Checks of pipeline records made without lippoly.

Every number is recomputed from the benchmark's own coefficient tensor
with code written here: the pure profile's regrets by direct summation,
the paper's regret bounds from their formulas.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Largest gap allowed between a record's final_regret and the recomputation.
REGRET_TOL = 1e-9


def pure_regrets(beta, actions):
    """Per-player regret of a pure profile (0-based actions).

    U[i, j] = sum over opponents k of beta[i, k, j, actions[k]]; the self
    block is zero, so player i's own entry adds nothing.
    """
    n = beta.shape[0]
    # Advanced indices on axes 1 and 3 come first: shape (k, i, j).
    U = beta[:, np.arange(n), :, actions].sum(axis=0)
    return U.max(axis=1) - U[np.arange(n), actions]


def paper_bound(n, m, lam):
    """Final-regret bound: binary lam (70 n^2)^(1/3), else 6 lam (n^2 m ln 3m)^(1/3)."""
    if m == 2:
        return lam * (70.0 * n * n) ** (1.0 / 3.0)
    return 6.0 * lam * (n * n * m * math.log(3.0 * m)) ** (1.0 / 3.0)


def check_record(game, record):
    """Problems with one record of `game` (a games.GameInput); [] if none.

    Also returns the recomputed final-regret/bound ratio (None when the
    record could not be checked).
    """
    problems = []
    n, m, lam = game.n, game.m, game.lam
    if (record.get("n"), record.get("m"), record.get("lam")) != (n, m, lam):
        problems.append(f"record sizes {record.get('n')}, {record.get('m')}, "
                        f"{record.get('lam')} differ from the game's {n}, {m}, {lam}")
        return problems, None
    purifier = record.get("purifier") or {}
    profile = purifier.get("final_profile")
    if not (isinstance(profile, list) and len(profile) == n
            and all(isinstance(a, int) and 1 <= a <= m for a in profile)):
        problems.append("final_profile is not n actions in 1..m")
        return problems, None
    regret = float(pure_regrets(game.beta, np.asarray(profile) - 1).max())
    reported = purifier.get("final_regret")
    if not isinstance(reported, float) or abs(regret - reported) > REGRET_TOL:
        problems.append(f"final_regret {reported!r} differs from recomputed {regret!r}")
    bound = paper_bound(n, m, lam)
    if regret > bound + REGRET_TOL:
        problems.append(f"final regret {regret!r} above the paper bound {bound!r}")
    if game.L is not None:
        problems += check_reduction(game, record.get("reduction") or {})
    return problems, regret / bound


def check_reduction(game, reduction):
    """Averaging property and the lifted bound at lam/L on nL players."""
    L = game.L
    if "error" in reduction:
        return [f"reduction failed: {reduction['error']}"]
    problems = []
    lifted_n, lifted_lam = game.n * L, game.lam / L
    if reduction.get("population_players") != lifted_n:
        problems.append(f"population_players {reduction.get('population_players')} != {lifted_n}")
    if not math.isclose(reduction.get("population_lambda", math.nan), lifted_lam,
                        rel_tol=1e-12):
        problems.append(f"population_lambda {reduction.get('population_lambda')} != {lifted_lam}")
    purified = reduction.get("purified_regret", math.nan)
    base = reduction.get("aggregate_base_regret", math.nan)
    if not base <= purified + REGRET_TOL:
        problems.append(f"aggregate base regret {base!r} above purified lifted regret {purified!r}")
    lifted_bound = paper_bound(lifted_n, game.m, lifted_lam)
    if not purified <= lifted_bound + REGRET_TOL:
        problems.append(f"purified lifted regret {purified!r} above the lifted bound {lifted_bound!r}")
    return problems


def check_records_file(game, data):
    """Check a records.jsonl written for one game: one record, outcome ok."""
    lines = data.splitlines()
    if len(lines) != 1:
        return [f"expected one record, found {len(lines)}"], None
    record = json.loads(lines[0])
    if record.get("outcome") != "ok":
        return [f"outcome {record.get('outcome')!r}"], None
    return check_record(game, record)

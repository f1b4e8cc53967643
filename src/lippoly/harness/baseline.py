"""Sampling baseline: draw pure profiles from a mixed one and measure.

Sampling pure actions independently from a low-regret mixed profile has
a positive probability of landing on a good pure profile once the regret
level clears lam * sqrt(8 n log(2 m n)).  That existence threshold is
reported next to the empirical regret distribution so the deterministic
pipeline has a yardstick; nothing here is used as a solution method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..game import PureProfile, payoffs, regret_report, regrets


@dataclass(frozen=True)
class BaselineReport:
    """Empirical max-regret distribution of sampled pure profiles.

    threshold is the existence level lam * sqrt(8 n log(2 m n)); the
    within fraction counts trials at or below it.  best_profile is the
    realization with the lowest max regret (first such trial).
    """

    trials: int
    seed: int
    input_regret: float
    threshold: float
    regrets: tuple
    min_regret: float
    mean_regret: float
    max_regret: float
    fraction_within_threshold: float
    best_profile: PureProfile

    def to_json(self):
        return {
            "trials": self.trials,
            "seed": self.seed,
            "input_regret": self.input_regret,
            "threshold": self.threshold,
            "min_regret": self.min_regret,
            "mean_regret": self.mean_regret,
            "max_regret": self.max_regret,
            "fraction_within_threshold": self.fraction_within_threshold,
            "best_profile": [int(a) + 1 for a in self.best_profile.actions],
            "regrets": list(self.regrets),
        }


def sample_baseline(game, mixed, trials, seed=0):
    """Draw `trials` pure realizations of `mixed` and tabulate regrets."""
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    mixed.validate_for(game)
    n, m = game.n, game.m
    rng = np.random.default_rng(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))

    cum = mixed.probs.cumsum(axis=1)
    draws = rng.random((trials, n))
    actions = np.minimum((draws[:, :, None] >= cum[None, :, :]).sum(axis=2), m - 1)

    # One kernel call scores the whole stack of realizations.
    pure = np.eye(m)[actions]
    worst = np.maximum(regrets(payoffs(game, pure), pure).max(axis=1), 0.0)

    threshold = game.lam * math.sqrt(8.0 * n * math.log(2.0 * m * n))
    best = int(np.argmin(worst))
    return BaselineReport(
        trials=int(trials),
        seed=int(seed),
        input_regret=regret_report(game, mixed).max_regret,
        threshold=float(threshold),
        regrets=tuple(float(r) for r in worst),
        min_regret=float(worst.min()),
        mean_regret=float(worst.mean()),
        max_regret=float(worst.max()),
        fraction_within_threshold=float((worst <= threshold).mean()),
        best_profile=PureProfile(actions[best]),
    )

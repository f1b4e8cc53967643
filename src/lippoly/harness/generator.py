"""Random game generation.

Three families, all normalized the same way: raw coefficients land in
[0, lam], then each block column (an opponent-action slice) is shifted down
by its minimum, and finally everything is scaled globally if the worst-case
payoff sum would exceed 1.  Entries stay in [0, lam] throughout, so declared
Lipschitz consistency is preserved, and both range inequalities hold by
construction.  Generation is a pure function of the recipe (seed included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..game import PolymatrixGame, _integer, _number

FAMILIES = ("uniform_coefficients", "sparse", "coordination_mix")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random game.

    family: "uniform_coefficients" (iid uniform blocks), "sparse" (each
    ordered pair kept with probability `density`), or "coordination_mix"
    (`weight` of an identity-matched block plus (1 - weight) uniform noise).
    """

    n: int
    m: int
    lam: float
    family: str = "uniform_coefficients"
    seed: int = 0
    density: float | None = None
    weight: float | None = None

    def __post_init__(self):
        for name in ("n", "m", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("lam", "density", "weight"):
            if getattr(self, name) is not None:
                _number(getattr(self, name), name)
        if self.n < 2:
            raise UsageError(f"generator needs n >= 2, got {self.n}")
        if self.m < 2:
            raise UsageError(f"generator needs m >= 2, got {self.m}")
        if not (0.0 < self.lam <= 1.0):
            raise UsageError(f"lam must be in (0, 1], got {self.lam}")
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.family == "sparse":
            d = self.density
            if d is None or not (0.0 <= d <= 1.0):
                raise UsageError(f"sparse family needs density in [0, 1], got {d}")
        if self.family == "coordination_mix":
            w = self.weight
            if w is None or not (0.0 <= w <= 1.0):
                raise UsageError(f"coordination_mix needs weight in [0, 1], got {w}")


def generate(spec):
    """Draw the game described by `spec`; deterministic in the seed."""
    rng = np.random.default_rng(np.uint64(spec.seed & 0xFFFFFFFFFFFFFFFF))
    n, m, lam = spec.n, spec.m, spec.lam

    if spec.family == "uniform_coefficients":
        beta = rng.uniform(0.0, lam, size=(n, n, m, m))
    elif spec.family == "sparse":
        beta = rng.uniform(0.0, lam, size=(n, n, m, m))
        keep = rng.random((n, n)) < spec.density
        beta *= keep[:, :, None, None]
    else:
        w = spec.weight
        eye = np.eye(m)
        noise = rng.uniform(0.0, lam, size=(n, n, m, m))
        beta = w * lam * eye[None, None] + (1.0 - w) * noise

    idx = np.arange(n)
    beta[idx, idx] = 0.0

    # Column shift: per block, per opponent action, drop the minimum over the
    # receiver's actions to zero.  Keeps entries in [0, lam].
    beta -= beta.min(axis=2, keepdims=True)
    beta[idx, idx] = 0.0

    # Global scale so the worst-case payoff sum stays at or below 1.
    mask = np.ones((n, n), dtype=bool)
    mask[idx, idx] = False
    upper = np.where(mask[:, :, None], beta.max(axis=3), 0.0).sum(axis=1)
    worst = float(upper.max())
    if worst > 1.0:
        beta *= (1.0 - 1e-12) / worst

    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)

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

from ..game import PolymatrixGame, _choice, _integer, _number, tensor_guard

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
        for name, least in (("n", 2), ("m", 2), ("seed", None)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        _number(self.lam, "lam", "lambda")
        _choice(self.family, "family", FAMILIES)
        for name, family in (("density", "sparse"), ("weight", "coordination_mix")):
            if self.family == family or getattr(self, name) is not None:
                _number(getattr(self, name), name, "fraction")


def generate(spec):
    """Draw the game described by `spec`; deterministic in the seed.  A
    game over TENSOR_GUARD coefficients is refused before it is drawn."""
    n, m, lam = spec.n, spec.m, spec.lam
    tensor_guard(n, m, f"a game of {n} players and {m} actions")
    rng = np.random.default_rng(np.uint64(spec.seed & 0xFFFFFFFFFFFFFFFF))

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
    # receiver's actions to zero.  Keeps entries in [0, lam], self blocks zero.
    beta -= beta.min(axis=2, keepdims=True)

    # Global scale so the worst-case payoff sum stays at or below 1.
    upper = beta.max(axis=3).sum(axis=1)
    worst = float(upper.max())
    if worst > 1.0:
        beta *= (1.0 - 1e-12) / worst

    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)

"""Seeded game inputs for the lippoly benchmark, made without lippoly.

The generator reproduces the three families of lippoly's harness
(uniform coefficients, sparse, coordination mix) and its shift-scale
normalization, but draws from its own seeded streams, so a change to
`lippoly.harness.generator` cannot change the benchmark's inputs.

Run as a script it is the benchmark's set-up step: it imports lippoly
(whose import time is part of set-up), generates one workload's games,
scans each for the Lipschitz and range conditions, writes them in
lippoly's game JSON format, and prints the files' SHA-256 digests.

    python3 perfbench/games.py --spec '{"name": "binary-n300", ...}' --seed 1 --out DIR

where the spec holds the fields of a `Workload`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

# Coefficients may exceed the declared Lipschitz budget or the payoff range
# by at most this much before the scan rejects a game.
SCAN_TOL = 1e-12
# Smallest payoff advantage of a pure player's action at a reduce base game's
# equilibrium.  It is twice the lifted game's stage-1 snap threshold
# 0.5 (lam/L) sqrt(nL) at n=3, L=120, lam=0.3, so those populations are
# snapped pure before the lifted sweep whatever the solver leaves.
PURE_MARGIN = 0.05
# Keep probability of a player pair in the sparse family, and identity weight
# in the coordination-mix family (lippoly's CLI defaults).
DENSITY = 0.5
WEIGHT = 0.5


@dataclass(frozen=True)
class Workload:
    """One workload: game size, how its games are drawn, and the lift.

    mix lists (kind, count) pairs.  A kind is a generator family, or
    "pure_equilibrium" / "mixed_equilibrium" for n=3 binary games drawn
    from the uniform family and kept only when their equilibria have that
    shape (see `equilibrium_kind`).
    """

    name: str
    why: str
    n: int
    m: int
    lam: float
    mix: tuple
    L: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "binary-n300",
            "one n=300 binary game: the O(n^3) binary sweep dominates, "
            "m-action and population code do not run",
            n=300, m=2, lam=0.005, mix=(("uniform_coefficients", 1),),
        ),
        Workload(
            "maction-m8",
            "one n=150, m=8 game: anneal matvecs, 30 MB JSON load and digest, "
            "m-action trace memory; the binary sweep is bypassed",
            n=150, m=8, lam=0.005, mix=(("uniform_coefficients", 1),),
        ),
        Workload(
            "reduce-L120",
            "n=3 base games lifted to 360 players: population lift, lifted "
            "solve and lifted purification do the work",
            n=3, m=2, lam=0.3, L=120,
            mix=(("pure_equilibrium", 3), ("mixed_equilibrium", 1)),
        ),
        Workload(
            "ensemble-n40",
            "40 small sparse and coordination-mix games: per-game fixed costs "
            "(anneal loop overhead, check_game, record writing) dominate",
            n=40, m=3, lam=0.025,
            mix=(("sparse", 20), ("coordination_mix", 20)),
        ),
    )
}


@dataclass(frozen=True)
class GameInput:
    """One generated game: file label, coefficient tensor, pipeline L."""

    label: str
    beta: np.ndarray
    lam: float
    L: int | None

    @property
    def n(self):
        return self.beta.shape[0]

    @property
    def m(self):
        return self.beta.shape[2]


def draw_family(rng, family, n, m, lam):
    """One game of a family, shift-scale normalized; returns beta."""
    if family == "uniform_coefficients":
        beta = rng.uniform(0.0, lam, size=(n, n, m, m))
    elif family == "sparse":
        beta = rng.uniform(0.0, lam, size=(n, n, m, m))
        beta *= (rng.random((n, n)) < DENSITY)[:, :, None, None]
    elif family == "coordination_mix":
        noise = rng.uniform(0.0, lam, size=(n, n, m, m))
        beta = WEIGHT * lam * np.eye(m)[None, None] + (1.0 - WEIGHT) * noise
    else:
        raise ValueError(f"unknown family {family!r}")
    idx = np.arange(n)
    beta[idx, idx] = 0.0
    # Shift each opponent-action column down to a zero minimum, then scale
    # globally so the largest possible payoff sum is below 1.
    beta -= beta.min(axis=2, keepdims=True)
    worst = beta.max(axis=3).sum(axis=1).max()
    if worst > 1.0:
        beta *= (1.0 - 1e-12) / worst
    return beta


def equilibria_n3(beta):
    """All Nash equilibria of a 3-player binary polymatrix game.

    Each player is pure on action 0, pure on action 1, or mixed; for every
    such pattern the mixed players' probabilities of action 1 solve a
    linear system (their indifference conditions), and the pattern is kept
    when those probabilities lie strictly inside (0, 1) and every pure
    player plays a best response.  Returns (pattern, p, d) triples: p[i] is
    player i's probability of action 1, pattern[i] is None when mixed, and
    d[i] is player i's payoff of action 1 over action 0 at p.
    """
    n = beta.shape[0]
    gain = beta[:, :, 1, :] - beta[:, :, 0, :]  # payoff of 1 over 0, per opponent action
    found = []
    for pattern in itertools.product((0, 1, None), repeat=n):
        mixed = [i for i in range(n) if pattern[i] is None]
        A = np.zeros((len(mixed), len(mixed)))
        rhs = np.zeros(len(mixed))
        for row, i in enumerate(mixed):
            for k in range(n):
                if k == i:
                    continue
                slope = gain[i, k, 1] - gain[i, k, 0]
                rhs[row] -= gain[i, k, 0]
                if pattern[k] is None:
                    A[row, mixed.index(k)] += slope
                else:
                    rhs[row] -= slope * pattern[k]
        p = np.array([np.nan if a is None else float(a) for a in pattern])
        if mixed:
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            p[mixed] = np.linalg.solve(A, rhs)
            if not np.all((p[mixed] > 0.0) & (p[mixed] < 1.0)):
                continue
        d = [sum(gain[i, k, 0] + (gain[i, k, 1] - gain[i, k, 0]) * p[k]
                 for k in range(n) if k != i) for i in range(n)]
        if all(a is None or (d[i] >= 0.0 if a == 1 else d[i] <= 0.0)
               for i, a in enumerate(pattern)):
            found.append((pattern, p, np.array(d)))
    return found


def equilibrium_kind(beta):
    """Classify an n=3 binary base game for the reduce workload.

    "pure_equilibrium": the only equilibrium is pure, so the lifted solve
    lands on a pure profile and the lifted sweep has nothing to round.
    "mixed_equilibrium": the only equilibrium has one pure player and two
    players mixing with probabilities in [0.15, 0.85], so the lifted sweep
    rounds every replica of those two populations.  In both, every pure
    player prefers its action by at least PURE_MARGIN.  Anything else is
    None and is not used: a game with several equilibria, probabilities
    near 0 or 1, three mixed players or a nearly indifferent pure player
    leaves a different number of replicas mixed from one seed to the next,
    and the lifted sweep's cost with them.
    """
    eqs = equilibria_n3(beta)
    if len(eqs) != 1:
        return None
    pattern, p, d = eqs[0]
    mixed = [i for i, a in enumerate(pattern) if a is None]
    if any(abs(d[i]) < PURE_MARGIN for i, a in enumerate(pattern) if a is not None):
        return None
    if not mixed:
        return "pure_equilibrium"
    if len(mixed) == 2 and all(0.15 <= p[i] <= 0.85 for i in mixed):
        return "mixed_equilibrium"
    return None


def make_inputs(workload, seed):
    """The workload's games for a seed; the same seed gives the same games.

    Game k of the workload is drawn from the stream default_rng([seed, k]).
    Equilibrium kinds draw candidates from consecutive streams until the
    kind's count is met.
    """
    w = workload
    out = []
    stream = 0
    for kind, count in w.mix:
        made = 0
        while made < count:
            rng = np.random.default_rng([seed, stream])
            stream += 1
            if kind in ("pure_equilibrium", "mixed_equilibrium"):
                beta = draw_family(rng, "uniform_coefficients", w.n, w.m, w.lam)
                if equilibrium_kind(beta) != kind:
                    continue
            else:
                beta = draw_family(rng, kind, w.n, w.m, w.lam)
            out.append(GameInput(f"{kind}-{made:03d}", beta, w.lam, w.L))
            made += 1
    return out


def warmup_input(workload, seed):
    """A small game of the workload's first kind, run once before timing."""
    small = dataclasses.replace(
        workload,
        n=min(workload.n, 12),
        mix=((workload.mix[0][0], 1),),
        L=None if workload.L is None else min(workload.L, 4),
    )
    (game,) = make_inputs(small, seed + 1_000_003)
    return dataclasses.replace(game, label="warmup")


def scan(game):
    """Lipschitz and payoff-range scan; returns a list of problems found."""
    beta, lam, n = game.beta, game.lam, game.n
    problems = []
    if not np.all(np.isfinite(beta)):
        problems.append("non-finite coefficient")
    idx = np.arange(n)
    if np.any(beta[idx, idx] != 0.0):
        problems.append("non-zero self block")
    spread = (beta.max(axis=3) - beta.min(axis=3)).max()
    if spread > lam + SCAN_TOL:
        problems.append(f"coefficient spread {spread!r} above lambda {lam!r}")
    upper = beta.max(axis=3).sum(axis=1).max()
    if upper > 1.0 + SCAN_TOL:
        problems.append(f"largest payoff sum {upper!r} above 1")
    lower = beta.min(axis=3).sum(axis=1).min()
    if lower < -SCAN_TOL:
        problems.append(f"smallest payoff sum {lower!r} below 0")
    return problems


def game_json_bytes(game):
    """lippoly's game wire format: 1-based blocks, zero blocks omitted."""
    beta = game.beta
    blocks = [
        {"i": i + 1, "ip": k + 1, "matrix": beta[i, k].tolist()}
        for i in range(game.n)
        for k in range(game.n)
        if i != k and beta[i, k].any()
    ]
    doc = {"n": game.n, "m": game.m, "lambda": game.lam, "beta": blocks}
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def write_inputs(workload, seed, out_dir):
    """Generate, scan and write the workload's games plus the warm-up game.

    Returns {file name: sha256 hex}; raises ValueError if a game fails
    the scan.
    """
    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for game in [warmup_input(workload, seed)] + make_inputs(workload, seed):
        problems = scan(game)
        if problems:
            raise ValueError(f"{game.label}: " + "; ".join(problems))
        data = game_json_bytes(game)
        name = game.label + ".json"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="Workload fields as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # The set-up a user pays includes importing the package, so it is timed
    # here even though generation does not use it.
    import lippoly  # noqa: F401

    fields = json.loads(args.spec)
    fields["mix"] = tuple(tuple(pair) for pair in fields["mix"])
    digests = write_inputs(Workload(**fields), args.seed, args.out)
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

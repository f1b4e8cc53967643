"""Mixed approximate-equilibrium search.

Two mechanisms:

* `solve_mixed` runs simultaneous smoothed best-response dynamics under a
  geometrically cooled temperature, tracks the exact max regret of every
  iterate, and keeps the best one.  The temperature falls from the payoff
  spread to 0.4x the target over `max_iterations` (default 300).  If
  cooling alone misses the target, an L-BFGS minimization of the hinged
  squared regret excess (over softmax-reparametrized strategies, with an
  analytic gradient) finishes the job; a zero objective certifies every
  player at or below the requested level.  The polish finishes within a
  few evaluations from wherever cooling stops, so a longer horizon only
  cools more slowly and waits for the stall exit (`STALL_WINDOW`) to hand
  off.  `SolveResult.phase` names the stage that reached the target.
* `brute_force_kuniform` exhaustively scans the grid of 1/k-uniform
  profiles for tiny instances and returns the exact grid minimizer.

Both are deterministic given the config seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded
from .game import MixedProfile, _choice, _integer, _number, payoffs, regret_report, regrets

# Exhaustive scan refuses above this many candidate profiles.
BRUTE_FORCE_GUARD = 10_000_000
# Hinge cut as a fraction of the target: certified iterates land strictly under.
POLISH_CUT = 0.9
# Sufficient-decrease constant of the polish's backtracking line search.
ARMIJO = 1e-4
# Curvature pairs the polish's L-BFGS keeps.
LBFGS_MEMORY = 10
# Candidate profiles evaluated per vectorized chunk in the exhaustive scan.
CHUNK = 16384
# Cooling iterations without a new best iterate before handing off to polish.
STALL_WINDOW = 250
# Damping schedules of the best-response dynamics.
STEP_SCHEDULES = ("fixed", "harmonic")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for `solve_mixed`.

    target_epsilon: the regret level to reach (e.g. lam/8 for binary games,
    ((m-1)/m)^2 lam for the m-action pipeline).  step_schedule is "fixed"
    (constant damping 0.25) or "harmonic" (damping 1/(t+2), fictitious-play
    style averaging).  uniform_grid_k, when set, routes the solve through the
    exhaustive k-uniform scan instead of the dynamics.

    max_iterations caps each anneal and is also its cooling horizon: the
    temperature reaches 0.4x the target at the last iteration, and polish
    takes over from the best iterate.  300 suffices because polish closes
    the remaining gap in a few evaluations; a longer horizon only delays
    the hand-off until the STALL_WINDOW exit.
    """

    target_epsilon: float
    max_iterations: int = 300
    step_schedule: str = "fixed"
    seed: int = 0
    uniform_grid_k: int | None = None

    def __post_init__(self):
        _number(self.target_epsilon, "target_epsilon", "level")
        for name, least in (("max_iterations", 1), ("seed", None)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.uniform_grid_k is not None:
            object.__setattr__(self, "uniform_grid_k", _integer(self.uniform_grid_k, "uniform_grid_k"))
        _choice(self.step_schedule, "step_schedule", STEP_SCHEDULES)


@dataclass(frozen=True)
class SolveResult:
    """iterations_used counts anneal iterations plus polish objective
    evaluations over both starts (or grid points for the exhaustive scan).
    phase names the stage whose profile reached the target: "anneal",
    "polish", "restart_anneal", "restart_polish" (the jittered second
    start) or "grid"; it is None when the solve did not converge."""

    profile: MixedProfile
    achieved_max_regret: float
    iterations_used: int
    converged: bool
    phase: str | None


def solve_mixed(game, config):
    """Best-effort mixed equilibrium search; returns the best profile visited.

    converged is True iff the achieved max regret is at or below
    config.target_epsilon.  Non-convergence is an outcome, not an error.
    """
    if config.uniform_grid_k is not None:
        result = brute_force_kuniform(game, config.uniform_grid_k)
        converged = result.achieved_max_regret <= config.target_epsilon
        return replace(result, converged=converged, phase="grid" if converged else None)

    target = config.target_epsilon
    best_probs, best_reg, best_phase, iters = None, math.inf, None, 0
    # The plain start, then, only if the target is still missed, one cooled
    # restart from a jittered start; after each anneal a best profile that
    # misses the target is polished.
    starts = ((config.seed, False, ""), (config.seed + 0x9E3779B9, True, "restart_"))
    for seed, jitter, prefix in starts:
        probs, reg, used = _anneal(game, config, seed, jitter)
        iters += used
        if reg < best_reg:
            best_probs, best_reg, best_phase = probs, reg, prefix + "anneal"
        if best_reg > target:
            probs, reg, evals = _polish(game, best_probs, POLISH_CUT * target)
            iters += evals
            if reg < best_reg:
                best_probs, best_reg, best_phase = probs, reg, prefix + "polish"
        if best_reg <= target:
            break

    profile = MixedProfile(best_probs)
    achieved = regret_report(game, profile).max_regret
    converged = achieved <= target
    return SolveResult(
        profile=profile,
        achieved_max_regret=achieved,
        iterations_used=iters,
        converged=converged,
        phase=best_phase if converged else None,
    )


def _anneal(game, config, seed, jitter):
    n, m = game.n, game.m
    target = config.target_epsilon
    probs = np.full((n, m), 1.0 / m)
    if jitter:
        rng = np.random.default_rng(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        probs += 0.01 * (rng.random((n, m)) - 0.5)
        probs = np.abs(probs)
        probs /= probs.sum(axis=1, keepdims=True)

    # The start's payoffs set the temperature and serve iteration 0.
    U = payoffs(game, probs)
    spread = float((U.max(axis=1) - U.min(axis=1)).max())
    tau_hi = max(spread, 4.0 * target)
    tau_lo = 0.4 * target

    best_probs = probs.copy()
    best_reg = math.inf
    last_gain = 0
    total = config.max_iterations
    for t in range(total):
        if t:
            U = payoffs(game, probs)
        reg = float(regrets(U, probs).max())
        if reg < best_reg:
            best_reg = reg
            best_probs = probs.copy()
            last_gain = t
            if best_reg <= target:
                return best_probs, best_reg, t + 1
        elif t - last_gain >= STALL_WINDOW:
            # Oscillating around a local basin; the polish stage takes over.
            return best_probs, best_reg, t + 1
        frac = t / max(1, total - 1)
        tau = tau_hi * (tau_lo / tau_hi) ** frac
        if config.step_schedule == "fixed":
            gamma = 0.25
        else:
            gamma = 1.0 / (t + 2)
        response = _softmax_rows(U / tau)
        probs = (1.0 - gamma) * probs + gamma * response
    return best_probs, best_reg, total


def _polish(game, probs0, cut, maxiter=400):
    """Drive every regret at or below `cut` by L-BFGS on softmax logits.

    Objective: sum of max(regret_i - cut, 0)^2; players under the cut
    contribute nothing, so the search only moves the offenders.  The
    directions come from the last LBFGS_MEMORY curvature pairs (the first
    is -g at unit length), the steps from a backtracking Armijo search
    from t = 1 that shrinks by quadratic interpolation, clamped to
    [0.1t, 0.5t].  Stops at a zero objective, at a step that brings no
    decrease, or after `maxiter` objective evaluations; returns the
    profile, its max regret and the evaluation count.
    """
    n, m = game.n, game.m
    z = np.log(np.clip(probs0, 1e-12, None)).ravel()
    f, g = polish_objective(z, game, cut)
    evals, pairs = 1, deque(maxlen=LBFGS_MEMORY)
    while f > 0.0 and evals < maxiter:
        d = _lbfgs_direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            break
        # Without curvature pairs d = -g: the first trial has unit length.
        t = 1.0 if pairs else 1.0 / math.sqrt(-slope)
        while True:
            trial = z + t * d
            f_new, g_new = polish_objective(trial, game, cut)
            evals += 1
            if f_new <= f + ARMIJO * t * slope or f_new == f or evals >= maxiter:
                break
            curve = f_new - f - slope * t
            t = min(max(-slope * t * t / (2.0 * curve), 0.1 * t), 0.5 * t)
        if not f_new < f:
            break
        s, y = trial - z, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, sy))
        z, f, g = trial, f_new, g_new
    P = _softmax_rows(z.reshape(n, m))
    P /= P.sum(axis=1, keepdims=True)
    achieved = regret_report(game, MixedProfile(P)).max_regret
    return P, achieved, evals


def _lbfgs_direction(g, pairs):
    """-H g for the L-BFGS inverse Hessian H of the curvature pairs (s, y,
    s.y), oldest first, scaled by s.y / y.y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q -= a * y
        alphas.append(a)
    if pairs:
        _, y, sy = pairs[-1]
        q *= sy / float(y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    return -q


def polish_objective(z, game, cut):
    """Polish objective sum h_a^2, h_a = max(regret_a - cut, 0), and its
    gradient at flat logits z, with P the row softmax of z.

    In P the gradient is G = B^T v - 2 h U for the operator B, payoffs U
    and v[a] = 2 h_a (e_{j*_a} - P[a]) at each best action j*_a; -2 h U
    is the own-row term (only the realized payoff depends on P[a]).
    """
    n, m = game.n, game.m
    P = _softmax_rows(z.reshape(n, m))
    U = payoffs(game, P)
    h = np.maximum(regrets(U, P) - cut, 0.0)
    v = -P
    v[np.arange(n), U.argmax(axis=1)] += 1.0
    v *= (2.0 * h)[:, None]
    G = (v.ravel() @ game.operator).reshape(n, m) - (2.0 * h)[:, None] * U
    GZ = P * (G - (P * G).sum(axis=1, keepdims=True))
    return float(h @ h), GZ.ravel()


def _softmax_rows(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def kuniform_grid(m, k):
    """All distributions over m actions with probabilities multiples of 1/k,
    as an array in lexicographic order of the underlying count vectors."""
    counts = list(_compositions(k, m))
    return np.asarray(counts, dtype=np.float64) / float(k)


def _compositions(k, m):
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def brute_force_kuniform(game, k):
    """Exact minimizer of max regret over the 1/k-uniform profile grid.

    Refuses when the candidate count C(k+m-1, m-1)^n exceeds the guard,
    before the grid is built.  The first grid point attaining the minimum
    (in player-0-major lexicographic order) is returned, so the result is
    deterministic.
    """
    k = _integer(k, "grid resolution k", least=1)
    m = game.m
    per_player = math.comb(k + m - 1, m - 1)
    total = per_player ** game.n
    if total > BRUTE_FORCE_GUARD:
        # k and the count are not formatted: either may be too long to print.
        raise BudgetExceeded(
            f"C(k + {m - 1}, {m - 1})^{game.n} candidate profiles of the 1/k-uniform "
            f"grid exceed the {BRUTE_FORCE_GUARD} guard",
            estimate=total,
        )
    grid = kuniform_grid(m, k)

    dims = (per_player,) * game.n
    best_val = math.inf
    best_idx = None
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        flat = np.arange(start, stop)
        idx = np.stack(np.unravel_index(flat, dims), axis=1)
        chunk = grid[idx]
        worst = regrets(payoffs(game, chunk), chunk).max(axis=1)
        pos = int(np.argmin(worst))
        if worst[pos] < best_val:
            best_val = float(worst[pos])
            best_idx = idx[pos]
    profile = MixedProfile(grid[best_idx])
    achieved = regret_report(game, profile).max_regret
    return SolveResult(
        profile=profile,
        achieved_max_regret=achieved,
        iterations_used=total,
        converged=True,
        phase="grid",
    )

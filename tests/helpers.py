"""Shared builders and reference oracles for the test suite.

Games built here come straight from numpy draws, not from the package's
generator, so a generator bug cannot mask a library bug.  The oracles
recompute payoffs and regrets by direct summation or full enumeration;
they are deliberately slow and simple.
"""

import itertools
import json
import math
from operator import itemgetter

import numpy as np

from lippoly import (
    BinaryOnlyError,
    LipschitzViolation,
    LipschitzWitness,
    MixedProfile,
    PolymatrixGame,
    PureProfile,
    RangeViolation,
    UsageError,
    Valid,
    induce,
    pure_payoff,
    purify,
    replay,
)
from lippoly.game import (
    BOUND_TOL,
    _all_numbers,
    _check_sizes,
    _count,
    _number,
    _number_type,
    _require_numbers,
    payoff_matrix,
    tensor_guard,
)
from lippoly.purify.binary import sweep_step
from lippoly.purify.common import (
    NO_ADDITIONS,
    PurifyTrace,
    aggregate_profile,
    lifted,
    lifted_indices,
    pipeline_constants,
    record_bound,
    resolve_order,
    support_regret_max,
)


def random_game(n, m, lam, seed, spread_scale=1.0):
    """Valid game with per-pair coefficient spread up to the allowed cap.

    Each (i, i', j) row is a base offset in [0, 1/(n-1) - s] plus
    per-column deviations in [0, s], s = spread_scale * min(lam, 1/(n-1)).
    Sums over opponents then land in [0, 1] and every spread is <= lam.
    """
    rng = np.random.default_rng(seed)
    s = spread_scale * min(lam, 1.0 / (n - 1))
    base = rng.uniform(0.0, 1.0 / (n - 1) - s, size=(n, n, m, 1))
    dev = rng.uniform(0.0, s, size=(n, n, m, m))
    beta = base + dev
    idx = np.arange(n)
    beta[idx, idx] = 0.0
    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)


def discrepancy_vector(game, profile):
    """All players' discrepancies, action 1's payoff minus action 0's (binary games)."""
    if game.m != 2:
        raise BinaryOnlyError(f"discrepancy requires a binary game, m={game.m}")
    U = payoff_matrix(game, profile)
    return U[:, 1] - U[:, 0]


def zero_game(n=3, m=2, lam=0.5):
    return PolymatrixGame(n=n, m=m, beta=np.zeros((n, n, m, m)), lam=lam)


def coordination_game(lam=1.0):
    """Two players, two actions, payoff 1 for matching and 0 otherwise."""
    beta = np.zeros((2, 2, 2, 2))
    beta[0, 1] = np.eye(2)
    beta[1, 0] = np.eye(2)
    return PolymatrixGame(n=2, m=2, beta=beta, lam=lam)


def matching_pennies_game():
    """Row player wants to match, column player wants to mismatch."""
    beta = np.zeros((2, 2, 2, 2))
    beta[0, 1] = np.eye(2)
    beta[1, 0] = 1.0 - np.eye(2)
    return PolymatrixGame(n=2, m=2, beta=beta, lam=1.0)


def cycle_game(n, lam):
    """Matching pennies around a cycle: player i is paid lam for matching
    player i+1, and the last player lam for mismatching player 0.  Its
    only equilibrium plays every action with probability 1/2."""
    beta = np.zeros((n, n, 2, 2))
    for i in range(n - 1):
        beta[i, i + 1] = lam * np.eye(2)
    beta[n - 1, 0] = lam * (1.0 - np.eye(2))
    return PolymatrixGame(n=n, m=2, beta=beta, lam=lam)


def constant_gap_game(gaps, lam, n=2):
    """Player 0's action j pays gaps[j] regardless of what anyone does.

    Realized through player 1's block with identical columns, so the
    per-pair spread is zero and any declared lam is consistent.  All
    other blocks are zero; every other player is indifferent.
    """
    m = len(gaps)
    beta = np.zeros((n, n, m, m))
    beta[0, 1] = np.asarray(gaps, dtype=float)[:, None] * np.ones((1, m))
    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)


def random_mixed(n, m, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=(n, m)) + 1e-3
    return MixedProfile(p / p.sum(axis=1, keepdims=True))


def random_pure_actions(n, m, seed):
    return np.random.default_rng(seed).integers(0, m, size=n)


def payoff_matrix_oracle(game, profile):
    """Every player's action payoffs by a 4-D contraction of beta,
    independent of the game's flattened payoff operator."""
    probs = getattr(profile, "probs", profile)
    return np.einsum("abcd,bd->ac", game.beta, probs)


def payoff_oracle(game, i, j, actions):
    """Payoff of (i, j) against a pure profile by direct coefficient sum."""
    total = 0.0
    for ip in range(game.n):
        if ip != i:
            total += float(game.beta[i, ip, j, int(actions[ip])])
    return total


def mixed_payoff_oracle(game, i, j, probs):
    """Exhaustive expectation over every opponent pure profile."""
    n, m = game.n, game.m
    others = [ip for ip in range(n) if ip != i]
    actions = np.zeros(n, dtype=int)
    total = 0.0
    for combo in itertools.product(range(m), repeat=len(others)):
        weight = 1.0
        for ip, a in zip(others, combo):
            weight *= float(probs[ip][a])
            actions[ip] = a
        if weight:
            total += weight * payoff_oracle(game, i, j, actions)
    return total


def regret_oracle(game, i, probs):
    """Best payoff minus realized payoff, both through the enumeration oracle."""
    values = [mixed_payoff_oracle(game, i, j, probs) for j in range(game.m)]
    realized = sum(float(probs[i][j]) * values[j] for j in range(game.m))
    return max(max(values) - realized, 0.0)


def sweep_step_oracle(game, probs, i):
    """(c, ell) of the binary sweep's step for player i by two whole-profile
    evaluations: the discrepancies with p_i forced to 0 (c) and to 1 (c + ell)."""
    P0 = np.array(probs, dtype=np.float64)
    P0[i] = (1.0, 0.0)
    P1 = P0.copy()
    P1[i] = (0.0, 1.0)
    U0 = payoff_matrix_oracle(game, P0)
    U1 = payoff_matrix_oracle(game, P1)
    c = U0[:, 1] - U0[:, 0]
    return c, (U1[:, 1] - U1[:, 0]) - c


def reference_sweep(game, probs, order):
    """The binary sweep's chosen bits, each step through sweep_step_oracle.

    Same rule as the library: A = 2 c.ell over the relevant set, bit 0 when
    A > 0, 1 when A < 0, the regret-minimizing bit on a tie; pure players
    keep their bit; the relevant set grows to every player whose
    discrepancy is within lam * sqrt(n).
    """
    P = np.array(probs, dtype=np.float64)
    bound = game.lam * np.sqrt(game.n)
    U = payoff_matrix_oracle(game, P)
    d = U[:, 1] - U[:, 0]
    S = np.abs(d) <= bound
    bits = []
    for i in order:
        p_i = P[i, 1]
        if p_i in (0.0, 1.0):
            bit = int(p_i)
        else:
            c, ell = sweep_step_oracle(game, P, i)
            A = 2.0 * float(c[S] @ ell[S])
            bit = 0 if A > 0.0 else 1 if A < 0.0 else int(d[i] > 0.0)
            P[i] = (1.0, 0.0) if bit == 0 else (0.0, 1.0)
            d = c + bit * ell
        S |= np.abs(d) <= bound
        bits.append(bit)
    return bits


def per_replica_sweep(game, wsne, order=None, L=1):
    """The binary sweep (stage 2) one replica at a time on the vectors.

    Every rounded step reads (c, ell) through `sweep_step`, takes A from
    c[S].ell[S] and updates d, the set and the cost in O(n), and every
    step records the step bound; this is the library's sweep as it was
    before runs of one population advanced on scalars, kept as the
    reference for the run-wise sweep.  Returns (PureProfile, PurifyTrace).
    """
    consts = pipeline_constants(game, "binary", L)
    order = resolve_order(game.n * L, order)
    support_bound = consts["support"]
    trace = PurifyTrace(
        pipeline="binary", order=order, wsne_profile=lifted(wsne, L), thresholds={"delta": None}
    )
    record_bound(
        trace, "wsne_support_regret",
        support_regret_max(payoff_matrix(game, wsne), wsne.probs), support_bound,
    )

    p = wsne.probs[:, 1].tolist()
    d = discrepancy_vector(game, wsne)
    S = np.abs(d) <= support_bound
    cost = L * float(d[S] @ d[S])
    trace.additions.append(lifted_indices(S, L))
    trace.potentials.append(cost)

    step_cap, entry_cap = consts["step_cost_increase"], consts["entry_cost"]
    worst_step_excess = -math.inf
    for v in order:
        i = v // L
        p_i = p[i]
        if p_i == 0.0 or p_i == 1.0:
            trace.coefficients.append(None)
            bit, excess, added = int(p_i), 0.0, NO_ADDITIONS
        else:
            c, ell = sweep_step(game, d, p_i, i, L)
            A = L * float(2.0 * (c[S] @ ell[S]))
            bit = 0 if A > 0.0 else 1 if A < 0.0 else int(d[i] > 0.0)
            trace.coefficients.append(A)
            d = c if bit == 0 else c + ell
            new_members = (np.abs(d) <= support_bound) & ~S
            joined = int(new_members.sum())
            S = S | new_members
            new_cost = L * float(d[S] @ d[S])
            excess = new_cost - cost - entry_cap * (joined * L)
            cost = new_cost
            added = lifted_indices(new_members, L) if joined else NO_ADDITIONS
        worst_step_excess = max(worst_step_excess, excess)
        record_bound(
            trace, "step_cost_increase", worst_step_excess, step_cap, context=f"player {v}"
        )
        trace.chosen_actions.append(bit)
        trace.additions.append(added)
        trace.potentials.append(cost)

    actions = np.empty(len(order), dtype=np.int64)
    actions[list(order)] = trace.chosen_actions
    d_full = discrepancy_vector(game, aggregate_profile(game, L, actions))
    record_bound(trace, "sweep_drift", float(np.abs(d_full - d).max()), BOUND_TOL)
    trace.potentials[-1] = L * float(d_full[S] @ d_full[S])
    record_bound(trace, "terminal_cost", trace.potentials[-1], consts["terminal_cost"])
    return PureProfile(actions), trace


def sweep_mismatches(ref, trace, tol=1e-12):
    """Differences between two binary sweep traces of the same input.

    Decisions must be identical: chosen actions, set additions, which
    steps were rounded, and the bound names, all held.  Coefficients and
    potentials, as sequences, may differ within tol of their largest
    magnitude.
    """
    problems = []
    if trace.chosen_actions != ref.chosen_actions:
        problems.append("chosen actions")
    if [a.tolist() for a in trace.additions] != [a.tolist() for a in ref.additions]:
        problems.append("additions")
    if [c is None for c in trace.coefficients] != [c is None for c in ref.coefficients]:
        problems.append("unrounded steps")
    elif _scaled_gap([c for c in ref.coefficients if c is not None],
                     [c for c in trace.coefficients if c is not None]) > tol:
        problems.append("coefficients")
    if _scaled_gap(ref.potentials, trace.potentials) > tol:
        problems.append("potentials")
    if list(trace.bounds) != list(ref.bounds):
        problems.append("bound names")
    if not all(entry["ok"] for entry in trace.bounds.values()):
        problems.append("a bound failed")
    return problems


def growing_set_game(n=16, lam=0.06, level=0.85):
    """Three-action game whose m-action relevant set grows mid-sweep.

    Player 0 is paid level*lam per opponent for action 0 whatever they
    play, and lam per opponent playing action 0 for action 1; every other
    player is indifferent.  Returns (game, profile): player 0 pure on
    action 0, everyone else uniform.  Action 1 then starts more than eps1
    below action 0, outside player 0's set; the others go pure on action 0
    (b is zero while player 0's set is a single action, and the lowest
    index wins) and lift action 1 to the set mean after about three
    quarters of the sweep.
    """
    beta = np.zeros((n, n, 3, 3))
    beta[0, 1:, 0, :] = level * lam
    beta[0, 1:, 1, 0] = lam
    probs = np.full((n, 3), 1.0 / 3.0)
    probs[0] = (1.0, 0.0, 0.0)
    return PolymatrixGame(n=n, m=3, beta=beta, lam=lam), MixedProfile(probs)


def switcher_game(lam=0.01):
    """Binary game on 12 players whose stage 3 switches player 0.

    Drivers 1-5 are indifferent and mixed at 1/2; each one's rounding
    moves its dummy 5 players on (6-10, pure on action 1, indifferent at
    the start) to a discrepancy of 6.5 lam, so the cost rises by 42.25
    lam^2 a step, under the 48 lam^2 allowance, to 211 lam^2 in all, just
    over delta^2 = 202 lam^2.  Player 0 is pure on action 1 at
    discrepancy 5 lam, outside the relevant set; driver 1 rounding to
    action 1 moves it straight to -20 lam, past delta = 14.2 lam, so it
    switches and the final regret is 0.  The coefficients exceed the
    declared lam, which purify does not scan for.  Returns (game, profile).
    """
    n = 12
    e, D, F = 6.5 * lam, 5.0 * lam, 20.0 * lam
    beta = np.zeros((n, n, 2, 2))
    beta[0, 1] = [[0.0, F], [2.0 * D + F, 0.0]]
    for k in range(1, 6):
        beta[k + 5, k] = [[e, 0.0], [0.0, e]]
    probs = np.tile([0.0, 1.0], (n, 1))
    probs[1:6] = 0.5
    return PolymatrixGame(n=n, m=2, beta=beta, lam=lam), MixedProfile(probs)


def lifted_payoff_oracle(base, L, profile):
    """Every replica's action payoffs in the L-fold population lift of base.

    A replica faces the other populations' average behavior, so its
    payoffs are the base payoffs at the per-population mean profile, here
    contracted from base.beta directly; row i * L + l is replica l of
    population i.
    """
    probs = getattr(profile, "probs", profile)
    means = probs.reshape(base.n, L, base.m).mean(axis=1)
    return np.repeat(np.einsum("abcd,bd->ac", base.beta, means), L, axis=0)


def _scaled_gap(ref, got):
    """Largest difference of two float sequences over the largest |ref|."""
    ref, got = np.asarray(ref, dtype=float), np.asarray(got, dtype=float)
    if ref.shape != got.shape:
        return np.inf
    scale = np.abs(ref).max() if ref.size else 0.0
    gap = np.abs(ref - got).max() if ref.size else 0.0
    return gap / scale if scale else (0.0 if gap == 0.0 else np.inf)


def population_mismatches(base, profile, L, order=None, tol=1e-12):
    """Differences between purify on per-population state and the reference
    purify on the materialized lift induce(base, L).

    Returns (problems, population trace).  Decisions must be identical:
    final profile, chosen actions, set additions, switchers, stage-1
    profile and the bound names, all held; the population trace must
    replay on the lift to the reference's per-step profiles and sets.
    Floats may differ by reassociation only: the potentials and the
    rounding coefficients as sequences (b per step for m-action) within
    tol of their largest magnitude, since single coefficients are
    cancelling sums, and the final regret within tol relative.
    """
    lift = induce(base, L)
    reference = MixedProfile(np.repeat(profile.probs, L, axis=0))
    ref_final, ref = purify(lift, reference, order=order)
    final, trace = purify(base, profile, order=order, L=L)
    problems = []

    def same(name, a, b):
        if not a == b:
            problems.append(name)

    same("final profile", ref_final.actions.tolist(), final.actions.tolist())
    same("order", ref.order, trace.order)
    same("chosen actions", ref.chosen_actions, trace.chosen_actions)
    same("additions", [a.tolist() for a in ref.additions], [a.tolist() for a in trace.additions])
    same("switched players", ref.switched_players, trace.switched_players)
    same("stage-1 profile", ref.wsne_profile.probs.tolist(), trace.wsne_profile.probs.tolist())
    same("bound names", list(ref.bounds), list(trace.bounds))
    ref_steps, steps = replay(ref, lift), replay(trace, lift)
    same("replayed sets", ref_steps.relevant_sets, steps.relevant_sets)
    same("replayed profiles", [p.probs.tolist() for p in ref_steps.profiles],
         [p.probs.tolist() for p in steps.profiles])
    if not all(entry["ok"] for entry in trace.bounds.values()):
        problems.append("a bound failed")
    if _scaled_gap(ref.potentials, trace.potentials) > tol:
        problems.append("potentials")
    same("unrounded steps", [c is None for c in ref.coefficients],
         [c is None for c in trace.coefficients])
    if trace.pipeline == "binary":
        rounded = [c for c in ref.coefficients if c is not None]
        if _scaled_gap(rounded, [c for c in trace.coefficients if c is not None]) > tol:
            problems.append("coefficients")
    elif any(_scaled_gap(a, b) > tol for a, b in zip(ref.coefficients, trace.coefficients)):
        problems.append("coefficients")
    if abs(ref.final_max_regret - trace.final_max_regret) > tol * abs(ref.final_max_regret):
        problems.append("final regret")
    return problems, trace


def reference_check_game(game):
    """check_game as one scan of all rows at once, three n^2 m arrays of
    per-row extremes and spreads: the reference its row chunks are held to."""
    beta = game.beta
    n = game.n
    hi = beta.max(axis=3)
    lo = beta.min(axis=3)
    spread = hi - lo
    worst = float(spread.max())
    if worst > game.lam + BOUND_TOL:
        i, ip, j = np.unravel_index(int(np.argmax(spread)), spread.shape)
        j_hi = int(np.argmax(beta[i, ip, j]))
        j_lo = int(np.argmin(beta[i, ip, j]))
        base = np.zeros(n, dtype=np.int64)
        base[i] = j
        a = base.copy()
        a[ip] = j_hi
        b = base.copy()
        b[ip] = j_lo
        profile_a = PureProfile(a)
        profile_b = PureProfile(b)
        observed = abs(pure_payoff(game, int(i), int(j), profile_a)
                       - pure_payoff(game, int(i), int(j), profile_b))
        witness = LipschitzWitness(
            player=int(i),
            profile_a=profile_a,
            profile_b=profile_b,
            observed_gap=observed,
            allowed_gap=game.lam * 1.0,
        )
        return LipschitzViolation(witness)

    upper = hi.sum(axis=1)
    lower = lo.sum(axis=1)
    if upper.max() > 1.0 + BOUND_TOL:
        i, j = np.unravel_index(int(np.argmax(upper)), upper.shape)
        return RangeViolation(player=int(i), action=int(j), direction="upper")
    if lower.min() < -BOUND_TOL:
        i, j = np.unravel_index(int(np.argmin(lower)), lower.shape)
        return RangeViolation(player=int(i), action=int(j), direction="lower")
    return Valid()


# The game wire format as it was read and written before load_game and
# game_from_json shared one reader, and save_game wrote through
# canonical_bytes: the references the reader and the writer are held to.

def reference_game_from_json(data):
    """The game, or the UsageError, of a parsed game document, read
    block by block from the nested lists."""
    try:
        n = _count(data["n"], "player count")
        m = _count(data["m"], "action count")
        lam = _number(data["lambda"], "lambda")
        raw_blocks = data.get("beta", [])
        # One flat list: a list of per-block tuples would set off garbage
        # collections that walk the whole parsed document.
        indices = list(itertools.chain.from_iterable(map(itemgetter("i", "ip"), raw_blocks)))
        if not _all_numbers(indices):
            entry = raw_blocks[next(k for k, v in enumerate(indices) if not _number_type(type(v))) // 2]
            raise UsageError(
                f"malformed game JSON: block ({entry['i']!r}, {entry['ip']!r}) "
                "has an index that is not a number"
            )
        # Floats, so that an index like 1.7 is refused, not truncated.
        pairs = np.array(indices, dtype=np.float64).reshape(-1, 2) - 1
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    # Before anything is allocated at these sizes.
    _check_sizes(n, m)
    tensor_guard(n, m, f"a game of {n} players and {m} actions")
    fractional = (np.trunc(pairs) != pairs).any(axis=1)
    if fractional.any():
        entry = raw_blocks[int(np.argmax(fractional))]
        raise UsageError(f"block ({entry['i']}, {entry['ip']}) has a non-integer index")
    i, ip = pairs[:, 0], pairs[:, 1]
    bad = (i < 0) | (i >= n) | (ip < 0) | (ip >= n) | (i == ip)
    if bad.any():
        entry = raw_blocks[int(np.argmax(bad))]
        raise UsageError(f"block ({entry['i']}, {entry['ip']}) out of range")
    i, ip = i.astype(np.int64), ip.astype(np.int64)
    key = i * n + ip
    repeated = np.bincount(key)[key] > 1
    if repeated.any():
        entry = raw_blocks[int(np.argmax(repeated))]
        raise UsageError(f"block ({entry['i']}, {entry['ip']}) appears more than once")
    beta = np.zeros((n, n, m, m))
    if raw_blocks:
        beta[i, ip] = _reference_block_matrices(raw_blocks, m)
    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)


def _reference_block_matrices(raw_blocks, m):
    """All blocks' matrices as one (k, m, m) array.

    Once every matrix is seen to hold m rows of m numbers, the entries
    stream through one np.fromiter (np.array on the nested lists keeps a
    record per list while it converts, several times the result's size).
    Otherwise the error names the first block whose matrix is not m x m,
    or the first entry that is not a number.
    """
    flatten = itertools.chain.from_iterable
    try:
        matrices = [entry["matrix"] for entry in raw_blocks]
        if all(len(matrix) == m for matrix in matrices) and all(
            len(row) == m for row in flatten(matrices)
        ):
            if not _all_numbers(flatten(flatten(matrices))):
                _require_numbers(flatten(flatten(matrices)), "game")
            values = flatten(flatten(matrices))
            count = len(matrices) * m * m
            return np.fromiter(values, dtype=np.float64, count=count).reshape(-1, m, m)
        error = None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        error = exc
    for entry in raw_blocks:
        try:
            shape = np.shape(entry.get("matrix"))
        except ValueError:
            shape = "ragged rows"
        if shape != (m, m):
            raise UsageError(
                f"block ({entry['i']}, {entry['ip']}) has shape {shape}, want ({m}, {m})"
            )
    raise UsageError(f"malformed game JSON: {error}") from error


def reference_game_to_json(game):
    """A game's wire form, built block by block."""
    blocks = []
    for i in range(game.n):
        for ip in range(game.n):
            if i == ip:
                continue
            block = game.beta[i, ip]
            if np.any(block != 0.0):
                blocks.append({
                    "i": i + 1,
                    "ip": ip + 1,
                    "matrix": [[float(x) for x in row] for row in block],
                })
    return {"n": game.n, "m": game.m, "lambda": game.lam, "beta": blocks}


def reference_save_game(game, path):
    """A game file, streamed through json.dump."""
    with open(path, "w") as fh:
        json.dump(reference_game_to_json(game), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_outcome(read, *args):
    """What a game reader gives: ("game", n, m, lam, operator bytes), or
    the type name and message of what it raised."""
    try:
        game = read(*args)
    except Exception as exc:  # any error counts; both sides must raise the same
        return (type(exc).__name__, str(exc))
    return ("game", game.n, game.m, game.lam, game.operator.tobytes())

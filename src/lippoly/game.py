"""Polymatrix games with a Lipschitz budget: representation and evaluation.

A game couples every ordered pair of distinct players (i, ip) through an
m x m coefficient block beta[i][ip]; player i's payoff for an action is the
sum of the blocks' entries selected by the opponents' actions.  The declared
parameter lam bounds how much any single opponent's choice can move any
payoff entry, and a validity scan keeps total payoffs inside [0, 1].

All player/action indices are 0-based in code; the JSON wire format is
1-based.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import numbers
import struct
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import BinaryOnlyError, DistributionError, InternalError, UsageError

# Absolute tolerance for every comparison against an analytic bound.
BOUND_TOL = 1e-9
# Mixed rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9
# Computed regrets below this floor indicate an arithmetic bug.
REGRET_FLOOR = -1e-12


def _freeze(arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PolymatrixGame:
    """Immutable n-player, m-action polymatrix game.

    Fields
    ------
    n : int
        Player count (>= 1).
    m : int
        Actions per player (>= 2, uniform).
    beta : ndarray, shape (n, n, m, m)
        Pairwise payoff coefficients; beta[i, ip, j, jp] is the contribution
        to player i playing j when player ip plays jp.  Diagonal blocks
        (i == ip) are forced to zero and never read.
    lam : float
        Declared Lipschitz parameter, in (0, 1].
    operator : ndarray, shape (n*m, n*m), derived
        The payoff map holding the coefficients (beta is a view of it):
        entry [i*m + j, ip*m + jp] is beta[i, ip, j, jp], so the action
        payoffs against a mixed profile P are `payoffs(game, P)`.
    """

    n: int
    m: int
    beta: np.ndarray
    lam: float
    operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_sizes(self.n, self.m)
        if not (0.0 < self.lam <= 1.0):
            raise UsageError(f"Lipschitz parameter must be in (0, 1], got {self.lam}")
        n, m = self.n, self.m
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (n, n, m, m):
            raise UsageError(
                f"coefficient array must have shape {(n, n, m, m)}, got {beta.shape}"
            )
        # Axes (i, j, ip, jp): one contiguous copy in the operator's layout.
        flat = np.array(beta.transpose(0, 2, 1, 3), order="C")
        idx = np.arange(n)
        flat[idx, :, idx, :] = 0.0
        if not np.isfinite(flat).all():
            raise UsageError("game coefficients must be finite (no NaN or infinity)")
        _freeze(flat)
        object.__setattr__(self, "operator", flat.reshape(n * m, n * m))
        object.__setattr__(self, "beta", flat.transpose(0, 2, 1, 3))
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class PureProfile:
    """One action index per player."""

    actions: np.ndarray

    def __post_init__(self):
        actions = np.asarray(self.actions)
        if actions.ndim != 1:
            raise UsageError("pure profile must be a flat vector of action indices")
        if actions.size and not np.issubdtype(actions.dtype, np.integer):
            rounded = np.rint(actions)
            if not np.array_equal(rounded, actions):
                raise UsageError("pure profile entries must be integers")
            actions = rounded.astype(np.int64)
        object.__setattr__(self, "actions", _freeze(actions.astype(np.int64)))

    @property
    def n(self):
        return self.actions.size

    def validate_for(self, game, L=1):
        """Raise UsageError unless this is a profile of the game's L-fold
        population lift: n*L entries, each an action in [0, m)."""
        if self.n != game.n * L:
            raise UsageError(f"profile has {self.n} entries, game has {game.n * L} players")
        if self.actions.min() < 0 or self.actions.max() >= game.m:
            bad = int(np.argmax((self.actions < 0) | (self.actions >= game.m)))
            raise UsageError(
                f"player {bad} action {self.actions[bad]} out of range [0, {game.m})"
            )


@dataclass(frozen=True)
class MixedProfile:
    """One probability distribution over actions per player (rows of probs)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise UsageError("mixed profile must be an (n, m) probability matrix")
        if probs.size:
            bad = ~np.isfinite(probs).all(axis=1)
            if bad.any():
                player = int(np.argmax(bad))
                raise DistributionError(f"player {player} has a non-finite probability")
            if probs.min() < -ROW_SUM_TOL:
                i, j = np.unravel_index(int(np.argmin(probs)), probs.shape)
                raise DistributionError(
                    f"player {i} assigns negative probability {probs[i, j]:.3g} to action {j}"
                )
            sums = probs.sum(axis=1)
            off = np.abs(sums - 1.0)
            if off.max() > ROW_SUM_TOL:
                i = int(np.argmax(off))
                raise DistributionError(
                    f"player {i} row sums to {sums[i]:.12g}, off by more than {ROW_SUM_TOL}"
                )
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def n(self):
        return self.probs.shape[0]

    @property
    def m(self):
        return self.probs.shape[1]

    @classmethod
    def from_pure(cls, pure, m):
        probs = np.zeros((pure.n, m))
        probs[np.arange(pure.n), pure.actions] = 1.0
        return cls(probs)

    def is_pure_valued(self):
        """True iff every row puts (up to tolerance) all mass on one action."""
        return bool(self.probs.size == 0 or self.probs.max(axis=1).min() >= 1.0 - ROW_SUM_TOL)

    def to_pure(self):
        if not self.is_pure_valued():
            raise UsageError("profile is not pure-valued")
        return PureProfile(np.argmax(self.probs, axis=1))

    def validate_for(self, game):
        if self.probs.shape != (game.n, game.m):
            raise UsageError(
                f"profile shape {self.probs.shape} does not match game ({game.n}, {game.m})"
            )


@dataclass(frozen=True)
class LipschitzWitness:
    """Two pure profiles showing a payoff jump beyond the declared budget.

    The profiles agree at `player` (the payoff recipient) and differ only at
    other coordinates; `allowed_gap` is lam times that Hamming distance.
    """

    player: int
    profile_a: PureProfile
    profile_b: PureProfile
    observed_gap: float
    allowed_gap: float


@dataclass(frozen=True)
class RegretReport:
    per_player_regret: np.ndarray
    max_regret: float
    argmax_player: int


@dataclass(frozen=True)
class Valid:
    """check_game outcome: both scans passed."""


@dataclass(frozen=True)
class RangeViolation:
    """check_game outcome: a payoff-range inequality failed.

    direction is "upper" (sum of per-opponent maxima above 1) or "lower"
    (sum of per-opponent minima below 0) for the named player/action row.
    """

    player: int
    action: int
    direction: str


@dataclass(frozen=True)
class LipschitzViolation:
    """check_game outcome: a coefficient gap exceeds lam; carries the witness."""

    witness: LipschitzWitness


def pure_payoff(game, i, j, others):
    """Payoff to player i for action j against a pure profile.

    Entry i of `others` is ignored (a player contributes nothing to their own
    payoff).  Cost O(n).
    """
    _validate_indices(game, i, j)
    others.validate_for(game)
    cols = game.beta[i, np.arange(game.n), j, others.actions]
    return float(cols.sum())


def payoffs(game, probs):
    """Every action payoff against a mixed profile, or against each of a stack.

    probs is an (n, m) probability array or a (k, n, m) stack of them; the
    result has its shape, entry [..., i, j] being player i's payoff for
    action j.  The one payoff kernel: one operator product, O(k n^2 m^2),
    and no validation, so solver and purifier loops call it on raw arrays.
    """
    n, m = game.n, game.m
    return (probs.reshape(-1, n * m) @ game.operator.T).reshape(probs.shape)


def regrets(U, probs):
    """Best payoff minus realized payoff, per player (and per profile of a
    stack): U are the payoffs `payoffs` gives for probs."""
    return U.max(axis=-1) - (U * probs).sum(axis=-1)


def action_regrets(U):
    """Best payoff minus each action's payoff, in the shape of the payoffs
    U; entry [i, j] is the regret of player i playing action j purely."""
    return U.max(axis=-1, keepdims=True) - U


def payoff_matrix(game, profile):
    """The (n, m) matrix of every player's action payoffs; cost O(n^2 m^2)."""
    profile.validate_for(game)
    return payoffs(game, profile.probs)


def regret_report(game, profile):
    """Per-player regrets in one pass, with the (lowest-index) arg max."""
    per = regrets(payoff_matrix(game, profile), profile.probs)
    if per.min() < REGRET_FLOOR:
        raise InternalError(
            f"regret {per.min():.3g} below floor {REGRET_FLOOR}; evaluation is broken"
        )
    per = np.maximum(per, 0.0)
    top = int(np.argmax(per))
    return RegretReport(_freeze(per), float(per[top]), top)


def discrepancy_vector(game, profile):
    """All players' discrepancies, action 1's payoff minus action 0's (binary games)."""
    if game.m != 2:
        raise BinaryOnlyError(f"discrepancy requires a binary game, m={game.m}")
    U = payoff_matrix(game, profile)
    return U[:, 1] - U[:, 0]


def check_game(game):
    """Scan coefficients for Lipschitz consistency and payoff range.

    The Lipschitz scan compares, within every off-diagonal block row, the
    spread across the opponent's actions (n^2 m^3-style comparisons done as a
    max-minus-min sweep); a violation synthesizes a canonical witness pair:
    player i fixed to j, everyone else on action 0, the two profiles
    differing only at the offending opponent.  The range scan checks the 2nm
    inequalities sum-of-max <= 1 and sum-of-min >= 0.
    """
    beta = game.beta
    n = game.n
    hi = beta.max(axis=3)
    lo = beta.min(axis=3)
    spread = hi - lo
    idx = np.arange(n)
    spread[idx, idx] = 0.0
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

    mask = np.ones((n, n), dtype=bool)
    mask[idx, idx] = False
    upper = np.where(mask[:, :, None], hi, 0.0).sum(axis=1)
    lower = np.where(mask[:, :, None], lo, 0.0).sum(axis=1)
    if upper.max() > 1.0 + BOUND_TOL:
        i, j = np.unravel_index(int(np.argmax(upper)), upper.shape)
        return RangeViolation(player=int(i), action=int(j), direction="upper")
    if lower.min() < -BOUND_TOL:
        i, j = np.unravel_index(int(np.argmin(lower)), lower.shape)
        return RangeViolation(player=int(i), action=int(j), direction="lower")
    return Valid()


def _validate_indices(game, i, j):
    if not (0 <= i < game.n):
        raise UsageError(f"player index {i} out of range [0, {game.n})")
    if not (0 <= j < game.m):
        raise UsageError(f"action index {j} out of range [0, {game.m})")


# ---------------------------------------------------------------------------
# JSON wire format (1-based indices)

def game_to_json(game):
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


def _check_sizes(n, m):
    if n < 1:
        raise UsageError(f"player count must be >= 1, got {n}")
    if m < 2:
        raise UsageError(f"action count must be >= 2, got {m}")


def _is_number(value):
    """True for a JSON number; strings and booleans, which float() would
    coerce, are not numbers on the wire."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, name):
    if not _is_number(value):
        raise UsageError(f"{name} must be a number, got {value!r}")
    return float(value)


def _count(value, name):
    """A size field of the wire format; 2.5 is refused, not truncated to 2."""
    number = _number(value, name)
    if not number.is_integer():
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(number)


def game_from_json(data):
    try:
        n = _count(data["n"], "player count")
        m = _count(data["m"], "action count")
        lam = _number(data["lambda"], "lambda")
        raw_blocks = data.get("beta", [])
        # Streamed: a list of per-block tuples would set off garbage
        # collections that walk the whole parsed document.  Floats, so
        # that an index like 1.7 is refused, not truncated.
        pairs = np.fromiter(
            itertools.chain.from_iterable(map(itemgetter("i", "ip"), raw_blocks)),
            dtype=np.float64,
            count=2 * len(raw_blocks),
        ).reshape(-1, 2) - 1
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    # Before anything is allocated at these sizes.
    _check_sizes(n, m)
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
        beta[i, ip] = _block_matrices(raw_blocks, m)
    return PolymatrixGame(n=n, m=m, beta=beta, lam=lam)


def _block_matrices(raw_blocks, m):
    """All blocks' matrices as one (k, m, m) array.

    Once every matrix is seen to hold m rows of m entries, the entries
    stream through one np.fromiter (np.array on the nested lists keeps a
    record per list while it converts, several times the result's size).
    Otherwise the error names the first block whose matrix is not m x m.
    """
    try:
        matrices = [entry["matrix"] for entry in raw_blocks]
        flatten = itertools.chain.from_iterable
        if all(len(matrix) == m for matrix in matrices) and all(
            len(row) == m for row in flatten(matrices)
        ):
            values = flatten(flatten(matrices))
            count = len(matrices) * m * m
            return np.fromiter(values, dtype=np.float64, count=count).reshape(-1, m, m)
        error = None
    except (KeyError, TypeError, ValueError) as exc:
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


def profile_to_json(profile):
    if isinstance(profile, PureProfile):
        return {"pure": [int(a) + 1 for a in profile.actions]}
    return {"mixed": [[float(x) for x in row] for row in profile.probs]}


def profile_from_json(data):
    """A profile from its wire form: {"pure": [1-based actions]} or
    {"mixed": [[probabilities]]}.  A document that is not an object,
    entries that are not numbers (strings and booleans included), ragged
    rows and non-integer actions raise UsageError."""
    if not isinstance(data, dict):
        raise UsageError(f"profile JSON must be an object, got {type(data).__name__}")
    try:
        if "pure" in data:
            entries = data["pure"]
            _require_numbers(entries)
            # Floats, so that PureProfile refuses 1.5 instead of it being cast to 1.
            return PureProfile(np.asarray(entries, dtype=np.float64) - 1)
        if "mixed" in data:
            rows = data["mixed"]
            _require_numbers(itertools.chain.from_iterable(rows))
            return MixedProfile(np.asarray(rows, dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed profile JSON: {exc}") from exc
    raise UsageError('profile JSON needs a "pure" or "mixed" key')


def _require_numbers(entries):
    for value in entries:
        if not _is_number(value):
            raise UsageError(f"malformed profile JSON: {value!r} is not a number")


def canonical_bytes(obj):
    """Deterministic JSON encoding used for records and byte-compare tests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def game_digest(game):
    """16 hex characters of SHA-256 over a little-endian header (n, m as
    int64, lam as float64) and the operator's float64 coefficients."""
    digest = hashlib.sha256(struct.pack("<qqd", game.n, game.m, game.lam))
    digest.update(np.ascontiguousarray(game.operator, dtype="<f8"))
    return digest.hexdigest()[:16]


def load_json(path):
    """Parse a JSON file, refusing the non-standard NaN/Infinity literals.

    The cyclic garbage collector is paused while the parser runs: a parsed
    document holds no reference cycles, and on a large game file the
    collections that its many new lists and dicts trigger cost more than
    the parse itself.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    finally:
        if was_enabled:
            gc.enable()


def _reject_constant(name):
    raise UsageError(f"non-finite number {name} in JSON input")


def load_game(path):
    return game_from_json(load_json(path))


def save_game(game, path):
    with open(path, "w") as fh:
        json.dump(game_to_json(game), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

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
import os
import re
import struct
import sys
from array import array
from dataclasses import KW_ONLY, dataclass, field
from operator import itemgetter

import numpy as np

from .errors import BinaryOnlyError, BudgetExceeded, DistributionError, InternalError, UsageError

# Absolute tolerance for every comparison against an analytic bound.
BOUND_TOL = 1e-9
# Mixed rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9
# Computed regrets below this floor indicate an arithmetic bug.
REGRET_FLOOR = -1e-12
# Largest coefficient count n^2 m^2 of a game tensor that is allocated
# (0.8 GB per float64 copy); see `tensor_guard`.
TENSOR_GUARD = 100_000_000


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
    operator : ndarray, shape (n*m, n*m)
        The payoff map holding the coefficients (beta is a view of it):
        entry [i*m + j, ip*m + jp] is beta[i, ip, j, jp], so the action
        payoffs against a mixed profile P are `payoffs(game, P)`.  Passed
        in place of beta, it is the game's own: copied only if it is not a
        writable C-ordered float64 array, and frozen.
    """

    n: int
    m: int
    _: KW_ONLY
    beta: np.ndarray = None
    lam: float
    operator: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n, m = _check_sizes(self.n, self.m)
        lam = _number(self.lam, "Lipschitz parameter", "lambda")
        if self.beta is None and self.operator is not None:
            operator = np.require(self.operator, np.float64, "CW")
            if operator.shape != (n * m, n * m):
                raise UsageError(f"operator must have shape {(n * m, n * m)}, got {operator.shape}")
        else:
            beta = np.asarray(self.beta, dtype=np.float64)
            if beta.shape != (n, n, m, m):
                raise UsageError(
                    f"coefficient array must have shape {(n, n, m, m)}, got {beta.shape}"
                )
            # Axes (i, j, ip, jp): one contiguous copy in the operator's layout.
            operator = np.array(beta.transpose(0, 2, 1, 3), order="C")
        idx = np.arange(n)
        operator.reshape(n, m, n, m)[idx, :, idx, :] = 0.0
        # The sum is finite when every entry is, and needs no boolean copy
        # of the operator; only a sum that is not (a non-finite entry, or
        # finite entries that overflow) has the entries checked one by one.
        with np.errstate(over="ignore"):
            total = operator.sum()
        if not np.isfinite(total) and not np.isfinite(operator).all():
            raise UsageError("game coefficients must be finite (no NaN or infinity)")
        _freeze(operator)
        object.__setattr__(self, "operator", operator.reshape(n * m, n * m))
        object.__setattr__(self, "beta", operator.reshape(n, m, n, m).transpose(0, 2, 1, 3))
        object.__setattr__(self, "lam", lam)


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
        self.check_actions(game.m, 0)

    def check_actions(self, m, first):
        """Raise UsageError naming the first player whose action is not in
        [0, m), players and actions numbered from `first`."""
        bad = (self.actions < 0) | (self.actions >= m)
        if bad.any():
            player = int(np.argmax(bad))
            raise UsageError(
                f"player {player + first} action {self.actions[player] + first} "
                f"out of range [{first}, {m + first})"
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
            _check_distributions(probs, 0)
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def n(self):
        return self.probs.shape[0]

    @property
    def m(self):
        return self.probs.shape[1]

    @classmethod
    def from_pure(cls, pure, m):
        """Each player's action of `pure` with probability 1; an action
        outside [0, m) raises UsageError naming its player."""
        pure.check_actions(m, 0)
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


def _check_distributions(probs, first):
    """Raise DistributionError naming the first row of probs that is no
    distribution, players and actions numbered from `first`."""
    bad = ~np.isfinite(probs).all(axis=1)
    if bad.any():
        player = int(np.argmax(bad)) + first
        raise DistributionError(f"player {player} has a non-finite probability")
    if probs.min() < -ROW_SUM_TOL:
        i, j = np.unravel_index(int(np.argmin(probs)), probs.shape)
        raise DistributionError(
            f"player {i + first} assigns negative probability {probs[i, j]:.3g} "
            f"to action {j + first}"
        )
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0)
    if off.max() > ROW_SUM_TOL:
        i = int(np.argmax(off))
        raise DistributionError(
            f"player {i + first} row sums to {sums[i]:.12g}, off by more than {ROW_SUM_TOL}"
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
    payoffs: np.ndarray


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
    """Per-player regrets in one pass, with the (lowest-index) arg max and
    the read-only payoff matrix they come from, as `payoffs`."""
    U = payoff_matrix(game, profile)
    per = regrets(U, profile.probs)
    if per.min() < REGRET_FLOOR:
        raise InternalError(
            f"regret {per.min():.3g} below floor {REGRET_FLOOR}; evaluation is broken"
        )
    per = np.maximum(per, 0.0)
    top = int(np.argmax(per))
    return RegretReport(_freeze(per), float(per[top]), top, _freeze(U))


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

    # Self blocks are zero (PolymatrixGame zeroes them), so they add nothing.
    upper = hi.sum(axis=1)
    lower = lo.sum(axis=1)
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
    """A game's wire form: its nonzero blocks in row-major pair order, 1-based."""
    i, ip = np.nonzero((game.beta != 0.0).any(axis=(2, 3)))
    blocks = [
        {"i": a, "ip": b, "matrix": matrix}
        for a, b, matrix in zip((i + 1).tolist(), (ip + 1).tolist(), game.beta[i, ip].tolist())
    ]
    return {"n": game.n, "m": game.m, "lambda": game.lam, "beta": blocks}


def _check_sizes(n, m):
    """The player and action counts as ints, n >= 1 and m >= 2."""
    return _integer(n, "player count", least=1), _integer(m, "action count", least=2)


def tensor_guard(n, m, what):
    """Refuse a game tensor of n^2 m^2 coefficients above TENSOR_GUARD
    before it is allocated: BudgetExceeded naming `what`, with the count
    as its estimate.  The loader, the generator and `induce` call it."""
    entries = n * n * m * m
    if entries > TENSOR_GUARD:
        raise BudgetExceeded(
            f"{what} needs {entries} coefficients, over the budget of {TENSOR_GUARD:g}",
            estimate=entries,
        )


def _number_type(kind):
    """True for int, float and numpy's real types; str and bool, which
    float() would coerce, are not numbers here, nor on the wire."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _integer_type(kind):
    """True for int and numpy's integer types; bool, float and str, which
    int() would coerce, are not integers here."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


# The entry checks: every count, level and choice passed in from outside
# goes through _integer, _number or _choice, whose UsageError names it.
def _integer(value, name, least=None):
    """A count or seed as an int; 2.5, True and "3" are refused, not
    truncated or coerced, and so is a value below `least`."""
    if not _integer_type(type(value)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise UsageError(f"{name} must be >= {least}, got {value}")
    return int(value)


# The ranges _number holds a value to: name -> (test, how a refusal reads).
# A level is at most the largest float, so an int too large for one is refused.
_RANGES = {
    "level": (lambda x: 0.0 < x <= sys.float_info.max, "positive and finite"),
    "lambda": (lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
    "fraction": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
}


def _number(value, name, within=None):
    """A number as a float; strings and booleans are refused, and so is a
    value outside the range named by `within` (a key of _RANGES)."""
    if not _number_type(type(value)):
        raise UsageError(f"{name} must be a number, got {value!r}")
    if within is not None:
        test, phrase = _RANGES[within]
        if not test(value):
            raise UsageError(f"{name} must be {phrase}, got {value}")
    return float(value)


def _choice(value, name, options):
    """One of a tuple of options, as given."""
    if value not in options:
        raise UsageError(f"{name} must be one of {options}, got {value!r}")
    return value


def _all_numbers(values):
    """True when every value is a number in the sense of _number_type.

    One pass collects the distinct types at C speed; only those few are
    then checked.
    """
    return all(map(_number_type, set(map(type, values))))


def _count(value, name):
    """A size field of the wire format; 2.5 is refused, not truncated to 2."""
    number = _number(value, name)
    if not number.is_integer():
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(number)


# What the reader leaves in place of a block it took (see _parse_game).
_TAKEN = object()


class _Block(dict):
    """A block dict, shown by its indices as the document gives them."""

    def __repr__(self):
        return f"block ({self['i']!r}, {self['ip']!r})"


def game_from_json(data):
    """A game from its wire form: {"n", "m", "lambda", "beta": [blocks]},
    each block {"i", "ip", "matrix"} with 1-based indices and an m x m
    matrix of numbers, read as its json.dumps text by load_game's reader.
    Anything else, or what json.dumps cannot encode as standard JSON (a
    numpy integer, NaN or infinity), raises UsageError.  The document, its
    text and their parse are alive at once: read files with load_game."""
    try:
        text = json.dumps(data, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    return _build_game(*_parse_game("game JSON", text))


def _build_game(document, values, repeats):
    """The game of what `_parse_game` read, or the UsageError of the first
    check it fails: sizes, indices, matrices.  If "beta" holds just the taken
    blocks, each m x m, the checks run on a (blocks, m*m + 3) view of the
    buffer, whose entries are scattered into the operator; else the blocks
    are read as dicts, each taken one restored as a _Block."""
    flat = np.frombuffer(values)
    k = int(flat[-1]) if len(flat) else 0
    rows = flat.reshape(-1, k * k + 3)
    beta = document.get("beta") if isinstance(document, dict) else None
    fast = type(beta) is list and beta.count(_TAKEN) == len(beta) == len(rows)
    dicts = not (fast and (k == document.get("m") or not len(rows)))
    if dicts:
        grids = rows[:, :-3].reshape(len(rows), k, k).tolist()
        taken = (_Block(i=int(r[-3]), ip=int(r[-2]), matrix=g) for r, g in zip(rows, grids))
        document = _restored(document, taken, repeats)
    try:
        n = _count(document["n"], "player count")
        m = _count(document["m"], "action count")
        lam = _number(document["lambda"], "lambda")
        blocks = document.get("beta", [])
        if type(blocks) is not list:
            got = repr(blocks) if type(blocks) is _Block else type(blocks).__name__
            raise UsageError(f'malformed game JSON: "beta" must be a list, got {got}')
        if dicts:
            # One flat list: a list of per-block pairs would set off garbage
            # collections that walk the whole parsed document.
            named = list(itertools.chain.from_iterable(map(itemgetter("i", "ip"), blocks)))
            if not _all_numbers(named):
                first = next(at for at, v in enumerate(named) if not _number_type(type(v)))
                entry = blocks[first // 2]
                raise UsageError(f"malformed game JSON: block ({entry['i']!r}, {entry['ip']!r}) "
                                 "has an index that is not a number")
            # Floats, so that an index like 1.7 is refused, not truncated.
            named = np.array(named, dtype=np.float64).reshape(-1, 2)
        else:
            named = rows[:, -3:-1]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    # Before anything is allocated at these sizes.
    _check_sizes(n, m)
    tensor_guard(n, m, f"a game of {n} players and {m} actions")

    def block(at):
        """Block `at` of "beta", by its indices as the document gives them."""
        return repr(_Block(blocks[at] if dicts else zip(("i", "ip"), map(int, named[at]))))

    operator = np.zeros((n * m, n * m))
    entries = (lambda: _block_matrices(blocks, m)) if dicts else rows[:, :-3]
    _scatter(operator.reshape(n, m, n, m), named, entries, block)
    return PolymatrixGame(n=n, m=m, lam=lam, operator=operator)


# Blocks scattered into the operator at a time, so that the scatter's own
# index arrays stay small beside the entries and the operator.
_SCATTER = 1 << 16


def _scatter(tensor, named, entries, block, after=None):
    """Scatter a chunk of blocks into the (n, m, n, m) `tensor`, or raise
    the UsageError of the first whose 1-based indices in `named` are not
    integers, out of range or equal, or that repeats one before it in the
    chunk; given the key i*n + ip of the block before the chunk, `after`,
    of the first whose key is not above its predecessor's.  `entries` are
    the chunk's m*m entries a block, or a function that makes them once
    the indices pass.  Returns the last block's key."""
    n, m = tensor.shape[:2]
    pairs = named - 1
    fractional = (np.trunc(pairs) != pairs).any(axis=1)
    if fractional.any():
        raise UsageError(f"{block(np.argmax(fractional))} has a non-integer index")
    i, ip = pairs.T
    bad = (i < 0) | (i >= n) | (ip < 0) | (ip >= n) | (i == ip)
    if bad.any():
        raise UsageError(f"{block(np.argmax(bad))} out of range")
    # Exact in float64: below n^2, which the tensor guard keeps under 2^53.
    key = (i * n + ip).astype(np.int64)
    del pairs, i, ip
    repeated = np.bincount(key)[key] > 1 if after is None else np.diff(key, prepend=after) <= 0
    if repeated.any():
        raise UsageError(f"{block(np.argmax(repeated))} appears more than once")
    entries = entries() if callable(entries) else entries
    for at in range(0, len(key), _SCATTER):
        i, ip = np.divmod(key[at:at + _SCATTER], n)
        tensor[i, :, ip, :] = entries[at:at + _SCATTER].reshape(-1, m, m)
    return key[-1] if len(key) else after


def _restored(value, blocks, repeats):
    """A parsed value with each _TAKEN in it, in the order the reader met
    them, made the next of `blocks`; an object's repeated keys included."""
    if value is _TAKEN:
        return next(blocks)
    if type(value) is list:
        for at, item in enumerate(value):
            value[at] = _restored(item, blocks, repeats)
    elif isinstance(value, dict):
        for key, item in list(repeats.get(id(value), value.items())):
            value[key] = _restored(item, blocks, repeats)
    return value


def _block_matrices(blocks, m):
    """Block dicts' matrices as one (blocks, m*m) array, or the UsageError: a
    non-number if all have m rows of m entries, else the first block of
    another shape; else an entry too large."""
    flatten = itertools.chain.from_iterable
    matrices = [block.get("matrix") for block in blocks]
    error = None
    try:
        if all(len(matrix) == m for matrix in matrices) and all(
            len(row) == m for row in flatten(matrices)
        ):
            _require_numbers(flatten(flatten(matrices)), "game")
            return np.fromiter(flatten(flatten(matrices)), np.float64, len(blocks) * m * m)
    except (TypeError, ValueError, OverflowError) as exc:
        error = exc
    for block, matrix in zip(blocks, matrices):
        try:
            shape = np.shape(matrix)
        except ValueError:
            shape = "ragged rows"
        if shape != (m, m) or type(matrix) is _Block:
            got = f"{matrix!r} as its matrix" if type(matrix) is _Block else f"shape {shape}"
            raise UsageError(f"{_Block(block)!r} has {got}, want ({m}, {m})")
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
            _require_numbers(entries, "profile")
            # Floats, so that PureProfile refuses 1.5 instead of it being cast to 1.
            return PureProfile(np.asarray(entries, dtype=np.float64) - 1)
        if "mixed" in data:
            rows = data["mixed"]
            _require_numbers(itertools.chain.from_iterable(rows), "profile")
            probs = np.asarray(rows, dtype=np.float64)
            if probs.ndim == 2 and probs.size:
                _check_distributions(probs, 1)
            return MixedProfile(probs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed profile JSON: {exc}") from exc
    raise UsageError('profile JSON needs a "pure" or "mixed" key')


def _require_numbers(entries, kind):
    for value in entries:
        if not _number_type(type(value)):
            raise UsageError(f"malformed {kind} JSON: {value!r} is not a number")


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

    A file that cannot be read (missing, a directory, no permission), is
    not UTF-8, is not well-formed JSON or is nested too deeply for the
    parser raises UsageError naming the file.
    """
    return _parse_json(path, _read_text(path))


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a UTF-8 JSON document ({exc})") from exc
    except OSError as exc:
        raise UsageError(f"{path}: cannot be read ({exc.strerror or exc})") from exc


def _parse_json(path, text, object_pairs_hook=None):
    """json.loads of a file's text, with load_json's errors.

    The cyclic garbage collector is paused while the parser runs: a parsed
    document holds no reference cycles, and on a large game file the
    collections that its many new lists and dicts trigger cost more than
    the parse itself.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(
            text, parse_constant=_reject_constant, object_pairs_hook=object_pairs_hook
        )
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not a UTF-8 JSON document ({exc})") from exc
    except RecursionError as exc:
        raise UsageError(f"{path}: JSON nested too deeply to read ({exc})") from exc
    finally:
        if was_enabled:
            gc.enable()


def _reject_constant(name):
    raise UsageError(f"non-finite number {name} in JSON input")


def load_game(path):
    """Read a game file: what game_from_json gives for its document.

    A compact file larger than _PIECE bytes is read in pieces, each
    scattered into the operator (_read_pieces), so neither its text nor
    its records are ever held whole; any other file, or one the pieces
    decline, has its text parsed once by _parse_game."""
    # No name holds the text, so it is freed before the tensor is allocated.
    return _read_pieces(path) or _build_game(*_parse_game(path, _read_text(path)))


# load_game reads a compact game file in pieces of about this many bytes.
_PIECE = 1 << 20
# A compact document is an object whose members other than "beta" are a
# key and a scalar each, written without spaces: _HEAD matches its text up
# to the block list's "[", _TAIL its text from the closing "]".
_MEMBER = rb'"(?:[^"\\]|\\.)*":(?:"(?:[^"\\]|\\.)*"|[-+.\w]+)'
_HEAD = re.compile(rb'\{(?:%s,)*"beta":\[' % _MEMBER)
_TAIL = re.compile(rb'\](?:,%s)*\}\s*' % _MEMBER)
# What ends every block of "beta" but the last, as game_to_json's blocks
# are written compactly: its matrix, its object and the comma.
_BLOCK_END = b"]]},"


def _read_pieces(path):
    """The game of a compact game file over _PIECE bytes, read, parsed and
    scattered into its operator a piece at a time; None when the file is
    to be read whole.

    The sizes come first.  The text after the last "]]}]" of the file's
    last _PIECE bytes must be a tail (_TAIL), and the head (_HEAD) and the
    tail must parse as one document, an object with an empty "beta" and no
    repeated key, whose sizes pass the checks _build_game makes before it
    allocates the operator.  _HEAD leaves the parser in the top-level
    "beta" list, outside any string, where a block starts.  The text read
    so far is cut at its last _BLOCK_END, whose comma becomes the "]" that
    closes the piece and the "[" that opens the rest, and the piece is
    parsed with _parse_game's hook.  It must hold taken blocks only, so it
    ends where a block ends and the rest again starts where one starts.
    Its records, of m x m entries, go through _scatter in increasing (i,
    ip) order, continuing from the piece before, and are dropped.  The last
    piece must end at the tail.  The whole text would then parse to the
    same document and records, and give the same game.  Anything else gives
    None, so that every error comes from the whole-text reader: a file that
    cannot be read, a head or tail of another form, a piece that does not
    parse or that holds a "u" or an "f" (a boolean, which the hook checks
    for only in a text that may hold one), a block out of that order or
    failing a check, and a game the constructor refuses.
    """
    try:
        if os.stat(path).st_size <= _PIECE:
            return None
        with open(path, "rb") as fh:
            fh.seek(-_PIECE, os.SEEK_END)
            tail = fh.read()
            end = tail.rfind(b"]]}]") + 3
            tail = tail[end:] if end > 2 and _TAIL.fullmatch(tail, end) else b""
            fh.seek(0)
            text = bytearray(fh.read(_PIECE))
            match = tail and _HEAD.match(text)
            if not match:
                return None
            # The piece text starts at the block list's "[".  A match keeps
            # the text it searched alive, so it goes.
            start = match.end() - 1
            del match
            values, repeats = array("d"), {}
            take = _taker(values, repeats, typed=False)
            document = _parse_json(path, (text[:start + 1] + tail).decode(), take)
            if type(document) is not dict or document.get("beta") != [] or repeats:
                return None
            n, m = _check_sizes(_count(document["n"], "n"), _count(document["m"], "m"))
            lam = _number(document["lambda"], "lambda")
            tensor_guard(n, m, "a game")
            operator = np.zeros((n * m, n * m))
            tensor, after = operator.reshape(n, m, n, m), -1

            def scatter(end):
                """Scatter the blocks of the piece of text from `start` to
                `end`, a "]" that closes it as a list, and leave the rest as
                `text`; False if the piece is not a list of taken blocks of
                m x m entries or holds a boolean."""
                nonlocal text, start, after
                text[end] = ord("]")
                # A list of taken blocks is ASCII: its only strings are their keys.
                piece = str(memoryview(text)[start:end + 1], "ascii")
                # The piece's bytes go before it is parsed.
                text, start = text[end:], 0
                text[0] = ord("[")
                if "u" in piece or "f" in piece:
                    return False
                parsed = _parse_json("piece", piece, take)
                del piece
                if parsed.count(_TAKEN) != len(parsed) or values[-1] != m:
                    return False
                rows = np.frombuffer(values).reshape(-1, m * m + 3)
                after = _scatter(tensor, rows[:, -3:-1], rows[:, :-3], str, after)
                del rows, values[:]
                return True

            while True:
                cut = text.rfind(_BLOCK_END, start) + 3
                if cut > 2 and not scatter(cut):
                    return None
                read = len(text)
                text += fh.read(_PIECE)
                if len(text) == read:
                    break
        end = text.rfind(b"]]}]", start) + 3
        if end < 3 or text[end:] != tail or not scatter(end):
            return None
        return PolymatrixGame(n=n, m=m, lam=lam, operator=operator)
    except (OSError, UnicodeDecodeError, KeyError, OverflowError, UsageError, BudgetExceeded):
        return None


def _parse_game(path, text):
    """A game document parsed from its text, the reader's buffer, and the
    pairs of each object whose keys repeat, by the id of its dict (see
    _taker)."""
    values, repeats = array("d"), {}
    # Every boolean ("true", "false") holds a "u" or an "f", and no number
    # or key of the format does.
    take = _taker(values, repeats, typed="u" in text or "f" in text)
    return _parse_json(path, text, take), values, repeats


def _taker(values, repeats, typed):
    """The object hook of the game reader, which fills `values` and
    `repeats`.

    It takes each object written as game_to_json writes a block ("i", "ip"
    and "matrix", in that order), with int indices and k lists of k
    numbers, k >= 1 and the same for all: it appends the record (the
    entries row by row, then i, ip and k) to the float64 buffer `values`
    and leaves _TAKEN in its place, so no Python object per block outlives
    the parse.  Another object with "i", "ip" and a k x k matrix of numbers
    becomes a _Block, any other a dict; one whose keys repeat has its pairs
    kept in `repeats`.  array.fromlist would take a boolean as 1.0 or 0.0,
    so a row's types are checked only if `typed` says the text may hold
    one."""
    add_row = values.fromlist

    def take(pairs):
        start = len(values)
        keyed = len(pairs) == 3
        if keyed:
            (a, i), (b, ip), (c, matrix) = pairs
            keyed = a == "i" and b == "ip" and c == "matrix"
        if not keyed:
            fields = dict(pairs)
            matrix = fields.get("matrix") if "i" in fields and "ip" in fields else None
        try:
            k = len(matrix)
            for row in matrix:
                # Refused like what fromlist refuses: a non-list, a non-number.
                if len(row) != k or typed and not _all_numbers(row):
                    raise TypeError
                add_row(row)
        except (TypeError, OverflowError):
            k = 0
        # One k for all records; indices a float64 holds exactly, not negative.
        if keyed and k and type(i) is int is type(ip) and not (i | ip) >> 53 and (
            not start or values[start - 1] == k
        ):
            add_row([i, ip, k])
            return _TAKEN
        del values[start:]
        parsed = (_Block if k else dict)(pairs)
        if len(parsed) < len(pairs):
            repeats[id(parsed)] = pairs
        return parsed

    return take


def save_game(game, path):
    """Write a game file: its canonical_bytes and a newline, as `lippoly generate --out` does."""
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(game_to_json(game)) + b"\n")

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
import io
import itertools
import json
import numbers
import os
import re
import struct
import sys
from dataclasses import KW_ONLY, dataclass, field
from operator import itemgetter

import numpy as np

from .errors import BudgetExceeded, DistributionError, InternalError, UsageError

# Absolute tolerance for every comparison against an analytic bound.
BOUND_TOL = 1e-9
# Mixed rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9
# Computed regrets below this floor indicate an arithmetic bug.
REGRET_FLOOR = -1e-12
# Largest coefficient count n^2 m^2 of a game tensor that is allocated
# (0.8 GB per float64 copy); see `tensor_guard`.
TENSOR_GUARD = 100_000_000
# The bytes that bound every transient of a pass beside the operator:
# load_game reads a compact game file's head and tail in this many bytes
# and its blocks a quarter of it at a time, and check_game scans the
# coefficients in row chunks of per-row extremes no larger.
_PIECE = 1 << 18


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


def check_game(game):
    """Scan coefficients for Lipschitz consistency and payoff range.

    The Lipschitz scan compares, within every off-diagonal block row, the
    spread across the opponent's actions (n^2 m^3-style comparisons done as a
    max-minus-min sweep); a violation synthesizes a canonical witness pair:
    player i fixed to j, everyone else on action 0, the two profiles
    differing only at the offending opponent.  The range scan checks the 2nm
    inequalities sum-of-max <= 1 and sum-of-min >= 0.

    The scan runs over chunks of the players i whose per-row maxima and
    minima take at most _PIECE bytes each, so it holds about two pieces
    beside the operator; the first of equal worst spreads names the
    witness, as one scan of all rows would.  Both scans compare with the
    absolute BOUND_TOL: they compare payoff entries of a game with lam <= 1
    in their own units, where an absolute slack is the right scale.
    """
    beta = game.beta
    n, m = game.n, game.m
    # Axes (i, j, ip, jp): a chunk's extremes over jp come out as contiguous
    # (i, j, ip) arrays, which the sums and maxima below read without a copy.
    tensor = game.operator.reshape(n, m, n, m)
    step = max(1, _PIECE // (8 * n * m))
    upper = np.empty((n, m))
    lower = np.empty((n, m))
    worst, at = -np.inf, None
    for i0 in range(0, n, step):
        rows = slice(i0, i0 + step)
        hi, lo = tensor[rows].max(axis=3), tensor[rows].min(axis=3)
        # Self blocks are zero (PolymatrixGame zeroes them), so they add nothing.
        upper[rows], lower[rows] = hi.sum(axis=2), lo.sum(axis=2)
        hi -= lo  # the spread
        top = float(hi.max())
        # Strictly greater: an equal spread in a later chunk is not the first.
        if top > worst:
            # The first (i, ip, j) of the worst spread in that order.
            i = int(np.argmax(hi.max(axis=(1, 2))))
            ip, j = divmod(int(np.argmax(hi[i].T)), m)
            worst, at = top, (i0 + i, ip, j)
        del hi, lo  # before the next chunk's are made
    if worst > game.lam + BOUND_TOL:
        i, ip, j = at
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
        observed = abs(pure_payoff(game, i, j, profile_a) - pure_payoff(game, i, j, profile_b))
        witness = LipschitzWitness(
            player=i,
            profile_a=profile_a,
            profile_b=profile_b,
            observed_gap=observed,
            allowed_gap=game.lam * 1.0,
        )
        return LipschitzViolation(witness)

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


def _check_game_sizes(n, m):
    """The checks a game document's sizes pass before its operator is
    allocated: UsageError for a count out of range, then `tensor_guard`."""
    _check_sizes(n, m)
    tensor_guard(n, m, f"a game of {n} players and {m} actions")


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


class _Block(dict):
    """A block dict, shown by its indices as the document gives them."""

    def __repr__(self):
        return f"block ({self['i']!r}, {self['ip']!r})"


def _named_blocks(fields):
    """The whole-text reader's object hook: an object with "i", "ip" and
    k lists of k numbers as its "matrix", k >= 1, becomes a _Block, so that
    an error names it by its indices wherever it sits."""
    matrix = fields.get("matrix") if "i" in fields and "ip" in fields else None
    if type(matrix) is list and matrix and all(
        type(row) is list and len(row) == len(matrix) and _all_numbers(row) for row in matrix
    ):
        return _Block(fields)
    return fields


def game_from_json(data):
    """A game from its wire form: {"n", "m", "lambda", "beta": [blocks]},
    each block {"i", "ip", "matrix"} with 1-based indices and an m x m
    matrix of numbers, read from its compact json.dumps text as load_game
    reads a file.  Anything else, or what json.dumps cannot encode as
    standard JSON (a numpy integer, NaN or infinity), raises UsageError."""
    try:
        text = json.dumps(data, allow_nan=False, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    return _read_pieces(io.BytesIO(text)) or _build_game(
        _parse_json("game JSON", text, _named_blocks)
    )


def _build_game(document):
    """The game of a parsed game document, or the UsageError of the first
    check it fails: sizes, indices, matrices."""
    try:
        n = _count(document["n"], "player count")
        m = _count(document["m"], "action count")
        lam = _number(document["lambda"], "lambda")
        blocks = document.get("beta", [])
        if type(blocks) is not list:
            got = repr(blocks) if type(blocks) is _Block else type(blocks).__name__
            raise UsageError(f'malformed game JSON: "beta" must be a list, got {got}')
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed game JSON: {exc}") from exc
    _check_game_sizes(n, m)
    operator = np.zeros((n * m, n * m))
    _scatter(operator.reshape(n, m, n, m), named, lambda: _block_matrices(blocks, m),
             lambda at: repr(_Block(blocks[at])))
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
            entries = np.fromiter(flatten(flatten(matrices)), np.float64, len(blocks) * m * m)
            return entries.reshape(len(blocks), m * m)
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


def _parse_json(path, text, object_hook=None):
    """json.loads of a file's text, with load_json's errors.

    The cyclic garbage collector is paused while the parser runs: a parsed
    document holds no reference cycles, and on a large game file the
    collections that its many new lists and dicts trigger cost more than
    the parse itself.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, parse_constant=_reject_constant, object_hook=object_hook)
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

    A compact file is read in pieces, each scattered into the operator
    (_read_pieces), so its text is never held whole; any other file, or
    one the pieces decline, has its text parsed once into plain dicts,
    which _build_game checks and builds."""
    try:
        with open(path, "rb") as fh:
            game = _read_pieces(fh)
    except OSError:
        game = None
    # No name holds the text, so it is freed before the tensor is allocated.
    return game or _build_game(_parse_json(path, _read_text(path), _named_blocks))


# A compact document is an object whose members other than "beta" are a
# key and a scalar each, written without spaces: _HEAD matches its text up
# to the block list's "[", _TAIL its text from the closing "]".
_MEMBER = rb'"(?:[^"\\]|\\.)*":(?:"(?:[^"\\]|\\.)*"|[-+.\w]+)'
_HEAD = re.compile(rb'\{(?:%s,)*"beta":\[' % _MEMBER)
_TAIL = re.compile(rb'\](?:,%s)*\}\s*' % _MEMBER)
# What ends every block of "beta" but the last, as game_to_json's blocks
# are written compactly: its matrix, its object and the comma.
_BLOCK_END = b"]]},"
# Every byte a JSON number is written with made "0", any other kept; and
# the bytes of a block list other than its numbers and commas.
_ZEROS = bytes.maketrans(b"123456789eE.+-", b"0" * 14)
_STRUCTURE = b'[]{}":ipmatrx'


def _blocks_pattern(m):
    """Compact blocks of m x m entries, comma-joined, once _ZEROS has made
    each number a run of "0"s: the keys "i", "ip" and "matrix" in that
    order, m rows of m entries, and no string, boolean, null or space, nor
    a byte of a number inside a key or between brackets.  The quantifiers
    are possessive (Python 3.11+): plain ones keep a backtracking frame per
    number until the match ends, about 480 KB for 64 KiB of m = 2 blocks."""
    row = rb"\[%s\]" % b",".join([b"0++"] * m)
    block = rb'\{"i":0++,"ip":0++,"matrix":\[%s(?:,%s){%d}\]\}' % (row, row, m - 1)
    return re.compile(rb"%s(?:,%s)*+" % (block, block))


def _read_pieces(fh):
    """The game of a compact game document, read from the binary file `fh`,
    parsed and scattered into its operator a piece at a time; None when
    the document is to be read whole.

    The sizes come first.  The text after the last "]]}]" of the file's
    last _PIECE bytes must be a tail (_TAIL), and the head (_HEAD, in the
    first _PIECE bytes) and the tail must parse as one document, an object
    with an empty "beta", whose sizes pass the checks _build_game makes
    before it allocates the operator; a game over the tensor guard raises
    its BudgetExceeded there, before the rest of the file is read.  A key
    the head and the tail repeat takes the value the whole text would give
    it, the last; a "beta" in the tail is no list, and is declined.  _HEAD
    leaves the parser in the top-level "beta" list, outside any string,
    where a block starts.  From there the file is read a quarter piece at
    a time (a list of numbers takes about three times their text), and the
    text read so far is cut into a piece at its last _BLOCK_END, except
    after the read that reaches the end of the file: the last piece runs
    to the last "]]}]".  A piece must match _blocks_pattern(m) once
    _ZEROS is applied; with _STRUCTURE deleted it is then one JSON list of
    numbers, whose grammar the parser checks ("01", ".5", "1." and "+1"
    raise).  The numbers, as float64, go through _scatter, which holds each
    block's first two, its indices, to integers in [1, n] in increasing
    (i, ip) order, continuing from the piece before, and are dropped.  The
    last piece must end at the tail.  The whole text would then give the
    same game.  Anything else gives None, so that every other error comes
    from the whole-text reader: a head or tail of another form, a piece
    that fails a check, an entry too large for a float, a block out of that
    order or failing a check, and a game the constructor refuses.
    """
    try:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - _PIECE))
        tail = fh.read()
        end = tail.rfind(b"]]}]") + 3
        tail = tail[end:] if end > 2 and _TAIL.fullmatch(tail, end) else b""
        fh.seek(0)
        head = fh.read(_PIECE)
        match = tail and _HEAD.match(head)
        if not match:
            return None
        document = _parse_json("a game's head and tail", (head[:match.end()] + tail).decode())
        if type(document) is not dict or document.get("beta") != []:
            return None
        n = _count(document["n"], "player count")
        m = _count(document["m"], "action count")
        lam = _number(document["lambda"], "lambda")
        # An oversize game is refused before the rest of the file is read.
        _check_game_sizes(n, m)
        operator = np.zeros((n * m, n * m))
        tensor, after = operator.reshape(n, m, n, m), -1
        blocks = _blocks_pattern(m)

        def scatter(end):
            """Scatter the blocks from text[1] to `end`, where a block ends;
            False if they fail a check."""
            nonlocal after
            piece = text[1:end]
            if not blocks.fullmatch(piece.translate(_ZEROS)):
                return False
            numbers = "[%s]" % piece.translate(None, _STRUCTURE).decode()
            del piece
            values = _parse_json("a game's piece", numbers)
            del numbers
            rows = np.fromiter(values, np.float64, len(values)).reshape(-1, m * m + 2)
            del values
            after = _scatter(tensor, rows[:, :2], rows[:, 2:], str, after)
            return True

        # From the block list's "[" on, a quarter piece at a time.
        fh.seek(match.end() - 1)
        del head, match
        text = bytearray()
        while chunk := fh.read(_PIECE // 4):
            text += chunk
            del chunk
            cut = text.rfind(_BLOCK_END) + 3
            if cut > 2 and fh.tell() < size:
                if not scatter(cut):
                    return None
                text = text[cut:]
        end = text.rfind(b"]]}]") + 3
        if end < 3 or text[end:] != tail or not scatter(end):
            return None
        return PolymatrixGame(n=n, m=m, lam=lam, operator=operator)
    except (UnicodeDecodeError, KeyError, OverflowError, UsageError):
        return None


def save_game(game, path):
    """Write a game file: its canonical_bytes and a newline, as `lippoly generate --out` does."""
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(game_to_json(game)) + b"\n")

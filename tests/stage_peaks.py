"""Peak traced memory of each stage of one pipeline pass on a game file.

    python tests/stage_peaks.py FILE [--L L]

Runs the stages `lippoly pipeline --game FILE [--L L]` runs, in its
order and with its defaults, under `tracemalloc`, with this checkout's
`src/`: load_game, game_digest, check_game, solve_mixed, purify and,
with --L, reduce_and_solve.  Prints one JSON line: the file's size, the
operator's bytes, the reader's piece size, and for each stage the peak
traced bytes above what was traced when the stage began (what the stage
added at its highest, the game it is given not counted).  A game that
check_game refuses stops the pass there.
Not collected by pytest.
"""

import argparse
import json
import os
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lippoly.game  # noqa: E402
from lippoly import Valid, check_game, game_digest, load_game  # noqa: E402
from lippoly.population import reduce_and_solve  # noqa: E402
from lippoly.purify import default_target_epsilon, purify  # noqa: E402
from lippoly.solver import SolverConfig, solve_mixed  # noqa: E402


def peak_above_entry(peaks, name, call, *args, **kwargs):
    """`call(*args, **kwargs)`, its peak above entry stored as peaks[name]."""
    tracemalloc.reset_peak()
    entry, _ = tracemalloc.get_traced_memory()
    result = call(*args, **kwargs)
    peaks[name] = tracemalloc.get_traced_memory()[1] - entry
    return result


def stage_peaks(path, L=None):
    """The peak of each stage of one pass on the game file `path`."""
    peaks = {}
    tracemalloc.start()
    try:
        game = peak_above_entry(peaks, "load_game", load_game, path)
        peak_above_entry(peaks, "game_digest", game_digest, game)
        if isinstance(peak_above_entry(peaks, "check_game", check_game, game), Valid):
            target = default_target_epsilon(game)
            config = SolverConfig(target_epsilon=target, seed=0)
            result = peak_above_entry(peaks, "solve_mixed", solve_mixed, game, config)
            peak_above_entry(peaks, "purify", purify, game, result.profile)
            if L is not None:
                peak_above_entry(peaks, "reduce_and_solve", reduce_and_solve, game,
                                 epsilon=target, L=L, seed=0)
    finally:
        tracemalloc.stop()
    return {
        "file_bytes": os.path.getsize(path),
        "operator_bytes": game.operator.nbytes,
        "piece_bytes": lippoly.game._PIECE,
        "peaks": peaks,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    parser.add_argument("--L", type=int, default=None)
    args = parser.parse_args()
    print(json.dumps(stage_peaks(args.file, args.L)))

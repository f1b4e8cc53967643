"""Peak traced memory, and process time, of each stage of one pipeline
pass on a game file.

    python tests/stage_peaks.py FILE [--L L] [--repeat K]

Runs the stages `lippoly pipeline --game FILE [--L L]` runs, in its
order and with its defaults, under `tracemalloc`, with this checkout's
`src/`: load_game, game_digest, check_game, solve_mixed, purify and,
with --L, reduce_and_solve.  Prints one JSON line: the file's size, the
operator's bytes, the reader's piece size, and for each stage the peak
traced bytes above what was traced when the stage began (what the stage
added at its highest, the game it is given not counted).  With --repeat
K it then runs the same stages K more times without `tracemalloc` and
adds each stage's least process time over those K passes, in seconds
(process time counts every thread, so set OPENBLAS_NUM_THREADS=1 to time
one).  A game that check_game refuses stops each pass there.
Not collected by pytest.
"""

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lippoly.game  # noqa: E402
from lippoly import Valid, check_game, game_digest, load_game  # noqa: E402
from lippoly.population import reduce_and_solve  # noqa: E402
from lippoly.purify import default_target_epsilon, purify  # noqa: E402
from lippoly.solver import SolverConfig, solve_mixed  # noqa: E402


def run_stages(path, L, stage):
    """One pass on the game file `path`, each stage called as
    `stage(name, call, *args, **kwargs)`; returns the game."""
    game = stage("load_game", load_game, path)
    stage("game_digest", game_digest, game)
    if isinstance(stage("check_game", check_game, game), Valid):
        target = default_target_epsilon(game)
        config = SolverConfig(target_epsilon=target, seed=0)
        result = stage("solve_mixed", solve_mixed, game, config)
        stage("purify", purify, game, result.profile)
        if L is not None:
            stage("reduce_and_solve", reduce_and_solve, game, epsilon=target, L=L, seed=0)
    return game


def stage_peaks(path, L=None):
    """The peak of each stage of one pass on the game file `path`."""
    peaks = {}

    def peak_above_entry(name, call, *args, **kwargs):
        tracemalloc.reset_peak()
        entry, _ = tracemalloc.get_traced_memory()
        result = call(*args, **kwargs)
        peaks[name] = tracemalloc.get_traced_memory()[1] - entry
        return result

    tracemalloc.start()
    try:
        game = run_stages(path, L, peak_above_entry)
    finally:
        tracemalloc.stop()
    return {
        "file_bytes": os.path.getsize(path),
        "operator_bytes": game.operator.nbytes,
        "piece_bytes": lippoly.game._PIECE,
        "peaks": peaks,
    }


def stage_seconds(path, L, repeat):
    """The least process time of each stage over `repeat` passes."""
    least = {}

    def timed(name, call, *args, **kwargs):
        start = time.process_time()
        result = call(*args, **kwargs)
        spent = time.process_time() - start
        least[name] = min(spent, least.get(name, spent))
        return result

    for _ in range(repeat):
        run_stages(path, L, timed)
    return least


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    parser.add_argument("--L", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    args = parser.parse_args()
    report = stage_peaks(args.file, args.L)
    if args.repeat > 0:
        report["repeat"] = args.repeat
        report["process_s"] = stage_seconds(args.file, args.L, args.repeat)
    print(json.dumps(report))

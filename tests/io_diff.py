"""Game-file reading compared between two checkouts.

    python tests/io_diff.py --corpus DIR
    python tests/io_diff.py OLD NEW DIR

OLD and NEW are the roots of two lippoly checkouts.  In each, one
subprocess reads every file under DIR with that checkout's own `src/`,
twice: with `load_game(path)`, and with `game_from_json` of the document
`json.loads` parses from the file.  Each reading gives the game's
`game_digest`, or the type and message of the error raised.  Every
reading is printed, with both sides' outcomes where they differ.  Exits 1
when any reading differs.

`--corpus DIR` writes the files to compare into DIR, from this checkout:
the malformed documents of `tests/test_game.py`; the seed-1 inputs of the
benchmark's four workloads (`perfbench/games.py`); the generator's three
families at n in {2, 9, 40} and m in {2, 3, 8}, written by the reference
writer in `tests/helpers.py`; one n = 60, m = 8 game written by
`save_game`, a file of more than three of `load_game`'s pieces; and the
hand-made documents of `HANDMADE`.
Not collected by pytest.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Documents no other part of the corpus has: what the reader treats
# specially (booleans, a document shaped like a block, blocks taken
# outside the block list or where a number or a matrix belongs) and what
# only one of the readers refuses.
_BLOCK = {"i": 1, "ip": 2, "matrix": [[0.5, 0], [0, 0.25]]}
_INNER = {"i": 1, "ip": 3, "matrix": [[0, 0], [0, 0]]}
_BASE = '{"n": 3, "m": 2, "lambda": 0.5, '
HANDMADE = {
    "boolean-outside-blocks": _BASE + '"note": true, "beta": [%s]}' % json.dumps(_BLOCK),
    "document-shaped-like-a-block": _BASE + '"i": 1, "ip": 2, "matrix": [[0, 0], [0, 0]], '
    '"beta": [{"i": 2, "ip": 3, "matrix": [[0.1, 0], [0, 0]]}]}',
    "block-shaped-note-first": _BASE + '"note": %s, "beta": [{"i": 2, "ip": 1, '
    '"matrix": [[0, 0.5], [0.25, 0]]}]}' % json.dumps(_BLOCK),
    "two-valid-betas": _BASE + '"beta": [%s], "beta": [{"i": 3, "ip": 1, '
    '"matrix": [[0, 0.5], [0.25, 0]]}]}' % json.dumps(_BLOCK),
    "integer-and-exponent-entries": _BASE + '"beta": [{"i": 2, "ip": 1, '
    '"matrix": [[1, 0], [2.5e-1, -0.0]]}]}',
    "entry-overflowing-to-infinity": _BASE + '"beta": [{"i": 1, "ip": 2, '
    '"matrix": [[1e400, 0], [0, 0]]}]}',
    "nan-entry": _BASE + '"beta": [{"i": 1, "ip": 2, "matrix": [[NaN, 0], [0, 0]]}]}',
    "null-matrix": _BASE + '"beta": [{"i": 1, "ip": 2, "matrix": null}]}',
    "block-as-n": '{"n": %s, "m": 2, "lambda": 0.5, "beta": []}' % json.dumps(_BLOCK),
    "block-as-lambda": '{"n": 3, "m": 2, "lambda": %s, "beta": []}' % json.dumps(_BLOCK),
    "block-in-a-matrix-row": _BASE + '"beta": [{"i": 1, "ip": 2, '
    '"matrix": [[{"i": 1, "ip": 3, "matrix": [[0]]}, 0], [0, 0]]}]}',
    "block-as-beta": _BASE + '"beta": %s}' % json.dumps(_BLOCK),
    "block-as-an-index": _BASE + '"beta": [{"i": %s, "ip": 2, '
    '"matrix": [[0, 0], [0, 0]]}]}' % json.dumps(_INNER),
    "block-as-a-matrix": _BASE + '"beta": [{"i": 1, "ip": 2, "matrix": %s}]}' % json.dumps(_INNER),
    "empty-object-as-beta": _BASE + '"beta": {}}',
    "null-document": "null",
    "not-json": '{"n": 3,',
}


def write_corpus(out):
    """Write the comparison corpus into the directory `out`."""
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "perfbench")]
    from games import WORKLOADS, write_inputs
    from helpers import reference_save_game
    from lippoly import save_game
    from lippoly.harness.generator import FAMILIES, GeneratorSpec, generate
    from test_game import MALFORMED_GAMES, MALFORMED_IDS, _game_document_text

    out = Path(out)
    for kind in ("malformed", "generated", "handmade"):
        (out / kind).mkdir(parents=True, exist_ok=True)
    for (fields, _), name in zip(MALFORMED_GAMES, MALFORMED_IDS):
        (out / "malformed" / f"{name}.json").write_text(_game_document_text(fields))
    for name, workload in sorted(WORKLOADS.items()):
        write_inputs(workload, 1, str(out / "perfbench" / name))
    for family in FAMILIES:
        for n in (2, 9, 40):
            for m in (2, 3, 8):
                spec = GeneratorSpec(n=n, m=m, lam=1.0 / n, family=family, seed=n + m,
                                     density=0.5, weight=0.5)
                reference_save_game(generate(spec), str(out / "generated" / f"{family}-{n}-{m}.json"))
    large = generate(GeneratorSpec(n=60, m=8, lam=1 / 60, seed=1))
    save_game(large, str(out / "generated" / "save-game-60-8.json"))
    for name, text in HANDMADE.items():
        (out / "handmade" / f"{name}.json").write_text(text)


def outcome(read, *args):
    """The digest of the game `read` gives, or the error it raises."""
    from lippoly import game_digest

    try:
        return "game " + game_digest(read(*args))
    except Exception as exc:  # any error is an outcome to compare
        return f"{type(exc).__name__}: {exc}"


def read_all(root, corpus):
    """Every reading of every file under `corpus`, with the checkout at `root`."""
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from lippoly import game_from_json, load_game

    readings = {}
    for path in sorted(Path(corpus).rglob("*.json")):
        name = str(path.relative_to(corpus))
        readings[f"{name} load_game"] = outcome(load_game, str(path))
        try:
            document = json.loads(path.read_text())
        except ValueError as exc:
            readings[f"{name} game_from_json"] = f"json.loads refused it: {exc}"
            continue
        readings[f"{name} game_from_json"] = outcome(game_from_json, document)
    return readings


def reread(root, corpus):
    """`read_all(root, corpus)` in a fresh interpreter, so each checkout imports its own code."""
    done = subprocess.run(
        [sys.executable, __file__, "--read", str(root), str(corpus)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(old_root, new_root, corpus):
    old, new = reread(old_root, corpus), reread(new_root, corpus)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, "(not read)"), new.get(name, "(not read)")
        if a == b:
            print(f"{name}: {a}")
        else:
            differ += 1
            print(f"{name}: DIFFERS\n  OLD {a}\n  NEW {b}")
    print(f"{len(old.keys() | new.keys())} readings, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--read"] and len(sys.argv) == 4:
        json.dump(read_all(*sys.argv[2:]), sys.stdout)
    elif sys.argv[1:2] == ["--corpus"] and len(sys.argv) == 3:
        write_corpus(sys.argv[2])
    elif len(sys.argv) == 4:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)

"""Pinned bytes of the command line.

Each call of the corpus runs `lippoly` in-process on small games and is
pinned by one digest over its exit code, stdout, stderr and the files it
wrote, with the working directory replaced by a placeholder.  Each
subcommand's options are pinned by one digest over their flags, dest,
type, default, choices and `required`, not their help.  A digest that
moves means the command line's behaviour moved.
"""

import argparse
import hashlib
import json

from lippoly.harness.cli import _build_parser, main

GAMES = {
    # Checks as a Lipschitz violation: a gap of 0.5 against lambda 0.1.
    "witness.json": {"n": 3, "m": 2, "lambda": 0.1,
                     "beta": [{"i": 1, "ip": 2, "matrix": [[0, 0.5], [0, 0]]}]},
    # Checks as a range violation: player 1's payoff can fall below 0.
    "range.json": {"n": 3, "m": 2, "lambda": 0.5,
                   "beta": [{"i": 1, "ip": 2, "matrix": [[-0.2, -0.2], [0, 0]]}]},
}
PROFILES = {
    "pure.json": {"pure": [1, 2, 1, 2, 1, 1]},
    "out-of-range.json": {"pure": [3, 1, 1, 1, 1, 1]},
}

# (name, argv); "g6.json" and "g3m3.json" are written by the first calls.
CORPUS = [
    ("generate-out", "generate --n 6 --lambda 0.2 --seed 3 --out g6.json"),
    ("generate-m3-out", "generate --n 3 --m 3 --lambda 0.3 --seed 4 --family sparse --density 0.7 --out g3m3.json"),
    ("generate-stdout", "generate --n 4 --m 2 --lambda 0.25 --seed 5 --family coordination_mix --weight 0.3"),
    ("check-valid", "check g6.json"),
    ("check-out", "check g3m3.json --out check.json"),
    ("check-witness", "check witness.json"),
    ("check-range", "check range.json"),
    ("solve", "solve g6.json"),
    ("solve-out", "solve g6.json --eps 0.01 --seed 2 --out solve.json"),
    ("solve-harmonic", "solve g3m3.json --schedule harmonic --max-iterations 40 --seed 1"),
    ("solve-grid", "solve g3m3.json --grid-k 2"),
    ("purify", "purify g6.json solve.json"),
    ("purify-m-action", "purify g6.json solve.json --mode m_action --trace potentials"),
    ("purify-full-out", "purify g6.json solve.json --trace full --out purify.json"),
    ("reduce", "reduce g3m3.json --L 3"),
    ("reduce-out", "reduce g3m3.json --L 3 --eps 0.2 --seed 1 --out reduce.json"),
    ("baseline", "baseline g6.json --trials 20 --seed 5"),
    ("baseline-profile-out", "baseline g6.json --profile solve.json --trials 10 --eps 0.05 --out baseline.json"),
    ("pipeline-stdout", "pipeline --n 4 --m 2 --lambda 0.25 --trials 2 --seed 7"),
    ("pipeline-directory", "pipeline --game g3m3.json --L 3 --trace full --out run"),
    ("error-missing-game", "check missing.json"),
    ("error-nan-eps", "solve g6.json --eps nan"),
    ("error-profile-out-of-range", "purify g6.json out-of-range.json"),
    ("error-precondition", "purify g6.json pure.json"),
]

CALL_DIGESTS = {
    "generate-out": "83fb2ac77932dbb4",
    "generate-m3-out": "862301cb2be9143c",
    "generate-stdout": "0d09b425d7f9e082",
    "check-valid": "6e72a72d0ebf721d",
    "check-out": "b041aafea109830a",
    "check-witness": "48da27120e2ab3b0",
    "check-range": "998acc03aed6d715",
    "solve": "aa779a21dd2c3bdb",
    "solve-out": "31caeeef3c64ae5c",
    "solve-harmonic": "d8379c42a045f4a4",
    "solve-grid": "5ec0de2e646f0022",
    "purify": "950c362dcd046cd0",
    "purify-m-action": "cacf7e6b37ac7fc4",
    "purify-full-out": "96d666711c8d6fc7",
    "reduce": "cef0a29a8fe01368",
    "reduce-out": "df9f78521c5744c1",
    "baseline": "df15c569388e3d80",
    "baseline-profile-out": "01eacfc5389029fe",
    "pipeline-stdout": "d3879ca9e37c9c4f",
    "pipeline-directory": "fa95e3c6aac1fe33",
    "error-missing-game": "69d108a7ff63bffa",
    "error-nan-eps": "39bb939415d49ff2",
    "error-profile-out-of-range": "24c1b42baf3b3746",
    "error-precondition": "592830c0ea041bbe",
}

OPTION_DIGESTS = {
    "generate": "f138ecc777c7ec2b",
    "check": "843752f38a9ac8fc",
    "solve": "f20a3064b4d5d361",
    "purify": "3df4ac76fdf8ad9b",
    "reduce": "bb58238cbe19d309",
    "baseline": "c72df67ddada2b88",
    "pipeline": "a62e46b9d1df9b85",
}


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _call_digest(rc, out, err, written, placeholder):
    def scrub(text):
        return text.replace(placeholder, "<dir>")

    doc = {
        "exit_code": rc,
        "stdout": scrub(out),
        "stderr": scrub(err),
        "files": {name: hashlib.sha256(scrub(data.decode()).encode()).hexdigest()
                  for name, data in written.items()},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def run_corpus(root, capsys, monkeypatch):
    """The digest of each corpus call, run with `root` as the working directory."""
    monkeypatch.chdir(root)
    for name, doc in {**GAMES, **PROFILES}.items():
        (root / name).write_text(json.dumps(doc))
    digests = {}
    for name, line in CORPUS:
        before = _files(root)
        rc = main(line.split())
        out, err = capsys.readouterr()
        written = {k: v for k, v in _files(root).items() if before.get(k) != v}
        digests[name] = _call_digest(rc, out, err, written, str(root))
    return digests


def option_digests():
    """One digest per subcommand over its sorted options, help left out."""
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    digests = {}
    for command, sub in subparsers.choices.items():
        table = sorted(
            repr((
                tuple(a.option_strings), a.dest,
                getattr(a.type, "__name__", repr(a.type)),
                a.default, a.choices, a.required,
            ))
            for a in sub._actions if a.dest != "help"
        )
        digests[command] = hashlib.sha256("\n".join(table).encode()).hexdigest()[:16]
    return digests


def test_cli_calls_keep_their_bytes(tmp_path, capsys, monkeypatch):
    assert run_corpus(tmp_path, capsys, monkeypatch) == CALL_DIGESTS


def test_cli_options_keep_their_table():
    assert option_digests() == OPTION_DIGESTS

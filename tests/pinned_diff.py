"""Field-level comparison of the pinned runs between two checkouts.

    python tests/pinned_diff.py OLD NEW

OLD and NEW are the roots of two lippoly checkouts.  In each, one
subprocess rebuilds every pinned run with that checkout's own `src/` and
`tests/`: the record ensembles of `tests/test_record_bytes.py`
(`report.to_json()`) and the trace goldens of `tests/test_trace.py`
(`trace_to_json`).  For every run this prints both SHA-256 digests, each
difference that is not a float (a type, a string, an integer, a key, a
list length), and, per field path with list indices folded to `[]`, the
largest relative change |a - b| / max(|a|, |b|) of a float that moved and
the range of its moved values in NEW.
Exits 1 when any non-float field differs.  Not collected by pytest.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path


def dump(root):
    """Every pinned run of the checkout at `root`, as {name: (digest, json)}."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from lippoly import canonical_bytes, trace_to_json
    from lippoly.harness.pipeline import run_pipeline
    from test_record_bytes import ENSEMBLES
    from test_trace import GOLDEN, solved_trace

    runs = {}
    for name, (spec, trials, L, _) in sorted(ENSEMBLES.items()):
        report = run_pipeline(spec=spec, trials=trials, L=L, trace_detail="full")
        runs[f"record {name}"] = canonical_bytes(report.to_json())
    for shape, detail in sorted(GOLDEN):
        game, trace = solved_trace(*shape)
        runs[f"trace {shape} {detail}"] = canonical_bytes(trace_to_json(trace, game, detail))
    return {
        name: (hashlib.sha256(data).hexdigest(), json.loads(data))
        for name, data in runs.items()
    }


def rebuild(root):
    """`dump(root)` in a fresh interpreter, so each checkout imports its own code."""
    done = subprocess.run(
        [sys.executable, __file__, "--dump", str(root)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def spell(path, fold=False):
    """A field path as text; list indices as `[k]`, or `[]` when folded."""
    return "".join(
        part if isinstance(part, str) else "[]" if fold else f"[{part}]" for part in path
    )


def walk(old, new, path, moved, fixed):
    """Fill `moved` (folded path -> [largest relative change, least and
    largest new value] of the floats that moved) and `fixed` (non-float
    differences) for two JSON values."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new:
            rel = abs(old - new) / max(abs(old), abs(new))
            seen = moved.setdefault(spell(path, fold=True), [rel, new, new])
            seen[:] = max(seen[0], rel), min(seen[1], new), max(seen[2], new)
    elif type(old) is not type(new):
        fixed.append(f"{spell(path)}: {old!r} -> {new!r}")
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            fixed.append(f"{spell(path)}: keys {sorted(old)} -> {sorted(new)}")
        for key in old.keys() & new.keys():
            walk(old[key], new[key], path + [f"/{key}"], moved, fixed)
    elif isinstance(old, list):
        if len(old) != len(new):
            fixed.append(f"{spell(path)}: length {len(old)} -> {len(new)}")
        for k, (a, b) in enumerate(zip(old, new)):
            walk(a, b, path + [k], moved, fixed)
    elif old != new:
        fixed.append(f"{spell(path)}: {old!r} -> {new!r}")


def main(old_root, new_root):
    old, new = rebuild(old_root), rebuild(new_root)
    any_fixed = False
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            print(f"{name}: only in {'NEW' if name in new else 'OLD'}")
            any_fixed = True
            continue
        (old_digest, old_run), (new_digest, new_run) = old[name], new[name]
        same = "identical" if old_digest == new_digest else "differ"
        print(f"{name}: {old_digest[:8]} -> {new_digest[:8]} ({same})")
        moved, fixed = {}, []
        walk(old_run, new_run, [], moved, fixed)
        for line in fixed:
            print(f"  non-float {line}")
        for key, (rel, low, high) in sorted(moved.items()):
            print(f"  float {key}: max relative change {rel:.3g}, new {low:.3g} .. {high:.3g}")
        any_fixed = any_fixed or bool(fixed)
    return 1 if any_fixed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        json.dump(dump(sys.argv[2]), sys.stdout)
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)

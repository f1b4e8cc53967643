"""Benchmark of the lippoly pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lippoly checkout.  Each run:

1. sets up the workload's game files from the seed SETUP_REPEATS times,
   each time in a fresh interpreter (import lippoly, generate, scan,
   write), and reports the median as setup_s;
2. warms up on one small game;
3. pushes every game file through the calls `lippoly pipeline --game F
   --out D` makes (load_game, run_pipeline, write_report), in passes,
   until S seconds have gone and at least MIN_PASSES passes are done;
4. checks every record with the benchmark's own code (check.py) and
   that every pass wrote the same bytes.

With --trace 0 it reports the end-to-end metrics (median pass time,
peak resident memory, set-up time); with --trace 1 it wraps lippoly's
public calls (spans.py) and reports per-layer metrics instead, and writes
the spans to perfbench/_out/.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread, so that the figures measure lippoly and not how the
# scheduler shares the cores.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from check import check_records_file  # noqa: E402
from games import WORKLOADS, make_inputs, warmup_input  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
# A set-up child that has not finished by then is killed.
SETUP_TIMEOUT_S = 120


def set_up(workload, seed, inputs_dir):
    """Run the set-up child SETUP_REPEATS times; returns (seconds, digests)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spec = json.dumps(dataclasses.asdict(workload))
    cmd = [sys.executable, os.path.join(HERE, "games.py"),
           "--spec", spec, "--seed", str(seed), "--out", inputs_dir]
    seconds, digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        digests.append(json.loads(done.stdout.splitlines()[-1]))
    return seconds, digests


def run(workload, seed, seconds, trace, work):
    """One benchmark run in the scratch directory `work`; returns a dict."""
    inputs_dir = os.path.join(work, "inputs")
    setup_seconds, digests = set_up(workload, seed, inputs_dir)
    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("set-up repeats wrote different game files")

    from lippoly.harness import pipeline

    warm = warmup_input(workload, seed)
    pipeline.write_report(
        pipeline.run_pipeline(game_path=os.path.join(inputs_dir, "warmup.json"), L=warm.L),
        os.path.join(work, "warmup"),
    )

    # File names only: the coefficient tensors are made again for the checks
    # after timing, so the benchmark's own copy is not in peak_rss_mb.
    labels = sorted(name[: -len(".json")] for name in digests[0] if name != "warmup.json")
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    pass_times, records = [], []  # records[pass][game]: bytes, or None if it raised
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        while len(pass_times) < MIN_PASSES or time.perf_counter() - start < seconds:
            out_dir = os.path.join(work, f"pass{len(pass_times)}")
            written = []
            t0 = time.perf_counter()
            for label in labels:
                try:
                    report = pipeline.run_pipeline(
                        game_path=os.path.join(inputs_dir, label + ".json"), L=workload.L)
                    pipeline.write_report(report, os.path.join(out_dir, label))
                    written.append(report.exit_code)
                except Exception:  # counted as a failed operation; the run goes on
                    traceback.print_exc()
                    written.append(None)
            pass_times.append(time.perf_counter() - t0)
            records.append([
                None if code is None else (code, _read(os.path.join(out_dir, label)))
                for label, code in zip(labels, written)
            ])
            shutil.rmtree(out_dir)
    finally:
        if tracer:
            tracer.uninstall()
    cpu = time.process_time() - cpu0

    games = {g.label: g for g in make_inputs(workload, seed)}
    if sorted(games) != labels:
        problems.append("set-up wrote other games than the benchmark generates")
    attempted = failed = records_bytes = 0
    ratios = []
    for k, label in enumerate(labels):
        first = None
        for pass_records in records:
            attempted += 1
            entry = pass_records[k]
            if entry is None or entry[0] != 0 or _failed(entry[1], workload.L):
                failed += 1
                continue
            records_bytes += len(entry[1])
            if first is None:
                first = entry[1]
                if label in games:
                    found, ratio = check_records_file(games[label], first)
                    problems += [f"{label}: {p}" for p in found]
                    ratios.append(ratio)
            elif entry[1] != first:
                problems.append(f"{label}: passes wrote different records.jsonl")

    if tracer:
        metrics = tracer.metrics(len(pass_times), records_bytes)
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        spans_path = os.path.join(HERE, "_out", f"spans-{workload.name}-seed{seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.span_json(), fh)
    else:
        metrics = {
            "run_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_seconds), "s"),
        }
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(pass_times),
        "pass_times": pass_times,
        "cpu_s": cpu / len(pass_times),
        "bound_ratio_max": max((r for r in ratios if r is not None), default=None),
    }


def _read(out_dir):
    with open(os.path.join(out_dir, "records.jsonl"), "rb") as fh:
        return fh.read()


def _failed(data, L):
    """An outcome other than ok, or a reduction that reported an error."""
    record = json.loads(data.splitlines()[0])
    if record.get("outcome") != "ok":
        return True
    return L is not None and "error" in (record.get("reduction") or {})


def main(argv=None):
    parser = argparse.ArgumentParser(description="lippoly pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lippoly", "__init__.py")):
        print(f"error: lippoly sources not found at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-",
                            dir=os.path.join(HERE, "_work"))
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"correct {result['correct']}")
    info = {k: result[k] for k in ("pass_times", "cpu_s", "bound_ratio_max")}
    print("info " + json.dumps(info))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

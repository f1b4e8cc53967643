"""Reference figures: every workload on several seeds, one table.

    python3 perfbench/reference.py --seeds 1-10 --seconds 5 [--workloads a,b]

Runs run.py once per workload and seed with tracing off, then once more
with tracing on for the first seed, each in its own process, one at a
time.  Prints per workload and end-to-end metric the median, the
quartiles and their distance as a share of the median, next to the
metric's bound in BENCHMARK.json; then CPU seconds per pass, the largest
final-regret/bound ratio, the failed share, the wall time of one run, and
the tracing overhead (traced harness.pipeline_s plus harness.write_s
over untraced run_s on the same seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    info = next(json.loads(ln[len("info "):]) for ln in lines if ln.startswith("info "))
    return json.loads(lines[-1]), info, wall


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    notes = []
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, 0) for s in args.seeds]
        for name, bound in bounds.items():
            values = [r[0]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            unit = runs[0][0]["metrics"][name]["unit"]
            print(f"| {workload} | {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.4f} | {bound} |", flush=True)
        traced, _, _ = one_run(workload, args.seeds[0], args.seconds, 1)
        # run_s times run_pipeline and write_report; so do these two spans.
        traced_s = sum(traced["metrics"][k]["value"] for k in ("harness.pipeline_s", "harness.write_s"))
        overhead = traced_s / runs[0][0]["metrics"]["run_s"]["value"] - 1.0
        ratios = [r[1]["bound_ratio_max"] for r in runs]
        notes.append(
            f"{workload}: cpu_s per pass median {statistics.median(r[1]['cpu_s'] for r in runs):.3f}; "
            f"final-regret/bound ratio max {max(ratios):.4f}; "
            f"failed {sum(r[0]['failed'] for r in runs)}/{sum(r[0]['attempted'] for r in runs)}; "
            f"all correct {all(r[0]['correct'] for r in runs)}; "
            f"wall per run median {statistics.median(r[2] for r in runs):.1f} s; "
            f"traced pipeline+write {traced_s:.3f} s, tracing overhead {overhead:+.1%} "
            f"on seed {args.seeds[0]}")
    print()
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())

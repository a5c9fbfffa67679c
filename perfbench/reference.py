"""Reference figures for README.md: repeated runs of every workload.

    python3 perfbench/reference.py [--seeds 1-10] [--traced-seeds 1-3]

Runs run.py once per workload and seed, seed-major so that slow drift of
the machine touches every workload alike.  For the traced seeds a traced run
follows the untraced one directly.  Prints per workload each end-to-end
metric's median and quartiles, the spread (Q3 - Q1) / median, the tracing
overhead (median over the traced seeds of traced wall_s over the untraced
wall_s of the same seed, minus one) and the non-zero per-layer medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("series", "scan", "resonance", "cutoff")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range,
                        default=seed_range("1-3"))
    args = parser.parse_args(argv)

    plain = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    overhead = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for w in WORKLOADS:
            plain[w].append(run(w, seed, 0))
            if seed in args.traced_seeds:
                traced[w].append(run(w, seed, 1))
                overhead[w].append(
                    traced[w][-1]["metrics"]["traced.wall_s"]["value"]
                    / plain[w][-1]["metrics"]["wall_s"]["value"] - 1.0)

    print("| workload | metric | median | Q1 | Q3 | spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        failed = sum(r["failed"] for r in plain[w])
        attempted = sum(r["attempted"] for r in plain[w])
        for metric in plain[w][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in plain[w]]
            q1, med, q3 = quartiles(values)
            unit = plain[w][0]["metrics"][metric]["unit"]
            print(f"| {w} | {metric} ({unit}) | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} | {failed}/{attempted} |")
    print()
    for w in WORKLOADS:
        if not traced[w]:
            continue
        layers = {k: statistics.median(r["metrics"][k]["value"]
                                       for r in traced[w])
                  for k in traced[w][0]["metrics"]}
        print(f"{w}: traced wall_s {layers['traced.wall_s']:.3f} s, "
              f"tracing overhead {statistics.median(overhead[w]):+.3f} "
              f"(median of {len(overhead[w])} traced/untraced pairs: "
              f"{', '.join(f'{o:+.3f}' for o in overhead[w])})")
        for k, v in layers.items():
            if v and k != "traced.wall_s":
                print(f"  {k} = {v:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

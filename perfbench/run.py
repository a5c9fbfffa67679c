"""qbattery benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {series,scan,resonance,cutoff}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  A run makes a few set-up probes, then performs whole rounds of
the workload's operations, each round in a fresh child process (round.py),
one child at a time.  Another round starts only while the time spent on
rounds plus the last round's length stays within ``--seconds``; there is
always at least one.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics (medians over rounds, and over
rounds and probes for ``setup_s``), with ``--trace 1`` the per-layer metrics
of the traced rounds.  A round still running when the run reaches
RUN_LIMIT_S is stopped and counts every operation as failed.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS threads per workload.  scan runs two worker threads, so BLAS gets one:
# no run computes on more than two threads, the core count of the reference
# machine.
BLAS_THREADS = {"series": 2, "scan": 1, "resonance": 2, "cutoff": 2}
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def cut_short(exc, spawned):
    """Result of a round stopped at the deadline: its time so far, and
    every operation failed."""
    lines = (exc.stdout or b"").decode().splitlines()
    if not lines:
        raise RuntimeError(f"round.py stopped after {exc.timeout:.0f} s, "
                           "before its set-up ended")
    first = json.loads(lines[0])
    attempted = first["attempted"]
    return {"setup_s": first["setup_s"],
            "wall_s": time.monotonic() - spawned - first["setup_s"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "attempted": attempted, "failed": attempted, "correct": True,
            "problems": [f"round stopped after {exc.timeout:.0f} s"]}


def child(args, mode, tag, deadline):
    """Run round.py once and return its JSON result."""
    env = dict(os.environ)
    threads = str(BLAS_THREADS[args.workload])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    outdir = OUT / f"{args.workload}-seed{args.seed}-{tag}"
    command = [sys.executable, str(HERE / "round.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--trace", str(args.trace),
               "--outdir", str(outdir)]
    if args.trace:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}-{tag}.jsonl"
        command += ["--spans", str(spans_file)]
    spawned = time.monotonic()
    command += ["--t0", repr(spawned)]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        return cut_short(exc, spawned)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round.py {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qbattery" / "__init__.py").is_file():
        print(f"no qbattery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = []
    if not args.trace:
        setups = [child(args, "setup", f"probe{k}", deadline)["setup_s"]
                  for k in range(SETUP_PROBES)]
    rounds = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        result = child(args, "round", f"round{len(rounds)}", deadline)
        rounds.append(result)
        took = time.monotonic() - begun
        print(f"round {len(rounds)}: wall_s={result['wall_s']:.3f} "
              f"setup_s={result['setup_s']:.3f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} "
              f"failed={result['failed']}/{result['attempted']}")
        for problem in result["problems"]:
            print(f"  check failed: {problem}")
        now = time.monotonic()
        if now - started + took > args.seconds or now + took > deadline:
            break

    if args.trace:
        traced = [r["layers"] for r in rounds if "layers" in r] or [
            dict.fromkeys(spans.metric_names(), 0.0)]
        metrics = {name: {"value": statistics.median(t[name] for t in traced),
                          "unit": per_layer_unit(name)}
                   for name in traced[0]}
    else:
        setups += [r["setup_s"] for r in rounds]
        values = {"wall_s": [r["wall_s"] for r in rounds], "setup_s": setups,
                  "peak_rss_mb": [r["peak_rss_mb"] for r in rounds]}
        metrics = {name: {"value": statistics.median(values[name]),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

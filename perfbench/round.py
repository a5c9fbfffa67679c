"""One round of one workload, in a fresh process so module caches start cold.

Started by run.py, which sets the BLAS thread count in the environment
before numpy is imported here.  Prints JSON lines:

- first, in both modes, {"setup_s", "attempted"}: the time from process
  start (``--t0``, taken by the parent on the system-wide monotonic clock
  just before the spawn) until ``qbattery`` is imported and the workload's
  inputs are made, and the number of operations in a round.  Setup mode
  stops here;
- round mode then prints the operations' wall time, peak RSS read when they
  end, operations attempted and failed, the problems the checks found, and
  with ``--trace 1`` the per-layer metrics from the span recorder.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans", help="JSON-lines file for the spans")
    args = parser.parse_args(argv)

    import spans
    import workloads

    work = workloads.WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = work.make_inputs(args.seed, outdir)
    setup_s = time.monotonic() - args.t0
    print(json.dumps({"setup_s": setup_s, "attempted": work.count(inputs)}),
          flush=True)
    if args.mode == "setup":
        return 0

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        missing = recorder.install()
        if missing:
            print(f"not found, reported as zero: {missing}", file=sys.stderr)
        recorder.enabled = True
    start = time.perf_counter()
    outcomes = work.run(inputs)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.enabled = False

    problems = work.check(inputs, outcomes)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "failed": sum(1 for p in problems if p),
        "correct": not any(p for o, p in zip(outcomes, problems)
                           if not o.error),
        "problems": [p for p in problems if p],
    }
    if recorder is not None:
        result["layers"] = recorder.metrics(
            workloads.peaks_reported(outcomes), wall_s)
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

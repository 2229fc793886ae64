"""One workload in one fresh process, with no threads of its own.

Usage (run.py starts it; it can also be run by hand from the repo root):

    python3 perfbench/worker.py --workload closure --seed 1 --seconds 20 [--trace] [--probe]

It imports chevlab from the checkout's `src/`, builds the workload's inputs
from the seed, then runs whole rounds of the workload's operations until
the timed program calls add up to `--seconds`.  Only the program calls are
timed; each output is checked untimed.  `--probe` stops once the inputs are
ready, which is how run.py samples set-up time.  `--trace` runs traced rounds the same way,
then one untraced round to measure what tracing costs.

The last line of stdout is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from oracles import CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_round(ops, tracer=None):
    """Run every operation once: (timed seconds per op, failed count, problems)."""
    wall = []
    failed = 0
    problems = []
    for op in ops:
        if tracer is not None:
            tracer.begin_operation()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that fails is counted, not fatal
            wall.append(time.perf_counter() - t0)
            failed += 1
            problems.append("failed: {}: {!r}".format(op.name, exc))
            continue
        wall.append(time.perf_counter() - t0)
        try:
            op.check(out)
        except CheckFailed as exc:
            problems.append("wrong: {}: {}".format(op.name, exc))
        except Exception as exc:  # a malformed output is a wrong output
            problems.append("wrong: {}: {!r}".format(op.name, exc))
        del out
    return wall, failed, problems


def wall_time(rounds):
    """Seconds of one round: the sum over operations of each operation's
    median over rounds, so that a slow moment spoils one sample, not a sum."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import chevlab
    if os.path.dirname(os.path.abspath(chevlab.__file__)) != os.path.join(SRC, "chevlab"):
        sys.exit("chevlab was not imported from {}".format(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    rounds, failed, problems = [], 0, []
    timed = lambda: sum(map(sum, rounds))
    result = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while not rounds or timed() < args.seconds:
                wall, f, probs = run_round(ops, tracer)
                rounds.append(wall)
                failed += f
                problems += probs
        finally:
            tracer.uninstall()
        plain, f, probs = run_round(ops)
        failed += f
        problems += probs
        result["layers"] = tracer.metrics(len(rounds), wall_time(rounds) - sum(plain))
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
        total_rounds = len(rounds) + 1
    else:
        while not rounds or timed() < args.seconds:
            wall, f, probs = run_round(ops)
            rounds.append(wall)
            failed += f
            problems += probs
        total_rounds = len(rounds)
    result.update({
        "ready": ready,
        "wall_s": wall_time(rounds),
        "rounds": [sum(r) for r in rounds],
        "attempted": total_rounds * len(ops),
        "failed": failed,
        "correct": not any(p.startswith("wrong") for p in problems),
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

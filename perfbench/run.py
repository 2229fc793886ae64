"""chevlab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Each workload runs in a fresh worker process (worker.py).  With `--trace 0`
the result carries the end-to-end metrics: `wall_s` (median over rounds of
the timed program calls in one round), `setup_s` (median over several fresh
processes of the time from spawn until the inputs are ready) and
`peak_rss_mb` (peak resident memory of the workload process).  With
`--trace 1` it carries the per-layer metrics of a traced run instead, and the
spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The command exits non-zero, without that line, when the
program cannot be imported or a worker dies or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("closure", "sampled_sets", "kernels")
SETUP_PROBES = 5
DEADLINE_S = 170


class WorkerError(Exception):
    pass


def _spawn(argv, timeout):
    """Run worker.py to completion; return (its JSON result, spawn time)."""
    env = dict(os.environ)
    env.pop("CHEVLAB_WORKERS", None)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker overran its time: {}".format(argv))
    if proc.returncode != 0:
        raise WorkerError("worker exited {}: {}".format(proc.returncode, argv))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing: {}".format(argv))
    return json.loads(lines[-1]), t_spawn


def run_workload(name, seed, seconds, trace, deadline):
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    os.makedirs(OUT, exist_ok=True)
    tag = "{}-{}{}".format(name, seed, "-trace" if trace else "")
    if trace:
        span_path = os.path.join(OUT, "spans-{}-{}.jsonl".format(name, seed))
        res, _ = _spawn(base + ["--trace", "--trace-out", span_path],
                        deadline - time.monotonic())
        metrics = res["layers"]
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, t_spawn = _spawn(base + ["--probe"], deadline - time.monotonic())
            setups.append(probe["ready"] - t_spawn)
        res, t_spawn = _spawn(base, deadline - time.monotonic())
        setups.append(res["ready"] - t_spawn)
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(OUT, "result-{}.json".format(tag)), "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, rounds=res["rounds"],
                       problems=res["problems"]), fh, indent=1)
    for problem in res["problems"]:
        print("{}: {}".format(name, problem), file=sys.stderr)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all of them in turn when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chevlab", "__init__.py")):
        print("no chevlab sources under {}".format(os.path.join(ROOT, "src")), file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {}
        for name in names:
            remaining = (deadline - time.monotonic()) / (len(names) - len(results))
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         time.monotonic() + remaining)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(json.dumps(dict(res, workload=name)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"{}.{}".format(name, m): v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

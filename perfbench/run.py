"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload visit --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untouched and prints the end-to-end
metrics; ``--trace 1`` wraps each layer's entry points (see
``spans.py``), alternates untraced and traced rounds, and prints the
per-layer metrics.  Both check every operation's output after the
clock stops.  Human-readable lines come first; the last line of
standard output is the JSON result.  Spans of a traced run are written
to ``.perfbench/spans-<workload>-<seed>.json``.
"""

import argparse
import hashlib
import importlib
import json
import os
import sys

import harness
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"visit": "Visit", "clinic": "Clinic", "monitor": "Monitor"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_threads()  # before NumPy loads, with the program
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    module = importlib.import_module(args.workload)
    os.makedirs(harness.RUN_DIR, exist_ok=True)
    workload = getattr(module, WORKLOADS[args.workload])(args.seed)
    tracer = Tracer()
    schedule = None
    try:
        setup_s = workload.setup()
        if args.trace:
            for owner, attribute, name in module.LAYERS:
                tracer.install(owner, attribute, name)
            schedule = harness.TraceSchedule(tracer)
        try:
            run = workload.run(args.seconds, schedule)
        finally:
            tracer.uninstall()
    finally:
        workload.close()

    correct, summary = workload.check(run)
    first = workload.outputs(run)[: harness.RSS_ROUNDS * workload.round_size]
    digest = hashlib.blake2b(repr(first).encode(), digest_size=8).hexdigest()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"set-up {setup_s:.4f} s (median of {harness.SETUP_REPEATS})")
    print(f"timed {run.wall_s:.3f} s  attempted {run.attempted}  failed {run.failed}")
    for line in harness.session_tail_lines(run):
        print(line)
    print(summary)
    print(f"outputs of the first {harness.RSS_ROUNDS} rounds: {digest}")
    failures = sorted({op.error for op in run.ops if not op.ok})
    for error in failures:
        print(f"failed: {error}")

    if args.trace:
        metrics = {item["name"]: 0.0 for item in declared["per_layer"]}
        metrics.update(workload.layer_metrics(run, tracer))
        metrics.update(harness.tracing_overhead(run))
        tracer.write(os.path.join(harness.RUN_DIR, f"spans-{args.workload}-{args.seed}.json"))
        listed = declared["per_layer"]
    else:
        metrics = harness.end_to_end_metrics(run, setup_s)
        listed = declared["end_to_end"]
    harness.emit(correct, run.attempted, run.failed, metrics, listed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

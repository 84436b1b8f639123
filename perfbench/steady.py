"""Steadiness check: two interleaved sets of runs of one commit.

From the root of a checkout::

    python3 perfbench/steady.py --workload visit --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --seconds 20
    python3 perfbench/steady.py --workload visit --runs 5 --sets 1 --same-seed

Runs ``perfbench/run.py`` (untraced) ``--runs`` times per set, one seed
per run, alternating set A and set B, with BLAS/OpenMP threads pinned
to one in every process.  For each end-to-end metric it prints each
set's quartiles, the spread (distance between the quartiles as a share
of the median) against the metric's bound in ``BENCHMARK.json``, and
whether set B's median is within the bound of set A's.  It also checks
that both sets fail the same share of operations.  Raw results go to
``.perfbench/steady-<workload>.json``.  Exit status 1 when any check
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("visit", "clinic", "monitor")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ)
    harness.pin_threads(env)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def compare(sets, declared) -> bool:
    """Print the per-set statistics; True when every check holds."""
    steady = True
    for item in declared:
        name, bound = item["name"], item["bound"]
        medians = []
        for label, results in zip("AB", sets):
            values = [result["metrics"][name]["value"] for result in results]
            q1, q2, q3 = harness.quartiles(values)
            spread = (q3 - q1) / q2
            gated = name != "setup_s"
            verdict = "ok" if spread <= bound or not gated else "WIDE"
            steady &= verdict == "ok"
            print(f"  {name:16s} {label}: q1 {q1:.6g}  median {q2:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:6.2%} (bound {bound:.0%}, third {bound / 3:.1%})"
                  f"  {verdict}")
            medians.append(q2)
        if len(medians) == 2:
            worse = (medians[1] - medians[0]) / medians[0]
            if item["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            steady &= agree
            print(f"  {name:16s} B vs A: {worse:+.2%} worse  {'agree' if agree else 'DISAGREE'}")
    shares = {
        label: {Fraction(r["failed"], r["attempted"]) for r in results}
        for label, results in zip("AB", sets)
    }
    same = len(set().union(*shares.values())) == 1
    steady &= same and all(r["correct"] for results in sets for r in results)
    print(f"  failed share: {sorted(str(s) for s in set().union(*shares.values()))}"
          f"  {'same in every run' if same else 'DIFFERS'}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--same-seed", action="store_true",
        help="give every run the first seed, to see host noise alone",
    )
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(harness.RUN_DIR, exist_ok=True)
    steady = True
    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        for index in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else index)
            # Alternate which set goes first, so drift hits both alike.
            order = range(args.sets) if index % 2 == 0 else reversed(range(args.sets))
            for which in order:
                sets[which].append(run_once(workload, seed, seconds))
        with open(os.path.join(harness.RUN_DIR, f"steady-{workload}.json"), "w") as out:
            json.dump({"seconds": seconds, "sets": sets}, out)
        print(f"{workload}: {args.runs} runs per set, {seconds:g} s each")
        steady &= compare(sets, benchmark["end_to_end"])
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

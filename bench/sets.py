"""Sets of benchmark runs: make one, summarise it, compare two.

    python3 bench/sets.py run --workload grid-cold --seeds 1-10 --out bench/out/a.json
    python3 bench/sets.py compare bench/out/a.json bench/out/b.json

`run` makes one untraced run of `bench/run.py` per seed, one after
another, at the run length BENCHMARK.json sets, and
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) beside the
bound in BENCHMARK.json. `compare` prints, for every metric, how far the
second set's median moved from the first's, in the worse direction, as a
share of the first's, beside the bound, and whether the shares of failed
operations are equal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import record_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def cmd_run(args):
    bench = load_benchmark()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(record_path(args.workload, 0)) as handle:
            phases = json.load(handle)["info"].get("phases", {})
        runs.append({"seed": seed, "phases": phases, **result})
        print("seed %3d  correct %s  attempted %d  failed %d  %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            "  ".join("%s %.4f" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    with open(args.out, "w") as handle:
        json.dump({"workload": args.workload, "runs": runs}, handle, indent=1)
    print_spreads(bench, runs)


def print_spreads(bench, runs):
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med, q1, q3, spread = summary(values)
        print("%-14s median %10.4f  q1 %10.4f  q3 %10.4f  spread %6.2f %%  bound %4.0f %%"
              % (metric["name"], med, q1, q3, 100 * spread, 100 * metric["bound"]))


def cmd_compare(args):
    bench = load_benchmark()
    sets = []
    for path in (args.first, args.second):
        with open(path) as handle:
            sets.append(json.load(handle)["runs"])
    ok = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        meds = [statistics.median(r["metrics"][name]["value"] for r in runs)
                for runs in sets]
        worse = (meds[1] - meds[0]) / meds[0]
        if metric["better"] == "higher":
            worse = -worse
        within = worse <= metric["bound"]
        ok = ok and within
        print("%-14s %10.4f -> %10.4f  worse by %+6.2f %%  bound %4.0f %%  %s"
              % (name, meds[0], meds[1], 100 * worse, 100 * metric["bound"],
                 "ok" if within else "WORSE"))
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in sets]
    print("failed share %.6f -> %.6f  %s" % (
        shares[0], shares[1], "equal" if shares[0] == shares[1] else "DIFFERENT"))
    return 0 if ok and shares[0] == shares[1] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())

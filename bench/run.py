"""Benchmark for kneserlab: one workload, one run.

    python3 bench/run.py --workload grid-cold --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it uses `src/` there and
nothing installed. Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`). The run's record, with its byte anchors, is
also written to `bench/out/last-<workload>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("grid-cold", "session-warm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def record_path(workload, trace):
    return os.path.join(OUT, "last-%s-trace%d.json" % (workload, trace))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kneserlab", "__init__.py")):
        print("error: no kneserlab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    # numpy starts a BLAS thread pool on import, which costs about 0.1 s of
    # CPU on a second core and makes start-up times depend on whether one
    # is free. kneserlab does no BLAS work, so the benchmark and the CLI
    # processes it starts (which inherit this) use one thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    result, info = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    for key in ("problems", "traced_wall_s", "absent"):
        if key in result:
            info[key] = result.pop(key)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": metrics, "info": info}

    print("workload %s  seed %d  trace %d  rounds %s"
          % (args.workload, args.seed, args.trace, info.get("rounds", 1)))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in info.get("phases", {}).items():
        print("  phase %-28s %14.6g s" % (name, value))
    if args.trace:
        _print_trace_info(args.workload, metrics, info)
    for name, digest in sorted(info.get("anchors", {}).items()):
        print("  sha256 %-32s %s" % (name, digest))
    for problem in info.get("problems", []):
        print("  PROBLEM %s" % problem)

    os.makedirs(OUT, exist_ok=True)
    with open(record_path(args.workload, args.trace), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _print_trace_info(workload, metrics, info):
    wall = info["traced_wall_s"]
    print("  traced wall (set-up and one round, in process) %.3f s" % wall)
    try:
        with open(record_path(workload, 0)) as handle:
            untraced = json.load(handle)["metrics"]
        print("  last untraced run: setup_s %.3f s, work_s %.3f s"
              % (untraced["setup_s"]["value"], untraced["work_s"]["value"]))
    except (OSError, KeyError, ValueError):
        print("  no untraced run of this workload recorded in bench/out")
    for name, m in metrics.items():
        if m["unit"] == "s" and name != "cli.startup_s":
            print("  share of traced wall %-26s %6.1f %%" % (name, 100.0 * m["value"] / wall))
    for name in info.get("absent", []):
        print("  absent: %s (metrics that need it read 0)" % name)


if __name__ == "__main__":
    sys.exit(main())

"""SDVM benchmark: one command, four workloads, two clocks.

    python3 sdvm_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced ledger and reports the per-layer metrics.  The report
goes to standard output, and its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The command exits 1
when a program returns a wrong result, fails or times out, or when a
virtual-time figure does not repeat exactly; stderr names the figure.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCES = os.path.join(ROOT, "src")


def parse_args(argv):  # noqa: ANN001, ANN201
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:  # noqa: ANN001
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCES, "repro", "__init__.py")):
        print(f"sdvm_bench: no SDVM sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCES, ROOT]
    from sdvm_bench.metrics import END_TO_END, PER_LAYER
    from sdvm_bench.traced import traced_run
    from sdvm_bench.workloads import WORKLOAD_NAMES, measure

    if args.workload not in WORKLOAD_NAMES:
        print(f"sdvm_bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds,
                            os.path.join(BENCH_DIR, "out"))
        values = result.layer_metrics
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    else:
        result = measure(args.workload, args.seed, args.seconds)
        values = result.metrics
        units = {name: unit for name, (unit, _better) in END_TO_END.items()}

    samples = sum(1 for s in result.samples if s.ok)
    print(f"workload {result.workload}  seed {args.seed}  "
          f"trace {args.trace}  programs {result.attempted}  "
          f"failed {result.failed}")
    for name in units:
        if name in values:
            count = len(result.setup) if name == "setup_s" else samples
            print(f"  {name:<28s} {_fmt(values[name]):>12s} "
                  f"{units[name]:<6s} n={count}")
    for line in result.report_lines:
        print(f"  {line}")
    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **result.context,
    }
    print("host context (informational, never compared): "
          + json.dumps(context, sort_keys=True, default=str))

    problems = [f"program failed: {s.failure}"
                for s in result.samples if not s.ok]
    problems += [f"virtual-time figure {name} diverged: "
                 f"{result.repeats[name]}" for name in result.divergent()]
    if not problems and set(values) != set(units):
        problems.append("metrics missing: "
                        + ", ".join(sorted(set(units) - set(values))))
    for problem in problems:
        print(f"sdvm_bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(result.attempted, 1),
        "failed": result.failed if result.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

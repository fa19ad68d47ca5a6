"""normgraph benchmark: `check` latency and save/reload round trips.

    python3 benchmarks/run.py                    # every workload, one process each
    python3 benchmarks/run.py --workload corpus --seed 7 --seconds 20 --trace 0

One caller drives normgraph through its public functions in a closed loop:
each operation starts when the previous one has returned. A run makes one
warm-up pass over the workload's inputs, whose outputs are checked in full
against the references in workloads.py, repeats it in a fresh interpreter to
compare inferred graphs by digest, and then repeats passes for `--seconds`,
checking every output again and timing a fresh interpreter's set-up between
passes (`setup_s`). `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer ones from a traced run (see spans.py). The last line of output
is one JSON object; the exit code is 1 if any output disagreed with its
reference, 2 if the normgraph sources are missing. See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_all(args, workloads) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in workloads:
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            result = json.loads(child.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and child.returncode == 0
        metrics.update({f"{workload}/{name}": value for name, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "normgraph" / "__init__.py").is_file():
        print(f"error: normgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    if args.workload is None:
        return run_all(args, list(bench.workloads.WORKLOADS))
    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.digests:
        bench.print_digests(args.workload, args.seed)
        return 0
    return bench.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark and the cash-card sweep in one file, BENCH_<n>.json.

    python3 tools/bench_record.py 28      # writes BENCH_28.json at the repository root

It runs `benchmarks/run.py --seed 1`, which runs every workload, each in its
own process, for the harness's default length, and then
`tools/cash_card_sweep.py --agents 5,10,20,40,80,160`. The file holds the
commit (`git describe --always --dirty`), the Python version, each workload's
end-to-end metrics as the harness reports them (times are medians over the
run's passes), and for each agent count N the sweep's seconds (fastest of 3)
and pattern-step calls (those of `rules._PATTERN_RUNS`). `flags` names the
metrics that do not measure what their name says. The exit code is 1 if the
harness found a wrong output or the sweep stopped at its cap, and the file is
written either way; it is 2, and nothing is written, if the harness gave no
result.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ["benchmarks/run.py", "--seed", "1"]
SWEEP = ["tools/cash_card_sweep.py", "--agents", "5,10,20,40,80,160"]
FLAGS = {
    "peak_rss_mb": "set by the harness's host-speed calibration loop (host_scale in "
                   "benchmarks/bench.py) more than by normgraph: one calibration raised a "
                   "process's peak from ~24 to ~30 MiB, so an engine change of a few MiB "
                   "does not show",
}


def record(bench_stdout: str, sweep_stdout: str, commit: str, python: str) -> dict:
    """The file's contents, from the two tools' standard output."""
    result = json.loads(bench_stdout.splitlines()[-1])
    workloads: dict[str, dict[str, float]] = {}
    units = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split("/", 1)
        workloads.setdefault(workload, {})[name] = metric["value"]
        units[name] = metric["unit"]
    sweep = []
    for line in sweep_stdout.splitlines():
        run = json.loads(line)
        sweep.append({key: run[key] for key in ("agents", "seconds", "extend_calls", "capped_at_s")
                      if key in run})
    return {
        "commit": commit, "python": python,
        "benchmark": {"command": " ".join(BENCH), "correct": result["correct"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "units": units, "workloads": workloads},
        "cash_card_sweep": {"command": " ".join(SWEEP), "runs": sweep},
        "flags": FLAGS,
    }


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: bench_record.py N   (writes BENCH_N.json)", file=sys.stderr)
        return 2
    bench = _run(BENCH)
    if bench.returncode == 2:  # no result: the sources are missing or a workload printed none
        sys.stderr.write(bench.stderr)
        return 2
    sweep = _run(SWEEP)
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    contents = record(bench.stdout, sweep.stdout, commit, platform.python_version())
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(contents, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0 if bench.returncode == 0 and sweep.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check that every benchmark run ends in a result line that can be read.

    python3 tools/check_bench_output.py

For each workload named in BENCHMARK.json, this runs
`benchmarks/run.py --workload W --seed 1 --seconds 1` once with `--trace 0`
and once with `--trace 1`. A run passes when it exits 0 and the last line it
prints is one JSON object with `correct: true` and `failed: 0` whose `metrics`
name every `end_to_end` metric of BENCHMARK.json (trace 0), or every
`per_layer` one (trace 1), each with a finite value. It prints one line per
run and exits 1 if any run failed. BENCHMARK.json is only read.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600
SECONDS = 1
SEED = 1


def problems(returncode: int, stdout: str, names: list[str]) -> list[str]:
    """What is wrong with a run that exited with `returncode` and printed
    `stdout`, given the metric names its result must hold; [] if nothing."""
    found = [] if returncode == 0 else [f"exit code {returncode}"]
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        return found + [f"last line is not a JSON object: {(lines or [''])[-1][:80]!r}"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    for name in names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if entry is None:
            found.append(f"metric {name} missing")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {name} has no finite value: {entry!r}")
    return found


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {trace: [metric["name"] for metric in bench[kind]]
             for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
                       "--workload", workload, "--seed", str(SEED),
                       "--seconds", str(SECONDS), "--trace", str(trace)]
            try:
                child = subprocess.run(command, capture_output=True, text=True,
                                       timeout=RUN_TIMEOUT_S, cwd=ROOT)
                found = problems(child.returncode, child.stdout, names[trace])
            except subprocess.TimeoutExpired:
                found = [f"no result within {RUN_TIMEOUT_S} s"]
            failed = failed or bool(found)
            print(f"{workload} --trace {trace}: "
                  + ("ok" if not found else "FAILED: " + "; ".join(found)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

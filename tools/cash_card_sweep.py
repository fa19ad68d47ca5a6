"""Time the scaled cash-card workload at growing agent counts.

    PYTHONPATH=src python3 tools/cash_card_sweep.py [--seed 1] [--cap 60] [--agents 5,10,20,40]

For each N in `--agents` (5, 10, 20 and 40 unless given, e.g. `--agents
80,160` for larger ones), the input is `cash-card-norms` plus N seeded
`soa:Human` agents with layers `pragmatics,dts,compliance`, built by
`benchmarks/workloads.py` exactly as the `cash-card-scale` workload builds
it (run as a script, the sweep puts `benchmarks/` on the import path). The
sweep parses the input, then times `run_pipeline` with `time.perf_counter`
and keeps the fastest of 3 runs, as load from other processes only ever
adds time; one untimed run at the smallest N first fills the vocabulary
cache and the cache of parsed rules, the catalog's and `cash-card-norms`'
own, so no timed run parses a rule. One more, untimed run per N counts the
calls to the runners of triple pattern steps (`rules._PATTERN_RUNS`:
`_extend` and the three that read one index bucket), one per binding a
pattern step extends: a gauge of the work done that does not depend on the
host. It counts under `cProfile` the calls to those runners' code objects,
so it sees the steps compiled and kept on the cached rules before it too;
the profiler makes a counting run ~4 times as slow as a timed one.

It prints one JSON line per N: the seconds, those calls, the triples
in the inferred graph, the fixpoint's iterations, the SHA-256 of the graph's
Turtle (equal digests mean equal output), and two local growth exponents
against the N before (null for the first N and for one that repeats the N
before): `exponent`, log(t/t') / log(N/N') of the seconds, and
`extend_exponent`, the same of those calls, which does not move with
the load on the host. If the runs of one N take more than `--cap` seconds,
the sweep stops there with a line that says so.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import signal
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # run as a script: the workload generators are in benchmarks/
    sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads
from normgraph import rules
from normgraph.cli import run_pipeline
from normgraph.turtle import parse_turtle, serialize_turtle

AGENTS = (5, 10, 20, 40)
REPEATS = 3


def _agent_counts(text: str) -> tuple[int, ...]:
    """The agent counts of a comma-separated list, each a positive integer."""
    try:
        counts = tuple(int(item) for item in text.split(","))
    except ValueError:
        counts = ()
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"not a list of positive agent counts: {text!r}")
    return counts


class _Capped(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Capped()


def _run(seed: int, agents: int) -> tuple[float, object]:
    (inp,) = workloads.cash_card_scale(seed, agents)
    graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
    start = time.perf_counter()
    pipeline = run_pipeline(graphs, set(inp.layers))
    return time.perf_counter() - start, pipeline.result


def _extend_calls(run, *args) -> int:
    """The pattern-step runner calls that `run(*args)` makes, counted by code object."""
    profile = cProfile.Profile()
    profile.runcall(run, *args)
    codes = {runner.__code__ for runner in rules._PATTERN_RUNS}
    return sum(entry.callcount for entry in profile.getstats() if entry.code in codes)


def _exponent(last: tuple | None, agents: int, at: int, value: float) -> float | None:
    """log(value / value') / log(N / N') against the item `at` of `last`, the
    row of the N before; None for the first N and for one that repeats it."""
    if last is None or last[0] == agents:
        return None
    return round(math.log(value / last[at]) / math.log(agents / last[0]), 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cap", type=int, default=60, help="seconds allowed for one N")
    parser.add_argument("--agents", type=_agent_counts, default=AGENTS,
                        help="comma-separated agent counts, in the order to run them "
                             "(default: 5,10,20,40)")
    args = parser.parse_args(argv)
    _run(args.seed, min(args.agents))
    signal.signal(signal.SIGALRM, _on_alarm)
    last = None  # (agents, seconds, extend_calls) of the N before
    for agents in args.agents:
        signal.alarm(args.cap)
        try:
            seconds, result = min((_run(args.seed, agents) for _ in range(REPEATS)),
                                  key=lambda run: run[0])
            extend_calls = _extend_calls(_run, args.seed, agents)
        except _Capped:
            print(json.dumps({"agents": agents, "capped_at_s": args.cap}))
            return 1
        finally:
            signal.alarm(0)
        print(json.dumps({
            "agents": agents, "seconds": round(seconds, 4), "extend_calls": extend_calls,
            "triples": len(result.graph),
            "iterations": result.iterations_used,
            "digest": hashlib.sha256(serialize_turtle(result.graph).encode()).hexdigest(),
            "exponent": _exponent(last, agents, 1, seconds),
            "extend_exponent": _exponent(last, agents, 2, extend_calls),
        }), flush=True)
        last = (agents, seconds, extend_calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload; see README.md and run.py."""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_PY = HERE / "run.py"
# Per-input wall-time caps, at least 20 times the slowest traced input when
# the benchmark was written, and the limit on one whole run (which must end
# within 180 s).
INPUT_CAP_S = {"corpus": 5.0, "cash-card-scale": 60.0, "family-mix": 20.0}
RUN_LIMIT_S = 150.0
SETUP_RUNS = 15
# On a shared virtual machine the same code runs up to ~40 % faster or slower
# from one minute to the next, and no statistic of one 30-second run can tell
# that apart from a change in the program. So every pass is followed by a
# fixed loop of pure Python (`calibration_loop`), and each time measured in
# the pass is scaled by CALIBRATION_REF_S / the loop's median time: times are
# reported in seconds at the host speed where the loop takes 25 ms, which is
# about what it took on the 2-vCPU 2.1 GHz Xeon VM the benchmark was written on.
CALIBRATION_REPS = 3
CALIBRATION_REF_S = 0.025

SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import normgraph
normgraph.vocabulary()
start = time.perf_counter()
normgraph.builtin_ruleset()
print(json.dumps({"builtin_ruleset_s": time.perf_counter() - start}))
"""

UNITS = {"setup_s": "s", "check_s": "s", "check_input_s.p50": "s",
         "check_input_s.p90": "s", "reload_s": "s", "inferred_per_s": "triples/s",
         "peak_rss_mb": "MiB"}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def calibration_loop() -> int:
    """Fixed work in the engine's idiom (small objects, tuples as dict and
    set keys) that touches nothing of normgraph, so no change to the program
    can change its time."""
    counts, seen = {}, set()
    for i in range(20000):
        pair = _Pair(i % 613, str(i % 89))
        key = (pair.a, pair.b)
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
    return len(counts)


def host_scale() -> float:
    """CALIBRATION_REF_S over the calibration loop's median time now."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return CALIBRATION_REF_S / statistics.median(times)


class InputTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InputTimeout("per-input time cap reached")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


@dataclass
class Pass:
    """One pass over the inputs: per-input times, in input order, and the
    host scale measured right after the pass."""
    check_times: list[float] = field(default_factory=list)
    reload_times: list[float] = field(default_factory=list)
    inferred: int = 0
    scale: float = 1.0


def medians(passes: list[Pass], attribute: str) -> list[float]:
    """Each input's median over the passes of its time times its pass's scale."""
    return [statistics.median(t * p.scale for t, p in zip(times, passes))
            for times in zip(*(getattr(p, attribute) for p in passes))]


class Runner:
    def __init__(self, workload: str, inputs: list, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.deadline = deadline
        self.tally = Tally()
        self.digests: dict[str, str] = {}     # input name -> warm-up digest
        self.warm_failed: set[str] = set()

    def _run_input(self, inp, cap: float, begin):
        out, reloaded, check_s, reload_s = checks.CheckOutput(), None, 0.0, 0.0
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            begin("check")
            start = time.perf_counter()
            try:
                out = checks.check_op(inp)
            finally:
                check_s = time.perf_counter() - start
            begin("reload")
            start = time.perf_counter()
            reloaded = checks.reload_op(out.graph)
            reload_s = time.perf_counter() - start
        except Exception as err:  # judged by verify(): an expected error passes
            out.error = err
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, reloaded, check_s, reload_s

    def run_pass(self, pass_no: int, tracer=None, warm_up: bool = False) -> Pass:
        result = Pass()
        gc.collect()
        for inp in self.inputs:
            cap = min(INPUT_CAP_S[self.workload], self.deadline - time.monotonic())
            if cap <= 0:
                self.tally.record(inp.name, ["run time limit reached before this input"])
                result.check_times.append(INPUT_CAP_S[self.workload])
                result.reload_times.append(0.0)
                continue
            begin = (lambda op: tracer.begin(pass_no, inp.name, op)) if tracer else (lambda op: None)
            try:
                out, reloaded, check_s, reload_s = self._run_input(inp, cap, begin)
            except InputTimeout as err:  # the cap fired as the input finished
                out, reloaded, check_s, reload_s = checks.CheckOutput(error=err), None, cap, 0.0
            result.check_times.append(check_s)
            result.reload_times.append(reload_s)
            result.inferred += out.inferred
            if warm_up:
                problems = checks.verify(inp, out, reloaded, full=True)
                if problems:
                    self.warm_failed.add(inp.name)
                self.digests[inp.name] = checks.digest(reloaded.saved) if reloaded \
                    else type(out.error).__name__
            else:
                problems = checks.verify(inp, out, reloaded, self.digests.get(inp.name))
                if inp.name in self.warm_failed:
                    problems.append("warm-up output failed its reference check")
            self.tally.record(inp.name, problems)
        return result

    def passes(self, seconds: float, first: int, tracer=None, setup=None) -> list[Pass]:
        """Whole passes for about `seconds`: none starts that the last one's
        length says would end after them, except the first."""
        out: list[Pass] = []
        start = last = time.monotonic()
        while not out or 2 * time.monotonic() - last - start <= seconds:
            if time.monotonic() >= self.deadline:
                break
            last = time.monotonic()
            out.append(self.run_pass(first + len(out), tracer))
            out[-1].scale = host_scale()
            if setup is not None:
                setup.sample(out[-1].scale)
        while setup is not None and len(setup.walls) < SETUP_RUNS:
            setup.sample(host_scale())
        return out

    def compare_fresh_process(self, seed: int):
        """Run every input again in a fresh interpreter with another hash seed;
        its inferred graphs must be label-identical to the warm-up's."""
        env = dict(os.environ, PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            child = subprocess.run(
                [sys.executable, str(RUN_PY), "--workload", self.workload, "--seed", str(seed),
                 "--digests"], capture_output=True, text=True, env=env, timeout=timeout)
            theirs = json.loads(child.stdout.splitlines()[-1]) if child.returncode == 0 else {}
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError):
            theirs = {}
        for inp in self.inputs:
            same = theirs.get(inp.name) == self.digests.get(inp.name)
            self.tally.record(inp.name, [] if same else
                              ["inferred graph differs in a fresh interpreter (digest)"])


class Setup:
    """Fresh interpreters timed from start to the ready state, scaled by the
    host scale measured just before. Samples are taken between passes, so a
    slow spell of the machine at one moment does not decide the median; one
    untimed start first fills the bytecode cache."""

    def __init__(self):
        self.walls: list[float] = []
        self.catalog: list[float] = []     # builtin_ruleset() inside the child
        self._start()

    def _start(self) -> tuple[float, float]:
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                               capture_output=True, text=True, timeout=60, check=True)
        return time.perf_counter() - start, json.loads(child.stdout)["builtin_ruleset_s"]

    def sample(self, scale: float):
        if len(self.walls) < SETUP_RUNS:
            wall, catalog = self._start()
            self.walls.append(wall * scale)
            self.catalog.append(catalog * scale)


def _print_metric(name: str, value: float, unit: str, samples: int):
    print(f"  {name:32s} {value:14.6g} {unit:10s} n={samples}")


def end_to_end(runner: Runner, passes: list[Pass], setup: list[float]) -> dict:
    latencies = medians(passes, "check_times")
    check_s = sum(latencies)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "check_s": (check_s, len(passes)),
        "check_input_s.p50": (statistics.median(latencies), len(latencies)),
        "check_input_s.p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                              if len(latencies) > 1 else latencies[0], len(latencies)),
        "reload_s": (sum(medians(passes, "reload_times")), len(passes)),
        "inferred_per_s": (passes[0].inferred / check_s, len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(f"end-to-end metrics ({runner.workload}, tracing off):")
    for name, (value, samples) in values.items():
        _print_metric(name, value, UNITS[name], samples)
    unscaled = sum(statistics.median(t) for t in zip(*(p.check_times for p in passes)))
    print(f"  ({len(passes)} passes; times are each input's median pass, scaled to the "
          f"reference host speed; percentiles are over the {len(latencies)} input(s))")
    print(f"  host scale {statistics.median(p.scale for p in passes):.4f} (median over passes); "
          f"check_s unscaled {unscaled:.6g} s")
    return {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in values.items()}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def per_layer(runner: Runner, base: list[Pass], traced: list[Pass], tracer: spans.Tracer,
              setup: Setup) -> dict:
    first = 1 + len(base)   # pass numbers of the traced passes follow the untraced ones
    scale = {first + i: p.scale for i, p in enumerate(traced)}
    metrics = spans.layer_metrics(tracer, scale)
    metrics["ontology.builtin_ruleset_cold_s"] = statistics.median(setup.catalog)
    traced_check = sum(medians(traced, "check_times"))
    metrics["trace.overhead_ratio"] = traced_check / sum(medians(base, "check_times"))
    check_phases = spans.phase_seconds(tracer, "check")
    gaps = {(first + i, inp.name): {"gap_s": p.check_times[j] - sum(check_phases[(first + i, inp.name)].values())}
            for i, p in enumerate(traced) for j, inp in enumerate(runner.inputs)}
    metrics["trace.unattributed_s"] = spans.median_sum(gaps, ["gap_s"], scale)["gap_s"]
    print(f"per-layer metrics ({runner.workload}, {len(traced)} traced pass(es)):")
    for name in sorted(metrics):
        _print_metric(name, metrics[name], _unit(name), len(traced))
    absent = sorted(set(spans.PER_LAYER_NAMES) - set(metrics))
    if absent:
        print(f"  absent (call path not found): {', '.join(absent)}")
    print(f"share of traced check_s ({traced_check:.4f} s) by phase self time:")
    shares = spans.median_sum(check_phases, set().union(*check_phases.values()), scale)
    shares["unattributed"] = metrics["trace.unattributed_s"]
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {seconds / traced_check:7.1%}")
    print("hottest rules (seconds per pass):")
    for rule, seconds in spans.rule_seconds(tracer, scale).most_common(5):
        print(f"  {rule:44s} {seconds:9.4f} s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{runner.workload}.jsonl")
    return {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}


def print_digests(workload: str, seed: int):
    """The fresh-interpreter side of Runner.compare_fresh_process."""
    found = {}
    for inp in workloads.WORKLOADS[workload](seed):
        try:
            found[inp.name] = checks.digest(checks.reload_op(checks.check_op(inp).graph).saved)
        except Exception as err:  # compared with the warm-up's outcome by the caller
            found[inp.name] = type(err).__name__
    print(json.dumps(found))


def run_workload(args) -> int:
    inputs = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(args.workload, inputs, time.monotonic() + RUN_LIMIT_S)
    print(f"workload {args.workload}, seed {args.seed}: {len(inputs)} input(s), "
          f"{sum(len(t) for i in inputs for t in i.texts)} bytes of Turtle")
    setup = Setup()
    runner.run_pass(0, warm_up=True)
    runner.compare_fresh_process(args.seed)
    if args.trace:
        base = runner.passes(args.seconds / 2, 1, setup=setup)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced = runner.passes(args.seconds / 2, 1 + len(base), tracer)
        metrics = per_layer(runner, base, traced, tracer, setup)
    else:
        metrics = end_to_end(runner, runner.passes(args.seconds, 1, setup=setup), setup.walls)
    tally = runner.tally
    print(f"  {'failed_ratio':32s} {tally.failed / tally.attempted:14.6g} {'ratio':10s} "
          f"n={tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1



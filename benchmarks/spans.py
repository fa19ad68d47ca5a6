"""Spans around normgraph's public functions, for the traced benchmark run.

The engine has no tracing of its own, so `instrument` replaces each traced
function on the module where its callers look it up (callers bind names at
import, so `normgraph.cli.run_fixpoint` is wrapped, not
`normgraph.engine.run_fixpoint`), and puts the originals back afterwards.
Wrappers return every result unchanged, so the traced run's outputs are
checked like any other.

A span records its name, start and end (`perf_counter_ns`), parent span and
the trace id of the input it belongs to. Spans stay in memory until the
run ends. The benchmark runs in one thread, so a span's children never
overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns
from typing import Callable, Optional

from normgraph.ontology import LAYER_NAMES

# Pipeline phases: the spans whose self times add up to an operation's time.
PHASES = {
    "turtle.parse_s": "turtle.parse",
    "turtle.serialize_s": "turtle.serialize",
    "cli.run_pipeline_s": "cli.run_pipeline",
    "ontology.vocabulary_s": "ontology.vocabulary",
    "ontology.builtin_ruleset_s": "ontology.builtin_ruleset",
    "model.graph_union_s": "model.graph_union",
    "engine.load_rules_s": "engine.load_rules",
    "engine.strip_rules_s": "engine.strip_rules",
    "engine.fixpoint_s": "engine.fixpoint",
    "report.extract_findings_s": "report.extract_findings",
    "report.render_s": "report.render",
}
RULE_LAYERS = (*LAYER_NAMES, "user")
# Every per-layer metric the traced run reports; the last three are worked
# out by bench.py from the setup interpreters and the untraced passes.
PER_LAYER_NAMES = (
    *PHASES, "model.match_calls", "model.inserts",
    "engine.first_iter_s", "engine.later_iters_s", "engine.iterations",
    "engine.solutions", "engine.inferred",
    *(f"rules.layer.{layer}_s" for layer in RULE_LAYERS),
    "rules.evaluate_calls", "rules.nested_calls", "rules.notexists_pass_ratio",
    "rules.instantiate_s", "report.findings",
    "ontology.builtin_ruleset_cold_s", "trace.overhead_ratio", "trace.unattributed_s",
)


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    trace: int
    rule: Optional[str] = None
    layer: Optional[str] = None
    iteration: Optional[int] = None


def self_times(spans: list[Span], keep: Optional[Callable[[Span], bool]] = None) -> dict[int, int]:
    """Self time in ns of each kept span: its duration minus the durations of
    its nearest kept descendants. Spans that are not kept are looked through,
    so their time counts towards the nearest kept ancestor."""
    kept = [keep is None or keep(s) for s in spans]
    out = {i: s.end - s.start for i, s in enumerate(spans) if kept[i]}
    for i, s in enumerate(spans):
        if not kept[i]:
            continue
        parent = s.parent
        while parent is not None and not kept[parent]:
            parent = spans[parent].parent
        if parent is not None:
            out[parent] -= s.end - s.start
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.traces: list[tuple[int, str, str]] = []   # (pass, input, op) per trace id
        self.counts: Counter = Counter()                # (trace id, counter) -> n
        self._stack: list[int] = []
        self._rules: dict[int, object] = {}             # id(where or query) -> RuleEntry
        self._first_where: Optional[int] = None
        self._not_exists: set[int] = set()
        self._iteration = 0

    def begin(self, pass_no: int, input_name: str, op: str):
        """Start the trace of one operation on one input."""
        self.traces.append((pass_no, input_name, op))
        self._stack.clear()

    @property
    def trace(self) -> int:
        return len(self.traces) - 1

    def count(self, key: str, n: int = 1):
        self.counts[(self.trace, key)] += n

    def open(self, name: str, rule=None, iteration: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, self.trace,
                               rule.rule_id if rule else None, rule.layer if rule else None,
                               iteration))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int):
        """End span `index` and any span still open inside it."""
        now = perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                break

    def _top(self, name: str) -> Optional[int]:
        if self._stack and self.spans[self._stack[-1]].name == name:
            return self._stack[-1]
        return None

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def fixpoint(self, fn):
        def wrapper(data, rules, *args, **kwargs):
            # a rule whose query has another shape is simply not attributed
            queries = [(e, getattr(e, "query", None)) for e in rules]
            wheres = [(e, getattr(q, "where_clause", None)) for e, q in queries]
            self._rules = {id(part): e for e, part in queries + wheres if part is not None}
            self._first_where = id(wheres[0][1]) if wheres and wheres[0][1] is not None else None
            self._not_exists = set()
            self._iteration = 0
            for _, where in wheres:
                _collect_not_exists(where, self._not_exists)
            index = self.open("engine.fixpoint")
            try:
                result = fn(data, rules, *args, **kwargs)
                self.count("engine.inferred", len(result.graph) - len(data))
                return result
            finally:
                self.close(index)
        return wrapper

    def evaluate(self, fn):
        """A rule's top-level WHERE evaluation, called once per rule and pass;
        the first rule's call starts a new fixpoint iteration."""
        def wrapper(graph, gp, *args, **kwargs):
            if id(gp) == self._first_where:
                current = self._top("engine.iteration")
                if current is not None:
                    self.close(current)
                self._iteration += 1
                self.open("engine.iteration", iteration=self._iteration)
                self.count("engine.iterations")
            index = self.open("rules.evaluate", self._rules.get(id(gp)))
            try:
                solutions = fn(graph, gp, *args, **kwargs)
                self.count("engine.solutions", len(solutions))
                return solutions
            finally:
                self.close(index)
        return wrapper

    def nested(self, fn):
        """A NOT EXISTS or UNION group evaluated inside a rule's WHERE."""
        def wrapper(graph, gp, *args, **kwargs):
            index = self.open("rules.nested")
            try:
                solutions = fn(graph, gp, *args, **kwargs)
                if id(gp) in self._not_exists:
                    self.count("rules.notexists_probes")
                    if not solutions:
                        self.count("rules.notexists_passes")
                return solutions
            finally:
                self.close(index)
        return wrapper

    def instantiate(self, fn):
        def wrapper(query, *args, **kwargs):
            index = self.open("rules.instantiate", self._rules.get(id(query)))
            try:
                return fn(query, *args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def findings(self, fn):
        def wrapper(*args, **kwargs):
            index = self.open("report.extract_findings")
            try:
                found = fn(*args, **kwargs)
                self.count("report.findings", len(found.findings))
                return found
            finally:
                self.close(index)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for trace, (pass_no, input_name, op) in enumerate(self.traces):
                handle.write(json.dumps({"trace": trace, "pass": pass_no,
                                         "input": input_name, "op": op}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _collect_not_exists(group, out: set[int]):
    for element in getattr(group, "elements", ()):
        inner = getattr(element, "inner", None)
        if inner is not None:
            out.add(id(inner))
            _collect_not_exists(inner, out)
        for branch in (getattr(element, "left", None), getattr(element, "right", None)):
            if branch is not None:
                _collect_not_exists(branch, out)


# (module, attribute, how to wrap it). A hook whose attribute no longer
# exists is skipped, and the metrics fed by it are then reported absent.
HOOKS: list[tuple[str, str, Callable[[Tracer, Callable], Callable]]] = [
    ("normgraph.turtle", "parse_turtle", lambda t, f: t.timed("turtle.parse", f)),
    ("normgraph.turtle", "serialize_turtle", lambda t, f: t.timed("turtle.serialize", f)),
    ("normgraph.cli", "run_pipeline", lambda t, f: t.timed("cli.run_pipeline", f)),
    ("normgraph.cli", "vocabulary", lambda t, f: t.timed("ontology.vocabulary", f)),
    ("normgraph.cli", "graph_union", lambda t, f: t.timed("model.graph_union", f)),
    ("normgraph.model", "graph_union", lambda t, f: t.timed("model.graph_union", f)),
    ("normgraph.cli", "builtin_ruleset", lambda t, f: t.timed("ontology.builtin_ruleset", f)),
    ("normgraph.cli", "load_rules", lambda t, f: t.timed("engine.load_rules", f)),
    ("normgraph.cli", "strip_rules", lambda t, f: t.timed("engine.strip_rules", f)),
    ("normgraph.cli", "run_fixpoint", lambda t, f: t.fixpoint(f)),
    ("normgraph.engine", "evaluate_where", lambda t, f: t.evaluate(f)),
    ("normgraph.engine", "instantiate", lambda t, f: t.instantiate(f)),
    ("normgraph.rules", "evaluate_where", lambda t, f: t.nested(f)),
    ("normgraph.model", "Graph.match_iter", lambda t, f: t.counted("model.match_calls", f)),
    ("normgraph.model", "Graph.insert", lambda t, f: t.counted("model.inserts", f)),
    ("normgraph.report", "extract_findings", lambda t, f: t.findings(f)),
    ("normgraph.report", "render", lambda t, f: t.timed("report.render", f)),
]


@contextmanager
def instrument(tracer: Tracer):
    """Install every hook for the duration of the block."""
    restore = []
    try:
        for module_name, attribute, wrap in HOOKS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name, None)
            if original is None:
                continue
            setattr(owner, name, wrap(tracer, original))
            restore.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def phase_seconds(tracer: Tracer, *ops: str) -> dict[tuple[int, str], Counter]:
    """Self time of each phase metric over the operations `ops`, per (pass, input)."""
    phase_metric = {span_name: metric for metric, span_name in PHASES.items()}
    out: dict[tuple[int, str], Counter] = defaultdict(Counter)
    spans = tracer.spans
    for index, ns in self_times(spans, lambda s: s.name in phase_metric).items():
        pass_no, input_name, op = tracer.traces[spans[index].trace]
        if op in ops:
            out[(pass_no, input_name)][phase_metric[spans[index].name]] += ns / 1e9
    return out


def median_sum(table: dict[tuple[int, str], Counter], metrics,
               scale: Optional[dict[int, float]] = None,
               is_time: Callable[[str], bool] = lambda metric: metric.endswith("_s")) -> dict[str, float]:
    """Per metric, the sum over inputs of each input's median over the
    passes: the per-layer counterpart of bench.py's `medians`. Times are
    multiplied by their pass's host scale first (1 for a pass not in
    `scale`); counts are taken as they are."""
    by_input: dict[str, list[tuple[Counter, float]]] = defaultdict(list)
    for (pass_no, input_name), values in table.items():
        by_input[input_name].append((values, (scale or {}).get(pass_no, 1.0)))
    return {metric: sum(statistics.median(c[metric] * (f if is_time(metric) else 1.0)
                                          for c, f in passes)
                        for passes in by_input.values())
            for metric in sorted(metrics)}


def layer_metrics(tracer: Tracer, scale: Optional[dict[int, float]] = None) -> dict[str, float]:
    """Per-layer metrics over the traced passes, as `median_sum` gives them.
    Phase times cover both operations; counts cover `check` only. A metric
    whose spans or counts never occurred is left out (absent), never
    reported as zero; a rule layer that ran no rule while others did is 0."""
    table = phase_seconds(tracer, "check", "reload")

    def add(trace: int, metric: str, value: float):
        table[tracer.traces[trace][:2]][metric] += value

    for span in tracer.spans:
        seconds = (span.end - span.start) / 1e9
        if span.name == "engine.iteration":
            add(span.trace, "engine.first_iter_s" if span.iteration == 1
                else "engine.later_iters_s", seconds)
        elif span.name in ("rules.evaluate", "rules.instantiate"):
            if span.layer is not None:
                add(span.trace, f"rules.layer.{span.layer}_s", seconds)
            if span.name == "rules.instantiate":
                add(span.trace, "rules.instantiate_s", seconds)
            else:
                add(span.trace, "rules.evaluate_calls", 1)
        elif span.name == "rules.nested":
            add(span.trace, "rules.nested_calls", 1)
    for (trace, key), n in tracer.counts.items():
        if tracer.traces[trace][2] == "check":
            add(trace, key, n)

    present = set().union(*table.values()) if table else set()
    if "rules.evaluate_calls" in present:
        present.update(f"rules.layer.{layer}_s" for layer in RULE_LAYERS)
    if "engine.first_iter_s" in present:
        present.add("engine.later_iters_s")
    out = median_sum(table, present, scale)
    probes = out.pop("rules.notexists_probes", 0)
    passed = out.pop("rules.notexists_passes", 0)
    if probes:
        out["rules.notexists_pass_ratio"] = passed / probes
    return out


def rule_seconds(tracer: Tracer, scale: Optional[dict[int, float]] = None) -> Counter:
    """Time per rule (top-level WHERE plus instantiation), as `median_sum` gives it."""
    table: dict[tuple[int, str], Counter] = defaultdict(Counter)
    for span in tracer.spans:
        pass_no, input_name, op = tracer.traces[span.trace]
        if span.rule is not None and op == "check":
            table[(pass_no, input_name)][f"{span.layer}/{span.rule}"] += (span.end - span.start) / 1e9
    return Counter(median_sum(table, set().union(*table.values()) if table else (), scale,
                              is_time=lambda rule: True))

"""The two user-visible paths the benchmark times, and the checks on their output.

`check_op` makes the calls `normgraph check` makes, in the same order;
`reload_op` makes those of `normgraph reason -o` followed by `normgraph
findings -i`. Both look every function up on its module at call time, so
that the traced run can wrap them (see spans.py).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from normgraph import cli, model, report, turtle

from workloads import Input


@dataclass
class CheckOutput:
    graph: object = None         # inferred graph, None when the run raised
    inferred: int = 0
    report: object = None
    text: str = ""
    json: str = ""
    error: Optional[BaseException] = None


@dataclass
class ReloadOutput:
    saved: str
    report: object


def check_op(inp: Input) -> CheckOutput:
    """Parse each input text in its own scope, run the pipeline, report."""
    graphs = [turtle.parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
    pipeline = cli.run_pipeline(graphs, set(inp.layers))
    graph = pipeline.result.graph
    found = report.extract_findings(graph, pipeline.result.provenance)
    return CheckOutput(graph, len(graph) - len(pipeline.data), found,
                       report.render(found, "text", graph), report.render(found, "json", graph))


def reload_op(graph) -> ReloadOutput:
    """Save the inferred graph as Turtle, read it back, report again."""
    saved = turtle.serialize_turtle(graph)
    merged = model.graph_union(turtle.parse_turtle(saved, scope="in0"))
    found = report.extract_findings(merged)
    report.render(found, "text", merged)
    report.render(found, "json", merged)
    return ReloadOutput(saved, found)


def digest(saved: str) -> str:
    return hashlib.sha256(saved.encode()).hexdigest()


def _term(term) -> tuple:
    # blank-node labels change on a save/reload round trip; compare the rest
    if term is None:
        return ()
    if isinstance(term, model.BlankNode):
        return ("blank",)
    return (type(term).__name__, term.value)


def finding_signatures(found) -> Counter:
    """The report's findings as a multiset, blank-node labels left out."""
    def view(v):
        return (_term(v.subject), _term(v.predicate), _term(v.object),
                tuple(c.value for c in v.classes))
    return Counter((f.kind, view(f.left), view(f.right)) for f in found.findings)


def around(graph, individuals: tuple[str, ...]):
    """The triples that reach one of the soa: `individuals` through blank
    nodes only (the whole graph if there are none). An embedding into this
    part is one into the graph, and it keeps the embedding search from
    trying the blank nodes of every other copy in a scaled input."""
    if not individuals:
        return graph
    frontier = [model.Iri(model.SOA_NS + name) for name in individuals]
    seen = set(frontier)
    part = model.Graph()
    while frontier:
        node = frontier.pop()
        for t in (*graph.match_iter(s=node), *graph.match_iter(o=node)):
            part.insert(t)
            for end in (t.subject, t.object):
                if isinstance(end, model.BlankNode) and end not in seen:
                    seen.add(end)
                    frontier.append(end)
    return part


def verify(inp: Input, out: CheckOutput, reloaded: Optional[ReloadOutput],
           reference_digest: Optional[str] = None, full: bool = False) -> list[str]:
    """Every way the outputs disagree with the input's reference; empty if none.

    `full` adds the expected.ttl containment check, which the benchmark makes
    once per input (the warm-up pass); later passes must reproduce the
    warm-up's inferred graph label for label, compared by `reference_digest`.
    """
    if inp.expects_error or out.error is not None:
        got = type(out.error).__name__ if out.error is not None else "no error"
        want = inp.expects_error or "no error"
        return [] if got == want else [f"run ended in {got}, expected {want}"]
    problems = []
    counts = out.report.counts()
    if counts != inp.counts:
        problems.append(f"finding counts {counts} != reference {inp.counts}")
    rendered = json.loads(out.json)
    if rendered["counts"] != inp.counts or len(rendered["findings"]) != sum(inp.counts.values()):
        problems.append("JSON report disagrees with the reference counts")
    lines = out.text.splitlines()
    if len(lines) != max(1, sum(inp.counts.values()) + len(out.report.malformed)):
        problems.append(f"text report has {len(lines)} line(s)")
    if reloaded is None:
        problems.append("no reloaded report")
    else:
        if finding_signatures(reloaded.report) != finding_signatures(out.report):
            problems.append("findings after save/reload differ from the first report")
        if reference_digest is not None and digest(reloaded.saved) != reference_digest:
            problems.append("inferred graph differs from the first run's (digest)")
    for index, (text, individuals) in enumerate(inp.expected if full else ()):
        expected = turtle.parse_turtle(text, scope="expected")
        if not model.contains_isomorphic(expected, around(out.graph, individuals)):
            problems.append(f"expected graph {index} does not embed into the inferred graph")
    return problems

"""Extraction of abnormality and compliance findings from an inferred graph.

Every triple whose predicate is one of the five finding predicates becomes a
Finding; its endpoints are resolved into views of the reified statements they
point at. Malformed reifications (a missing rdf:subject/predicate/object) are
reported, never silently dropped. The text renderer writes one
locale-independent ASCII line per finding and per malformed reification:
quotes, backslashes, control and non-ASCII characters in names and literal
values are escaped. The JSON renderer emits a stable, versioned schema.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    BlankNode, DEFAULT_PREFIXES, DEONTIC_MODALITY, EVENTUALITY, FALSE, Graph,
    HOLD, Iri, IS_COMPLIED_WITH_BY, IS_IN_CONFLICT_WITH,
    IS_IN_CONTRADICTION_WITH, IS_NECESSARILY_VIOLATED_BY, IS_VIOLATED_BY,
    Literal, MODALITY, NECESSARY, POSSIBLE, RDF_OBJECT, RDF_PREDICATE,
    RDF_SUBJECT, RDF_TYPE, REXIST, THEMATIC_ROLE, TRUE, Term, local_name, term_key,
)

# The five finding kinds, in report order.
KIND_BY_PREDICATE = {
    IS_IN_CONTRADICTION_WITH: "Contradiction",
    IS_IN_CONFLICT_WITH: "Conflict",
    IS_VIOLATED_BY: "Violation",
    IS_COMPLIED_WITH_BY: "Compliance",
    IS_NECESSARILY_VIOLATED_BY: "NecessaryViolation",
}

KIND_ORDER = tuple(KIND_BY_PREDICATE.values())

# The text report's name of each kind: "NecessaryViolation" is "NECESSARY-VIOLATION".
KIND_LABEL = {kind: re.sub(r"\B(?=[A-Z])", "-", kind).upper() for kind in KIND_ORDER}

_TRUTH_CLASSES = (TRUE, FALSE, HOLD, NECESSARY, POSSIBLE)

# The namespaces a report shortens names by, longest first (see `model.local_name`).
_NAMESPACES = tuple(sorted(DEFAULT_PREFIXES.values(), key=len, reverse=True))


@dataclass(frozen=True)
class StatementView:
    """One reified statement: the reifying node, its truth classes, and the
    triple components it points at (None when the reification is incomplete)."""

    node: Term
    subject: Optional[Term]
    predicate: Optional[Term]
    object: Optional[Term]
    classes: tuple[Iri, ...]

    @property
    def complete(self) -> bool:
        return None not in (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class Finding:
    kind: str
    left: StatementView
    right: StatementView
    rule_id: Optional[str] = None
    iteration: Optional[int] = None


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    malformed: list[StatementView] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out


def _single_value(g: Graph, node: Term, predicate: Iri) -> Optional[Term]:
    return min(g.objects(node, predicate), key=term_key, default=None)


def statement_view(g: Graph, node: Term) -> StatementView:
    classes = tuple(c for c in _TRUTH_CLASSES if g.count(node, RDF_TYPE, c))
    return StatementView(
        node=node,
        subject=_single_value(g, node, RDF_SUBJECT),
        predicate=_single_value(g, node, RDF_PREDICATE),
        object=_single_value(g, node, RDF_OBJECT),
        classes=classes,
    )


def extract_findings(g: Graph, provenance: Optional[dict] = None) -> Report:
    """One finding per finding-predicate triple, deterministically ordered."""
    provenance = provenance or {}
    report = Report()
    seen_malformed: set[Term] = set()
    rows = []
    for predicate, kind in KIND_BY_PREDICATE.items():
        for t in g.match_iter(p=predicate):
            left = statement_view(g, t.subject)
            right = statement_view(g, t.object)
            prov = provenance.get(t)
            rows.append((kind, left, right, prov))
            for view in (left, right):
                if not view.complete and view.node not in seen_malformed:
                    seen_malformed.add(view.node)
                    report.malformed.append(view)
    rows.sort(key=lambda r: (KIND_ORDER.index(r[0]),
                             term_key(r[1].node), term_key(r[2].node)))
    for kind, left, right, prov in rows:
        report.findings.append(Finding(
            kind, left, right,
            rule_id=prov[0] if prov else None,
            iteration=prov[1] if prov else None,
        ))
    report.malformed.sort(key=lambda v: term_key(v.node))
    return report


# --- Rendering ---------------------------------------------------------------


def _ascii(text: str) -> str:
    """`text` on one ASCII line: double quotes, backslashes, control and
    non-ASCII characters are escaped as in a JSON string."""
    return json.dumps(text)[1:-1]


def _local(term: Term) -> str:
    if isinstance(term, Iri):
        return _ascii(local_name(term, _NAMESPACES))
    if isinstance(term, BlankNode):
        return f"_:{_ascii(term.label)}"
    return f'"{_ascii(term.value)}"'


def _describe_eventuality(g: Graph, e: Term) -> str:
    roles = []
    classes = []
    for t in g.match_iter(s=e):
        if t.predicate == RDF_TYPE:
            obj = t.object
            # Keep the action/state classes, drop modality and meta typing.
            if obj in (REXIST, MODALITY, DEONTIC_MODALITY):
                continue
            if g.count(obj, RDF_TYPE, EVENTUALITY):
                classes.append(_local(obj))
        elif g.count(t.predicate, RDF_TYPE, THEMATIC_ROLE):
            roles.append(f"{_local(t.predicate)}={_local(t.object)}")
    label = "+".join(sorted(classes)) if classes else _local(e)
    if roles:
        return f"{label}[{', '.join(sorted(roles))}]"
    return label


def describe_view(g: Graph, view: StatementView) -> str:
    """Compact ASCII rendering of a reified statement, one reification level
    deep: 'Obligatory(Pay[has-agent=John])', '!Permitted(...)', etc."""
    if not view.complete:
        return f"malformed({_local(view.node)})"
    prefix = ""
    if FALSE in view.classes:
        prefix = "!"
    if NECESSARY in view.classes:
        prefix = "necessary " + prefix
    if POSSIBLE in view.classes:
        prefix = "possible " + prefix
    if view.predicate == RDF_TYPE:
        return f"{prefix}{_local(view.object)}({_describe_eventuality(g, view.subject)})"
    return (f"{prefix}{_local(view.predicate)}"
            f"({_describe_eventuality(g, view.subject)}, {_local(view.object)})")


def render_text(report: Report, graph: Graph) -> str:
    lines = []
    for f in report.findings:
        line = (f"{KIND_LABEL[f.kind]}: {describe_view(graph, f.left)}"
                f" vs {describe_view(graph, f.right)}")
        if f.rule_id is not None:
            line += f" -- rule {_ascii(f.rule_id)}@iter{f.iteration}"
        lines.append(line)
    for view in report.malformed:
        lines.append(f"MALFORMED-REIFICATION: {_local(view.node)}")
    if not lines:
        lines.append("no findings")
    return "\n".join(lines) + "\n"


def _view_json(view: StatementView) -> dict:
    def show(term: Optional[Term]) -> Optional[str]:
        if term is None:
            return None
        if isinstance(term, BlankNode):
            return f"_:{term.label}"
        if isinstance(term, Literal):
            return f'"{term.value}"'
        return term.value

    return {
        "s": show(view.subject),
        "p": show(view.predicate),
        "o": show(view.object),
        "classes": [_local(c) for c in view.classes],
        "node": show(view.node),
    }


def render_json(report: Report) -> str:
    payload: dict = {"version": 1, "counts": report.counts(), "findings": []}
    for f in report.findings:
        payload["findings"].append({
            "kind": f.kind,
            "left": _view_json(f.left),
            "right": _view_json(f.right),
            "rule": f.rule_id,
            "iteration": f.iteration,
        })
    if report.malformed:
        payload["malformed"] = [_view_json(v) for v in report.malformed]
    return json.dumps(payload, separators=(",", ":"))


def render(report: Report, fmt: str, graph: Optional[Graph] = None) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report, graph if graph is not None else Graph())
    raise ValueError(f"unknown report format {fmt!r}")

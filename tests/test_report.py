import json

import pytest

from normgraph.model import (
    FALSE, Graph, HOLD, IS_IN_CONTRADICTION_WITH, SOA_NS,
    RDF_SUBJECT, RDF_TYPE, REXIST, TRUE, Triple,
)
from normgraph.report import (
    Report, extract_findings, render, render_json, render_text,
)
from conftest import run_fixture, soa


def test_empty_graph_gives_empty_report():
    report = extract_findings(Graph())
    assert report.findings == []
    assert report.malformed == []
    assert report.counts() == {}


def test_john_leaves_yields_one_contradiction_over_the_leaving_event():
    pipe = run_fixture("john-leaves-contradiction")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    assert report.counts() == {"Contradiction": 1}
    finding = report.findings[0]
    assert finding.left.subject == soa("elj")
    assert finding.left.predicate == RDF_TYPE
    assert finding.left.object == REXIST
    assert TRUE in finding.left.classes and HOLD in finding.left.classes
    assert FALSE in finding.right.classes
    assert finding.rule_id == "contradiction-rexist"
    assert finding.iteration is not None


def test_partial_conflict_reports_two_symmetric_conflicts():
    pipe = run_fixture("partial-conflict-obligations")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    assert report.counts() == {"Conflict": 2}
    subjects = {f.left.subject for f in report.findings}
    assert subjects == {soa("epjcash"), soa("epjcard")}


def test_extraction_is_lossless():
    for name in ("sketty-necessity", "cash-card-contradiction", "building-norms"):
        pipe = run_fixture(name)
        report = extract_findings(pipe.result.graph)
        from normgraph.report import KIND_BY_PREDICATE

        total = sum(len(pipe.result.graph.match(None, p, None))
                    for p in KIND_BY_PREDICATE)
        assert len(report.findings) == total, name


def test_malformed_reification_is_reported_not_dropped():
    g = Graph()
    g.insert(Triple(soa("x"), IS_IN_CONTRADICTION_WITH, soa("y")))
    g.insert(Triple(soa("x"), RDF_SUBJECT, soa("e")))  # incomplete: no predicate/object
    report = extract_findings(g)
    assert len(report.findings) == 1
    assert not report.findings[0].left.complete
    assert {v.node for v in report.malformed} == {soa("x"), soa("y")}


def test_text_rendering_of_sketty_has_both_violation_lines():
    pipe = run_fixture("sketty-necessity")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    text = render_text(report, pipe.result.graph)
    assert "VIOLATION:" in text
    assert "NECESSARY-VIOLATION:" in text
    assert text.isascii()


def test_text_rendering_describes_the_prohibited_payment():
    pipe = run_fixture("sketty-necessity")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    text = render_text(report, pipe.result.graph)
    assert "!Permitted(Pay[has-agent=John, has-instrument=cash])" in text


def test_empty_report_renders_stable_json():
    assert render_json(Report()) == '{"version":1,"counts":{},"findings":[]}'


def test_json_round_trips_byte_identically_for_every_fixture():
    from normgraph.ontology import FIXTURES

    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        pipe = run_fixture(name)
        report = extract_findings(pipe.result.graph, pipe.result.provenance)
        blob = render_json(report)
        parsed = json.loads(blob)
        assert json.dumps(parsed, separators=(",", ":")) == blob, name


def test_json_schema_fields():
    pipe = run_fixture("building-norms")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    payload = json.loads(render_json(report))
    assert payload["version"] == 1
    assert payload["counts"] == {"Conflict": 1}
    finding = payload["findings"][0]
    assert set(finding) == {"kind", "left", "right", "rule", "iteration"}
    assert set(finding["left"]) == {"s", "p", "o", "classes", "node"}
    assert finding["rule"] == "conflict"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(Report(), "yaml")


def test_nested_reification_is_summarized_one_level_deep():
    # The prohibited payment in parking-norms reifies a blank eventuality;
    # its description expands that eventuality but goes no deeper.
    pipe = run_fixture("parking-norms")
    report = extract_findings(pipe.result.graph, pipe.result.provenance)
    text = render_text(report, pipe.result.graph)
    assert "CONFLICT: !Permitted(Pay[has-agent=John, has-recipient=pm1])" in text


_ODD_VALUES = '''
@prefix : <https://w3id.org/ontology/conflict-tolerantdeontictraditionalscheme#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix soa: <https://w3id.org/ontology/conflict-tolerantdeontictraditionalscheme#soa> .
:Pay a :Eventuality .
:has-agent a :ThematicRole .
<https://example.org/rôle> a :ThematicRole .
soa:e1 a :Pay ; :has-agent """two
lines café""" ; <https://example.org/rôle> "say \\"hi\\" \\\\o/" .
soa:s1 a :true ; rdf:subject soa:e1 ; rdf:predicate rdf:type ; rdf:object :Rexist .
soa:s2 a :false ; rdf:subject soa:e1 ; rdf:predicate rdf:type ; rdf:object :Rexist .
soa:s1 :is-in-contradiction-with soa:s2 .
soa:s3 :is-in-contradiction-with <https://example.org/näive> .
soa:s3 rdf:subject soa:e1 .
'''


def test_text_report_prints_one_ascii_line_per_finding(tmp_path, capsys):
    from normgraph.cli import main
    path = tmp_path / "odd.ttl"
    path.write_text(_ODD_VALUES, encoding="utf-8")
    assert main(["findings", "-i", str(path)]) == 0
    text = capsys.readouterr().out
    assert text.isascii()
    assert text.splitlines() == [
        'CONTRADICTION: Rexist(Pay[has-agent="two\\nlines caf\\u00e9",'
        ' r\\u00f4le="say \\"hi\\" \\\\o/"]) vs !Rexist(Pay[has-agent="two\\nlines caf\\u00e9",'
        ' r\\u00f4le="say \\"hi\\" \\\\o/"])',
        "CONTRADICTION: malformed(s3) vs malformed(n\\u00e4ive)",
        "MALFORMED-REIFICATION: n\\u00e4ive",
        "MALFORMED-REIFICATION: s3",
    ]
    assert main(["findings", "-i", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"Contradiction": 2}
    assert [view["node"] for view in payload["malformed"]] == [
        "https://example.org/näive", SOA_NS + "s3"]
    assert payload["malformed"][1]["s"] == SOA_NS + "e1"
    assert payload["malformed"][1]["p"] is None

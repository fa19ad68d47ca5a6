import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings

from normgraph.cli import main
from normgraph.model import (
    HAS_SPARQL_CODE, INFERENCE_RULE, OBLIGATORY, ONT_NS, RDF_TYPE, Graph, Iri, Literal, Triple,
    isomorphic,
)
from normgraph.ontology import fixture, vocabulary
from normgraph.turtle import parse_turtle, serialize_turtle
from conftest import RULE_TEXTS, soa


def _write_fixture(tmp_path: Path, name: str) -> list[str]:
    """Materialize a fixture's data (and rules, if any) as .ttl files."""
    data, rules, _ = fixture(name)
    paths = []
    data_path = tmp_path / f"{name}-data.ttl"
    data_path.write_text(serialize_turtle(data), encoding="utf-8")
    paths.append(str(data_path))
    if len(rules):
        rules_path = tmp_path / f"{name}-rules.ttl"
        rules_path.write_text(serialize_turtle(rules), encoding="utf-8")
        paths.append(str(rules_path))
    return paths


def _inputs(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        out += ["-i", p]
    return out


def test_reason_smith_writes_the_derived_obligation(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "smith")
    out = tmp_path / "out.ttl"
    code = main(["reason", *_inputs(paths), "--layers", "core,deontic-bool",
                 "-o", str(out)])
    assert code == 0
    g = parse_turtle(out.read_text(encoding="utf-8"))
    assert Triple(soa("esd"), RDF_TYPE, OBLIGATORY) in g


def test_reason_empty_input_is_isomorphic_to_vocabulary(tmp_path):
    empty = tmp_path / "empty.ttl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.ttl"
    code = main(["reason", "-i", str(empty), "-o", str(out)])
    assert code == 0
    g = parse_turtle(out.read_text(encoding="utf-8"))
    assert isomorphic(g, vocabulary())


def test_reason_diff_only_excludes_the_input(tmp_path):
    paths = _write_fixture(tmp_path, "smith")
    out = tmp_path / "out.ttl"
    code = main(["reason", *_inputs(paths), "--layers", "core,deontic-bool",
                 "--diff-only", "-o", str(out)])
    assert code == 0
    g = parse_turtle(out.read_text(encoding="utf-8"))
    assert Triple(soa("esd"), RDF_TYPE, OBLIGATORY) in g
    assert Triple(soa("eso"), RDF_TYPE, OBLIGATORY) not in g


def test_reason_unguarded_rule_exits_one(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "wife-guard-unguarded")
    code = main(["reason", *_inputs(paths), "-o", str(tmp_path / "out.ttl")])
    assert code == 1
    assert "MaxIterationsExceeded" in capsys.readouterr().err


def test_reason_syntax_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text('soa:a soa:p "unterminated.', encoding="utf-8")
    code = main(["reason", "-i", str(bad), "-o", str(tmp_path / "out.ttl")])
    assert code == 1
    assert "TurtleSyntaxError" in capsys.readouterr().err


def test_reason_bad_rule_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad-rule.ttl"
    bad.write_text('[a :InferenceRule; :has-sparql-code """DELETE{}WHERE{}"""].',
                   encoding="utf-8")
    code = main(["reason", "-i", str(bad), "-o", str(tmp_path / "out.ttl")])
    assert code == 1
    assert "RuleSyntaxError" in capsys.readouterr().err


def test_check_conflict_fixture_exits_two(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "optional-vs-prohibited-conflict")
    code = main(["check", *_inputs(paths), "--layers", "dts,compliance"])
    assert code == 2
    out = capsys.readouterr().out
    assert "CONFLICT:" in out


def test_check_compliant_data_exits_zero_and_lists_the_compliance(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "prohibited-not-pay-compliance")
    code = main(["check", *_inputs(paths), "--layers", "dts,compliance"])
    assert code == 0
    assert "COMPLIANCE:" in capsys.readouterr().out


def test_check_fail_on_filter(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "optional-vs-prohibited-conflict")
    code = main(["check", *_inputs(paths), "--layers", "dts,compliance",
                 "--fail-on", "violation"])
    assert code == 0
    code = main(["check", *_inputs(paths), "--layers", "dts,compliance",
                 "--fail-on", "conflict"])
    assert code == 2
    capsys.readouterr()


def test_check_unknown_fail_on_kind_is_an_error(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "smith")
    code = main(["check", *_inputs(paths), "--fail-on", "nonsense"])
    assert code == 1
    capsys.readouterr()


def test_check_rejects_an_unknown_fail_on_kind_before_reporting(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "thomas")
    code = main(["check", *_inputs(paths), "--fail-on", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: unknown --fail-on kind 'bogus'\n"



def test_check_skips_empty_fail_on_items(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "optional-vs-prohibited-conflict")
    for fail_on, want in (("conflict,", 2), (",conflict", 2), ("violation,,", 0)):
        code = main(["check", *_inputs(paths), "--layers", "dts,compliance",
                     "--fail-on", fail_on])
        assert code == want, fail_on
    captured = capsys.readouterr()
    assert captured.err == ""

def test_check_json_format(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "partial-conflict-obligations")
    code = main(["check", *_inputs(paths), "--layers", "pragmatics,dts,compliance",
                 "--format", "json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"Conflict": 2}


def test_findings_on_empty_graph(tmp_path, capsys):
    empty = tmp_path / "inferred.ttl"
    empty.write_text(serialize_turtle(vocabulary()), encoding="utf-8")
    code = main(["findings", "-i", str(empty), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []


def test_reason_then_findings_equals_check(tmp_path, capsys):
    # pipeline compositionality, up to run provenance (a serialized graph
    # cannot carry rule/iteration attribution)
    paths = _write_fixture(tmp_path, "partial-conflict-obligations")
    layers = "pragmatics,dts,compliance"
    out = tmp_path / "inferred.ttl"
    assert main(["reason", *_inputs(paths), "--layers", layers, "-o", str(out)]) == 0
    assert main(["findings", "-i", str(out), "--format", "json"]) == 0
    findings_payload = json.loads(capsys.readouterr().out)
    assert main(["check", *_inputs(paths), "--layers", layers, "--format", "json"]) == 2
    check_payload = json.loads(capsys.readouterr().out)

    def strip(payload):
        out = []
        for f in payload["findings"]:
            f = dict(f)
            f.pop("rule")
            f.pop("iteration")
            # blank labels differ between a live run and a reparsed graph
            for side in ("left", "right"):
                f[side] = {k: v for k, v in f[side].items() if k != "node"}
                for key in ("s", "o"):
                    if isinstance(f[side][key], str) and f[side][key].startswith("_:"):
                        f[side][key] = "_:"
            out.append(f)
        return sorted(out, key=json.dumps)

    assert strip(findings_payload) == strip(check_payload)
    assert findings_payload["counts"] == check_payload["counts"]


def test_rules_lists_whole_catalog(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "38 rule(s)" in out
    assert "ds-obligatory" in out


def test_rules_layer_filter(capsys):
    assert main(["rules", "--layer", "dts"]) == 0
    out = capsys.readouterr().out
    assert "10 rule(s)" in out
    assert "ob-pe-dual-fwd" in out
    assert "ds-obligatory" not in out


def test_trace_emits_jsonl_with_the_necessity_rule(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "sketty-necessity")
    code = main(["trace", *_inputs(paths), "--layers", "dts,compliance,modal"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert any(r["rule"] == "necessary-materialize" and r["solutions"] > 0
               for r in records)
    assert all(set(r) == {"iteration", "rule", "solutions", "added"} for r in records)


def test_missing_input_file_exits_one(capsys):
    code = main(["reason", "-i", "/nonexistent/nope.ttl"])
    assert code == 1
    capsys.readouterr()


def test_exit_code_contract_over_the_whole_fixture_corpus(tmp_path, capsys):
    from normgraph.ontology import FIXTURES
    from normgraph.report import extract_findings
    from conftest import run_fixture

    abnormal = {"Contradiction", "Conflict", "Violation", "NecessaryViolation"}
    for name, info in FIXTURES.items():
        paths = _write_fixture(tmp_path, name)
        args = ["check", *_inputs(paths)]
        if info.layers:
            args += ["--layers", ",".join(info.layers)]
        else:
            args += ["--layers", ""]
        code = main(args)
        capsys.readouterr()
        if info.expects_error:
            assert code == 1, name
            continue
        counts = extract_findings(run_fixture(name).result.graph).counts()
        expected = 2 if abnormal & set(counts) else 0
        assert code == expected, (name, counts)


def test_outputs_are_deterministic(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "building-norms")
    out1, out2 = tmp_path / "o1.ttl", tmp_path / "o2.ttl"
    main(["reason", *_inputs(paths), "--layers", "dts,compliance", "-o", str(out1)])
    main(["reason", *_inputs(paths), "--layers", "dts,compliance", "-o", str(out2)])
    assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")


def _check_rule(tmp_path, where: str) -> Path:
    """A one-triple input with one user rule of the given WHERE body."""
    path = tmp_path / "rule.ttl"
    path.write_text('soa:a soa:p soa:b.\n[a :InferenceRule; :has-sparql-code """'
                    f'CONSTRUCT{{?x soa:r ?y}} WHERE{{{where}}}"""].\n', encoding="utf-8")
    return path


def _assert_one_error_line(capsys, kind: str):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_deeply_nested_rule_is_one_error_line(tmp_path, capsys):
    where = "?x soa:p ?y " + "NOT EXISTS{" * 600 + "?x soa:p ?y" + "}" * 600
    code = main(["check", "-i", str(_check_rule(tmp_path, where)), "--layers", "core"])
    assert code == 1
    _assert_one_error_line(capsys, "RuleSyntaxError")


def test_check_rule_with_too_many_union_branches_is_one_error_line(tmp_path, capsys):
    # seven UNIONs in a row distribute into 2**7 = 128 branches
    where = "{?x soa:p ?y} UNION {?y soa:p ?x} " * 7
    code = main(["check", "-i", str(_check_rule(tmp_path, where)), "--layers", "core"])
    assert code == 1
    _assert_one_error_line(capsys, "RuleSyntaxError")


def test_check_bind_of_a_bound_variable_is_one_error_line(tmp_path, capsys):
    code = main(["check", "-i", str(_check_rule(tmp_path, "?x soa:p ?y. BIND(soa:c AS ?y)")),
                 "--layers", "core"])
    assert code == 1
    _assert_one_error_line(capsys, "RuleSyntaxError")


def test_check_deeply_nested_turtle_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.ttl"
    path.write_text("soa:a soa:p " + "[soa:q " * 400 + "soa:b" + "]" * 400 + ".\n")
    code = main(["check", "-i", str(path), "--layers", "core"])
    assert code == 1
    _assert_one_error_line(capsys, "TurtleSyntaxError")


def test_turtle_syntax_error_names_its_file_and_location_once(tmp_path, capsys):
    good, bad = tmp_path / "good.ttl", tmp_path / "deep.ttl"
    good.write_text("soa:a soa:p soa:b.\n", encoding="utf-8")
    bad.write_text("soa:a soa:p " + "[soa:q " * 120 + "soa:b" + "]" * 120 + ".\n")
    code = main(["check", "-i", str(good), "-i", str(bad), "--layers", "core"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: TurtleSyntaxError: {bad}: nesting deeper than 100 levels "
                   "(line 1, column 713)\n")


def test_input_that_is_not_utf8_names_its_file(tmp_path, capsys):
    good, bad = tmp_path / "good.ttl", tmp_path / "latin1.ttl"
    good.write_text("soa:a soa:p soa:b.\n", encoding="utf-8")
    bad.write_bytes('soa:a soa:p "café".\n'.encode("latin-1"))
    code = main(["check", "-i", str(good), "-i", str(bad), "--layers", "core"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {bad}: 'utf-8' codec can't decode byte 0xe9 ")
    assert err.count("\n") == 1 and "Traceback" not in err and str(good) not in err


def test_an_iri_the_model_rejects_names_its_file(tmp_path, capsys):
    for text in ("<a b> soa:p soa:b.\n", "<> soa:p soa:b.\n"):
        bad = tmp_path / "bad-iri.ttl"
        bad.write_text(text, encoding="utf-8")
        code = main(["check", "-i", str(bad), "--layers", "core"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {bad}: invalid IRI: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_input_that_starts_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsys):
    paths = _write_fixture(tmp_path, "optional-vs-prohibited-conflict")
    reports = []
    for bom in (b"", b"\xef\xbb\xbf"):
        for path in paths:
            text = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
            Path(path).write_bytes(bom + text)
        code = main(["check", *_inputs(paths), "--layers", "dts,compliance", "--format", "json"])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1] and json.loads(reports[0][1])["findings"]


def test_rule_syntax_error_names_the_rule_once(tmp_path, capsys):
    path = tmp_path / "rule.ttl"
    path.write_text('soa:stray-brace a :InferenceRule; :has-sparql-code """CONSTRUCT{?x soa:q ?y} '
                    'WHERE{?x soa:p ?y}}""".\n')
    code = main(["check", "-i", str(path), "--layers", "core"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RuleSyntaxError: ") and err.count("\n") == 1
    assert err.count("stray-brace") == 1, err


def test_an_illegal_triple_from_a_rule_template_names_its_rule(tmp_path, capsys):
    path = tmp_path / "rule.ttl"
    for template, where, message in (
            ("?y soa:p soa:c", "?x soa:q ?y", "triple subject cannot be a literal"),
            ("?x ?y soa:c", "?x soa:q ?y", "triple predicate must be an IRI, got Literal"),
            ("?x ?y soa:c", "?x soa:r ?y", "triple predicate must be an IRI, got BlankNode")):
        path.write_text('soa:e soa:q "lit"; soa:r [].\n'
                        ':illegal a :InferenceRule; :has-sparql-code """'
                        f'CONSTRUCT{{{template}}} WHERE{{{where}}}""".\n', encoding="utf-8")
        code = main(["check", "-i", str(path), "--layers", "core"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: rule 'illegal': {message}"), err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_an_invalid_iri_in_a_rule_body_is_one_error_line_naming_the_rule(tmp_path, capsys):
    path = tmp_path / "rule.ttl"
    for iri in ("<a b>", "<>"):
        body = f"CONSTRUCT{{?x soa:r ?y}} WHERE{{?x soa:p ?y. ?y soa:p {iri}}}"
        path.write_text('soa:a soa:p soa:b.\n:bad-iri a :InferenceRule; '
                        f':has-sparql-code """{body}""".\n', encoding="utf-8")
        assert main(["check", "-i", str(path), "--layers", "core"]) == 1
        assert capsys.readouterr().err == (f"error: RuleSyntaxError: invalid IRI: {iri[1:-1]!r} "
                                           f"at offset {body.index('<')} in rule 'bad-iri'\n")


# Three true statements and a rule that flags the one about ex:a as in
# conflict with the one about ex:{other}. Each test uses a namespace, and so
# rule texts, of its own: the parsed rules outlive a single test.
_FLAGGING_INPUT = """@prefix ex: <{ns}>.
ex:s1 a :true; rdf:subject ex:a; rdf:predicate ex:p; rdf:object ex:b.
ex:s2 a :true; rdf:subject ex:c; rdf:predicate ex:p; rdf:object ex:d.
ex:s3 a :true; rdf:subject ex:e; rdf:predicate ex:p; rdf:object ex:f.
ex:flag a :InferenceRule; :has-sparql-code \"\"\"CONSTRUCT{{?x :is-in-conflict-with ?y}}
    WHERE{{?x rdf:subject ex:a. ?y rdf:subject ex:{other}}}\"\"\".
"""


def _check_flagging(tmp_path, capsys, ns: str, other: str) -> str:
    path = tmp_path / "flagging.ttl"
    path.write_text(_FLAGGING_INPUT.format(ns=ns, other=other), encoding="utf-8")
    assert main(["check", "-i", str(path), "--layers", "core", "--format", "json"]) == 2
    return capsys.readouterr().out


def test_check_of_the_same_rules_twice_is_byte_identical(tmp_path, capsys):
    ns = "https://check-twice.example/"
    first = _check_flagging(tmp_path, capsys, ns, "c")
    assert f'"{ns}c"' in first
    assert _check_flagging(tmp_path, capsys, ns, "c") == first


def test_check_follows_an_edited_rule_body(tmp_path, capsys):
    ns = "https://check-edited.example/"
    before = _check_flagging(tmp_path, capsys, ns, "c")
    after = _check_flagging(tmp_path, capsys, ns, "e")
    assert f'"{ns}c"' in before and f'"{ns}e"' not in before
    assert f'"{ns}e"' in after and f'"{ns}c"' not in after


def test_check_binds_one_rule_text_under_each_prefix_map(tmp_path, capsys):
    one, two = "https://check-prefixes.example/one/", "https://check-prefixes.example/two/"
    first = _check_flagging(tmp_path, capsys, one, "c")
    second = _check_flagging(tmp_path, capsys, two, "c")
    assert f'"{one}c"' in first and two not in first
    assert f'"{two}c"' in second and one not in second


# a rule whose prefix for :p and :q is `{p}`; it names its type and body in full
_RULE = (f"<{ONT_NS}x> a <{INFERENCE_RULE.value}>; <{HAS_SPARQL_CODE.value}>"
         ' "CONSTRUCT{{?a {p}:q ?x}} WHERE{{?a {p}:p ?x}}".\n')


def _inferred(capsys, *paths) -> set:
    """The triples `reason --diff-only` infers from the files, with no built-in layer."""
    assert main(["reason", *_inputs(map(str, paths)), "--layers", "", "--diff-only"]) == 0
    return parse_turtle(capsys.readouterr().out).triples()


def test_a_rule_reads_the_default_prefix_its_file_declares(tmp_path, capsys):
    ex = "http://example.org/"
    path = tmp_path / "own.ttl"
    path.write_text(f"@prefix : <{ex}>.\n:s0 :p :o0.\n" + _RULE.format(p=""), encoding="utf-8")
    assert _inferred(capsys, path) == {Triple(Iri(ex + "s0"), Iri(ex + "q"), Iri(ex + "o0"))}


def test_a_rule_reads_its_own_file_s_prefixes_whatever_the_other_inputs_bind(tmp_path, capsys):
    a, b = "http://example.org/a/", "http://example.org/b/"
    pa, pb = tmp_path / "pa.ttl", tmp_path / "pb.ttl"
    pa.write_text(f"@prefix ex: <{a}>.\nex:x ex:p ex:y.\n", encoding="utf-8")
    pb.write_text(f"@prefix ex: <{b}>.\nex:s ex:p ex:o.\n" + _RULE.format(p="ex"),
                  encoding="utf-8")
    want = {Triple(Iri(b + "s"), Iri(b + "q"), Iri(b + "o"))}
    assert _inferred(capsys, pb) == want
    assert _inferred(capsys, pa, pb) == want


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(RULE_TEXTS)
def test_check_of_any_rule_text_keeps_the_exit_code_contract(text):
    p = Iri(ONT_NS + "p")  # the `:p` of the generated rules
    rule = soa("generated")
    graph = Graph([Triple(soa("a"), p, soa("b")), Triple(soa("b"), p, soa("c")),
                   Triple(soa("c"), p, Literal("c")), Triple(rule, RDF_TYPE, INFERENCE_RULE),
                   Triple(rule, HAS_SPARQL_CODE, Literal(text))])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rule.ttl"
        path.write_text(serialize_turtle(graph), encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", "-i", str(path), "--layers", "", "--max-iterations", "3"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err

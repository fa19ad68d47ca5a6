from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import normgraph
import oracle
from normgraph.model import (
    BlankNode, DEFAULT_PREFIXES, Graph, HAS_SPARQL_CODE, INFERENCE_RULE, Iri, Literal, ONT_NS,
    RDF_TYPE, REXIST, Triple, isomorphic,
)
from normgraph.ontology import _VOCABULARY_TTL, FIXTURES
from normgraph.turtle import TurtleSyntaxError, parse_turtle, serialize_turtle
from conftest import random_graph, run_fixture, soa


def test_parse_abbreviated_statement():
    g = parse_turtle("soa:elj a :Rexist,soa:Leave; soa:has-agent soa:John.")
    assert len(g) == 3
    assert Triple(soa("elj"), RDF_TYPE, REXIST) in g
    assert Triple(soa("elj"), RDF_TYPE, soa("Leave")) in g
    assert Triple(soa("elj"), soa("has-agent"), soa("John")) in g


def test_parse_empty_document():
    assert len(parse_turtle("")) == 0
    assert len(parse_turtle("   # only a comment\n")) == 0


def test_parse_rule_individual_preserves_body_verbatim():
    body = "CONSTRUCT{?s ?p ?o}\n  WHERE{?r a :true,:hold;\n    rdf:subject ?s}"
    doc = f'[a :InferenceRule; :has-sparql-code """{body}"""].'
    g = parse_turtle(doc)
    assert len(g) == 2
    nodes = {t.subject for t in g.triples()}
    assert len(nodes) == 1
    node = nodes.pop()
    assert isinstance(node, BlankNode)
    assert Triple(node, RDF_TYPE, INFERENCE_RULE) in g
    literal = next(t.object for t in g.match_iter(p=HAS_SPARQL_CODE))
    assert isinstance(literal, Literal)
    assert literal.value == body


def test_all_builtin_rule_bodies_round_trip_byte_for_byte():
    from normgraph.ontology import CATALOG

    for entry in CATALOG:
        doc = f'[a :InferenceRule; :has-sparql-code """{entry.text}"""].'
        g = parse_turtle(doc)
        literal = next(t.object for t in g.match_iter(p=HAS_SPARQL_CODE))
        assert literal.value == entry.text, entry.rule_id


def test_nested_property_lists_allocate_distinct_blanks():
    g = parse_turtle("[a :Obligatory; :not [a soa:Leave; soa:has-agent soa:John]].")
    blanks = g.blank_nodes()
    assert len(blanks) == 2
    outer = {t.subject for t in g.match_iter(p=RDF_TYPE, o=Iri(
        "https://w3id.org/ontology/conflict-tolerantdeontictraditionalscheme#Obligatory"))}
    assert len(outer) == 1


def test_distinct_anonymous_nodes_are_distinct_terms():
    g = parse_turtle("[soa:wife-of soa:John]. [soa:wife-of soa:John].")
    assert len(g) == 2
    assert len(g.blank_nodes()) == 2


def test_explicit_labels_and_anonymous_nodes_cannot_collide():
    g = parse_turtle("_:anon:1 soa:p soa:a. [soa:p soa:b].")
    assert len(g.blank_nodes()) == 2


def test_prefix_declaration():
    g = parse_turtle('@prefix ex: <https://example.org/> .\nex:a ex:p ex:b.')
    assert Triple(Iri("https://example.org/a"), Iri("https://example.org/p"),
                  Iri("https://example.org/b")) in g
    assert g.prefix_map["ex"] == "https://example.org/"


def test_undeclared_prefix_is_an_error():
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle("nope:a soa:p soa:b.")
    assert err.value.line == 1


def test_unterminated_string_reports_position():
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle('soa:a soa:p "oops.\n')
    assert err.value.line == 1


def test_error_position_counts_lines_and_columns_from_the_last_newline():
    doc = '# comment with "quotes" and [\nsoa:a soa:p """one\ntwo""" soa:x.\n'
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(doc)
    assert str(err.value) == "expected '.' after statement (line 3, column 8)"
    assert (err.value.line, err.value.column) == (3, 8)


def test_nesting_deeper_than_the_limit_is_an_error_at_the_bracket():
    from normgraph.turtle import MAX_NESTING

    def nested(depth: int) -> str:
        return "soa:a soa:p\n" + "[soa:q " * depth + "soa:b" + "]" * depth + "."

    assert len(parse_turtle(nested(MAX_NESTING))) == MAX_NESTING + 1
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(nested(MAX_NESTING + 1))
    assert str(err.value).startswith(f"nesting deeper than {MAX_NESTING} levels")
    assert (err.value.line, err.value.column) == (2, 7 * MAX_NESTING + 1)


def test_an_iri_the_model_rejects_is_an_error_where_it_is_written():
    for text, at in (("soa:a soa:p\n  <a b>.", (2, 3)), ("<> soa:p soa:b.", (1, 1)),
                     ("@prefix e: <>.\nsoa:a soa:p e:.", (2, 13)),
                     ("soa:a soa:p soa:b.\n@prefix e: <a b>.", (2, 1))):
        with pytest.raises(TurtleSyntaxError, match="^invalid IRI: ") as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == at, text
    # an empty namespace makes IRIs of the local names
    assert Triple(soa("a"), soa("p"), Iri("x")) in parse_turtle("@prefix e: <>. soa:a soa:p e:x.")


def test_an_error_about_a_token_is_at_its_start():
    for text, message, at in (
            ("soa:a soa:p <https://x\n\n", "unterminated IRI", (1, 13)),
            ("@prefix e: <https://e/\n", "unterminated IRI", (1, 12)),
            ('soa:a soa:p\n  "abc', "unterminated string", (2, 3)),
            ('soa:a soa:p """ab\ncd', "unterminated long string", (1, 13)),
            ("soa:a soa:p\nnope:x.", "undeclared prefix 'nope:'", (2, 1)),
            ("soa:a soa:p foo.", "unexpected token 'foo'", (1, 13))):
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, *at), text


def test_unterminated_long_string():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle('soa:a soa:p """oops.')


def test_missing_terminator_mid_document():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle("soa:a soa:p soa:b\nsoa:c soa:p soa:d.")


def test_lenient_final_statement_without_dot():
    g = parse_turtle("soa:a soa:p soa:b")
    assert len(g) == 1


def test_literal_cannot_be_subject():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle('"text" soa:p soa:b.')


def test_serialize_empty_graph_has_only_prefixes():
    text = serialize_turtle(Graph())
    assert "@prefix" in text
    assert len(parse_turtle(text)) == 0


def test_round_trip_example_statement():
    g = parse_turtle("soa:elj a :Rexist,soa:Leave; soa:has-agent soa:John.")
    again = parse_turtle(serialize_turtle(g))
    assert isomorphic(g, again)


def test_round_trip_100_random_graphs(rng):
    for _ in range(100):
        g = random_graph(rng)
        again = parse_turtle(serialize_turtle(g))
        assert isomorphic(g, again), serialize_turtle(g)


def test_round_trip_awkward_literals():
    values = ['simple', 'line\nbreak', 'quote " inside', 'triple """ inside',
              'ends with quote"', 'tab\there', 'back\\slash', 'mixed "\n\\ all"']
    g = Graph()
    for i, v in enumerate(values):
        g.insert(Triple(soa(f"s{i}"), soa("says"), Literal(v)))
    again = parse_turtle(serialize_turtle(g))
    assert isomorphic(g, again)


def test_a_raw_line_break_in_a_short_string_is_an_error_at_the_break():
    for brk in ("\n", "\r"):
        text = 'soa:a soa:p "x\\t' + brk + 'y".'
        with pytest.raises(TurtleSyntaxError, match="newline in short string") as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == (1, text.index(brk) + 1)


def test_round_trip_of_literals_mixing_line_breaks_quotes_tabs_and_backslashes(tmp_path):
    from normgraph.cli import _read_inputs, _write_output
    values = ["cr\ronly", "crlf\r\nline", 'cr\r"quote', "tab\tcr\r", 'all \r\n\t"\\ of "them"',
              "lf\nonly", "\\r is no carriage return", '"\r"', "\r\n\t\\"]
    g = Graph(Triple(soa(f"s{i}"), soa("says"), Literal(v)) for i, v in enumerate(values))
    text = serialize_turtle(g)
    assert "\r" not in text  # a raw one would come back as a line feed from a text-mode read
    assert set(parse_turtle(text).triples()) == set(g.triples())
    # saved and read back as the CLI does
    path = str(tmp_path / "saved.ttl")
    _write_output(text, path)
    (again,) = _read_inputs([path])
    assert set(again.triples()) == set(g.triples())


def test_round_trip_iris_whose_local_part_is_no_name():
    g = Graph()
    for i, local in enumerate(["ends.", "a/b", "x#y", "caf\u00e9", "two..dots", "-_."]):
        g.insert(Triple(soa(f"s{i}"), soa("p"), Iri(soa("").value + local)))
    assert set(parse_turtle(serialize_turtle(g)).triples()) == set(g.triples())


def test_a_local_part_that_starts_with_a_dot_or_hyphen_is_written_under_a_shorter_prefix():
    # RDF 1.1's PN_LOCAL starts with neither; ':' holds ONT_NS, which 'soa:' extends
    g = Graph([Triple(soa(".x"), soa("p"), soa("-y")),
               Triple(Iri(ONT_NS + ".z"), soa("p"), Iri(ONT_NS + "-w"))])
    lines = serialize_turtle(g).splitlines()
    assert ":soa.x soa:p :soa-y ." in lines
    assert f"<{ONT_NS}.z> soa:p <{ONT_NS}-w> ." in lines
    assert set(parse_turtle("\n".join(lines)).triples()) == set(g.triples())


def test_a_prefix_named_underscore_is_read_but_never_written():
    # in Turtle `_:` always starts a blank node label, whatever prefixes a file
    # declares; RDF 1.1's PN_PREFIX starts with a letter, so neither is a
    # prefix that starts with a digit, '-' or '.' written
    g = parse_turtle("@prefix _: <http://ex/u#> .\n@prefix 9x: <http://ex/n#> .\n"
                     "@prefix -y: <http://ex/m#> .\n@prefix .z: <http://ex/d#> .\n"
                     "<http://ex/u#a> <http://ex/u#q> <http://ex/u#o> . _:b <http://ex/u#q> _:c .\n"
                     "9x:a 9x:b -y:c . .z:d 9x:b -y:c .")
    assert [g.prefix_map[name] for name in ("_", "9x", "-y", ".z")] == [
        "http://ex/u#", "http://ex/n#", "http://ex/m#", "http://ex/d#"]
    text = serialize_turtle(g)
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("@prefix")] == [
        f"@prefix {name}: <{ns}> ." for name, ns in sorted(DEFAULT_PREFIXES.items())]
    assert "<http://ex/u#a> <http://ex/u#q> <http://ex/u#o> ." in lines
    assert "<http://ex/n#a> <http://ex/n#b> <http://ex/m#c> ." in lines
    assert "<http://ex/d#d> <http://ex/n#b> <http://ex/m#c> ." in lines
    assert isomorphic(parse_turtle(text), g)


def test_rdf_type_is_written_a_only_as_a_predicate():
    g = Graph([Triple(soa("s"), RDF_TYPE, soa("C")), Triple(soa("r"), soa("p"), RDF_TYPE),
               Triple(RDF_TYPE, soa("p"), soa("o"))])
    lines = serialize_turtle(g).splitlines()
    assert "soa:s a soa:C ." in lines
    assert "soa:r soa:p rdf:type ." in lines
    assert "rdf:type soa:p soa:o ." in lines
    assert set(parse_turtle("\n".join(lines)).triples()) == set(g.triples())
    # reified rdf:type statements in the saved results, as other RDF tools read them
    for name, info in sorted(FIXTURES.items()):
        if info.expects_error:
            continue
        for line in serialize_turtle(run_fixture(name).result.graph).splitlines():
            tokens = line.split(" ")
            assert tokens[0] != "a" and tokens[2:3] != ["a"], (name, line)


def test_serialization_is_deterministic(rng):
    g = random_graph(rng)
    assert serialize_turtle(g) == serialize_turtle(g.copy())


def _read_both(text: str, scope: str = ""):
    """What the reader and the frozen reference make of one text: the triple
    set and prefix map, or the exception's class, message, line and column."""
    def outcome(parse):
        try:
            g = parse()
        except Exception as err:  # compared, whatever it is
            return (type(err), str(err), getattr(err, "line", None),
                    getattr(err, "column", None))
        return set(g.triples()), g.prefix_map
    return (outcome(lambda: parse_turtle(text, scope)),
            outcome(lambda: oracle._Parser(text, scope).parse()))


def _mutations(rng, text: str, count: int):
    alphabet = list('[]<>"#:.;,\\_@a \r\n') + ['"""', "_:", "@prefix", "soa:"]
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            yield text[:at] + rng.choice(alphabet) + text[at:]
        elif kind == 1:
            yield text[:at] + text[at + rng.randrange(1, 8):]
        else:
            yield text[:at]


_EDGE_CASES = [
    'soa:a soa:p "ends in a backslash\\', 'soa:a soa:p "\\', "soa:a soa:p <https://x",
    "<", 'soa:a soa:p """never closed\nover lines', '"""', "@prefix", "@prefix ex",
    "@prefix ex:", "@prefix ex: <https://e/", "@prefix ex: <https://e/> .",
    "soa:a... soa:p soa:b...", "soa:a soa:p soa:b...\nsoa:c soa:p soa:d.", "...",
    "soa:a soa:p ...:x.", "soa:a soa:p soa:b.c...", "_:x... soa:p soa:b.",
    "soa:a soa:p soa:b.\n# trailing comment", "[", "[].", "[ soa:p [ soa:q ] ",
    'soa:a soa:p "x\\q".', 'soa:a soa:p "x\ny".', 'soa:a soa:p "x\ry".',
    "soa:a soa:p soa:b ;", "soa:a soa:p soa:b.\r\n\tsoa:c soa:p soa:d\r\nsoa:e",
    # `a` and names that only begin like it, labels with colons, trailing dots
    "soa:a soa:p a.", "soa:a soa:p a.b.", "soa:a a- soa:b.", "soa:a aa soa:b.", "a soa:p soa:b.",
    "a:b soa:p soa:c.", "soa:a soa:p a..:x.", "_:x:y soa:p _:x:.", "_::x soa:p soa:b.",
    "soa:a soa:p _:x.", "soa:a soa:p _:.x:.y.", "soa:a soa:p soa:b...",
    # a term right after a comment, a comment right after a term
    "#c\nsoa:a soa:p soa:b.", "soa:a soa:p#c\nsoa:b.", "soa:a#c\n#d\nsoa:p soa:b#e",
    # a name right before ';', ',' or ']'
    "soa:a soa:p soa:b;soa:q soa:c,soa:d.", "soa:a soa:p [soa:q soa:b].", "[soa:p a].",
    "soa:a soa:p _:x;a _:y,_:z:w.",
    # a prefix redefined between two reads of one name, one label as subject and
    # object, a name then one space and a comment
    "@prefix e: <https://a/>. e:x e:p e:y. @prefix e: <https://b/>. e:x e:p e:y.",
    "_:x soa:p _:x. soa:a soa:q _:x. _:x soa:q soa:a.",
    "soa:a soa:p soa:b #c\n.", "soa:a soa:p soa:b ;#c\n soa:q soa:c #d",
]


def test_reader_matches_the_frozen_reader(rng):
    fixture_dir = Path(normgraph.__file__).parent / "fixtures"
    texts = [path.read_text(encoding="utf-8") for path in sorted(fixture_dir.glob("*/*.ttl"))]
    texts.append(_VOCABULARY_TTL)
    texts += [serialize_turtle(run_fixture(name).result.graph)
              for name, info in sorted(FIXTURES.items()) if not info.expects_error]
    cases = list(_EDGE_CASES)
    for text in texts:
        cases.append(text)
        cases.extend(_mutations(rng, text, 10))
    for text in cases:
        new, frozen = _read_both(text, scope="in0")
        assert new == frozen, text


# Turtle-ish tokens, joined after nothing, a subject and predicate, or those
# and an opening quote, so that many texts reach an object and many a string.
_TOKENS = ['<', '>', '"', '"""', '\\', '\\u', '\\t', '\u00e9', "'", '_:', '@prefix', '[', ']',
           ';', ',', '.', ':', 'a', 'soa', 'p-1', 'b.c', '<https://e/>', '#', ' ', '\t', '\n',
           '\r\n', '\r', 'a.', 'a.b', 'a-', 'aa', 'a:b', '_:x:y', '_:x:', '_::x', '_:x.',
           'soa:b...']
_JOINED_TOKENS = st.builds(lambda start, tokens: start + "".join(tokens),
                           st.sampled_from(["", "soa:s soa:p ", 'soa:s soa:p "']),
                           st.lists(st.sampled_from(_TOKENS), max_size=40))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_JOINED_TOKENS)
def test_reader_matches_the_frozen_reader_on_joined_tokens(text):
    new, frozen = _read_both(text, scope="in0")
    assert new == frozen
    if not isinstance(new[0], set):  # only a syntax error
        assert new[0] is TurtleSyntaxError, new

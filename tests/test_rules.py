import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from normgraph.model import (
    BlankNode, Graph, HOLD, Iri, Literal, OBLIGATORY, ONT_NS, RDF_OBJECT, RDF_PREDICATE,
    RDF_SUBJECT, RDF_TYPE, REXIST, TRUE, Triple, term_key,
)
from normgraph.ontology import fixture
from normgraph.rules import (
    Bind, BindConflict, Comparison, Filter, GroupPattern, NotExists, RuleQuery, RuleSyntaxError,
    TemplateBlank, TriplePattern, UnboundTemplateVariable, Union, Variable,
    _expr_variables, bindable_variables, evaluate_where, instantiate, parse_rule,
)
from normgraph.turtle import serialize_turtle
from conftest import RULE_TEXTS, canonical, soa

V = Variable


def test_variables_are_interned_and_compare_by_identity():
    x = V("x")
    assert V("x") is x and V("y") is not x
    assert x != Literal("x") and x != Iri("x")
    assert copy.copy(x) is x and copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
    assert repr(x) == "Variable(name='x')"
    with pytest.raises(AttributeError):
        x.name = "y"
    assert Variable.__hash__ is object.__hash__
    assert Variable.__eq__ is object.__eq__


# --- parsing -----------------------------------------------------------------


def test_parse_hold_true_rule_shape():
    rq = parse_rule("hold-true", """
        CONSTRUCT{?s ?p ?o}
        WHERE{?r a :true,:hold; rdf:subject ?s; rdf:predicate ?p; rdf:object ?o}
    """)
    assert rq.construct_template == (
        TriplePattern(V("s"), V("p"), V("o")),)
    tps = rq.where_clause.elements
    assert tps == (
        TriplePattern(V("r"), RDF_TYPE, TRUE),
        TriplePattern(V("r"), RDF_TYPE, HOLD),
        TriplePattern(V("r"), RDF_SUBJECT, V("s")),
        TriplePattern(V("r"), RDF_PREDICATE, V("p")),
        TriplePattern(V("r"), RDF_OBJECT, V("o")),
    )


def test_parse_identity_rule():
    rq = parse_rule("identity", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist}")
    assert len(rq.construct_template) == 1
    assert rq.where_clause.elements == (TriplePattern(V("x"), RDF_TYPE, REXIST),)


def test_parse_thematic_divergence_rule_structure():
    from normgraph.ontology import CATALOG

    text = next(e.text for e in CATALOG if e.rule_id == "not-from-thematic-divergence")
    rq = parse_rule("not-from-thematic-divergence", text)
    top = rq.where_clause.elements
    not_exists = [el for el in top if isinstance(el, NotExists)]
    assert len(not_exists) == 3
    nested = [ne for ne in not_exists
              if any(isinstance(x, NotExists) for x in ne.inner.elements)]
    assert len(nested) == 2
    top_filters = [el for el in top if isinstance(el, Filter)]
    assert len(top_filters) == 1

    def count_filters(gp):
        total = 0
        for el in gp.elements:
            if isinstance(el, Filter):
                total += 1
            elif isinstance(el, NotExists):
                total += count_filters(el.inner)
            elif isinstance(el, Union):
                total += count_filters(el.left) + count_filters(el.right)
        return total

    assert count_filters(rq.where_clause) == 5


def test_parse_union_and_bind():
    rq = parse_rule("dual", """
        CONSTRUCT{[a :false,:hold; rdf:subject ?ne; rdf:predicate rdf:type; rdf:object ?ddm]}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e}
              {?e a :Obligatory. BIND(:Permitted AS ?ddm)}UNION
              {?e a :Permitted. BIND(:Obligatory AS ?ddm)}}
    """)
    unions = [el for el in rq.where_clause.elements if isinstance(el, Union)]
    assert len(unions) == 2
    binds = [el for el in unions[1].left.elements if isinstance(el, Bind)]
    assert binds == [Bind(Iri(OBLIGATORY.value.replace("Obligatory", "Permitted")), V("ddm"))]


def test_union_distributes_into_branches_in_written_order():
    a, b, c, d, p, q = (TriplePattern(V(x), Iri(f"https://example.org/{x}"), V("y"))
                        for x in "abcdpq")
    two = GroupPattern((Union(GroupPattern((a,)), GroupPattern((b,))),
                        Union(GroupPattern((c,)), GroupPattern((d,)))))
    assert list(two.branches) == [(a, c), (a, d), (b, c), (b, d)]
    # inside NOT EXISTS the UNION stays one guard, whose group has two branches
    guard = NotExists(GroupPattern((p, Union(GroupPattern((a,)), GroupPattern((b,))), q)))
    outer = GroupPattern((c, guard))
    assert list(outer.branches) == [(c, guard)]
    assert list(guard.inner.branches) == [(p, a, q), (p, b, q)]


def test_a_group_over_the_branch_cap_is_a_syntax_error():
    from normgraph.rules import MAX_BRANCHES

    def where(unions: int) -> str:
        return "CONSTRUCT{?x :p ?y}WHERE{" + "{?x :p ?y}UNION{?y :p ?x} " * unions + "}"

    assert MAX_BRANCHES == 64
    assert len(parse_rule("wide", where(6)).where_clause.branches) == 64
    text = where(7)
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("wider", text)
    # at the UNION that makes 128 branches
    assert err.value.pos == len("CONSTRUCT{?x :p ?y}WHERE{") + 6 * (len(where(1)) - len(where(0)))
    assert err.value.rule_id == "wider"
    # a chain of UNIONs adds branches, and a NOT EXISTS group counts its own
    chain = "{?x :p ?y}" + "UNION{?y :p ?x}" * 63
    inner = "NOT EXISTS{" + "{?x :q ?y}UNION{?y :q ?x} " * 6 + "}"
    rq = parse_rule("chain", "CONSTRUCT{?x :p ?y}WHERE{" + chain + inner + "}")
    assert len(rq.where_clause.branches) == 64
    with pytest.raises(RuleSyntaxError):
        parse_rule("chain", "CONSTRUCT{?x :p ?y}WHERE{" + chain + "UNION{?x :p ?x}}")


def test_keywords_are_case_insensitive():
    rq = parse_rule("lower", "construct{?x a :Rexist}where{?x a :Rexist. not exists{?x :not ?y}}")
    assert any(isinstance(el, NotExists) for el in rq.where_clause.elements)


def test_whitespace_is_free_form():
    rq = parse_rule("squashed", "CONSTRUCT{?x a :Rexist}WHERE{?x a ?c.NOT EXISTS{?x :not ?y}}")
    assert any(isinstance(el, NotExists) for el in rq.where_clause.elements)


def test_unbound_template_variable_detected_at_load():
    with pytest.raises(UnboundTemplateVariable):
        parse_rule("broken", "CONSTRUCT{?x a :Rexist}WHERE{?y a :Rexist}")


def test_variable_only_in_not_exists_does_not_count_as_bound():
    with pytest.raises(UnboundTemplateVariable):
        parse_rule("broken", "CONSTRUCT{?w a :Rexist}WHERE{?x a :Rexist. NOT EXISTS{?w :not ?x}}")


def test_unknown_keyword_is_a_syntax_error():
    with pytest.raises(RuleSyntaxError):
        parse_rule("bad", "CONSTRUCT{?x a :Rexist}WHERE{OPTIONAL{?x a :Rexist}}")


def test_select_is_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("bad", "SELECT ?x WHERE{?x a :Rexist}")


def test_mismatched_braces_are_an_error():
    with pytest.raises(RuleSyntaxError):
        parse_rule("bad", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist")


def test_unknown_escape_in_a_short_string_is_a_syntax_error_at_the_escape():
    # in the template, and in WHERE after the escapes of a backslash and a quote
    for text, escape in ((r'CONSTRUCT{?x :p "a\qb"}WHERE{?x :p ?y}', r"\q"),
                         (r'CONSTRUCT{?x :p ?y}WHERE{?x :p "\\ \"\u00e9"}', r"\u")):
        with pytest.raises(RuleSyntaxError, match=r"unknown escape \\[qu]") as err:
            parse_rule("esc", text)
        assert err.value.pos == text.index(escape)
    # the escapes Turtle knows, and a backslash escaped before a letter
    rq = parse_rule("esc", r'CONSTRUCT{?x :p "\n\t\r\"\\q"}WHERE{?x :p ?y}')
    assert rq.construct_template[0].object == Literal('\n\t\r"\\q')
    # a long string keeps its text as it is written
    rq = parse_rule("esc", 'CONSTRUCT{?x :p """a\\qb\n"c"\n"""}WHERE{?x :p ?y}')
    assert rq.construct_template[0].object == Literal('a\\qb\n"c"\n')


def test_a_raw_line_break_in_a_short_string_is_a_syntax_error_at_the_break():
    # in the template, and in WHERE right after an escaped quote
    for brk in ("\n", "\r"):
        for text in ('CONSTRUCT{?x :p "a' + brk + 'b"}WHERE{?x :p ?y}',
                     'CONSTRUCT{?x :p ?y}WHERE{?x :p "q\\"' + brk + '"}'):
            with pytest.raises(RuleSyntaxError, match="newline in short string") as err:
                parse_rule("nl", text)
            assert err.value.pos == text.index(brk)
    # escaped, or in a long string, a line break is part of the value
    rq = parse_rule("nl", 'CONSTRUCT{?x :p "a\\r\\nb"}WHERE{?x :p """c\r\nd"""}')
    assert rq.construct_template[0].object == Literal("a\r\nb")
    assert rq.where_clause.elements[0].object == Literal("c\r\nd")


def test_bind_of_variable_is_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("bad", "CONSTRUCT{?x a ?y}WHERE{?x a :Rexist. BIND(?x AS ?y)}")


def test_an_invalid_iri_is_a_syntax_error_at_its_bracket_that_names_the_rule():
    for iri in ("<a b>", "<>"):
        text = f"CONSTRUCT{{?x :q {iri}}} WHERE{{?x :p ?y}}"
        with pytest.raises(RuleSyntaxError, match=r"^invalid IRI: .* in rule 'iri'$") as err:
            parse_rule("iri", text)
        assert err.value.pos == text.index("<")
    # a prefixed name under a namespace that makes no IRI fails at the name
    text = "CONSTRUCT{?x :q ?y} WHERE{?x e:p ?y}"
    with pytest.raises(RuleSyntaxError, match=r"^invalid IRI: 'a bp'") as err:
        parse_rule("iri", text, {"e": "a b"})
    assert err.value.pos == text.index("e:p")


def test_prefixed_names_are_read_as_in_turtle():
    # a dot inside a name belongs to it, as in Turtle and SPARQL 1.1
    rq = parse_rule("dotted", "CONSTRUCT{?x :q ?y} WHERE{?x soa:has.part ?y}")
    assert rq.where_clause.elements == (TriplePattern(V("x"), soa("has.part"), V("y")),)
    # the name the Turtle writer gives that IRI
    assert "soa:a soa:has.part soa:b ." in serialize_turtle(
        Graph([Triple(soa("a"), soa("has.part"), soa("b"))]))
    # `_:` is a prefix like any other in rule text
    rq = parse_rule("under", "CONSTRUCT{?x :q ?y} WHERE{?x _:q ?y}", {"_": "https://example.org/u#"})
    assert rq.where_clause.elements == (
        TriplePattern(V("x"), Iri("https://example.org/u#q"), V("y")),)
    # a dot at its end ends the statement
    rq = parse_rule("dot", "CONSTRUCT{?x :q ?y} WHERE{?x soa:p soa:o.?x soa:r ?y.}")
    assert rq.where_clause.elements == (TriplePattern(V("x"), soa("p"), soa("o")),
                                        TriplePattern(V("x"), soa("r"), V("y")))
    # so a dot between a name and a keyword is part of the name
    with pytest.raises(RuleSyntaxError, match="unexpected keyword EXISTS"):
        parse_rule("squashed", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist.NOT EXISTS{?x :not ?y}}")


def test_a_statement_needs_a_predicate_unless_it_is_a_bare_property_list():
    # a lone variable is no statement, in the template or in WHERE
    for text, at in (("CONSTRUCT{?x :q ?y. ?x} WHERE{?x :p ?y}", 22),
                     ("CONSTRUCT{?x :q ?y} WHERE{?x :p ?y. ?z}", 38)):
        with pytest.raises(RuleSyntaxError, match="unexpected token '}'") as err:
            parse_rule("bare", text)
        assert err.value.pos == at and text[at] == "}"
    rq = parse_rule("bare", "CONSTRUCT{[a :Rexist; :q ?y]} WHERE{[soa:p ?y]. ?x :p ?y}")
    assert len(rq.construct_template) == 2 and len(rq.where_clause.elements) == 2


def test_a_property_list_is_no_predicate_and_no_filter_operand():
    for text, message in (
            ("CONSTRUCT{?x [ :r :s ] ?y} WHERE{?x :p ?y}", "bad predicate"),
            ("CONSTRUCT{?x :q ?y} WHERE{?x [ :r :s ] ?y}", "bad predicate"),
            ("CONSTRUCT{?x :q ?y} WHERE{?x :p ?y; [] ?y}", "bad predicate"),
            ("CONSTRUCT{?x :q ?y} WHERE{?x :p ?y FILTER(?y = [ :a :b ])}", "blank node in FILTER"),
            ("CONSTRUCT{?x :q ?y} WHERE{?x :p ?y FILTER([] != ?y)}", "blank node in FILTER")):
        with pytest.raises(RuleSyntaxError, match=message) as err:
            parse_rule("bracket", text)
        assert err.value.pos == text.index("["), text


def test_a_property_list_is_no_bind_value():
    text = "CONSTRUCT{?x :q ?y} WHERE{?x :p ?y BIND([ :a :b ] AS ?z)}"
    with pytest.raises(RuleSyntaxError, match="BIND accepts only ground terms") as err:
        parse_rule("bracket", text)
    assert err.value.pos == text.index("[")


_WHERE = "CONSTRUCT{?x :q ?y}WHERE{"


@pytest.mark.parametrize("text, message", [
    # unterminated tokens
    (_WHERE + '?x :p "abc}', "unterminated string at offset 31"),
    (_WHERE + '?x :p """abc}', "unterminated long string at offset 31"),
    (_WHERE + "?x :p <abc}", "unterminated IRI at offset 31"),
    (_WHERE + "?x :p ? y}", "bad variable name at offset 31"),
    (_WHERE + "?x :p $}", "unexpected character '$' at offset 31"),
    # a word where a term goes
    (_WHERE + "?x :p foo}", "unexpected token 'foo' at offset 31"),
    (_WHERE + "?x :p FILTER}", "unexpected token 'filter' at offset 31"),
    (_WHERE + "?x e:p ?y}", "undeclared prefix 'e:' at offset 28"),
    (_WHERE + "?x :p", "unexpected end of rule at offset 30"),
    (_WHERE + "?x :p ?y} foo", "trailing tokens after WHERE clause at offset 35"),
    (_WHERE + "?x :p ?y BIND(:a AS :b)}", "expected variable after AS at offset 45"),
    (_WHERE + "?x :p ?y FILTER(?x = (?y))}", "nested comparison operand at offset 46"),
    ('CONSTRUCT{"s" :q ?y}WHERE{?x :p ?y}', "literal cannot be a subject at offset 10"),
    # a syntax error before a lexical error
    (_WHERE + "?x ?y} $", "unexpected token '}' at offset 30"),
    (_WHERE + '?x ?y} "\\q"', "unexpected token '}' at offset 30"),
])
def test_a_syntax_error_names_its_problem_and_offset(text, message):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("c", text)
    assert str(err.value) == f"{message} in rule 'c'"


def _all_elements(gp: GroupPattern):
    for el in gp.elements:
        yield el
        for inner in ((el.inner,) if isinstance(el, NotExists)
                      else (el.left, el.right) if isinstance(el, Union) else ()):
            yield from _all_elements(inner)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(RULE_TEXTS)
def test_rule_text_parses_or_is_a_syntax_error(text):
    try:
        rq = parse_rule("generated", text)
    except (RuleSyntaxError, UnboundTemplateVariable):
        return
    # a `[ ... ]` is never a predicate, nor a FILTER operand
    assert not any(isinstance(tp.predicate, TemplateBlank) for tp in rq.construct_template)
    for el in _all_elements(rq.where_clause):
        if isinstance(el, TriplePattern):
            assert not (isinstance(el.predicate, Variable) and el.predicate.name.startswith(" "))
        elif isinstance(el, Filter):
            assert not any(v.name.startswith(" ") for v in _expr_variables(el.expr))


def _nested_elements(inner):
    """`inner`, or a bare group, a UNION or a NOT EXISTS of a few of them."""
    body = st.lists(inner, max_size=3).map(" ".join)
    union = st.tuples(body, body).map(lambda pair: "{{ {} }} UNION {{ {} }}".format(*pair))
    return inner | body.map("{{ {} }}".format) | union | body.map("NOT EXISTS{{ {} }}".format)


# WHERE bodies of patterns and BINDs that may or may not rebind ?b, nested at most 2 deep
_BIND_BODIES = st.lists(_nested_elements(_nested_elements(st.sampled_from(
    ["?a :p ?b .", "?b :q ?c .", "BIND(:k AS ?b)", "BIND(:k AS ?d)"]))), max_size=4).map(" ".join)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["", "?a :r ?b"]), _BIND_BODIES)
def test_an_accepted_rule_never_rebinds_a_variable(template, body):
    try:
        rq = parse_rule("generated", f"CONSTRUCT{{{template}}}WHERE{{{body}}}")
    except (RuleSyntaxError, UnboundTemplateVariable):
        return
    a, k, x = (Iri(ONT_NS + name) for name in ("a", "k", "x"))
    p, q = Iri(ONT_NS + "p"), Iri(ONT_NS + "q")
    g = _graph(Triple(a, p, k), Triple(k, q, x), Triple(a, p, x), Triple(x, q, k))
    assert canonical(evaluate_where(g, rq.where_clause)) \
        == canonical(oracle.evaluate_where(g, rq.where_clause))


# --- evaluation --------------------------------------------------------------


def _graph(*triples) -> Graph:
    return Graph(list(triples))


def test_where_over_empty_graph_is_empty():
    rq = parse_rule("identity", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist}")
    assert evaluate_where(Graph(), rq.where_clause) == []


def test_seed_binding_restricts_solutions():
    rq = parse_rule("identity", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist}")
    g = _graph(Triple(soa("e1"), RDF_TYPE, REXIST),
               Triple(soa("e2"), RDF_TYPE, REXIST))
    assert len(evaluate_where(g, rq.where_clause)) == 2
    seeded = evaluate_where(g, rq.where_clause, {V("x"): soa("e1")})
    assert seeded == [{V("x"): soa("e1")}]
    assert evaluate_where(g, rq.where_clause, {V("x"): soa("absent")}) == []


def test_solutions_are_duplicate_free():
    # Both UNION branches match the same symmetric data; the solution set
    # still contains each binding once.
    not_iri = Iri(REXIST.value.replace("Rexist", "not"))
    rq = parse_rule("sym", "CONSTRUCT{?e a :Rexist}WHERE{{?e :not ?ne}UNION{?ne :not ?e}}")
    g = _graph(Triple(soa("a"), not_iri, soa("b")),
               Triple(soa("b"), not_iri, soa("a")))
    sols = evaluate_where(g, rq.where_clause)
    frozen = [frozenset((v.name, t) for v, t in b.items()) for b in sols]
    assert len(frozen) == len(set(frozen)) == 2


def test_ds_obligatory_over_smith_graph_binds_exactly_the_drink():
    data, _, _ = fixture("smith")
    from normgraph.ontology import CATALOG

    text = next(e.text for e in CATALOG if e.rule_id == "ds-obligatory")
    rq = parse_rule("ds-obligatory", text)
    solutions = evaluate_where(data, rq.where_clause)
    assert len(solutions) == 1
    assert solutions[0][V("e2")] == soa("esd")


def test_filter_self_inequality_is_empty(rng):
    from conftest import random_graph

    rq = parse_rule("never", "CONSTRUCT{?a a :Rexist}WHERE{?a ?p ?o. FILTER(?a != ?a)}")
    for _ in range(5):
        g = random_graph(rng)
        assert evaluate_where(g, rq.where_clause) == []


def test_filter_with_unbound_variable_rejects_solution():
    g = _graph(Triple(soa("a"), soa("p"), soa("b")))
    gp = GroupPattern((
        TriplePattern(V("x"), soa("p"), V("y")),
        Filter(Comparison(V("missing"), False, soa("a"))),
    ))
    assert evaluate_where(g, gp) == []


def test_bind_conflict_is_raised():
    text = "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist. BIND(:Rexist AS ?x)}"
    with pytest.raises(RuleSyntaxError, match=r"variable \?x is already bound") as err:
        parse_rule("rebind", text)
    assert err.value.pos == text.index("BIND") and err.value.rule_id == "rebind"
    # the same group built by hand raises before any search, whatever the graph holds
    gp = GroupPattern((TriplePattern(V("x"), RDF_TYPE, REXIST), Bind(REXIST, V("x"))))
    for g in (_graph(), _graph(Triple(soa("e"), RDF_TYPE, REXIST))):
        with pytest.raises(BindConflict, match=r"variable \?x is already bound"):
            evaluate_where(g, gp)


def test_rebinds_looks_at_a_shared_not_exists_group_once_per_bound_set(monkeypatch):
    from normgraph import rules
    unions = " ".join("{?a :p%d ?b} UNION {?a :q%d ?c}" % (i, i) for i in range(6))

    def nested(innermost: str):
        body = innermost
        for _ in range(3):
            body = f"?a :r ?b. {unions} NOT EXISTS {{ {body} }}"
        return parse_rule("deep", f"CONSTRUCT {{?a :s ?b}} WHERE {{ {body} }}").where_clause

    where = nested("?a :r ?b. BIND(:d AS ?e)")
    calls = []
    binds = rules._binds
    monkeypatch.setattr(rules, "_binds", lambda el: calls.append(1) or binds(el))
    assert not rules.rebinds(where)
    # each group's 64 branches share the NOT EXISTS under them: it is looked
    # at once per set of variables bound before it, not once per path to it
    assert len(calls) < 5000
    # ?c is bound three groups up on the paths through a `:q` branch
    with pytest.raises(RuleSyntaxError, match=r"variable \?c is already bound"):
        nested("?a :r ?b. BIND(:d AS ?c)")


def test_union_commutes(rng):
    from conftest import random_graph

    left = "{?e :not ?ne}UNION{?ne :not ?e}"
    right = "{?ne :not ?e}UNION{?e :not ?ne}"
    rq1 = parse_rule("u1", "CONSTRUCT{?e a :Rexist}WHERE{%s}" % left)
    rq2 = parse_rule("u2", "CONSTRUCT{?e a :Rexist}WHERE{%s}" % right)
    for _ in range(10):
        g = random_graph(rng)
        g.insert(Triple(soa("a"), Iri(REXIST.value.replace("Rexist", "not")), soa("b")))
        s1 = {frozenset((v.name, t) for v, t in b.items())
              for b in evaluate_where(g, rq1.where_clause)}
        s2 = {frozenset((v.name, t) for v, t in b.items())
              for b in evaluate_where(g, rq2.where_clause)}
        assert s1 == s2


def test_not_exists_is_purely_restrictive(rng):
    from conftest import random_graph

    base = parse_rule("b", "CONSTRUCT{?x a :Rexist}WHERE{?x ?p ?y}")
    guarded = parse_rule("g", "CONSTRUCT{?x a :Rexist}WHERE{?x ?p ?y. NOT EXISTS{?y ?q ?z}}")
    for _ in range(10):
        g = random_graph(rng)
        all_sols = {frozenset((v.name, t) for v, t in b.items())
                    for b in evaluate_where(g, base.where_clause)}
        kept = {frozenset((v.name, t) for v, t in b.items())
                for b in evaluate_where(g, guarded.where_clause)}
        assert kept <= all_sols


def test_not_exists_substitutes_outer_bindings():
    # The guard must be checked under the current solution, not globally.
    p, q = soa("p"), soa("q")
    g = _graph(Triple(soa("a"), p, soa("v")),
               Triple(soa("b"), p, soa("v")),
               Triple(soa("a"), q, soa("v")))
    gp = GroupPattern((
        TriplePattern(V("x"), p, V("v")),
        NotExists(GroupPattern((TriplePattern(V("x"), q, V("w")),))),
    ))
    sols = evaluate_where(g, gp)
    assert [b[V("x")] for b in sols] == [soa("b")]


def test_blank_node_in_where_behaves_as_fresh_variable():
    rq = parse_rule("bn", "CONSTRUCT{?x a :Rexist}WHERE{?x :not [a :Rexist]}")
    not_iri = Iri(REXIST.value.replace("Rexist", "not"))
    g = _graph(Triple(soa("a"), not_iri, soa("b")),
               Triple(soa("b"), RDF_TYPE, REXIST))
    sols = evaluate_where(g, rq.where_clause)
    assert [b[V("x")] for b in sols] == [soa("a")]


# --- brute-force equivalence --------------------------------------------------


def _substitute(part, mu):
    if isinstance(part, Variable):
        return mu[part]
    return part


def _triple_in(g: Graph, s, p, o) -> bool:
    return any(t.subject == s and t.predicate == p and t.object == o
               for t in g.match_iter(
                   s if not isinstance(s, Literal) else None,
                   p if isinstance(p, Iri) else None,
                   o))


def _satisfies(g: Graph, gp: GroupPattern, mu: dict) -> bool:
    for el in gp.elements:
        if isinstance(el, TriplePattern):
            s = _substitute(el.subject, mu)
            p = _substitute(el.predicate, mu)
            o = _substitute(el.object, mu)
            if not isinstance(p, Iri) or isinstance(s, Literal):
                return False
            if Triple(s, p, o) not in g:
                return False
        elif isinstance(el, Union):
            if not (_satisfies(g, el.left, mu) or _satisfies(g, el.right, mu)):
                return False
        elif isinstance(el, NotExists):
            inner_vars = sorted(
                {v for tp in el.inner.elements
                 for v in (tp.subject, tp.predicate, tp.object)
                 if isinstance(v, Variable) and v not in mu},
                key=lambda v: v.name)
            universe = sorted(g.terms(), key=term_key)
            found = False
            for combo in itertools.product(universe, repeat=len(inner_vars)):
                nu = dict(mu)
                nu.update(zip(inner_vars, combo))
                if _satisfies(g, el.inner, nu):
                    found = True
                    break
            if found:
                return False
        elif isinstance(el, Filter):
            def val(part):
                return mu[part] if isinstance(part, Variable) else part

            cmp = el.expr
            assert isinstance(cmp, Comparison)
            equal = val(cmp.left) == val(cmp.right)
            if cmp.negated == equal:
                return False
        else:
            raise AssertionError(f"generator produced unexpected element {el!r}")
    return True


def _brute_solutions(g: Graph, gp: GroupPattern) -> set:
    variables = sorted(bindable_variables(gp), key=lambda v: v.name)
    universe = sorted(g.terms(), key=term_key)
    out = set()
    for combo in itertools.product(universe, repeat=len(variables)):
        mu = dict(zip(variables, combo))
        if _satisfies(g, gp, mu):
            out.add(frozenset((v.name, t) for v, t in mu.items()))
    return out


def _random_case(rnd: random.Random):
    iris = [Iri(f"https://example.org/i{k}") for k in range(4)]
    preds = [Iri(f"https://example.org/p{k}") for k in range(2)]
    g = Graph()
    for _ in range(rnd.randrange(3, 11)):
        g.insert(Triple(rnd.choice(iris), rnd.choice(preds), rnd.choice(iris)))

    nvars = rnd.randrange(1, 7)
    variables = [V(f"v{k}") for k in range(nvars)]

    def pick_term(var_prob=0.6):
        if rnd.random() < var_prob:
            return rnd.choice(variables)
        return rnd.choice(iris)

    def pick_pred():
        if rnd.random() < 0.4:
            return rnd.choice(variables)
        return rnd.choice(preds)

    elements = []
    for _ in range(rnd.randrange(1, 4)):
        elements.append(TriplePattern(pick_term(), pick_pred(), pick_term()))
    if rnd.random() < 0.5:
        shared = [pick_term(0.9), pick_pred(), pick_term(0.9)]
        left = GroupPattern((TriplePattern(*shared),))
        swapped = [shared[2], shared[1], shared[0]]
        right = GroupPattern((TriplePattern(*[x if not isinstance(x, Literal) else shared[0]
                                              for x in swapped]),))
        elements.append(Union(left, right))
    gp_so_far = GroupPattern(tuple(elements))
    bound = bindable_variables(gp_so_far)
    if rnd.random() < 0.5 and bound:
        inner = []
        for _ in range(rnd.randrange(1, 3)):
            parts = []
            for picker in (pick_term, pick_pred, pick_term):
                part = picker()
                if isinstance(part, Variable) and part not in bound and rnd.random() < 0.5:
                    part = V(f"inner{len(inner)}")
                parts.append(part)
            inner.append(TriplePattern(*parts))
        elements.append(NotExists(GroupPattern(tuple(inner))))
    bound = sorted(bindable_variables(GroupPattern(tuple(elements))), key=lambda v: v.name)
    if rnd.random() < 0.5 and bound:
        left = rnd.choice(bound)
        right = rnd.choice(bound) if rnd.random() < 0.5 else rnd.choice(iris)
        elements.append(Filter(Comparison(left, rnd.random() < 0.5, right)))
    return g, GroupPattern(tuple(elements))


def test_evaluator_matches_brute_force_enumeration():
    rnd = random.Random(987123)
    nonempty = 0
    for case in range(220):
        g, gp = _random_case(rnd)
        got = {frozenset((v.name, t) for v, t in b.items())
               for b in evaluate_where(g, gp)}
        want = _brute_solutions(g, gp)
        assert got == want, f"case {case}: {gp}"
        if want:
            nonempty += 1
    assert nonempty >= 40  # the generator must exercise real matches


def test_catalog_ds_rules_match_brute_force(rng):
    from normgraph.ontology import CATALOG

    not_iri = Iri(REXIST.value.replace("Rexist", "not"))
    or1 = Iri(REXIST.value.replace("Rexist", "or1"))
    or2 = Iri(REXIST.value.replace("Rexist", "or2"))
    text = next(e.text for e in CATALOG if e.rule_id == "ds-rexist")
    rq = parse_rule("ds-rexist", text)
    nodes = [soa(f"e{k}") for k in range(5)]
    for _ in range(25):
        g = Graph()
        for _ in range(8):
            kind = rng.randrange(3)
            if kind == 0:
                g.insert(Triple(rng.choice(nodes), RDF_TYPE, REXIST))
            elif kind == 1:
                g.insert(Triple(rng.choice(nodes), not_iri, rng.choice(nodes)))
            else:
                g.insert(Triple(rng.choice(nodes), rng.choice([or1, or2]), rng.choice(nodes)))
        got = {frozenset((v.name, t) for v, t in b.items())
               for b in evaluate_where(g, rq.where_clause)}
        assert got == _brute_solutions(g, rq.where_clause)


# --- instantiation -----------------------------------------------------------


def test_guarded_wife_rule_creates_one_fresh_node():
    rq = parse_rule("wife", """
        CONSTRUCT{[soa:wife-of ?x]}
        WHERE{?x a soa:Man. NOT EXISTS{?w soa:wife-of ?x}}
    """)
    g = _graph(Triple(soa("John"), RDF_TYPE, soa("Man")))
    sols = evaluate_where(g, rq.where_clause)
    produced = instantiate(rq, sols)
    assert len(produced) == 1
    triple = produced[0]
    assert triple.predicate == soa("wife-of")
    assert triple.object == soa("John")
    assert triple.subject.label.startswith("skolem:wife:0:")


def test_ground_template_deduplicates_across_solutions():
    rq = parse_rule("g", "CONSTRUCT{soa:a soa:p soa:b}WHERE{?x a :Rexist}")
    g = _graph(Triple(soa("e1"), RDF_TYPE, REXIST),
               Triple(soa("e2"), RDF_TYPE, REXIST),
               Triple(soa("e3"), RDF_TYPE, REXIST))
    sols = evaluate_where(g, rq.where_clause)
    assert len(sols) == 3
    produced = instantiate(rq, sols)
    assert len(produced) == 1


def test_instantiation_is_deterministic_label_identical():
    rq = parse_rule("mk", """
        CONSTRUCT{[a :false,:hold; rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist]}
        WHERE{?e a :Rexist}
    """)
    g = _graph(Triple(soa("e1"), RDF_TYPE, REXIST), Triple(soa("e2"), RDF_TYPE, REXIST))
    sols = evaluate_where(g, rq.where_clause)
    first = Graph(instantiate(rq, sols, "i1"))
    second = Graph(instantiate(rq, sols, "i1"))
    assert first.triples() == second.triples()
    from normgraph.model import isomorphic

    assert isomorphic(first, second)
    # a different salt renames but stays isomorphic
    other = Graph(instantiate(rq, sols, "i2"))
    assert other.triples() != first.triples()
    assert isomorphic(first, other)


def test_distinct_solutions_get_distinct_skolems():
    rq = parse_rule("mk", "CONSTRUCT{[soa:wife-of ?x]}WHERE{?x a soa:Man}")
    g = _graph(Triple(soa("John"), RDF_TYPE, soa("Man")),
               Triple(soa("Jim"), RDF_TYPE, soa("Man")))
    produced = Graph(instantiate(rq, evaluate_where(g, rq.where_clause)))
    assert len(produced.blank_nodes()) == 2


def test_instantiate_lists_distinct_triples_by_solution_then_template():
    rq = parse_rule("order", "CONSTRUCT{?x :hold :true. soa:all soa:seen ?x. ?x :hold :true}"
                             "WHERE{?x a :Rexist}")
    e1, e2, everything, seen = soa("e1"), soa("e2"), soa("all"), soa("seen")
    produced = instantiate(rq, [{V("x"): e2}, {V("x"): e1}, {V("x"): e2}])
    assert produced == [Triple(e2, HOLD, TRUE), Triple(everything, seen, e2),
                        Triple(e1, HOLD, TRUE), Triple(everything, seen, e1)]


def test_instantiate_works_out_a_solution_signature_only_for_its_first_blank(monkeypatch):
    from normgraph import rules
    calls = []
    signature = rules._solution_signature
    monkeypatch.setattr(rules, "_solution_signature",
                        lambda binding: calls.append(1) or signature(binding))
    two_blanks = parse_rule("two", "CONSTRUCT{[a :false; rdf:subject [soa:has-agent ?x]]}"
                                   "WHERE{?x a :Rexist}")
    produced = instantiate(two_blanks, [{V("x"): soa("e1")}, {V("x"): soa("e2")}])
    assert len({t.subject for t in produced}) == 4 and len(calls) == 2
    calls.clear()
    instantiate(parse_rule("none", "CONSTRUCT{?x :hold :true}WHERE{?x a :Rexist}"),
                [{V("x"): soa("e1")}])
    assert calls == []


def test_instantiate_checks_bound_variables():
    rq = parse_rule("ok", "CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist}")
    with pytest.raises(UnboundTemplateVariable):
        instantiate(rq, [{}])


_TEMPLATE_VARIABLES = [V("x"), V("y"), V("z")]
_VALUES = [soa("a"), soa("b"), Literal("l"), BlankNode("parse:n")]
_BLANKS = [TemplateBlank(0), TemplateBlank(1)]
_TEMPLATE_TRIPLES = st.builds(
    TriplePattern,
    st.sampled_from(_TEMPLATE_VARIABLES + _BLANKS + [soa("a")]),
    st.sampled_from(_TEMPLATE_VARIABLES[:1] + [soa("p"), soa("q")]) | st.just(TemplateBlank(0)),
    st.sampled_from(_TEMPLATE_VARIABLES + _BLANKS + [soa("b"), Literal("l")]))


def _instantiated(instantiate_with, *args):
    """What `instantiate_with(*args)` returns, or the type and text of its error."""
    try:
        return instantiate_with(*args)
    except (UnboundTemplateVariable, ValueError) as err:
        return type(err), str(err)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(_TEMPLATE_TRIPLES, min_size=1, max_size=4),
       st.lists(st.dictionaries(st.sampled_from(_TEMPLATE_VARIABLES), st.sampled_from(_VALUES)),
                max_size=4),
       st.integers(0, 8))
def test_instantiate_gives_the_oracles_triples_and_errors(template, solutions, held):
    # template blanks (none, one or two, also as a predicate), a variable
    # predicate, triples repeated within and across solutions, unbound
    # variables, literal subjects and blank or literal predicates
    rq = RuleQuery("r", tuple(template), GroupPattern(()))
    got, want = _instantiated(instantiate, rq, solutions, "i1"), \
        _instantiated(oracle.instantiate, rq, solutions, "i1")
    if isinstance(want, Graph):
        assert len(got) == len(want) and list(Graph(got).match_iter()) == list(want.match_iter())
        # as the fixpoint calls it: only the triples neither the graph nor `seen` holds
        keys = [(t.subject, t.predicate, t.object) for t in got]
        graph, seen = Graph(got[:held:2]), set(keys[1:held:2])
        assert instantiate(rq, solutions, "i1", graph, seen) == got[held:]
        assert seen == set(keys[1:held:2] + keys[held:])
    elif want[0] is ValueError:
        assert got == (ValueError, f"rule 'r': {want[1]}")
    else:
        assert got == want


def test_filter_short_circuits_left_to_right_over_unbound_variables():
    # an unbound variable rejects the solution only where the evaluation
    # reaches its comparison: the order of the || items matters
    g = _graph(Triple(soa("a"), soa("p"), soa("b")))
    for expr, want in (("?y = soa:b || ?z = soa:c", [{V("x"): soa("a"), V("y"): soa("b")}]),
                       ("?z = soa:c || ?y = soa:b", [])):
        rq = parse_rule("f", f"CONSTRUCT{{?x a :Rexist}}WHERE{{?x soa:p ?y FILTER({expr})}}")
        assert evaluate_where(g, rq.where_clause) == want, expr
        assert oracle.evaluate_where(g, rq.where_clause) == want, expr


def test_dialect_an_unbound_variable_in_the_first_item_of_an_or_rejects_the_solution():
    g = _graph(Triple(soa("a"), soa("p"), soa("b")))
    rq = parse_rule("f", "CONSTRUCT{?x a :Rexist}"
                         "WHERE{?x soa:p ?y FILTER(?z = soa:c || ?y = soa:b)}")
    # SPARQL 1.1 (section 17.2) passes the solution ?x = :a, ?y = :b: its
    # `?z = :c` is an error with ?z unbound, and an error || true is true
    assert evaluate_where(g, rq.where_clause) == []
    assert evaluate_where(g, rq.where_clause, limit=1) == []


def test_dialect_a_guard_in_a_union_alternative_or_a_bare_group_applies_to_its_whole_branch():
    g = _graph(Triple(soa("a"), soa("p"), soa("b")), Triple(soa("a"), soa("q"), soa("c")))
    want = [{V("x"): soa("a"), V("y"): soa("b"), V("z"): soa("c")}]
    for guard in ("FILTER(?z = soa:c)", "NOT EXISTS{?z soa:p ?y}"):
        for where in (f"?x soa:q ?z {{?x soa:p ?y {guard}}} UNION {{?x soa:r ?y}}",
                      f"?x soa:q ?z {{?x soa:p ?y {guard}}}"):
            rq = parse_rule("g", f"CONSTRUCT{{?x a :Rexist}}WHERE{{{where}}}")
            # SPARQL 1.1 (section 18.2.2) scopes the guard to its group, where
            # ?z is unbound: the FILTER rejects every solution of the group,
            # and so does the NOT EXISTS, as `?z soa:p ?y` matches `:a :p :b`;
            # the query has no solution. Here the guard sees ?z = :c, which
            # the pattern outside its group binds
            assert evaluate_where(g, rq.where_clause) == want, where


def test_nesting_deeper_than_the_limit_is_a_syntax_error_with_an_offset():
    from normgraph.turtle import MAX_NESTING

    def where(depth: int) -> str:
        # the WHERE braces are one level, each NOT EXISTS one more
        return ("CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist "
                + "NOT EXISTS{?x :not ?y " * (depth - 1) + "}" * depth)

    assert len(parse_rule("deep", where(MAX_NESTING)).where_clause.elements) == 2
    text = where(MAX_NESTING + 1)
    with pytest.raises(RuleSyntaxError, match="nesting deeper") as err:
        parse_rule("deep", text)
    # the offset of the opening brace one level too deep
    assert err.value.pos == [i for i, c in enumerate(text) if c == "{"][MAX_NESTING + 1]
    for text in ("CONSTRUCT{?x :p " + "[:q " * (MAX_NESTING + 1) + ":z"
                 + "]" * (MAX_NESTING + 1) + "}WHERE{?x :p ?y}",
                 "CONSTRUCT{?x :p ?y}WHERE{?x :p ?y FILTER(" + "(" * MAX_NESTING
                 + "?x = ?y" + ")" * MAX_NESTING + ")}"):
        with pytest.raises(RuleSyntaxError, match="nesting deeper"):
            parse_rule("deep", text)

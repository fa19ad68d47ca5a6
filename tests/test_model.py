import copy
import gc
import pickle

import pytest

from normgraph.model import (
    BlankNode, Graph, Iri, Literal, RDF_TYPE, REXIST, Triple, contains_isomorphic,
    graph_difference, graph_union, isomorphic, term_key,
)
from conftest import random_graph, soa


def t(s, p, o) -> Triple:
    return Triple(s, p, o)


P = Iri("https://example.org/p")
Q = Iri("https://example.org/q")
A = Iri("https://example.org/a")
B = Iri("https://example.org/b")


def test_insert_into_empty_graph():
    g = Graph()
    assert g.insert(t(soa("elj"), RDF_TYPE, REXIST)) is True
    assert len(g) == 1


def test_insert_is_idempotent():
    g = Graph()
    triple = t(A, P, B)
    assert g.insert(triple) is True
    assert g.insert(triple) is False
    assert len(g) == 1


def test_insert_three_abbreviated_statements():
    g = Graph()
    g.insert(t(soa("elj"), RDF_TYPE, REXIST))
    g.insert(t(soa("elj"), RDF_TYPE, soa("Leave")))
    g.insert(t(soa("elj"), soa("has-agent"), soa("John")))
    assert len(g) == 3


def test_predicate_must_be_iri():
    with pytest.raises(ValueError):
        t(A, BlankNode("parse:x"), B)
    with pytest.raises(ValueError):
        t(A, Literal("p"), B)


def test_literal_cannot_be_subject():
    with pytest.raises(ValueError):
        t(Literal("s"), P, B)


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        Iri("")
    with pytest.raises(ValueError):
        Iri("https://example.org/a b")


def test_iri_rejects_a_closing_angle_bracket():
    # The writer would save it as <http://x/a>b>, which no reader takes back.
    with pytest.raises(ValueError, match="invalid IRI"):
        Iri("http://x/a>b")


def test_terms_are_interned_and_compare_by_identity():
    assert Iri("x") is Iri("x")
    assert BlankNode("parse:x") is BlankNode("parse:x")
    assert Literal("x") is Literal("x")
    assert Iri("x") != Literal("x") != BlankNode("x") != Iri("x")
    assert repr(Iri("x")) == "Iri(value='x')"
    assert repr(BlankNode("parse:x")) == "BlankNode(label='parse:x')"
    for cls in (Iri, BlankNode, Literal):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__


def test_copies_and_pickles_give_back_the_interned_terms():
    for term in (A, BlankNode("parse:c"), Literal("c d")):
        for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
            assert twin is term
    triple = Triple(BlankNode("parse:c"), P, Literal("c d"))
    for twin in (copy.copy(triple), copy.deepcopy(triple), pickle.loads(pickle.dumps(triple))):
        assert twin == triple
        assert all(getattr(twin, part) is getattr(triple, part)
                   for part in ("subject", "predicate", "object"))


def test_terms_are_immutable():
    for term, field in ((A, "value"), (BlankNode("parse:x"), "label"), (Literal("x"), "value")):
        with pytest.raises(AttributeError):
            setattr(term, field, "y")
        with pytest.raises(AttributeError):
            delattr(term, field)
        with pytest.raises(AttributeError):
            term.other = "y"


def test_a_rejected_iri_never_enters_the_table():
    gc.collect()
    before = len(Iri._table)
    for value in ("", "a b"):
        with pytest.raises(ValueError):
            Iri(value)
        assert value not in Iri._table
    assert len(Iri._table) == before


def test_the_intern_table_drops_terms_nothing_else_holds():
    gc.collect()
    before = len(BlankNode._table)
    nodes = [BlankNode(f"skolem:intern-test:{i}") for i in range(10_000)]
    assert len(BlankNode._table) == before + len(nodes)
    del nodes
    gc.collect()
    assert len(BlankNode._table) == before


def test_match_by_subject_and_predicate():
    g = Graph()
    g.insert(t(soa("elj"), RDF_TYPE, REXIST))
    g.insert(t(soa("elj"), RDF_TYPE, soa("Leave")))
    g.insert(t(soa("elj"), soa("has-agent"), soa("John")))
    got = g.match(soa("elj"), RDF_TYPE, None)
    assert {x.object for x in got} == {REXIST, soa("Leave")}


def test_match_empty_graph():
    assert Graph().match() == []


def test_match_equals_linear_scan_on_random_graph(rng):
    g = random_graph(rng, max_triples=50)
    while len(g) < 40:
        g = random_graph(rng, max_triples=50)
    terms = sorted(g.terms(), key=term_key)
    probes = [(None, None, None)]
    for _ in range(40):
        s = rng.choice(terms + [None, Iri("https://example.org/absent")])
        p = rng.choice([x for x in terms if isinstance(x, Iri)] + [None])
        o = rng.choice(terms + [None])
        if isinstance(s, Literal):
            s = None
        probes.append((s, p, o))
    for s, p, o in probes:
        expected = sorted(
            (x for x in g.triples()
             if (s is None or x.subject == s)
             and (p is None or x.predicate == p)
             and (o is None or x.object == o)),
            key=Triple.key)
        assert g.match(s, p, o) == expected


def test_match_order_is_deterministic():
    g = Graph()
    g.insert(t(B, P, A))
    g.insert(t(A, P, B))
    g.insert(t(A, P, A))
    assert g.match() == sorted(g.triples(), key=Triple.key)


def test_indexes_agree_with_triple_set(rng):
    for _ in range(20):
        g = random_graph(rng)
        assert g.check_indexes()


def test_isomorphic_single_blank_relabeling():
    g1 = Graph([t(BlankNode("parse:a"), Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#subject"), soa("elj"))])
    g2 = Graph([t(BlankNode("parse:b"), Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#subject"), soa("elj"))])
    assert isomorphic(g1, g2)


def test_isomorphic_contradiction_structure_renamed():
    # A reified true statement in contradiction with a reified false one,
    # with both anonymous individuals renamed.
    from normgraph.turtle import parse_turtle

    doc = """
    _:{0} a :true, :hold; rdf:subject soa:elj; rdf:predicate rdf:type;
        rdf:object :Rexist; :is-in-contradiction-with _:{1}.
    _:{1} a :false, :hold; rdf:subject soa:elj; rdf:predicate rdf:type;
        rdf:object :Rexist.
    """
    g1 = parse_turtle(doc.format("t1", "f1"))
    g2 = parse_turtle(doc.format("x9", "y7"))
    assert isomorphic(g1, g2)
    assert isomorphic(g2, g1)


def _brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    from itertools import permutations

    if len(g1) != len(g2):
        return False
    b1 = sorted(g1.blank_nodes(), key=term_key)
    b2 = sorted(g2.blank_nodes(), key=term_key)
    if len(b1) != len(b2):
        return False
    for perm in permutations(b2):
        mapping = dict(zip(b1, perm))

        def mapped(term):
            return mapping.get(term, term)

        if all(Triple(mapped(x.subject), x.predicate, mapped(x.object)) in g2
               for x in g1.triples()):
            return True
    return False


def test_isomorphic_agrees_with_brute_force_bijection_search(rng):
    relabeled = 0
    for i in range(60):
        g1 = random_graph(rng, max_triples=10)
        if rng.random() < 0.5:
            # relabel blanks, sometimes perturb one ground object
            mapping = {b: BlankNode(f"parse:z{j}") for j, b in enumerate(sorted(g1.blank_nodes(), key=term_key))}
            g2 = Graph()
            for x in g1.triples():
                s = mapping.get(x.subject, x.subject)
                o = mapping.get(x.object, x.object)
                g2.insert(Triple(s, x.predicate, o))
            if rng.random() < 0.4 and len(g2):
                victim = sorted(g2.triples(), key=Triple.key)[0]
                g2 = Graph([x for x in g2.triples() if x != victim])
                g2.insert(Triple(victim.subject, victim.predicate, Iri("https://example.org/other")))
            else:
                relabeled += 1
        else:
            g2 = random_graph(rng, max_triples=10)
        if len(g1.blank_nodes()) > 6 or len(g2.blank_nodes()) > 6:
            continue
        assert isomorphic(g1, g2) == _brute_force_isomorphic(g1, g2)
    assert relabeled > 5


def test_isomorphic_detects_single_ground_difference():
    base = [t(A, P, B), t(B, P, A), t(A, Q, A), t(B, Q, B),
            t(soa("x"), P, soa("y")), t(soa("y"), P, soa("x")),
            t(soa("x"), Q, A), t(soa("y"), Q, B),
            t(A, P, soa("x")), t(B, P, soa("y"))]
    g1 = Graph(base)
    g2 = Graph(base[:-1] + [t(B, P, soa("z"))])
    assert not isomorphic(g1, g2)
    assert not _brute_force_isomorphic(g1, g2)


def test_isomorphic_reflexive_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng, max_triples=8)
        assert isomorphic(g, g)
        h = random_graph(rng, max_triples=8)
        assert isomorphic(g, h) == isomorphic(h, g)


def test_contains_isomorphic_subgraph():
    g = Graph([t(BlankNode("skolem:r:0:abc"), P, A),
               t(BlankNode("skolem:r:0:abc"), Q, B),
               t(A, P, B)])
    sub = Graph([t(BlankNode("parse:e"), P, A)])
    assert contains_isomorphic(sub, g)
    missing = Graph([t(BlankNode("parse:e"), P, B)])
    assert not contains_isomorphic(missing, g)


def test_contains_isomorphic_requires_injective_mapping():
    g = Graph([t(BlankNode("skolem:a"), P, A)])
    sub = Graph([t(BlankNode("parse:x"), P, A), t(BlankNode("parse:y"), P, A)])
    # two distinct expected blanks cannot share the single node in g
    assert not contains_isomorphic(sub, g)


def test_graph_union_and_difference():
    g1 = Graph([t(A, P, B)])
    g2 = Graph([t(A, P, B), t(B, P, A)])
    u = graph_union(g1, g2)
    assert len(u) == 2
    d = graph_difference(g2, g1)
    assert d.triples() == {t(B, P, A)}

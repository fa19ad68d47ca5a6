import random

import pytest

from normgraph.engine import run_fixpoint
from normgraph.model import (
    DEONTIC_MODALITY, EVENTUALITY, FALSE, Graph, HOLD, Iri, IS_IN_CONFLICT_WITH,
    NOT, OBLIGATORY, OPTIONAL, PERMITTED, RDF_TYPE, RDFS_SUBCLASSOF, REXIST,
    STATEMENT, THEMATIC_ROLE, TRUE, Triple, graph_union, isomorphic,
)
from normgraph.ontology import (
    CATALOG, FIXTURES, LAYER_NAMES, UnknownFixture, UnknownLayer,
    builtin_ruleset, catalog_entries, fixture, fixture_names, vocabulary,
)
from conftest import has_reified, run_fixture, soa


def test_namespaces():
    from normgraph.model import ONT_NS, SOA_NS

    assert ONT_NS == "https://w3id.org/ontology/conflict-tolerantdeontictraditionalscheme#"
    assert SOA_NS == ONT_NS + "soa"


def test_vocabulary_declares_deontic_modalities():
    v = vocabulary()
    assert Triple(OBLIGATORY, RDF_TYPE, DEONTIC_MODALITY) in v
    assert Triple(PERMITTED, RDF_TYPE, DEONTIC_MODALITY) in v
    assert Triple(OPTIONAL, RDF_TYPE, DEONTIC_MODALITY) in v


def test_vocabulary_declares_truth_classes():
    v = vocabulary()
    assert Triple(TRUE, RDFS_SUBCLASSOF, STATEMENT) in v
    assert Triple(FALSE, RDFS_SUBCLASSOF, STATEMENT) in v


def test_vocabulary_is_inert_under_all_layers():
    v = vocabulary()
    result = run_fixpoint(v, builtin_ruleset())
    assert result.iterations_used == 1
    assert isomorphic(result.graph, v)


def test_vocabulary_is_parsed_once_and_each_caller_gets_its_own_graph():
    first = vocabulary()
    assert first.triples() == vocabulary().triples()
    assert first.prefix_map == vocabulary().prefix_map
    size = len(first)
    first.insert(Triple(TRUE, RDF_TYPE, FALSE))
    first.prefix_map["x"] = "https://example.org/"
    second = vocabulary()
    assert len(second) == size and Triple(TRUE, RDF_TYPE, FALSE) not in second
    assert "x" not in second.prefix_map
    assert second.check_indexes()


def test_layer_sizes():
    assert len(catalog_entries("core")) == 11
    assert len(catalog_entries("pragmatics")) == 1
    assert len(catalog_entries("dts")) == 10
    assert len(catalog_entries("deontic-bool")) == 11
    assert len(catalog_entries("compliance")) == 3
    assert len(catalog_entries("modal")) == 2
    assert len(CATALOG) == 38


def test_layers_are_disjoint_and_cover_catalog():
    by_layer = {layer: {e.rule_id for e in catalog_entries(layer)} for layer in LAYER_NAMES}
    seen = set()
    for ids in by_layer.values():
        assert not (ids & seen)
        seen |= ids
    assert seen == {e.rule_id for e in CATALOG}


def test_empty_ruleset_selection():
    assert len(builtin_ruleset(set())) == 0


def test_unknown_layer_rejected():
    with pytest.raises(UnknownLayer):
        builtin_ruleset({"core", "nope"})
    with pytest.raises(UnknownLayer):
        catalog_entries("nope")


def test_whole_catalog_parses():
    rs = builtin_ruleset()
    assert len(rs) == len(CATALOG)
    assert rs.ids() == [e.rule_id for e in CATALOG]


def test_fixture_index_and_unknown_fixture():
    assert set(fixture_names()) == set(FIXTURES)
    with pytest.raises(UnknownFixture):
        fixture("no-such-fixture")


def test_every_fixture_parses_and_predicates_are_iris():
    for name in fixture_names():
        data, user_rules, expected = fixture(name)
        for g in (data, user_rules) + ((expected,) if expected else ()):
            for t in g.triples():
                assert isinstance(t.predicate, Iri), (name, t)


def test_smith_fixture_contains_the_disjunctive_obligation():
    data, _, _ = fixture("smith")
    or1 = Iri(REXIST.value.replace("Rexist", "or1"))
    assert Triple(soa("eso"), or1, soa("ese")) in data
    assert Triple(soa("eso"), RDF_TYPE, OBLIGATORY) in data


def test_sketty_expected_contains_materialized_instrument():
    _, _, expected = fixture("sketty-necessity")
    assert Triple(soa("epsj"), soa("has-instrument"), soa("cash")) in expected


def test_every_builtin_rule_fires_on_some_fixture():
    fired: set[str] = set()
    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        pipe = run_fixture(name)
        fired |= {r.rule_id for r in pipe.result.trace if r.solutions > 0}
    missing = {e.rule_id for e in CATALOG} - fired
    assert not missing, f"rules never exercised by any fixture: {sorted(missing)}"


def _run_dts(data: Graph):
    return run_fixpoint(graph_union(vocabulary(), data), builtin_ruleset({"dts"}))


def test_hexagon_closure_on_randomized_pairs():
    rnd = random.Random(424242)
    for case in range(20):
        e = soa(f"ev{rnd.randrange(1000)}x{case}")
        ne = soa(f"nev{rnd.randrange(1000)}x{case}")
        data = Graph()
        data.insert(Triple(e, RDF_TYPE, OBLIGATORY))
        if rnd.random() < 0.5:
            data.insert(Triple(e, NOT, ne))
        else:
            data.insert(Triple(ne, NOT, e))
        g = _run_dts(data).graph
        assert Triple(e, RDF_TYPE, PERMITTED) in g, case
        assert has_reified(g, ne, RDF_TYPE, PERMITTED, (FALSE, HOLD)), case
        assert has_reified(g, ne, RDF_TYPE, OBLIGATORY, (FALSE, HOLD)), case
        assert has_reified(g, e, RDF_TYPE, OPTIONAL, (FALSE, HOLD)), case
        assert has_reified(g, ne, RDF_TYPE, OPTIONAL, (FALSE, HOLD)), case


def test_optionality_expansion():
    e, ne = soa("opt-e"), soa("opt-ne")
    data = Graph([Triple(e, RDF_TYPE, OPTIONAL), Triple(e, NOT, ne)])
    g = _run_dts(data).graph
    assert has_reified(g, e, RDF_TYPE, OBLIGATORY, (FALSE, HOLD))
    assert has_reified(g, ne, RDF_TYPE, OBLIGATORY, (FALSE, HOLD))
    assert Triple(e, RDF_TYPE, PERMITTED) in g
    assert Triple(ne, RDF_TYPE, PERMITTED) in g


def test_conflicts_require_an_actual_permission():
    # A held-false permission next to a merely held-false obligation is not
    # a conflict: only permissions in force drive conflict detection.
    ttl = """
    soa:Act a rdfs:Class, :Eventuality.
    soa:has-agent a rdf:Property, :ThematicRole.
    soa:x a soa:Act; soa:has-agent soa:John.
    soa:y a soa:Act; soa:has-agent soa:John.
    [a :false, :hold; rdf:subject soa:x; rdf:predicate rdf:type; rdf:object :Permitted].
    [a :false, :hold; rdf:subject soa:y; rdf:predicate rdf:type; rdf:object :Obligatory].
    """
    from normgraph.turtle import parse_turtle

    data = parse_turtle(ttl)
    result = run_fixpoint(graph_union(vocabulary(), data), builtin_ruleset({"compliance"}))
    assert result.graph.match(None, IS_IN_CONFLICT_WITH, None) == []


def _compliance_case(obligation_roles: dict, concrete_roles: dict,
                     same_class: bool = True) -> bool:
    from normgraph.model import IS_COMPLIED_WITH_BY

    data = Graph()
    cls_o = soa("Pay")
    cls_e = cls_o if same_class else soa("Leave")
    for c in {cls_o, cls_e}:
        data.insert(Triple(c, RDF_TYPE, EVENTUALITY))
    eo, e = soa("eo"), soa("e")
    data.insert(Triple(eo, RDF_TYPE, OBLIGATORY))
    data.insert(Triple(eo, RDF_TYPE, cls_o))
    data.insert(Triple(e, RDF_TYPE, REXIST))
    data.insert(Triple(e, RDF_TYPE, cls_e))
    for role, value in obligation_roles.items():
        data.insert(Triple(soa(role), RDF_TYPE, THEMATIC_ROLE))
        data.insert(Triple(eo, soa(role), soa(value)))
    for role, value in concrete_roles.items():
        data.insert(Triple(soa(role), RDF_TYPE, THEMATIC_ROLE))
        data.insert(Triple(e, soa(role), soa(value)))
    result = run_fixpoint(graph_union(vocabulary(), data), builtin_ruleset({"compliance"}))
    return bool(result.graph.match(None, IS_COMPLIED_WITH_BY, None))


def test_compliance_fires_on_exact_instantiation():
    assert _compliance_case({"has-agent": "John"}, {"has-agent": "John"})


def test_compliance_allows_extra_roles_on_the_concrete_eventuality():
    assert _compliance_case({"has-agent": "John"},
                            {"has-agent": "John", "has-instrument": "cash"})


def test_compliance_blocked_by_missing_role():
    assert not _compliance_case({"has-agent": "John", "has-object": "fee"},
                                {"has-agent": "John"})


def test_compliance_blocked_by_divergent_role_value():
    assert not _compliance_case({"has-agent": "John"}, {"has-agent": "Mary"})


def test_compliance_blocked_by_class_mismatch():
    assert not _compliance_case({"has-agent": "John"}, {"has-agent": "John"},
                                same_class=False)


def _divergence_case(e1_roles: dict, e2_roles: dict, denied_role: str = "has-instrument",
                     denied_value: str = "cash") -> bool:
    """Run the pragmatics layer over two same-class eventualities where e2 is
    denied `denied_value` on `denied_role`; report whether they came out as
    opposites."""
    data = Graph()
    cls = soa("Pay")
    data.insert(Triple(cls, RDF_TYPE, EVENTUALITY))
    e1, e2 = soa("d-e1"), soa("d-e2")
    data.insert(Triple(e1, RDF_TYPE, cls))
    data.insert(Triple(e2, RDF_TYPE, cls))
    for e, roles in ((e1, e1_roles), (e2, e2_roles)):
        for role, value in roles.items():
            data.insert(Triple(soa(role), RDF_TYPE, THEMATIC_ROLE))
            data.insert(Triple(e, soa(role), soa(value)))
    reif = soa("d-denial")
    from normgraph.model import RDF_OBJECT, RDF_PREDICATE, RDF_SUBJECT

    data.insert(Triple(soa(denied_role), RDF_TYPE, THEMATIC_ROLE))
    data.insert(Triple(reif, RDF_TYPE, FALSE))
    data.insert(Triple(reif, RDF_TYPE, HOLD))
    data.insert(Triple(reif, RDF_SUBJECT, e2))
    data.insert(Triple(reif, RDF_PREDICATE, soa(denied_role)))
    data.insert(Triple(reif, RDF_OBJECT, soa(denied_value)))
    result = run_fixpoint(graph_union(vocabulary(), data), builtin_ruleset({"pragmatics"}))
    return Triple(e1, NOT, e2) in result.graph


def test_divergence_fires_when_only_the_denied_role_differs():
    assert _divergence_case({"has-agent": "John", "has-instrument": "cash"},
                            {"has-agent": "John", "has-instrument": "card"})


def test_divergence_blocked_when_a_shared_role_diverges():
    assert not _divergence_case({"has-agent": "John", "has-instrument": "cash"},
                                {"has-agent": "Mary", "has-instrument": "card"})


def test_divergence_blocked_by_a_role_only_on_the_first_eventuality():
    assert not _divergence_case(
        {"has-agent": "John", "has-object": "fee", "has-instrument": "cash"},
        {"has-agent": "John", "has-instrument": "card"})


def test_divergence_blocked_by_a_role_only_on_the_second_eventuality():
    assert not _divergence_case(
        {"has-agent": "John", "has-instrument": "cash"},
        {"has-agent": "John", "has-object": "fee", "has-instrument": "card"})


def test_permission_ds_non_inference():
    pipe = run_fixture("permitted-smith-non-inference")
    data, _, _ = fixture("permitted-smith-non-inference")
    before = {t for t in data.match_iter(p=RDF_TYPE, o=PERMITTED)}
    after = {t for t in pipe.result.graph.match_iter(p=RDF_TYPE, o=PERMITTED)}
    assert Triple(soa("esd"), RDF_TYPE, PERMITTED) not in pipe.result.graph
    # nothing beyond what the inputs entail for the drink eventuality
    assert soa("esd") not in {t.subject for t in after - before}


def test_lie_or_error_rule_builds_the_disjunctive_explanation():
    # The optional user rule turns a necessity-driven contradiction into
    # "the declarer lied, or the necessity record is an error".
    pipe = run_fixture("sketty-lie-or-error")
    g = pipe.result.graph
    lies = [t.subject for t in g.match_iter(p=RDF_TYPE, o=soa("Lie"))]
    assert len(lies) == 1
    assert Triple(lies[0], soa("has-theme"), soa("epscj")) in g
    assert Triple(lies[0], soa("has-agent"), soa("John")) in g
    or1 = Iri(REXIST.value.replace("Rexist", "or1"))
    outer = [t.subject for t in g.match_iter(p=or1, o=lies[0])]
    assert len(outer) == 1
    assert Triple(outer[0], RDF_TYPE, REXIST) in g


def test_fixture_expected_graphs_are_contained_in_results():
    from normgraph.model import contains_isomorphic

    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        _, _, expected = fixture(name)
        if expected is None:
            continue
        pipe = run_fixture(name)
        assert contains_isomorphic(expected, pipe.result.graph), name

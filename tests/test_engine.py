import pytest

from normgraph import engine
from normgraph.cli import run_pipeline
from normgraph.engine import (
    EngineConfig, MAX_CACHED_RULES, MaxIterationsExceeded, MissingRuleBody, RuleSet,
    diff_inferred, load_rules, rule_entry, run_fixpoint, strip_rules,
)
from normgraph.model import (
    Graph, IS_IN_CONTRADICTION_WITH, RDF_TYPE, Triple,
    graph_union, isomorphic,
)
from normgraph.ontology import FIXTURES, builtin_ruleset, fixture, vocabulary
from normgraph.rules import RuleSyntaxError, UnboundTemplateVariable
from normgraph.turtle import parse_turtle
from conftest import run_fixture, soa


def test_load_rules_single_individual():
    _, rules_graph, _ = fixture("wife-guard")
    rs = load_rules(rules_graph)
    assert len(rs) == 1
    assert rs.entries[0].rule_id.startswith("parse:") and "anon" in rs.entries[0].rule_id


def test_load_rules_empty_graph():
    assert len(load_rules(Graph())) == 0


def test_load_rules_two_building_rules_have_distinct_ids():
    _, rules_graph, _ = fixture("building-norms")
    rs = load_rules(rules_graph)
    assert len(rs) == 2
    assert len(set(rs.ids())) == 2


def test_load_rules_missing_body():
    g = parse_turtle("soa:r1 a :InferenceRule.")
    with pytest.raises(MissingRuleBody):
        load_rules(g)


def test_load_rules_propagates_rule_syntax_error():
    from normgraph.rules import RuleSyntaxError

    g = parse_turtle('soa:r1 a :InferenceRule; :has-sparql-code """NONSENSE{}""".')
    with pytest.raises(RuleSyntaxError) as err:
        load_rules(g)
    assert "r1" in str(err.value)


def test_duplicate_rule_ids_rejected():
    rs = load_rules(parse_turtle(
        'soa:r1 a :InferenceRule; :has-sparql-code """CONSTRUCT{?x a :Rexist}WHERE{?x a :Rexist}""".'))
    with pytest.raises(ValueError):
        RuleSet([*rs.entries, *rs.entries])


def test_strip_rules_keeps_data():
    g = parse_turtle("""
        soa:John a soa:Man.
        [a :InferenceRule; :has-sparql-code \"\"\"CONSTRUCT{?x a :Rexist}WHERE{?x a soa:Man}\"\"\"].
    """)
    data = strip_rules(g)
    assert Triple(soa("John"), RDF_TYPE, soa("Man")) in data
    assert len(data) == 1


def test_empty_ruleset_returns_isomorphic_input_in_one_iteration(rng):
    from conftest import random_graph

    g = random_graph(rng)
    result = run_fixpoint(g, RuleSet())
    assert result.iterations_used == 1
    assert isomorphic(result.graph, g)
    assert result.provenance == {}


def test_unguarded_wife_rule_exceeds_iteration_budget():
    data, rules_graph, _ = fixture("wife-guard-unguarded")
    rules = load_rules(rules_graph)
    with pytest.raises(MaxIterationsExceeded) as err:
        run_fixpoint(data, rules, EngineConfig(max_iterations=20))
    assert err.value.last_added >= 1


def test_guarded_wife_rule_reaches_fixpoint_in_two_iterations():
    data, rules_graph, _ = fixture("wife-guard")
    result = run_fixpoint(data, load_rules(rules_graph))
    assert result.iterations_used == 2
    wives = result.graph.match(None, soa("wife-of"), None)
    assert len(wives) == 1


def test_john_leaves_run_terminates_quickly_with_contradiction():
    pipe = run_fixture("john-leaves-contradiction")
    assert pipe.result.iterations_used <= 4
    assert len(pipe.result.graph.match(None, IS_IN_CONTRADICTION_WITH, None)) == 1


def test_max_iterations_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_iterations=0)


def test_diff_inferred_equals_set_difference():
    for name in ("smith", "john-leaves-contradiction", "or-and-ds"):
        pipe = run_fixture(name)
        inferred = diff_inferred(pipe.result, pipe.data)
        assert inferred.triples() == pipe.result.graph.triples() - pipe.data.triples()


def test_diff_inferred_smith_contains_the_conclusion():
    pipe = run_fixture("smith")
    inferred = diff_inferred(pipe.result, pipe.data)
    from normgraph.model import OBLIGATORY

    assert Triple(soa("esd"), RDF_TYPE, OBLIGATORY) in inferred


def test_monotonicity_on_every_fixture():
    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        pipe = run_fixture(name)
        assert pipe.data.triples() <= pipe.result.graph.triples(), name


def test_idempotence_on_every_fixture():
    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        pipe = run_fixture(name)
        data, user_rules, _ = fixture(name)
        rules = builtin_ruleset(set(info.layers)) + load_rules(
            graph_union(vocabulary(), user_rules))
        again = run_fixpoint(pipe.result.graph, rules)
        assert again.graph.triples() == pipe.result.graph.triples(), name


def test_rule_order_independence_on_every_fixture(rng):
    for name, info in FIXTURES.items():
        if info.expects_error:
            continue
        pipe = run_fixture(name)
        data, user_rules, _ = fixture(name)
        rules = builtin_ruleset(set(info.layers)) + load_rules(
            graph_union(vocabulary(), user_rules))
        shuffled = list(rules.entries)
        rng.shuffle(shuffled)
        permuted = run_fixpoint(graph_union(vocabulary(), data), RuleSet(shuffled))
        assert permuted.graph.triples() == pipe.result.graph.triples(), name


def test_provenance_keys_are_inferred_triples_only():
    pipe = run_fixture("smith")
    for t in pipe.result.provenance:
        assert t in pipe.result.graph
        assert t not in pipe.data


def test_trace_added_counts_sum_to_inferred_size():
    for name in ("john-leaves-contradiction", "smith", "sketty-necessity",
                 "partial-conflict-obligations"):
        pipe = run_fixture(name)
        assert sum(r.added for r in pipe.result.trace) == len(
            diff_inferred(pipe.result, pipe.data)), name


def test_engine_has_no_branch_on_abnormality_predicates():
    # The engine must not special-case any abnormality predicate: scan every
    # identifier and non-docstring constant in its code, not the prose.
    import inspect
    import io
    import tokenize

    import normgraph.engine as engine_module

    source = inspect.getsource(engine_module)
    fragments = ("contradiction", "conflict", "violated", "complied")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NAME, tokenize.STRING) and token.string.startswith(("f\"", "\"", "'")) is False:
            for fragment in fragments:
                assert fragment not in token.string.lower()
    code_names = set()

    def collect(code):
        code_names.update(code.co_names)
        code_names.update(code.co_varnames)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                collect(const)

    for obj in vars(engine_module).values():
        if inspect.isfunction(obj) and obj.__module__ == engine_module.__name__:
            collect(obj.__code__)
    for fragment in fragments:
        assert not any(fragment in name.lower() for name in code_names)


def test_preseeded_contradiction_triples_do_not_change_control_flow():
    # Feeding the engine a graph that already carries a contradiction link
    # must not affect termination or monotonicity.
    data, _, _ = fixture("smith")
    poisoned = data.copy()
    poisoned.insert(Triple(soa("x1"), IS_IN_CONTRADICTION_WITH, soa("x2")))
    result = run_fixpoint(poisoned, builtin_ruleset({"core", "deontic-bool"}))
    assert Triple(soa("x1"), IS_IN_CONTRADICTION_WITH, soa("x2")) in result.graph
    from normgraph.model import OBLIGATORY

    assert Triple(soa("esd"), RDF_TYPE, OBLIGATORY) in result.graph


def test_trace_can_be_disabled():
    data, rules_graph, _ = fixture("wife-guard")
    result = run_fixpoint(data, load_rules(rules_graph),
                          EngineConfig(trace_enabled=False))
    assert result.trace == []
    assert result.iterations_used == 2


def test_rules_and_data_may_share_one_graph():
    combined = parse_turtle("""
        soa:John a soa:Man.
        [a :InferenceRule; :has-sparql-code \"\"\"
            CONSTRUCT{[soa:wife-of ?x]}
            WHERE{?x a soa:Man. NOT EXISTS{?w soa:wife-of ?x}}\"\"\"].
    """)
    rules = load_rules(combined)
    result = run_fixpoint(strip_rules(combined), rules)
    assert len(result.graph.match(None, soa("wife-of"), None)) == 1


def test_join_planning_keeps_pairwise_rules_tractable():
    # Scaling the bearer population multiplies candidate pairs for the
    # thematic-divergence rule; a poor join order made this exponential.
    import time

    from normgraph.cli import run_pipeline
    from normgraph.model import Iri, SOA_NS
    from normgraph.report import extract_findings

    data, rules_graph, _ = fixture("cash-card-norms")
    scaled = data.copy()
    for i in range(8):
        scaled.insert(Triple(Iri(SOA_NS + f"Human{i}"), RDF_TYPE, Iri(SOA_NS + "Human")))
    started = time.time()
    pipe = run_pipeline([scaled, rules_graph], {"pragmatics", "dts", "compliance"})
    assert time.time() - started < 5.0
    counts = extract_findings(pipe.result.graph).counts()
    assert counts == {"Conflict": 2 * 9}


def test_rerun_is_label_identical():
    for name in ("building-norms", "cash-card-norms"):
        info = FIXTURES[name]
        data, user_rules, _ = fixture(name)
        rules = builtin_ruleset(set(info.layers)) + load_rules(
            graph_union(vocabulary(), user_rules))
        first = run_fixpoint(graph_union(vocabulary(), data), rules)
        second = run_fixpoint(graph_union(vocabulary(), data), rules)
        assert first.graph.triples() == second.graph.triples(), name


def _rule_graph(body: str, namespace: str = "https://rule-cache.example/") -> Graph:
    return parse_turtle(f"@prefix ex: <{namespace}>.\n"
                        f'ex:r a :InferenceRule; :has-sparql-code """{body}""".')


def test_one_rule_text_under_one_prefix_map_is_one_entry():
    body = "CONSTRUCT{?x a ex:Cached}WHERE{?x a ex:Loaded}"
    (entry,) = load_rules(_rule_graph(body))
    assert load_rules(_rule_graph(body)).entries[0] is entry
    assert load_rules(_rule_graph(body + " ")).entries[0] is not entry
    other = load_rules(_rule_graph(body, "https://rule-cache.example/other/")).entries[0]
    assert other is not entry
    assert other.query.construct_template != entry.query.construct_template


def test_the_rule_cache_holds_at_most_its_cap():
    assert rule_entry.cache_info().maxsize == MAX_CACHED_RULES
    for k in range(MAX_CACHED_RULES + 10):
        load_rules(_rule_graph(f"CONSTRUCT{{?x a ex:Capped{k}}}WHERE{{?x a ex:Loaded}}"))
        assert rule_entry.cache_info().currsize <= MAX_CACHED_RULES
    assert rule_entry.cache_info().currsize == MAX_CACHED_RULES


def test_a_bad_rule_raises_on_every_load():
    unbound = _rule_graph("CONSTRUCT{?x ex:to ?never}WHERE{?x a ex:Unbound}")
    broken = _rule_graph("CONSTRUCT{?x a ex:Broken}WHERE{?x a ex:Broken")
    for _ in range(2):
        with pytest.raises(UnboundTemplateVariable, match="never bound in WHERE: never$"):
            load_rules(unbound)
        with pytest.raises(RuleSyntaxError, match="in rule 'r'"):
            load_rules(broken)


def test_a_second_check_of_the_same_rules_parses_and_analyses_nothing(monkeypatch):
    info = FIXTURES["cash-card-norms"]
    inputs = fixture("cash-card-norms")[:2]
    first = run_pipeline(list(inputs), set(info.layers))
    calls = []
    for name in ("parse_rule", "_wake_test"):
        def counted(*args, _original=getattr(engine, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(engine, name, counted)
    second = run_pipeline(list(inputs), set(info.layers))
    assert calls == []
    assert second.result.graph.triples() == first.result.graph.triples()

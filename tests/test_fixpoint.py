"""The engine's fixpoint against the frozen naive one in oracle.py."""

import importlib.util
import random
import sys
from pathlib import Path

import oracle
from normgraph.engine import (
    MaxIterationsExceeded, RuleEntry, RuleSet, load_rules, run_fixpoint, strip_rules,
)
from normgraph.model import Graph, Iri, RDF_TYPE, SOA_NS, Triple, graph_union
from normgraph.ontology import FIXTURES, builtin_ruleset, fixture, vocabulary
from normgraph.rules import (
    Comparison, Filter, GroupPattern, NotExists, RuleQuery, TemplateTriple, TriplePattern,
    Union, Variable, parse_rule,
)
from normgraph.turtle import parse_turtle, serialize_turtle


def _load_workloads():
    """The benchmark's seeded input generators, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _pipeline(graphs, layers):
    """The data and rules `normgraph check` hands to the fixpoint."""
    merged = graph_union(vocabulary(), *graphs)
    return strip_rules(merged), builtin_ruleset(set(layers)) + load_rules(merged)


def _outcome(fixpoint, data, rules):
    try:
        result = fixpoint(data, rules)
    except MaxIterationsExceeded as err:
        return ("raised", str(err))
    trace = [(r.iteration, r.rule_id, r.solutions, r.added) for r in result.trace]
    return ("ok", serialize_turtle(result.graph), result.graph.triples(),
            result.provenance, trace, result.iterations_used)


def _assert_same_as_oracle(name, data, rules):
    want = _outcome(oracle.run_fixpoint, data, rules)
    got = _outcome(run_fixpoint, data, rules)
    assert got[0] == want[0], name
    for part, (mine, theirs) in enumerate(zip(got, want)):
        assert mine == theirs, (name, part)
    return want


def test_fixpoint_matches_oracle_on_every_fixture():
    raised = []
    for name, info in sorted(FIXTURES.items()):
        data, user_rules, _ = fixture(name)
        want = _assert_same_as_oracle(name, *_pipeline([data, user_rules], info.layers))
        if want[0] == "raised":
            raised.append(name)
    assert raised == ["wife-guard-unguarded"]


def test_fixpoint_matches_oracle_on_small_benchmark_workloads():
    workloads = _load_workloads()
    for seed in (1, 2):
        for inp in workloads.cash_card_scale(seed, 3) + workloads.family_mix(seed, 2):
            graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
            want = _assert_same_as_oracle((seed, inp.name), *_pipeline(graphs, inp.layers))
            assert want[0] == "ok" and want[-1] >= 2, (seed, inp.name)


EX = "https://example.org/"


def _rules(**bodies) -> RuleSet:
    return RuleSet(RuleEntry(rule_id, parse_rule(rule_id, body, {"ex": EX}))
                   for rule_id, body in bodies.items())


def test_a_triple_two_not_exists_deep_wakes_the_rule():
    # like violated-by on sketty-necessity: ex:e lacks the role that the
    # norm ex:n has until `give` adds it in iteration 1, and that triple
    # matches only the pattern two NOT EXISTS deep
    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:n a ex:Norm, ex:C; ex:role ex:v.
        ex:e a ex:C; ex:trigger ex:go.""")
    rules = _rules(
        matches="""CONSTRUCT{?e ex:matches ?n}
            WHERE{?n a ex:Norm. ?n a ?c. ?e a ?c. FILTER(?e != ?n)
                  NOT EXISTS{?n ?tr ?vn. NOT EXISTS{?e ?tr ?ve}}}""",
        give="CONSTRUCT{?x ex:role ex:w} WHERE{?x ex:trigger ex:go}")
    result = run_fixpoint(data, rules)
    trace = [(r.iteration, r.rule_id, r.solutions, r.added) for r in result.trace]
    assert trace[:4] == [(1, "matches", 0, 0), (1, "give", 1, 1),
                         (2, "matches", 1, 1), (2, "give", 1, 0)]
    assert Triple(Iri(EX + "e"), Iri(EX + "matches"), Iri(EX + "n")) in result.graph
    _assert_same_as_oracle("two deep", data, rules)


def test_a_variable_the_parent_binds_after_a_not_exists_is_the_groups_own():
    # ?x two NOT EXISTS deep is not the ?x the top level binds after the
    # group: ex:z, which `give` adds as its value, has no ex:s edge, and
    # the rule still gains a solution
    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:a ex:p ex:b; ex:q ex:c. ex:x ex:s ex:a. ex:c ex:trigger ex:go.""")
    rules = _rules(
        out="""CONSTRUCT{?a ex:out ?b}
            WHERE{?a ex:p ?b. NOT EXISTS{?a ex:q ?c. NOT EXISTS{?c ex:r ?x}} ?x ex:s ?a}""",
        give="CONSTRUCT{?c ex:r ex:z} WHERE{?c ex:trigger ex:go}")
    result = run_fixpoint(data, rules)
    assert [(r.iteration, r.rule_id, r.solutions, r.added) for r in result.trace][2] \
        == (2, "out", 1, 1)
    _assert_same_as_oracle("bound after", data, rules)


def test_hot_rule_is_evaluated_in_full_in_fewer_than_every_iteration(monkeypatch):
    from normgraph import engine

    data, user_rules, _ = fixture("cash-card-norms")
    scaled = data.copy()
    for i in range(10):
        scaled.insert(Triple(Iri(SOA_NS + f"Human{i}"), RDF_TYPE, Iri(SOA_NS + "Human")))
    data, rules = _pipeline([scaled, user_rules], ("pragmatics", "dts", "compliance"))
    hot = next(e.query.where_clause for e in rules if e.rule_id == "not-from-thematic-divergence")
    full = []
    evaluate = engine.evaluate_where
    monkeypatch.setattr(engine, "evaluate_where", lambda g, gp, *args:
                        (gp is hot and full.append(1)) or evaluate(g, gp, *args))
    result = run_fixpoint(data, rules)
    assert result.iterations_used == 6
    assert [r.solutions for r in result.trace if r.rule_id == "not-from-thematic-divergence"] \
        == [0, 0, 22, 22, 22, 22]
    assert len(full) < 6


def test_rules_with_a_bind_or_a_top_level_union_always_run_in_full():
    rules = _rules(
        bind="CONSTRUCT{?x ex:q ex:a} WHERE{?x ex:p ex:a NOT EXISTS{?x ex:r ?z BIND(ex:b AS ?y)}}",
        union="CONSTRUCT{?x ex:q ex:a} WHERE{{?x ex:p ex:a} UNION {?x ex:r ex:a}}",
        nested="""CONSTRUCT{?x ex:q ex:a}
            WHERE{?x ex:s ex:a NOT EXISTS{{?x ex:p ex:a} UNION {?x ex:r ex:a}}}""")
    assert [e.wake is None for e in rules] == [True, True, False]


class _Rules:
    """Random rules over a small vocabulary whose triple patterns sit up to
    three NOT EXISTS deep, with variable predicates, repeated variables,
    FILTERs, and UNIONs inside NOT EXISTS (and sometimes at the top level).
    Templates have no blanks, so every run reaches a fixpoint."""

    def __init__(self, rnd):
        self.rnd = rnd
        self.iris = [Iri(f"{EX}i{k}") for k in range(4)]
        self.preds = [Iri(f"{EX}p{k}") for k in range(3)]
        self.variables = [Variable(f"v{k}") for k in range(5)]

    def term(self, var_prob):
        rnd = self.rnd
        return rnd.choice(self.variables) if rnd.random() < var_prob else rnd.choice(self.iris)

    def pattern(self, depth=0):
        # inner patterns have more constants, so that NOT EXISTS often passes
        rnd = self.rnd
        var_prob = 0.8 if depth == 0 else 0.5
        pred = rnd.choice(self.variables) if rnd.random() < 0.15 else rnd.choice(self.preds)
        return TriplePattern(self.term(var_prob), pred, self.term(var_prob))

    def group(self, depth: int) -> GroupPattern:
        rnd = self.rnd
        elements = [self.pattern(depth) for _ in range(rnd.randrange(0 if depth else 1, 3))]
        if rnd.random() < (0.3 if depth else 0.05):
            elements.append(Union(GroupPattern((self.pattern(depth),)),
                                  GroupPattern((self.pattern(depth), self.pattern(depth)))))
        if depth < 3 and rnd.random() < (0.5 if depth else 0.8):
            elements.append(NotExists(self.group(depth + 1)))
        if rnd.random() < 0.2:
            elements.append(Filter(Comparison(rnd.choice(self.variables), rnd.random() < 0.5,
                                              self.term(0.5))))
        if rnd.random() < 0.3:
            elements.append(self.pattern(depth))
        return GroupPattern(tuple(elements))

    def rule(self, rule_id: str) -> RuleEntry:
        rnd = self.rnd
        where = self.group(0)
        # variables every solution binds, or constants
        bound = [part for el in where.elements if isinstance(el, TriplePattern)
                 for part in (el.subject, el.object) if isinstance(part, Variable)] or self.iris
        template = tuple(
            TemplateTriple(rnd.choice(bound), rnd.choice(self.preds), rnd.choice(bound))
            for _ in range(rnd.randrange(1, 3)))
        return RuleEntry(rule_id, RuleQuery(rule_id, template, where))

    def graph(self) -> Graph:
        rnd = self.rnd
        return Graph(Triple(rnd.choice(self.iris), rnd.choice(self.preds), rnd.choice(self.iris))
                     for _ in range(rnd.randrange(6, 16)))


def test_fixpoint_matches_oracle_on_random_rules(monkeypatch):
    from normgraph import engine

    rnd = random.Random(4711)
    generate = _Rules(rnd)
    full = []
    evaluate = engine.evaluate_where
    monkeypatch.setattr(engine, "evaluate_where",
                        lambda g, gp, *args: full.append(1) or evaluate(g, gp, *args))
    evaluations = 0
    for case in range(300):
        rules = RuleSet(generate.rule(f"r{k}") for k in range(rnd.randrange(2, 5)))
        want = _assert_same_as_oracle(case, generate.graph(), rules)
        evaluations += len(want[4])
    # the skip is exercised: it saves more than 300 of ~1,800 evaluations
    assert evaluations - len(full) > 300, (len(full), evaluations)

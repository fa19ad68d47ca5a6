"""The engine's fixpoint against the frozen naive one in oracle.py."""

import cProfile
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads
from normgraph.engine import (
    MaxIterationsExceeded, RuleEntry, RuleSet, load_rules, run_fixpoint, strip_rules,
)
from normgraph.model import Graph, Iri, Literal, RDF_TYPE, SOA_NS, Triple, graph_union
from normgraph.ontology import FIXTURES, builtin_ruleset, fixture, vocabulary
from normgraph.rules import (
    Bind, Comparison, Filter, GroupPattern, NotExists, RuleQuery, RuleSyntaxError,
    TriplePattern, Union, Variable, parse_rule,
)
from normgraph.turtle import parse_turtle, serialize_turtle


def _pipeline(graphs, layers):
    """The data and rules `normgraph check` hands to the fixpoint."""
    merged = graph_union(vocabulary(), *graphs)
    return strip_rules(merged), builtin_ruleset(set(layers)) + load_rules(merged)


def _outcome(fixpoint, data, rules):
    try:
        result = fixpoint(data, rules)
    except MaxIterationsExceeded as err:
        # the frozen oracle names no rule; the engine's naming is tested apart
        return ("raised", err.limit, err.last_added)
    trace = [(r.iteration, r.rule_id, r.solutions, r.added) for r in result.trace]
    return ("ok", serialize_turtle(result.graph), result.graph.triples(),
            result.provenance, trace, result.iterations_used)


def _branch_scoped(rules: RuleSet) -> RuleSet:
    """The rules with each WHERE group as `oracle.branch_scoped` rewrites it."""
    return RuleSet(RuleEntry(e.rule_id, dataclasses.replace(
        e.query, where_clause=oracle.branch_scoped(e.query.where_clause)), e.layer)
        for e in rules)


def _assert_same_as_oracle(name, data, rules):
    want = _outcome(oracle.run_fixpoint, data, _branch_scoped(rules))
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
    for seed in (1, 2):
        for inp in workloads.cash_card_scale(seed, 3) + workloads.family_mix(seed, 2):
            graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
            want = _assert_same_as_oracle((seed, inp.name), *_pipeline(graphs, inp.layers))
            assert want[0] == "ok" and want[-1] >= 2, (seed, inp.name)



def test_a_warm_fixpoint_builds_only_the_triples_it_infers():
    # a gate on work, not seconds: the `Triple`s built in a warm run, counted
    # under cProfile by code object, against the inferred ones (1,144 built
    # for 836 on cash-card-norms + 10 when a triple was built to be looked up)
    for inp in workloads.cash_card_scale(1, 10) + workloads.family_mix(1, 2):
        graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
        data, rules = _pipeline(graphs, inp.layers)
        run_fixpoint(data, rules)
        profile = cProfile.Profile()
        result = profile.runcall(run_fixpoint, data, rules)
        built = sum(entry.callcount for entry in profile.getstats()
                    if entry.code is Triple.__init__.__code__)
        assert built == len(result.provenance) > 0, inp.name


def test_cached_rules_stay_right_as_the_graph_they_ran_on_changes():
    # the same rule entries, with the plans and wake tests kept from the
    # run before, on a larger graph, a smaller one and the larger one again
    entries = None
    for agents in (3, 1, 3):
        (inp,) = workloads.cash_card_scale(7, agents)
        graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
        data, rules = _pipeline(graphs, inp.layers)
        if entries is not None:
            assert len(rules) == len(entries)
            assert all(mine is kept for mine, kept in zip(rules, entries))
        entries = list(rules)
        want = _assert_same_as_oracle(agents, data, rules)
        assert want[0] == "ok" and want[-1] >= 2, agents


def test_the_work_of_a_check_does_not_depend_on_the_hash_seed():
    # the sweep's line at 10 agents: its pattern-step calls and the digest of its graph
    root = Path(__file__).resolve().parents[1]
    sweep = [sys.executable, str(root / "tools" / "cash_card_sweep.py"), "--agents", "10"]
    runs = []
    for hash_seed in ("0", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
        run = json.loads(subprocess.run(sweep, env=env, capture_output=True, text=True,
                                        check=True).stdout)
        del run["seconds"]
        runs.append(run)
    assert runs[0]["extend_calls"] > 0
    assert runs[0] == runs[1]


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


def test_a_variable_the_parent_binds_after_a_not_exists_is_shared_with_it():
    # ?x two NOT EXISTS deep is the ?x the top level binds after the group,
    # ex:x: the rule gains a solution when `give` adds `ex:c ex:r ex:x`, and
    # none when it adds `ex:c ex:r ex:z`, which has no ex:s edge
    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:a ex:p ex:b; ex:q ex:c. ex:x ex:s ex:a. ex:c ex:trigger ex:go.""")
    for value, solutions in (("x", 1), ("z", 0)):
        rules = _rules(
            out="""CONSTRUCT{?a ex:out ?b}
                WHERE{?a ex:p ?b. NOT EXISTS{?a ex:q ?c. NOT EXISTS{?c ex:r ?x}} ?x ex:s ?a}""",
            give=f"CONSTRUCT{{?c ex:r ex:{value}}} WHERE{{?c ex:trigger ex:go}}")
        result = run_fixpoint(data, rules)
        assert [(r.iteration, r.rule_id, r.solutions, r.added) for r in result.trace][2] \
            == (2, "out", solutions, solutions)
        _assert_same_as_oracle(("bound after", value), data, rules)


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


def _full_evaluations(monkeypatch):
    """The WHERE groups the engine evaluates in full, one entry per call."""
    from normgraph import engine

    full = []
    evaluate = engine.evaluate_where
    monkeypatch.setattr(engine, "evaluate_where",
                        lambda g, gp, *args: full.append(gp) or evaluate(g, gp, *args))
    return full


def test_every_catalog_rule_has_a_wake_test_and_those_with_union_or_bind_are_skipped(
        monkeypatch):
    catalog = list(builtin_ruleset())
    assert len(catalog) == 38 and all(e.wake is not None for e in catalog)
    # a top-level UNION or a BIND used to make a rule run in full every time
    binds = {e.rule_id for e in catalog if any(isinstance(el, Bind) for branch in
                                                e.query.where_clause.branches
                                                for el in branch)}
    unions = {e.rule_id for e in catalog
              if any(isinstance(el, Union) for el in e.query.where_clause.elements)}
    assert len(binds) == 2 and len(binds | unions) == 15
    assert {"ds-rexist", "op-to-not-ob-self"} <= unions
    # a branch that rebinds a variable, once kept in full evaluation, is a syntax error
    with pytest.raises(RuleSyntaxError, match=r"variable \?y is already bound"):
        _rules(rebind="""CONSTRUCT{?x ex:q ex:a}
            WHERE{{?x ex:p ?y BIND(ex:b AS ?y)} UNION {?x ex:r ex:a}}""")

    full = _full_evaluations(monkeypatch)
    data, user_rules, _ = fixture("cash-card-norms")
    data, rules = _pipeline([data, user_rules], ("pragmatics", "dts", "compliance"))
    result = run_fixpoint(data, rules)
    skipped = {e.rule_id for e in rules
               if sum(gp is e.query.where_clause for gp in full) < result.iterations_used}
    assert skipped & (binds | unions), skipped


def test_a_not_exists_inside_a_top_level_union_branch_is_probed_again():
    # `u` keeps ex:X until `two` adds `ex:X ex:r ex:a` in iteration 2; from
    # iteration 3 on its left branch's NOT EXISTS fails
    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:X ex:p ex:a; ex:t ex:go.""")
    rules = _rules(
        u="""CONSTRUCT{?x ex:q ex:a}
            WHERE{{?x ex:p ex:a NOT EXISTS{?x ex:r ex:a}} UNION {?x ex:s ex:a}}""",
        one="CONSTRUCT{?x ex:m ex:a} WHERE{?x ex:t ex:go}",
        two="CONSTRUCT{?x ex:r ex:a} WHERE{?x ex:m ex:a}")
    want = _assert_same_as_oracle("u", data, rules)
    assert [record for record in want[4] if record[1] == "u"] \
        == [(1, "u", 1, 1), (2, "u", 1, 0), (3, "u", 0, 0)]


def test_no_guard_matched_keeps_the_solutions_without_probes(monkeypatch):
    from normgraph import engine, rules

    probes, in_kept = [], []
    evaluate, kept = rules.evaluate_where, engine.WakeTest.kept

    def counted_evaluate(g, gp, seed=None, limit=None):
        probes.extend(in_kept)
        return evaluate(g, gp, seed, limit)

    def counted_kept(self, *args):
        in_kept.append(1)
        try:
            return kept(self, *args)
        finally:
            in_kept.pop()

    monkeypatch.setattr(rules, "evaluate_where", counted_evaluate)
    monkeypatch.setattr(engine.WakeTest, "kept", counted_kept)
    (inp,) = workloads.cash_card_scale(1, 3)
    graphs = [parse_turtle(text, scope=f"in{i}") for i, text in enumerate(inp.texts)]
    run_fixpoint(*_pipeline(graphs, inp.layers))
    # probing every kept solution of a rule with a NOT EXISTS: 136 probes
    assert 0 < len(probes) < 90, len(probes)


def _full_evaluation_sizes(monkeypatch, rule_id, rules):
    """The graph sizes at which the engine evaluates the rule in full."""
    from normgraph import engine

    where = next(e.query.where_clause for e in rules if e.rule_id == rule_id)
    sizes = []
    evaluate = engine.evaluate_where
    monkeypatch.setattr(engine, "evaluate_where", lambda g, gp, *args:
                        (gp is where and sizes.append(len(g))) or evaluate(g, gp, *args))
    return sizes


def test_an_anchor_beside_a_pattern_with_no_match_is_not_woken_until_it_has_one(monkeypatch):
    # `out`'s anchor `?x ex:p ?y` matches what `one` adds in iteration 1,
    # but `?w ex:q ?z` has no match until `two` adds one in iteration 2: the
    # rule is skipped in iteration 2 and gains its solutions in iteration 3
    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:a ex:p ex:b; ex:go ex:x.""")
    rules = _rules(
        out="CONSTRUCT{?x ex:out ?z} WHERE{?x ex:p ?y. ?w ex:q ?z}",
        one="CONSTRUCT{?x ex:p ex:c} WHERE{?x ex:go ex:x}",
        two="CONSTRUCT{?x ex:q ex:d} WHERE{?x ex:p ex:c}")
    full = _full_evaluation_sizes(monkeypatch, "out", rules)
    want = _assert_same_as_oracle("anchor", data, rules)
    assert [record for record in want[4] if record[1] == "out"] \
        == [(1, "out", 0, 0), (2, "out", 0, 0), (3, "out", 2, 1), (4, "out", 2, 0)]
    # the graph holds 2, 3, 4 and 5 triples at the start of iterations 1-4;
    # the engine's run (the oracle has its own evaluator) evaluated `out` in
    # full in iterations 1 and 3 only
    assert full == [2, 4], full


def test_an_added_triple_wakes_an_anchor_only_if_it_holds_its_equal_pairs_and_neighbours():
    # per rule body: what its anchors read, an added triple that wakes the
    # rule, and near misses that fail one equal pair or one neighbour
    from normgraph import engine

    a, b, c, p, q, r, s = (Iri(EX + x) for x in "abcpqrs")
    graph = Graph([Triple(a, p, a), Triple(a, p, b), Triple(b, p, a), Triple(b, p, b),
                   Triple(b, q, c), Triple(r, RDF_TYPE, Iri(EX + "Role")),
                   Triple(a, r, b), Triple(a, s, b)])
    cases = {
        "?x ex:p ?x": ("equal", Triple(a, p, a), [Triple(a, p, b)]),
        "ex:a ex:p ?y": ("equal", Triple(a, p, b), [Triple(b, p, b)]),
        "?x ex:p ?y. ?y ex:q ?z": ("per_triple", Triple(a, p, b), [Triple(b, p, a)]),
        "?x ex:p ?y. ?y ex:q ex:c": ("per_triple", Triple(a, p, b), [Triple(b, p, a)]),
        "?x ex:p ?x. ?x ex:q ?z": ("per_triple", Triple(b, p, b),
                                   [Triple(a, p, a), Triple(a, p, b)]),
        "?x ?p ?y. ?p a ex:Role": ("per_predicate", Triple(a, r, b), [Triple(a, s, b)]),
    }
    for body, (reads, wakes, misses) in cases.items():
        where = parse_rule("t", f"CONSTRUCT{{}}WHERE{{{body}}}", {"ex": EX}).where_clause
        anchors = engine._wake_test(where).anchors
        assert any(getattr(anchor, reads) for anchor in anchors), body
        assert engine._matches(anchors, engine._Added(graph, [wakes])), body
        for added in misses:
            assert not engine._matches(anchors, engine._Added(graph, [added])), (body, added)
            assert engine._matches(anchors, engine._Added(graph, [added, wakes])), (body, added)


def test_a_guard_beside_a_pattern_with_no_match_probes_only_once_it_has_one(monkeypatch):
    # `ok`'s NOT EXISTS holds `?y ex:bad ?v` and `?u ex:flag ex:on`. `bad`
    # adds a match of the first in iteration 1 while the second has none:
    # the solution is kept without a probe. `flag` adds a match of the second
    # in iteration 2, and in iteration 3 the probe drops the kept solution
    from normgraph import rules as rules_module

    data = parse_turtle(f"""@prefix ex: <{EX}>.
        ex:a ex:p ex:b; ex:go ex:x.""")
    rules = _rules(
        ok="""CONSTRUCT{?x ex:ok ex:yes}
            WHERE{?x ex:p ?y. NOT EXISTS{?y ex:bad ?v. ?u ex:flag ex:on}}""",
        bad="CONSTRUCT{?y ex:bad ex:z} WHERE{?x ex:p ?y. ?x ex:go ex:x}",
        flag="CONSTRUCT{?x ex:flag ex:on} WHERE{?y ex:bad ex:z. ?x ex:go ex:x}")
    probes = []  # the graph size at each NOT EXISTS probe
    evaluate = rules_module.evaluate_where

    def counted_evaluate(g, gp, seed=None, limit=None):
        if limit == 1:
            probes.append(len(g))
        return evaluate(g, gp, seed, limit)

    monkeypatch.setattr(rules_module, "evaluate_where", counted_evaluate)
    full = _full_evaluation_sizes(monkeypatch, "ok", rules)
    result = run_fixpoint(data, rules)
    assert [(r.iteration, r.solutions, r.added) for r in result.trace if r.rule_id == "ok"] \
        == [(1, 1, 1), (2, 1, 0), (3, 0, 0)]
    assert full == [2], full
    # iterations 1-3 start at 2, 4 and 5 triples: probed by the full
    # evaluation, then only in iteration 3 by the kept solution's check
    assert probes == [2, 5], probes
    monkeypatch.undo()
    _assert_same_as_oracle("guard", data, rules)


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
            TriplePattern(rnd.choice(bound), rnd.choice(self.preds), rnd.choice(bound))
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
    # the skip is exercised: it saves 510 of 1,810 evaluations
    assert evaluations - len(full) > 300, (len(full), evaluations)


class _UnionRules(_Rules):
    """Random rules like the catalog's: a pattern binding ?a and ?b, then a
    UNION of two or three branches, and the template `?a p ?b`. Each branch
    has a NOT EXISTS, often on the template's own triple, and often a
    FILTER and a BIND of ?w, which no step before it binds, followed by a
    pattern that joins on it."""

    def branch(self, out: TriplePattern) -> GroupPattern:
        rnd = self.rnd
        w = Variable("w")
        elements = [self.pattern() for _ in range(rnd.randrange(1, 3))]
        inner = GroupPattern((out,)) if rnd.random() < 0.6 else self.group(1)
        elements.insert(rnd.randrange(len(elements) + 1), NotExists(inner))
        if rnd.random() < 0.5:
            elements.insert(rnd.randrange(len(elements) + 1), Filter(Comparison(
                rnd.choice(self.variables + [w]), rnd.random() < 0.5, self.term(0.5))))
        if rnd.random() < 0.5:
            at = rnd.randrange(len(elements) + 1)
            elements[at:at] = [Bind(rnd.choice(self.iris), w),
                               TriplePattern(self.term(0.8), rnd.choice(self.preds), w)]
        return GroupPattern(tuple(elements))

    def rule(self, rule_id: str) -> RuleEntry:
        rnd = self.rnd
        a, b = rnd.sample(self.variables, 2)
        out = TriplePattern(a, rnd.choice(self.preds), b)
        union = Union(self.branch(out), self.branch(out))
        if rnd.random() < 0.3:
            union = Union(GroupPattern((union,)), self.branch(out))
        where = GroupPattern((TriplePattern(a, rnd.choice(self.preds), b), union))
        return RuleEntry(rule_id, RuleQuery(rule_id, (TriplePattern(a, out.predicate, b),),
                                            where))


def test_fixpoint_matches_oracle_on_random_rules_with_top_level_union(monkeypatch):
    from normgraph import engine

    rnd = random.Random(1729)
    generate = _UnionRules(rnd)
    dropped = []
    kept = engine.WakeTest.kept

    def counted_kept(self, graph, solutions, added):
        out = kept(self, graph, solutions, added)
        if out is not None:
            dropped.append(len(solutions) - len(out))
        return out

    monkeypatch.setattr(engine.WakeTest, "kept", counted_kept)
    full = _full_evaluations(monkeypatch)
    evaluations = 0
    for case in range(250):
        rules = RuleSet(generate.rule(f"r{k}") for k in range(rnd.randrange(2, 5)))
        assert all(e.wake is not None for e in rules)
        want = _assert_same_as_oracle(case, generate.graph(), rules)
        evaluations += len(want[4])
    # the skip and the probes of a branch's NOT EXISTS are both exercised:
    # 152 solutions dropped, 162 of 1,296 evaluations saved
    assert sum(dropped) >= 60 and evaluations - len(full) > 80, (sum(dropped), len(full),
                                                                 evaluations)


def test_string_literals_in_rules_match_and_make_the_values_they_escape():
    ex = "https://example.org/"
    label, tag = Iri(ex + "label"), Iri(ex + "tag")
    s1, s2, s3 = Iri(ex + "s1"), Iri(ex + "s2"), Iri(ex + "s3")
    data = Graph([Triple(s1, label, Literal("a\nb")),
                  Triple(s2, label, Literal('say "hi" \\o/')),
                  Triple(s3, label, Literal("two\nlines"))])
    texts = {
        "short": r'CONSTRUCT{?s <%stag> "t\tq\"\\"}WHERE{?s <%slabel> "a\nb"}' % (ex, ex),
        "quoted": r'CONSTRUCT{?s <%stag> "r\r"}WHERE{?s <%slabel> "say \"hi\" \\o/"}' % (ex, ex),
        "long": 'CONSTRUCT{?s <%stag> """a "long" \\n\none"""}'
                'WHERE{?s <%slabel> """two\nlines"""}' % (ex, ex),
    }
    rules = RuleSet(RuleEntry(rule_id, parse_rule(rule_id, text)) for rule_id, text in texts.items())
    _assert_same_as_oracle("strings", data, rules)
    got = run_fixpoint(data, rules).graph
    assert set(got.match_iter(p=tag)) == {
        Triple(s1, tag, Literal('t\tq"\\')),
        Triple(s2, tag, Literal("r\r")),
        Triple(s3, tag, Literal('a "long" \\n\none')),
    }

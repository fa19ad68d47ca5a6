"""The WHERE evaluator against the frozen naive one in oracle.py, the
existence probe, and the graph's two-level indexes."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from cash_card_sweep import _extend_calls
from normgraph import rules
from normgraph.engine import load_rules
from normgraph.model import (
    BlankNode, Graph, Iri, Literal, RDF_TYPE, SOA_NS, Triple, graph_union,
)
from normgraph.ontology import FIXTURES, builtin_ruleset, fixture, vocabulary
from normgraph.rules import (
    Bind, BindConflict, Comparison, ExprAnd, ExprOr, Filter, GroupPattern,
    NotExists, RuleSyntaxError, TriplePattern, Union, Variable, evaluate_where, parse_rule,
    rebinds,
)
from normgraph.turtle import parse_turtle
from conftest import run_fixture

V = Variable
EX = "https://example.org/"


def _outcome(evaluate, *args, **kwargs):
    """("ok", solutions) or ("raised", exception type name, message)."""
    try:
        return ("ok", evaluate(*args, **kwargs))
    except BindConflict as err:
        return ("raised", type(err).__name__, str(err))


def _assert_probe_agrees(g, gp, seed, want):
    probe = _outcome(evaluate_where, g, gp, seed, limit=1)
    if want[0] == "raised":
        assert probe == want
    else:
        assert probe[0] == "ok"
        assert len(probe[1]) == min(1, len(want[1]))
        assert all(b in want[1] for b in probe[1])


class _Groups:
    """Random groups over a small vocabulary: triple patterns, UNION whose
    branches bind different variables, BIND after UNION, FILTER over
    variables that may be unbound, and NOT EXISTS nested two deep."""

    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.iris = [Iri(f"{EX}i{k}") for k in range(4)]
        self.preds = [Iri(f"{EX}p{k}") for k in range(2)]
        self.variables = [V(f"v{k}") for k in range(5)]

    def term(self, var_prob=0.6):
        rnd = self.rnd
        return rnd.choice(self.variables) if rnd.random() < var_prob else rnd.choice(self.iris)

    def pattern(self):
        rnd = self.rnd
        pred = rnd.choice(self.variables) if rnd.random() < 0.2 else rnd.choice(self.preds)
        return TriplePattern(self.term(), pred, self.term())

    def comparison(self):
        rnd = self.rnd
        # v4 and w9 are rarely or never bound: FILTER over an unbound variable
        left = rnd.choice(self.variables + [V("w9")])
        right = self.term(0.5)
        return Comparison(left, rnd.random() < 0.5, right)

    def expr(self):
        rnd = self.rnd
        kind = rnd.randrange(4)
        if kind == 0:
            return ExprAnd((self.comparison(), self.comparison()))
        if kind == 1:
            return ExprOr((self.comparison(), self.comparison()))
        return self.comparison()

    def group(self, depth: int) -> GroupPattern:
        rnd = self.rnd
        elements = [self.pattern() for _ in range(rnd.randrange(0 if depth else 1, 3))]
        if rnd.random() < 0.4:
            shared = self.pattern()
            tail = TriplePattern(shared.object, rnd.choice(self.preds), V("v3"))
            left = GroupPattern((shared, tail))
            right = GroupPattern((TriplePattern(shared.object, shared.predicate,
                                                shared.subject),))
            elements.append(Union(left, right))
            if rnd.random() < 0.3:
                # binds ?v3 after the right branch too: a solution of each
                # branch can become the same solution
                elements.append(tail)
            if rnd.random() < 0.5:
                # ?v3 is bound by the left branch only; ?v4 is fresh
                elements.append(Bind(rnd.choice(self.iris), rnd.choice([V("v3"), V("v4")])))
        if depth < 2 and rnd.random() < 0.6:
            elements.append(NotExists(self.group(depth + 1)))
        if rnd.random() < 0.4:
            elements.append(Filter(self.expr()))
        if rnd.random() < 0.3:
            elements.append(self.pattern())
        if depth and rnd.random() < 0.1:
            elements.append(Bind(rnd.choice(self.iris), rnd.choice(self.variables)))
        return GroupPattern(tuple(elements))

    def graph(self) -> Graph:
        rnd = self.rnd
        g = Graph()
        for _ in range(rnd.randrange(2, 16)):
            g.insert(Triple(rnd.choice(self.iris), rnd.choice(self.preds), rnd.choice(self.iris)))
        return g

    def seed(self):
        if self.rnd.random() < 0.3:
            return {self.rnd.choice(self.variables): self.rnd.choice(self.iris)}
        return None


def test_evaluator_matches_oracle_on_random_groups():
    rnd = random.Random(8128)
    groups = _Groups(rnd)
    seen = {"nonempty": 0, "empty": 0, "raised": 0}
    for case in range(800):
        g, gp, seed = groups.graph(), groups.group(0), groups.seed()
        rebound = rebinds(gp, seed or ())
        if rebound:
            # a BIND of a bound variable, which only a group built by hand
            # can hold, raises before any search, whatever the graph holds
            named = {f"variable ?{el.var.name} is already bound" for el in rebound}
            for got in (_outcome(evaluate_where, g, gp, seed),
                        _outcome(evaluate_where, g, gp, seed, limit=1)):
                assert got[:2] == ("raised", "BindConflict") and got[2] in named, f"case {case}"
            seen["raised"] += 1
            continue
        want = _outcome(oracle.evaluate_where, g, gp, seed)
        assert want[0] == "ok", f"case {case}: {gp} seed={seed}"
        got = _outcome(evaluate_where, g, gp, seed)
        assert got == want, f"case {case}: {gp} seed={seed}"
        _assert_probe_agrees(g, gp, seed, want)
        seen["nonempty" if want[1] else "empty"] += 1
    # the generator must reach every outcome often enough to mean something
    assert min(seen.values()) >= 40, seen


def test_bind_after_union_conflicts_exactly_like_oracle():
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    g = Graph([Triple(a, p, b), Triple(b, q, c), Triple(b, p, a)])
    union = Union(GroupPattern((TriplePattern(V("x"), p, V("y")),)),
                  GroupPattern((TriplePattern(V("x"), q, V("z")),)))
    conflicting = GroupPattern((union, Bind(c, V("y"))))
    for gp in (conflicting, GroupPattern((NotExists(conflicting),))):
        want = _outcome(oracle.evaluate_where, g, gp)
        assert want[0] == "raised"
        assert _outcome(evaluate_where, g, gp) == want
        assert _outcome(evaluate_where, g, gp, limit=1) == want
    fresh = GroupPattern((union, Bind(c, V("w"))))
    assert evaluate_where(g, fresh) == oracle.evaluate_where(g, fresh)
    assert len(evaluate_where(g, fresh)) == 3


def test_union_branches_that_bind_different_variables_give_each_solution_once():
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    g = Graph([Triple(a, p, b), Triple(b, q, c)])
    xy, yz = TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), q, V("z"))
    gp = GroupPattern((Union(GroupPattern((xy, yz)), GroupPattern((xy,))), yz))
    want = [{V("x"): a, V("y"): b, V("z"): c}]
    assert oracle.evaluate_where(g, gp) == want
    assert evaluate_where(g, gp) == want


def _assert_rebinds_at(where: str, name: str, at: str):
    """Parsing WHERE{`where`} fails at the first `at`: ?`name` is bound there."""
    text = "CONSTRUCT{}WHERE{" + where + "}"
    with pytest.raises(RuleSyntaxError, match=rf"variable \?{name} is already bound") as err:
        parse_rule("rebind", text, {"ex": EX})
    assert err.value.pos == text.index(at) and err.value.rule_id == "rebind"


def test_bind_conflict_is_raised_at_the_first_element_any_solution_conflicts_at():
    # the left branch rebinds ?x at the second BIND; the right one ?z at the first
    body = "{?x ex:p ?y} UNION {?z ex:p ?w} BIND(ex:a AS ?z) BIND(ex:b AS ?x)"
    for where in (body, f"NOT EXISTS{{{body}}}", f"{{{body}}} UNION {{{body}}}"):
        _assert_rebinds_at(where, "z", "BIND(ex:a")


def test_two_unions_in_a_row_raise_at_the_smallest_written_place_unlike_the_oracle():
    # element by element, the second UNION would run in full for the first
    # UNION's left solution, whose right branch rebinds ?u; the parser names
    # the BIND of ?w, written first
    _assert_rebinds_at("{?x ex:p ?u} UNION {?x ex:q ?w} "
                       "{?x ex:r ?k. BIND(ex:c AS ?w)} UNION {BIND(ex:c AS ?u)}",
                       "w", "BIND(ex:c AS ?w)")


def _fixture_graphs():
    for name, info in sorted(FIXTURES.items()):
        data, user_rules, _ = fixture(name)
        if info.expects_error:
            # diverges by design, so there is no final graph: use its input
            yield name, graph_union(vocabulary(), data), user_rules
            continue
        yield name, run_fixture(name).result.graph, user_rules


def test_every_rule_matches_oracle_on_every_fixture_graph():
    rules = list(builtin_ruleset())
    checked = 0
    for name, graph, user_rules in _fixture_graphs():
        for entry in rules + list(load_rules(user_rules)):
            where = entry.query.where_clause
            want = oracle.evaluate_where(graph, where)
            assert evaluate_where(graph, where) == want, (name, entry.rule_id)
            _assert_probe_agrees(graph, where, None, ("ok", want))
            checked += bool(want)
    assert checked >= 40


def test_not_exists_probe_runs_1200_flat_patterns_without_recursion():
    p = Iri(EX + "p")
    start = Iri(EX + "Start")
    g = Graph()
    for head, length in (("n", 1200), ("m", 1199)):
        g.insert(Triple(Iri(f"{EX}{head}0"), RDF_TYPE, start))
        for k in range(length):
            g.insert(Triple(Iri(f"{EX}{head}{k}"), p, Iri(f"{EX}{head}{k + 1}")))
    chain = GroupPattern(tuple(TriplePattern(V(f"x{k}"), p, V(f"x{k + 1}"))
                               for k in range(1200)))
    gp = GroupPattern((TriplePattern(V("x0"), RDF_TYPE, start), NotExists(chain)))
    # only the start of the chain that is one edge short survives the guard
    assert evaluate_where(g, gp) == [{V("x0"): Iri(EX + "m0")}]


def test_plans_are_reused_until_the_graph_changes(monkeypatch):
    p = Iri(EX + "p")
    g = Graph([Triple(Iri(EX + "a"), p, Iri(EX + "b"))])
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), p, V("z"))))
    planned = []
    original = rules._order
    monkeypatch.setattr(rules, "_order",
                        lambda *args: planned.append(1) or original(*args))
    evaluate_where(g, gp)
    evaluate_where(g, gp)
    assert len(planned) == 1
    evaluate_where(g, gp, {V("x"): Iri(EX + "a")})
    assert len(planned) == 2  # another set of bound variables
    g.insert(Triple(Iri(EX + "b"), p, Iri(EX + "c")))
    assert evaluate_where(g, gp) == oracle.evaluate_where(g, gp)
    assert len(planned) == 3


# --- planning whole groups ------------------------------------------------------


def _fanned_graph(rare, *extra):
    """Many `p` triples and one `rare` triple, so the planner wants the
    pattern over `rare` first, plus the `extra` triples."""
    p = Iri(EX + "p")
    g = Graph([Triple(Iri(f"{EX}s{k}"), p, Iri(f"{EX}o{k}")) for k in range(20)])
    g.insert(Triple(Iri(EX + "a"), p, Iri(EX + "b")))
    g.insert(Triple(Iri(EX + "a"), rare, Iri(EX + "c")))
    g.update(extra)
    return g


def _steps(g, gp, seeded=()):
    return rules._plan(g, gp, seeded)[0]


def test_filter_before_the_pattern_that_binds_its_variable_sees_its_value():
    b, c, p, q = (Iri(EX + x) for x in "bcpq")
    g = _fanned_graph(q)
    first = TriplePattern(V("x"), p, V("y"))
    binds_z = TriplePattern(V("x"), q, V("z"))
    found = [{V("x"): Iri(EX + "a"), V("y"): b, V("z"): c}]
    # ?z is unbound where the FILTER is written, but the FILTER applies to
    # the whole branch: it sees ?z = :c, bound by the pattern after it
    z_first = Filter(ExprOr((Comparison(V("z"), False, c), Comparison(V("y"), False, b))))
    y_first = Filter(ExprOr((Comparison(V("y"), False, b), Comparison(V("z"), False, c))))
    rejects = Filter(Comparison(V("z"), True, c))
    for guard, want in ((z_first, found), (y_first, found), (rejects, [])):
        gp = GroupPattern((first, guard, binds_z))
        assert oracle.evaluate_where(g, oracle.branch_scoped(gp)) == want
        assert evaluate_where(g, gp) == want
        assert evaluate_where(g, gp, limit=1) == want
        steps = _steps(g, gp)
        assert steps.index(guard) > steps.index(binds_z)
    # scoped to where it is written, the first FILTER would reject at ?z
    assert oracle.evaluate_where(g, GroupPattern((first, z_first, binds_z))) == []


def test_a_guard_before_the_pattern_that_binds_its_variables_gives_sparqls_one_solution():
    a, b, c, p = (Iri(EX + x) for x in "abcp")
    g = Graph([Triple(a, p, b), Triple(c, p, c)])
    want = [{V("x"): a, V("y"): b}]
    for where in ("FILTER(?x != ?y) ?x ex:p ?y", "NOT EXISTS{?y ex:p ?y} ?x ex:p ?y"):
        gp = parse_rule("r", f"CONSTRUCT{{?x ex:q ?y}} WHERE{{{where}}}", {"ex": EX}).where_clause
        assert evaluate_where(g, gp) == want, where
        assert evaluate_where(g, gp, limit=1) == want, where
        assert oracle.evaluate_where(g, oracle.branch_scoped(gp)) == want, where


def test_not_exists_is_probed_with_the_value_a_pattern_after_it_binds():
    b, c, d, q, r = (Iri(EX + x) for x in "bcdqr")
    first = TriplePattern(V("x"), Iri(EX + "p"), V("y"))
    # ?w is bound by `?x q ?w`, written after the guard: it is :c in the probe
    guard = NotExists(GroupPattern((TriplePattern(V("y"), r, V("w")),)))
    binds_w = TriplePattern(V("x"), q, V("w"))
    gp = GroupPattern((first, guard, binds_w))
    # `:b :r :d` does not reject the one binding, which has ?w = :c; `:b :r :c` does
    for extra, solutions in ((Triple(b, r, d), 1), (Triple(b, r, c), 0)):
        g = _fanned_graph(q, extra)
        assert len(evaluate_where(g, GroupPattern((first, binds_w)))) == 1
        want = oracle.evaluate_where(g, oracle.branch_scoped(gp))
        assert len(want) == solutions
        assert evaluate_where(g, gp) == want
        assert evaluate_where(g, gp, limit=1) == want
        steps = _steps(g, gp)
        assert steps.index(first) < steps.index(guard)
        assert steps.index(binds_w) < steps.index(guard)
    # scoped to where it is written, `:b :r :d` would reject it
    assert oracle.evaluate_where(_fanned_graph(q, Triple(b, r, d)), gp) == []


def test_a_not_exists_bind_of_a_variable_a_pattern_after_it_binds_conflicts():
    a, b, d, q, r = (Iri(EX + x) for x in "abdqr")
    common, rare = TriplePattern(V("x"), Iri(EX + "p"), V("z")), TriplePattern(V("x"), r, V("y"))
    # ?y is unbound where the guard is written, but the guard is probed under
    # the branch's solution, which binds ?y: its BIND rebinds it
    bind = Bind(d, V("y"))
    guard = NotExists(GroupPattern((TriplePattern(V("x"), q, V("z")), bind)))
    gp = GroupPattern((common, guard, rare))
    assert rebinds(gp) == [bind]
    conflict = ("raised", "BindConflict", "variable ?y is already bound")
    # the frozen evaluator raises once a binding reaches the BIND, which
    # needs `:a :q :b`; the engine raises before any search, whatever the
    # graph holds
    unreached, reached = _fanned_graph(r), _fanned_graph(r, Triple(a, q, b))
    assert len(oracle.evaluate_where(unreached, oracle.branch_scoped(gp))) == 1
    assert _outcome(oracle.evaluate_where, reached, oracle.branch_scoped(gp)) == conflict
    for g in (unreached, reached):
        assert _outcome(evaluate_where, g, gp) == conflict
        assert _outcome(evaluate_where, g, gp, limit=1) == conflict
    _assert_rebinds_at("?x ex:p ?z NOT EXISTS{?x ex:q ?z BIND(ex:d AS ?y)} ?x ex:r ?y",
                       "y", "BIND")


def test_a_variable_one_union_branch_binds_is_unbound_for_the_other():
    a, b, c, d, q, s, t = (Iri(EX + x) for x in "abcdqst")
    g = _fanned_graph(q, Triple(a, t, b), Triple(a, s, d))
    for k in range(20):
        g.insert(Triple(a, Iri(EX + "p"), Iri(f"{EX}o{k}")))
    union = Union(GroupPattern((TriplePattern(V("x"), t, V("y")),)),
                  GroupPattern((TriplePattern(V("x"), s, V("v")),)))
    y2 = TriplePattern(V("x"), Iri(EX + "p"), V("y2"))
    # only the right branch binds ?v, to :d: the left one's solutions have no
    # ?v, so the FILTER rejects them
    other = Filter(ExprAnd((Comparison(V("y2"), False, b), Comparison(V("v"), True, c))))
    gp = GroupPattern((union, y2, other))
    want = [{V("x"): a, V("v"): d, V("y2"): b}]
    assert oracle.evaluate_where(g, gp) == oracle.evaluate_where(g, oracle.branch_scoped(gp))
    assert oracle.evaluate_where(g, gp) == want
    assert evaluate_where(g, gp) == want
    # with `?x q ?v` after the FILTER, the left branch binds ?v to :c there,
    # and its FILTER sees that value; the right one's :d does not join
    guard = Filter(ExprAnd((Comparison(V("y2"), False, b), Comparison(V("v"), False, c))))
    binds_v = TriplePattern(V("x"), q, V("v"))
    gp = GroupPattern((union, y2, guard, binds_v))
    want = [{V("x"): a, V("y"): b, V("v"): c, V("y2"): b}]
    assert oracle.evaluate_where(g, gp) == []  # scoped to where it is written
    assert oracle.evaluate_where(g, oracle.branch_scoped(gp)) == want
    assert evaluate_where(g, gp) == want
    steps = _steps(g, gp)
    assert steps.index(guard) > steps.index(binds_v)


def test_a_bind_planned_after_the_pattern_that_binds_its_variable_joins_with_its_constant():
    a0, c, other, r = (Iri(EX + x) for x in ("a0", "c", "other", "r"))
    p0 = Iri(EX + "p0")
    g = Graph([Triple(a0, r, p0), Triple(a0, p0, c), Triple(a0, p0, other)]
              + [Triple(Iri(f"{EX}s{k}"), Iri(f"{EX}p{k % 8}"), Iri(f"{EX}o{k}"))
                 for k in range(40)])
    bind, last = Bind(c, V("x")), TriplePattern(V("a"), V("b"), V("x"))
    gp = GroupPattern((TriplePattern(V("a"), r, V("b")), bind, last))
    # with ?a and ?b bound, `?a ?b ?x` expects fewer matches than the BIND's one
    assert _steps(g, gp)[-2:] == (last, bind)
    want = [{V("a"): a0, V("b"): p0, V("x"): c}]
    assert oracle.evaluate_where(g, gp) == want
    assert evaluate_where(g, gp) == want
    assert evaluate_where(g, gp, limit=1) == want


def test_group_with_a_bind_keeps_its_guards_in_written_order():
    # a conflict no longer depends on what the graph holds or on the order
    # the group runs in: it is found where the rule is read
    _assert_rebinds_at("?x ex:p ?y NOT EXISTS{BIND(ex:a AS ?y)} ?x ex:q ?z", "y", "BIND")


def test_hot_rule_runs_its_filter_then_the_shallow_not_exists_first():
    hot = next(e.query.where_clause for e in builtin_ruleset({"pragmatics"})
               if e.rule_id == "not-from-thematic-divergence")
    guards = [el for el in hot.elements if isinstance(el, (Filter, NotExists))]
    assert len(guards) == 4
    filter_, two_deep, other_two_deep, one_deep = guards
    steps = _steps(run_fixture("cash-card-norms").result.graph, hot)
    assert sorted(map(id, steps)) == sorted(map(id, hot.elements))
    order = [steps.index(guard) for guard in (filter_, one_deep, two_deep, other_two_deep)]
    assert order == sorted(order)
    # the vocabulary holds no thematic divergence: the rule is dead there
    assert _steps(vocabulary(), hot) is None
    assert evaluate_where(vocabulary(), hot) == []
    # the analysis is kept on the group itself, one entry per seed set
    assert set(hot.analyses) == {frozenset()}


class _Interleaved(_Groups):
    """Groups whose FILTER and NOT EXISTS stand anywhere between the
    patterns, mentioning variables bound before, after or nowhere, with no
    BIND, so the planner may move every guard."""

    def group(self, depth: int) -> GroupPattern:
        rnd = self.rnd
        elements = [self.pattern() for _ in range(rnd.randrange(1 if depth else 2, 5))]
        for _ in range(rnd.randrange(0, 4)):
            if depth < 2 and rnd.random() < 0.5:
                guard = NotExists(self.group(depth + 1))
            else:
                guard = Filter(self.expr())
            elements.insert(rnd.randrange(len(elements) + 1), guard)
        if not depth and rnd.random() < 0.2:
            left = GroupPattern((self.pattern(),))
            elements.insert(rnd.randrange(len(elements) + 1),
                            Union(left, GroupPattern((self.pattern(),))))
        return GroupPattern(tuple(elements))


def test_evaluator_matches_oracle_with_guards_anywhere_in_the_group():
    rnd = random.Random(4242)
    groups = _Interleaved(rnd)
    moved = nonempty = 0
    for case in range(1000):
        g, gp, seed = groups.graph(), groups.group(0), groups.seed()
        # every guard applies to its whole branch: moved to the end of the
        # branch, it gives the same solutions
        scoped = oracle.branch_scoped(gp)
        want = oracle.evaluate_where(g, scoped, seed)
        assert evaluate_where(g, gp, seed) == want, f"case {case}: {gp} seed={seed}"
        assert evaluate_where(g, scoped, seed) == want, f"case {case}: {gp} seed={seed}"
        _assert_probe_agrees(g, gp, seed, ("ok", want))
        nonempty += bool(want)
        # a planned first branch whose order differs from its written one; a
        # dead branch (None) has no order, so it does not count
        steps = _steps(g, gp, seed or ())
        moved += steps is not None and steps != gp.branches[0]
    # 353 live plans moved: most random branches are dead
    assert nonempty >= 50 and moved >= 200, (nonempty, moved)


def test_planning_whole_groups_cuts_probes_and_pattern_extensions(monkeypatch):
    from normgraph.cli import run_pipeline

    data, user_rules, _ = fixture("cash-card-norms")
    scaled = data.copy()
    for i in range(10):
        scaled.insert(Triple(Iri(f"{SOA_NS}Human{i}"), RDF_TYPE, Iri(SOA_NS + "Human")))
    probes = 0
    evaluate = rules.evaluate_where

    def counted(g, gp, seed=None, limit=None):
        nonlocal probes
        probes += limit == 1
        return evaluate(g, gp, seed, limit)

    monkeypatch.setattr(rules, "evaluate_where", counted)
    layers = {"pragmatics", "dts", "compliance"}
    extends = _extend_calls(run_pipeline, [scaled, user_rules], layers)
    # planning each run between guards on its own: 7,414 probes and 44,801
    # extensions; whole groups: 5,170 and 17,521
    assert probes < 6300
    assert 0 < extends < 31000


def test_role_star_candidates_halve_the_probes_of_a_cash_card_check(monkeypatch):
    from normgraph.cli import run_pipeline

    data, user_rules, _ = fixture("cash-card-norms")
    scaled = data.copy()
    for i in range(10):
        scaled.insert(Triple(Iri(f"{SOA_NS}Human{i}"), RDF_TYPE, Iri(SOA_NS + "Human")))
    probes = 0
    evaluate = rules.evaluate_where

    def counted(g, gp, seed=None, limit=None):
        nonlocal probes
        probes += limit == 1
        return evaluate(g, gp, seed, limit)

    monkeypatch.setattr(rules, "evaluate_where", counted)
    run_pipeline([scaled, user_rules], {"pragmatics", "dts", "compliance"})
    # every same-class pair probed: 2,420; the role stars' holders only: 1,078
    assert probes <= 1200, probes


def test_least_total_bindings_order_cuts_probes_and_starts_the_hot_rule_at_its_statements(
        monkeypatch):
    from normgraph import engine
    from normgraph.cli import run_pipeline

    data, user_rules, _ = fixture("cash-card-norms")
    scaled = data.copy()
    for i in range(10):
        scaled.insert(Triple(Iri(f"{SOA_NS}Human{i}"), RDF_TYPE, Iri(SOA_NS + "Human")))
    hot = next(e.query.where_clause for e in builtin_ruleset({"pragmatics"})
               if e.rule_id == "not-from-thematic-divergence")
    probes = 0
    first_steps = {}  # the first step of each live plan of the hot rule, by graph size
    dead = []  # the graph sizes the hot rule has a pattern with no match at
    full = []  # the graph sizes the engine evaluates the hot rule in full at
    evaluate, plan = rules.evaluate_where, rules._plan
    evaluate_rule = engine.evaluate_where

    def counted_evaluate(g, gp, seed=None, limit=None):
        nonlocal probes
        probes += limit == 1
        return evaluate(g, gp, seed, limit)

    def recorded_plan(g, gp, seeded):
        steps = plan(g, gp, seeded)
        if gp is hot and steps[0] is None:
            dead.append(len(g))
        elif gp is hot:
            first_steps[len(g)] = steps[0][0]
        return steps

    monkeypatch.setattr(rules, "evaluate_where", counted_evaluate)
    monkeypatch.setattr(rules, "_plan", recorded_plan)
    monkeypatch.setattr(engine, "evaluate_where", lambda g, gp, *args:
                        (gp is hot and full.append(len(g))) or evaluate_rule(g, gp, *args))
    layers = {"pragmatics", "dts", "compliance"}
    extends = _extend_calls(run_pipeline, [scaled, user_rules], layers)
    # greedy from the cheapest first pattern: 5,060 probes and 16,777-17,173
    # extensions (the count moves with the hash seed)
    assert probes < 3000
    assert 0 < extends < 12500
    # the greedy took `?c a :Eventuality` first on the iteration-3 and
    # iteration-5 graphs (297 and 759 triples), at 16 and 71 times the
    # estimated bindings of starting from the `?r` statement star
    assert sorted(first_steps) == [297, 759], first_steps
    # before any thematic divergence is inferred the rule is dead: not planned
    assert dead == [77], dead
    # on the 165-triple graph every anchor of the rule sits beside a pattern
    # with no match, so the rule is not even evaluated there
    assert full == [77, 297, 759], full
    for size, step in first_steps.items():
        assert isinstance(step, TriplePattern) and step.subject == V("r"), (size, step)


def _variables_in(node) -> set:
    """Every variable anywhere inside an element, at any depth."""
    if isinstance(node, Variable):
        return {node}
    if isinstance(node, tuple):
        return set().union(*map(_variables_in, node))
    if dataclasses.is_dataclass(node):
        return set().union(*(_variables_in(getattr(node, f.name))
                             for f in dataclasses.fields(node)))
    return set()


def _estimated_total(g, binders, seeded) -> float:
    """The bindings the planner expects running the binders in this order to
    make: the sum of the rows after each, by `rules._estimate`."""
    bound, rows, total = set(seeded), 1.0, 0.0
    for el in binders:
        parts = (el.subject, el.predicate, el.object)
        matches, factors = rules._estimate(g, tuple(
            None if isinstance(part, Variable) else part for part in parts))
        for var, factor in zip([part for part in parts if isinstance(part, Variable)], factors):
            if var in bound:
                matches /= factor
        rows *= matches
        total += rows
        bound |= _variables_in(el)
    return total


def test_planned_orders_cost_at_most_the_greedy_and_keep_every_guard_in_place(monkeypatch):
    order, greedy = rules._order, rules._greedy
    runs, greedy_orders = [], []

    def recorded_greedy(*args):
        runs.append(greedy(*args))
        return runs[-1]

    def recorded_order(segment, estimates=None):
        if estimates is None:  # a fixed branch keeps its written order
            return order(segment)
        runs.clear()
        steps = order(segment, estimates)
        # the first run starts where the plain greedy does and is never cut short
        greedy_orders.append(([segment.binders[i] for i in runs[0][0]], steps))
        return steps

    monkeypatch.setattr(rules, "_greedy", recorded_greedy)
    monkeypatch.setattr(rules, "_order", recorded_order)
    groups = _Interleaved(random.Random(1618))
    cheaper = guards = dead = 0
    for case in range(5000):
        g, gp, seed = groups.graph(), groups.group(0), groups.seed() or {}
        greedy_orders.clear()
        plans = rules._plan(g, gp, seed)
        for greedy_order, steps in greedy_orders:
            binders = [el for el in steps if isinstance(el, TriplePattern)]
            want, got = (_estimated_total(g, order, seed) for order in (greedy_order, binders))
            assert got <= want * (1 + 1e-9), f"case {case}: {gp} seed={seed}"
            cheaper += got < want * (1 - 1e-9)
        for branch, steps in zip(gp.branches, plans):
            if steps is None:  # dead: a pattern of the branch matches no triple
                assert any(not g.count(*(None if isinstance(part, Variable) else part
                                         for part in (el.subject, el.predicate, el.object)))
                           for el in branch if isinstance(el, TriplePattern))
                dead += 1
                continue
            ids = [id(el) for el in steps]
            assert sorted(ids) == sorted(map(id, branch)), f"case {case}"
            bound = _variables_in(tuple(el for el in branch if isinstance(el, TriplePattern)))
            for el in branch:
                if isinstance(el, TriplePattern):
                    continue
                # the guard runs right after the binder that binds the last
                # of the variables it mentions that the branch binds
                needed = _variables_in(el) & bound - set(seed)
                earlier = [step for step in steps[:ids.index(id(el))]
                           if isinstance(step, TriplePattern)]
                assert needed <= _variables_in(tuple(earlier)), f"case {case}: {gp} seed={seed}"
                assert not earlier or not needed <= _variables_in(tuple(earlier[:-1])), \
                    f"case {case}: {gp} seed={seed}"
                guards += 1
    # most random branches have a pattern with no match and are never
    # planned: the cases are enough to check as many live guards as ever
    assert cheaper >= 15 and guards >= 3000 and dead >= 3000, (cheaper, guards, dead)


def test_order_search_on_a_1200_pattern_chain_stays_within_its_work_bound(monkeypatch):
    p = Iri(EX + "p")
    g = Graph()
    for head, length in (("n", 1200), ("m", 1199)):
        for k in range(length):
            g.insert(Triple(Iri(f"{EX}{head}{k}"), p, Iri(f"{EX}{head}{k + 1}")))
    chain = GroupPattern(tuple(TriplePattern(V(f"x{k}"), p, V(f"x{k + 1}"))
                               for k in range(1200)))
    greedy, runs = rules._greedy, []

    def recorded_greedy(segment, factors, cost, first, limit, work):
        runs.append((limit, work))
        return greedy(segment, factors, cost, first, limit, work)

    monkeypatch.setattr(rules, "_greedy", recorded_greedy)
    (steps,) = rules._plan(g, chain, ())
    assert sorted(map(id, steps)) == sorted(map(id, chain.elements))
    # the plain greedy's plan, 2,399 estimated rows at each of the 1,200
    # steps, costs less than the search could spend, 8 times the 719,400
    # binders the greedy run looked at, so no other start is tried
    assert _estimated_total(g, chain.elements, ()) == 2399 * 1200
    assert runs == [(None, 0)]


def test_not_exists_whose_estimated_rows_overflow_is_planned_and_probed(monkeypatch):
    p, t = Iri(EX + "p"), Iri(EX + "T")
    s0, s1, s2 = (Iri(f"{EX}s{k}") for k in range(3))
    g = Graph([Triple(s1, RDF_TYPE, t), Triple(s2, RDF_TYPE, t), Triple(s1, p, Iri(EX + "o"))])
    for k in range(999):  # s0 has 999 values of p and s1 one: 500 per subject on average
        g.insert(Triple(s0, p, Iri(f"{EX}o{k}")))
    stars = tuple(TriplePattern(V("x"), p, V(f"c{k}")) for k in range(120))
    # 500 ** 120 estimated rows overflow to inf; s1 has one solution of the
    # stars, s2 none
    inner = GroupPattern(stars)
    # with a pattern that matches no triple the group is dead: not ordered
    unmatched = GroupPattern(stars + (
        Filter(ExprAnd(tuple(Comparison(V(f"c{k}"), False, V("y")) for k in range(120)))),
        TriplePattern(V("y"), Iri(EX + "missing"), V("w"))))
    greedy, works = rules._greedy, []

    def recorded_greedy(*args):
        result = greedy(*args)
        works.append(result[2])
        return result

    monkeypatch.setattr(rules, "_greedy", recorded_greedy)
    for group, kept in ((inner, [s2]), (unmatched, [s1, s2])):
        gp = GroupPattern((TriplePattern(V("x"), RDF_TYPE, t), NotExists(group)))
        want = oracle.evaluate_where(g, gp)
        assert want == [{V("x"): s} for s in kept]
        works.clear()
        assert evaluate_where(g, gp) == want
        if group is inner:
            assert works[-1] <= 9 * works[0], works
        else:
            assert works == []


def test_order_search_on_300_unconnected_patterns_looks_at_most_9_greedy_runs_of_binders(
        monkeypatch):
    p = Iri(EX + "p")
    g = Graph([Triple(Iri(EX + "a"), p, Iri(EX + "b")), Triple(Iri(EX + "c"), p, Iri(EX + "d"))])
    wide = GroupPattern(tuple(TriplePattern(V(f"a{k}"), p, V(f"b{k}")) for k in range(300)))
    greedy, works = rules._greedy, []  # the binders looked at after each run

    def recorded_greedy(*args):
        result = greedy(*args)
        works.append(result[2])
        return result

    monkeypatch.setattr(rules, "_greedy", recorded_greedy)
    (steps,) = rules._plan(g, wide, ())
    assert sorted(map(id, steps)) == sorted(map(id, wide.elements))
    # every start costs 2 and every order 2 + 4 + ... + 2 ** 300 estimated
    # bindings, so the estimate bounds nothing; without the bound on work
    # all 300 starts would run, at 300 times the plain greedy's work
    assert works[0] == 299 * 300 // 2
    assert works[-1] <= 9 * works[0]
    assert len(works) <= 9, works


# --- branches with a pattern that matches nothing ---------------------------------


def test_a_union_with_one_dead_branch_gives_the_live_branch_solutions():
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    g = Graph([Triple(a, p, b), Triple(b, p, c)])
    xy = TriplePattern(V("x"), p, V("y"))
    dead = GroupPattern((xy, TriplePattern(V("y"), q, V("z"))))
    live = GroupPattern((xy, TriplePattern(V("y"), p, V("z"))))
    for gp in (GroupPattern((Union(dead, live),)), GroupPattern((Union(live, dead),))):
        want = oracle.evaluate_where(g, gp)
        assert want == [{V("x"): a, V("y"): b, V("z"): c}]
        assert evaluate_where(g, gp) == want
        _assert_probe_agrees(g, gp, None, ("ok", want))
        plans = rules._plan(g, gp, ())
        assert [steps is None for steps in plans] == [
            branch[1].predicate == q for branch in gp.branches]


def test_a_dead_branch_is_planned_again_once_its_pattern_has_a_match():
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    g = Graph([Triple(a, p, b)])
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), q, V("z"))))
    assert rules._plan(g, gp, ()) == [None]
    assert evaluate_where(g, gp) == [] == evaluate_where(g, gp, limit=1)
    g.insert(Triple(b, q, c))
    (steps,) = rules._plan(g, gp, ())
    assert sorted(map(id, steps)) == sorted(map(id, gp.elements))
    want = oracle.evaluate_where(g, gp)
    assert want == [{V("x"): a, V("y"): b, V("z"): c}]
    assert evaluate_where(g, gp) == want
    assert evaluate_where(g, gp, limit=1) == want


def test_not_exists_over_an_all_dead_group_passes_without_ordering_it(monkeypatch):
    a, b, p, q, r, s = (Iri(EX + x) for x in "abpqrs")
    g = Graph([Triple(a, p, b), Triple(b, p, a)])
    xy = TriplePattern(V("x"), p, V("y"))
    zw = TriplePattern(V("z"), r, V("w"))
    inner = GroupPattern((Union(GroupPattern((TriplePattern(V("y"), q, V("z")), zw)),
                                GroupPattern((TriplePattern(V("y"), s, V("z")), zw))),))
    gp = GroupPattern((xy, NotExists(inner)))
    ordered = []
    order = rules._order
    monkeypatch.setattr(rules, "_order",
                        lambda segment, *args: ordered.append(segment.binders) or
                        order(segment, *args))
    want = oracle.evaluate_where(g, gp)
    assert len(want) == 2
    assert evaluate_where(g, gp) == want
    # only the outer branch, one pattern, is put in its fixed order, once
    assert ordered == [(xy,)]
    assert rules._plan(g, inner, (V("x"), V("y"))) == [None, None]


def test_a_bind_before_a_pattern_with_no_match_still_raises_its_conflict():
    a, b, c, p = (Iri(EX + x) for x in "abcp")
    g = Graph([Triple(a, p, b)])
    # ?x ex:p ?y. BIND(ex:c AS ?y). ?y ex:missing ?z
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), Bind(c, V("y")),
                       TriplePattern(V("y"), Iri(EX + "missing"), V("z"))))
    want = _outcome(oracle.evaluate_where, g, gp)
    assert want == ("raised", "BindConflict", "variable ?y is already bound")
    for outer in (gp, GroupPattern((NotExists(gp),))):
        assert _outcome(evaluate_where, g, outer) == want
        assert _outcome(evaluate_where, g, outer, limit=1) == want


def test_a_probe_of_a_group_dead_at_one_graph_state_sees_a_match_added_later():
    # the probe keeps the group's plan while the graph is the one it was made
    # for, at the same size; a dead verdict kept past that gives wrong answers
    a, b, c, p, q, r = (Iri(EX + x) for x in "abcpqr")
    inner = GroupPattern((TriplePattern(V("y"), q, V("z")), TriplePattern(V("z"), p, V("w"))))
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), NotExists(inner)))
    seed, found = {V("y"): b}, [{V("y"): b, V("z"): c, V("w"): a}]

    def unmatched():
        return Graph([Triple(a, p, b), Triple(c, p, a), Triple(b, r, c)])

    def matched():
        return Graph([Triple(a, p, b), Triple(c, p, a), Triple(b, q, c)])

    g = Graph([Triple(a, p, b), Triple(c, p, a)])
    assert evaluate_where(g, inner, seed, limit=1) == []
    # dead on another graph of the size g grows to
    other = unmatched()
    assert evaluate_where(other, inner, seed, limit=1) == []
    g.insert(Triple(b, q, c))  # `?y q ?z` has a match now
    assert len(g) == len(other)
    assert evaluate_where(g, inner, seed, limit=1) == found
    assert evaluate_where(g, gp) == oracle.evaluate_where(g, gp) == [{V("x"): c, V("y"): a}]
    # a graph of the same size at the address of a freed one where it was dead
    for _ in range(3):
        dead = unmatched()
        assert evaluate_where(dead, inner, seed, limit=1) == []
        del dead
        live = matched()
        assert evaluate_where(live, inner, seed, limit=1) == found
        assert evaluate_where(live, gp) == oracle.evaluate_where(live, gp)


def test_a_probe_of_a_rebinding_group_raises_the_conflict_of_its_full_evaluation():
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    g = Graph([Triple(a, p, b), Triple(a, q, c)])
    # with ?x seeded: {?x q ?w} UNION {?x p ?y} BIND(ex:c AS ?y). The first
    # branch gives a solution, but the second rebinds ?y, so no probe may
    # stop at the first branch's solution
    inner = GroupPattern((Union(GroupPattern((TriplePattern(V("x"), q, V("w")),)),
                                GroupPattern((TriplePattern(V("x"), p, V("y")),))),
                          Bind(c, V("y"))))
    seed = {V("x"): a}
    want = _outcome(oracle.evaluate_where, g, inner, seed)
    assert want == ("raised", "BindConflict", "variable ?y is already bound")
    for _ in range(2):  # planned, then with the plan kept for this graph state
        assert _outcome(evaluate_where, g, inner, seed, limit=1) == want
        assert _outcome(evaluate_where, g, inner, seed) == want
    outer = GroupPattern((TriplePattern(V("x"), p, V("w")), NotExists(inner)))
    assert _outcome(oracle.evaluate_where, g, outer) == want
    assert _outcome(evaluate_where, g, outer) == want
    assert _outcome(evaluate_where, g, outer, limit=1) == want


def _fixture_pass():
    """Every runnable fixture checked once with its layers."""
    from normgraph.cli import run_pipeline
    from normgraph.engine import MaxIterationsExceeded
    for name, info in sorted(FIXTURES.items()):
        data, user_rules, _ = fixture(name)
        try:
            run_pipeline([data, user_rules], set(info.layers))
        except MaxIterationsExceeded:
            assert info.expects_error, name


def test_a_warm_pass_over_every_fixture_orders_at_most_the_recorded_branches(monkeypatch):
    # a gate on planning work, not seconds, so that it holds on a noisy host:
    # at most 1.1 times the 551 branches ordered when it was set (1,189
    # before branches with a pattern with no match were left unordered), and
    # 1.1 times the 828 estimates read (1,022 before a branch's estimates
    # stopped at its first shape with no match)
    _fixture_pass()  # parses every rule and analyses its groups
    ordered, estimated = [], []
    order, estimate = rules._order, rules._estimate
    monkeypatch.setattr(rules, "_order", lambda *args: ordered.append(1) or order(*args))
    monkeypatch.setattr(rules, "_estimate", lambda *args: estimated.append(1) or estimate(*args))
    _fixture_pass()
    assert len(ordered) <= 1.1 * 551, len(ordered)
    assert len(estimated) <= 1.1 * 828, len(estimated)


# --- the frozen planner -----------------------------------------------------------


def test_every_order_of_a_warm_fixture_pass_is_the_frozen_planners(monkeypatch):
    _fixture_pass()
    order, ordered = rules._order, []

    def compared(segment, estimates=None):
        steps = order(segment, estimates)
        assert list(map(id, steps)) == list(map(id, oracle._order(segment, estimates)))
        ordered.append(estimates is not None)
        return steps

    monkeypatch.setattr(rules, "_order", compared)
    _fixture_pass()
    assert sum(ordered) >= 500, len(ordered)


_SEGMENT_VARIABLES = [V(f"g{k}") for k in range(5)]
_SEGMENT_TERMS = st.sampled_from(_SEGMENT_VARIABLES + [Iri(EX + "a"), Iri(EX + "b")])
_SEGMENT_PATTERNS = st.builds(TriplePattern, _SEGMENT_TERMS,
                              st.sampled_from([Iri(EX + "p"), Iri(EX + "q"), V("g0")]),
                              _SEGMENT_TERMS)
_SEGMENT_GUARDS = st.one_of(
    st.builds(Filter, st.builds(Comparison, st.sampled_from(_SEGMENT_VARIABLES), st.booleans(),
                                _SEGMENT_TERMS)),
    st.builds(NotExists, st.builds(GroupPattern, st.lists(_SEGMENT_PATTERNS, min_size=1,
                                                          max_size=3).map(tuple))))


@st.composite
def _segments(draw):
    """A branch's segment, built by `_segment` from random elements, with
    estimates for its shapes or None. Binders share variables, estimates tie,
    and guards stand anywhere, so their `needed` vary; big counts make the
    multi-start search run and cut runs short."""
    binder = st.one_of(_SEGMENT_PATTERNS, _SEGMENT_PATTERNS,
                       st.builds(Bind, st.just(Iri(EX + "a")), st.sampled_from(_SEGMENT_VARIABLES)))
    elements = draw(st.lists(binder, min_size=1, max_size=7))
    for guard in draw(st.lists(_SEGMENT_GUARDS, max_size=4)):
        elements.insert(draw(st.integers(0, len(elements))), guard)
    seeded = frozenset(draw(st.sets(st.sampled_from(_SEGMENT_VARIABLES), max_size=2)))
    segment = rules._segment(tuple(elements), seeded)
    if draw(st.integers(0, 9)) == 0:
        return segment, None
    known = {None: (1, [])}  # as `_plan` reads them: one estimate per shape
    for shape in segment.shapes:
        if shape not in known:
            known[shape] = (draw(st.sampled_from([1, 2, 3, 8, 40, 1000])),
                            [draw(st.sampled_from([1, 2, 3, 10])) for part in shape
                             if part is None])
    return segment, [known[shape] for shape in segment.shapes]


# three unconnected patterns: the plain greedy's 2 + 6 + 24 estimated rows
# exceed 8 times its 3 binders looked at, so the search starts from ?y's
# pattern, and that run is cut at its last step
_UNCONNECTED = (rules._segment(tuple(TriplePattern(V(x), Iri(EX + "p"), Iri(EX + "a"))
                                     for x in "xyz"), frozenset()),
                [(2, [1]), (3, [1]), (4, [1])])


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_segments())
@example(_UNCONNECTED)
def test_order_is_the_frozen_planners_on_random_segments(case):
    segment, estimates = case
    got, want = rules._order(segment, estimates), oracle._order(segment, estimates)
    assert list(map(id, got)) == list(map(id, want))


def test_the_frozen_planner_searches_and_cuts_a_run_on_three_unconnected_patterns(monkeypatch):
    greedy, runs = oracle._greedy, []

    def recorded_greedy(segment, factors, cost, first, limit, work):
        runs.append((first, limit, greedy(segment, factors, cost, first, limit, work)[0]))
        return greedy(segment, factors, cost, first, limit, work)

    monkeypatch.setattr(oracle, "_greedy", recorded_greedy)
    segment, estimates = _UNCONNECTED
    oracle._order(segment, estimates)
    assert runs == [(0, None, [0, 1, 2]), (1, 32.0, None), (2, 32.0, None)]


# --- two-level indexes ---------------------------------------------------------


def _random_triple(rnd: random.Random) -> Triple:
    nodes = [Iri(f"{EX}n{k}") for k in range(5)] + [BlankNode(f"parse:b{k}") for k in range(2)]
    preds = [Iri(f"{EX}p{k}") for k in range(3)]
    objects = nodes + [Literal("x"), Literal("y")]
    return Triple(rnd.choice(nodes), rnd.choice(preds), rnd.choice(objects))


def test_indexes_hold_after_random_insert_sequences():
    rnd = random.Random(31337)
    for _ in range(30):
        g = Graph()
        inserted: set[Triple] = set()
        added = []  # the new triples, in the order they were inserted
        for _ in range(rnd.randrange(1, 60)):
            t = _random_triple(rnd)
            assert g.insert(t) is (t not in inserted)
            added += [t] if t not in inserted else []
            inserted.add(t)
            assert g.check_indexes()
        assert g.triples() == inserted
        assert len(g) == len(inserted)
        walked = list(g.match_iter())
        assert len(walked) == len(set(walked))
        for _ in range(20):
            probe = _random_triple(rnd)
            assert (probe in g) is (probe in inserted)
            for mask in range(8):
                s, p, o = (part if mask >> i & 1 else None
                           for i, part in enumerate((probe.subject, probe.predicate,
                                                     probe.object)))
                want = {t for t in inserted
                        if s in (None, t.subject) and p in (None, t.predicate)
                        and o in (None, t.object)}
                matched = list(g.match_iter(s, p, o))
                assert len(matched) == len(want) and set(matched) == want  # each once
            # one bucket's terms, in insertion order, which is also match_iter's
            s, p, o = probe.subject, probe.predicate, probe.object
            objects = [t.object for t in added if (t.subject, t.predicate) == (s, p)]
            assert list(g.objects(s, p)) == objects == [t.object for t in g.match_iter(s, p)]
            subjects = [t.subject for t in added if (t.predicate, t.object) == (p, o)]
            assert list(g.subjects(p, o)) == subjects == [
                t.subject for t in g.match_iter(None, p, o)]
            assert g.subject_pool(probe.subject) == sum(
                t.subject == probe.subject for t in inserted)
            assert g.predicate_pool(probe.predicate) == sum(
                t.predicate == probe.predicate for t in inserted)
            assert g.object_pool(probe.object) == sum(t.object == probe.object for t in inserted)
        assert g.copy().check_indexes()


def test_counts_and_distinct_terms_match_the_triple_set():
    rnd = random.Random(2718)
    for _ in range(20):
        g = Graph()
        for _ in range(rnd.randrange(0, 40)):
            g.insert(_random_triple(rnd))
        triples = g.triples()
        for _ in range(20):
            probe = _random_triple(rnd)
            for mask in range(8):
                s, p, o = (part if mask >> i & 1 else None
                           for i, part in enumerate((probe.subject, probe.predicate,
                                                     probe.object)))
                assert g.count(s, p, o) == len(set(g.match_iter(s, p, o)))
            for p in (probe.predicate, None):
                chosen = [t for t in triples if p in (None, t.predicate)]
                want = tuple(len({getattr(t, name) for t in chosen})
                             for name in ("subject", "predicate", "object"))
                assert g.distinct(p) == want
        other = Graph(_random_triple(rnd) for _ in range(rnd.randrange(0, 20)))
        union = graph_union(g, other)
        assert union.check_indexes()
        assert union.triples() == triples | other.triples()
        assert g.triples() == triples  # the union copies its first graph
        copy = g.copy()
        copy.insert(_random_triple(rnd))
        assert copy.check_indexes() and g.check_indexes()


def test_check_indexes_notices_a_wrong_count():
    a, b, c, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "c"), Iri(EX + "p")
    g = Graph([Triple(a, p, b), Triple(a, p, c)])
    assert g.check_indexes()
    assert g.distinct(p) == (1, 1, 2)
    g._counts[p][1] += 1
    assert not g.check_indexes()


def test_check_indexes_notices_a_triple_under_the_wrong_key():
    a, b, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "p")
    g = Graph([Triple(a, p, b)])
    assert g.check_indexes()
    g._po[p][b][a] = Triple(b, p, a)
    assert not g.check_indexes()


def test_check_indexes_notices_a_triple_missing_from_one_index():
    a, b, c, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "c"), Iri(EX + "p")
    g = Graph([Triple(a, p, b), Triple(a, p, c)])
    assert g.check_indexes()
    del g._po[p][c]
    assert not g.check_indexes()


def test_a_group_is_planned_once_per_graph_state(monkeypatch):
    a, b, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "p")
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), p, V("z"))))
    planned = []
    original = rules._order
    monkeypatch.setattr(rules, "_order",
                        lambda *args: planned.append(1) or original(*args))
    g = Graph([Triple(a, p, b)])
    evaluate_where(g, gp)
    evaluate_where(g, gp)
    assert len(planned) == 1
    g.insert(Triple(a, p, b))  # already there: the graph is unchanged
    evaluate_where(g, gp)
    assert len(planned) == 1
    g.insert(Triple(b, p, a))
    evaluate_where(g, gp)
    assert len(planned) == 2
    other = g.copy()  # the same triples in another graph
    evaluate_where(other, gp)
    assert len(planned) == 3
    evaluate_where(g, gp)  # only the last graph's order is kept
    assert len(planned) == 4
    # a new graph of the same size is planned anew, also where it takes the
    # address of the one planned last, which was freed
    triples = list(g)
    for _ in range(3):
        evaluate_where(Graph(triples), gp)
    assert len(planned) == 7


# --- compiled steps and shared estimates -----------------------------------------


def test_every_access_path_of_a_pattern_agrees_with_the_oracle():
    # each position constant, bound by the seed or free, and variables that
    # repeat, over triples whose terms repeat in every way a pattern can ask
    a, b, c, p, q = (Iri(EX + x) for x in "abcpq")
    lit = Literal("l")
    g = Graph([Triple(s, pr, o) for s, pr, o in (
        (a, p, b), (a, p, a), (a, q, b), (a, q, lit), (b, q, a), (c, p, c),
        (p, p, a), (p, q, p), (p, p, p), (q, q, b))])
    x, y, z = V("x"), V("y"), V("z")
    patterns = [TriplePattern(*(var if variable else const
                                for variable, var, const in zip(shape, (x, y, z), (a, p, b))))
                for shape in itertools.product((False, True), repeat=3)]
    patterns += [TriplePattern(x, p, x), TriplePattern(x, x, y), TriplePattern(x, y, x),
                 TriplePattern(x, x, x)]
    values = (a, b, p, lit)  # p is also a subject and an object; lit is one object only
    checked = nonempty = 0
    for tp in patterns:
        gp = GroupPattern((tp,))
        variables = sorted(_variables_in(tp), key=lambda v: v.name)
        for size in range(len(variables) + 1):
            for chosen in itertools.combinations(variables, size):
                for seeded in itertools.product(values, repeat=size):
                    seed = dict(zip(chosen, seeded))
                    want = oracle.evaluate_where(g, gp, seed)
                    assert evaluate_where(g, gp, seed) == want, (tp, seed)
                    _assert_probe_agrees(g, gp, seed, ("ok", want))
                    checked += 1
                    nonempty += bool(want)
    # a pattern with k variables runs under 5 ** k seeds: each subset of its
    # variables, each bound to one of the 4 values
    assert checked == 1 + 3 * 5 + 3 * 25 + 125 + 5 + 25 + 25 + 5
    assert nonempty >= 60, nonempty


_A, _B, _P, _Q = (Iri(EX + name) for name in ("a", "b", "p", "q"))


@st.composite
def _graphs_and_patterns(draw):
    """A small graph and a pattern of constants and variables."""
    nodes = st.sampled_from((_A, _B, _P, BlankNode("parse:n")))
    objects = st.one_of(nodes, st.just(Literal("l")))
    g = Graph(Triple(*t) for t in draw(st.lists(
        st.tuples(nodes, st.sampled_from((_P, _Q)), objects), min_size=4, max_size=24,
        unique=True)))
    # x and y may each repeat, the predicate may be a variable, and a
    # constant subject may be a literal
    variables = st.sampled_from((V("x"), V("y")))
    constants = ((_A, _P, Literal("l")), (_P, _Q), (_A, _B, Literal("l")))  # by position
    tp = TriplePattern(*(draw(st.one_of(variables, st.sampled_from(terms))) for terms in constants))
    return g, tp


def _extended_through_match_iter(g: Graph, tp: TriplePattern, binding: dict) -> list:
    """Each extension of `binding` by a match of `tp`, in `match_iter`'s order."""
    parts = (tp.subject, tp.predicate, tp.object)
    terms = [binding.get(part, part) for part in parts]
    out = []
    for t in g.match_iter(*(None if isinstance(term, Variable) else term for term in terms)):
        new = dict(binding)
        for part, term in zip(terms, (t.subject, t.predicate, t.object)):
            if isinstance(part, Variable) and new.setdefault(part, term) != term:
                break
        else:
            out.append(new)
    return out


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_graphs_and_patterns())
def test_a_compiled_pattern_step_extends_as_match_iter_does(case):
    # under each set of its variables bound before the step, bound to each
    # term of the graph, and a literal
    g, tp = case
    variables = sorted(_variables_in(tp), key=lambda v: v.name)
    values = sorted(g.terms() | {Literal("l")}, key=str)
    for size in range(len(variables) + 1):
        for bound in itertools.combinations(variables, size):
            step = rules._compile(tp, set(bound))
            for seeded in itertools.product(values, repeat=size):
                seed = dict(zip(bound, seeded))
                assert list(step[0](g, step, seed)) == _extended_through_match_iter(g, tp, seed)


def test_each_bound_and_free_shape_of_a_pattern_compiles_to_its_runner():
    x, y = V("x"), V("y")
    runs = {  # the pattern, the variables bound before it, and its runner
        (x, _P, y, "xy"): rules._contains, (_A, _P, _B, ""): rules._contains,
        (x, x, x, "x"): rules._contains, (Literal("l"), _P, y, "y"): rules._contains,
        (x, _P, y, "x"): rules._objects, (_A, x, y, "x"): rules._objects,
        (x, _P, y, "y"): rules._subjects, (x, y, _B, "y"): rules._subjects,
        (x, _P, _B, ""): rules._subjects, (_A, _P, y, ""): rules._objects,
        # a free predicate, two free positions, a repeated free variable
        (_A, x, _B, ""): rules._extend, (x, y, _B, "x"): rules._extend,
        (x, _P, y, ""): rules._extend, (x, _P, x, ""): rules._extend,
        (x, x, _B, ""): rules._extend, (x, y, x, "y"): rules._extend,
    }
    for (*parts, names), run in runs.items():
        step = rules._compile(TriplePattern(*parts), {V(name) for name in names})
        assert step[0] is run, (parts, names)
        assert (step[1:4] == tuple(parts)) is (run is not rules._extend)
    assert set(rules._PATTERN_RUNS) == set(runs.values())
    # the ?b of a role star, free alone, runs the star's holders through `_extend`
    star = (x, _B, None, 0)
    step = rules._compile(TriplePattern(y, _P, _B), {x}, ((x, y, _B, None),))
    assert step[0] is rules._extend and step[7] == star


_X, _SEEDED = V("x"), (V("y"), V("z"))


@st.composite
def _stars(draw):
    """A small graph, a star of 2-6 patterns that each hold ?x, and a seed
    of ?y and ?z. A pattern holds ?x once as its subject or object, beside
    IRIs, literals and the seeded variables; or, to stay unfolded, twice or
    as its predicate."""
    nodes = st.sampled_from((_A, _B, _P, _Q))
    objects = st.one_of(nodes, st.just(Literal("l")))
    g = Graph(Triple(*t) for t in draw(st.lists(
        st.tuples(nodes, st.sampled_from((_P, _Q)), objects), min_size=8, max_size=32,
        unique=True)))
    subjects, others = (st.one_of(terms, st.sampled_from(_SEEDED)) for terms in (nodes, objects))
    predicates = st.sampled_from((_P, _Q, _SEEDED[0]))
    patterns = []
    for shape in draw(st.lists(st.sampled_from("sosoXP"), min_size=2, max_size=6)):
        p, s, o = draw(predicates), draw(subjects), draw(others)
        patterns.append(TriplePattern(*{"s": (_X, p, o), "o": (s, p, _X), "X": (_X, p, _X),
                                        "P": (s, _X, o)}[shape]))
    seed = dict(zip(_SEEDED, (draw(st.sampled_from((_P, _Q, Literal("l")))), draw(objects))))
    return g, GroupPattern(tuple(patterns)), seed


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_stars())
@example((Graph([Triple(_A, _P, _B), Triple(_P, _Q, _A)]),  # ?x the predicate of a test
          GroupPattern((TriplePattern(_X, _Q, _A), TriplePattern(_A, _X, _B))), {}))
def test_a_star_s_membership_tests_fold_into_the_bucket_read_that_binds_its_variable(case):
    g, gp, seed = case
    want = oracle.evaluate_where(g, gp, seed)
    assert evaluate_where(g, gp, seed) == want
    _assert_probe_agrees(g, gp, seed, ("ok", want))
    analysis = gp.analyses[frozenset(seed)]
    reads = (rules._subjects, rules._objects)
    for steps, program in zip(analysis.steps, analysis.programs):
        if program is None:
            continue
        # each step compiled alone gives the same solutions in the same order
        bound, alone = set(seed), []
        for el in steps:
            alone.append(rules._compile(el, bound))
            bound.update(rules._binds(el))
        assert rules._search(g, program, seed, None) == rules._search(g, tuple(alone), seed, None)
        # every test is a step or a check, and a test left after a bucket
        # read holds its variable twice, or as the predicate
        assert len(program) + sum(len(step[4]) for step in program if step[0] in reads) \
            == len(steps)
        for last, step in zip(program, program[1:]):
            if last[0] in reads and step[0] is rules._contains:
                x = last[1] if last[0] is rules._subjects else last[3]
                assert step[1:4].count(x) == 2 or step[2] is x, (last, step)


def test_the_dual_rule_s_guard_runs_as_one_bucket_read_with_four_checks():
    # `?f a :false, :hold; rdf:subject ?ne; rdf:predicate rdf:type;
    # rdf:object ?ddm` with ?ne and ?ddm bound
    dual = next(e.query.where_clause for e in builtin_ruleset({"dts"})
                if e.rule_id == "ob-pe-dual-fwd")
    guard = next(el.inner for el in dual.branches[0] if isinstance(el, NotExists))
    seeded = frozenset({V("ne"), V("ddm")})
    rules._plan(run_fixture("building-norms").result.graph, guard, seeded)
    (program,) = guard.analyses[seeded].programs
    (step,) = program
    assert step[0] is rules._subjects and len(step[4]) == 4


def test_estimates_are_never_taken_from_another_graph_state(monkeypatch):
    a, p, q = Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "q")
    by_p, by_q = TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), q, V("z"))
    gp = GroupPattern((by_p, by_q))

    def graph(ps, qs):
        return Graph([Triple(Iri(f"{EX}s{k}"), p, Iri(f"{EX}o{k}")) for k in range(ps)] +
                     [Triple(Iri(f"{EX}o{k}"), q, a) for k in range(qs)])

    def planned(g):
        return rules._plan(g, gp, ())[0]

    def fresh_plan(g):
        """The plan of an equal group with no plan of its own and no estimate read before."""
        monkeypatch.setattr(rules, "_estimates", (None, -1, {}))
        return rules._plan(g, GroupPattern(gp.elements), ())[0]

    estimated = []
    estimate = rules._estimate
    monkeypatch.setattr(rules, "_estimate", lambda g, shape: estimated.append(shape) or
                        estimate(g, shape))
    monkeypatch.setattr(rules, "_estimates", (None, -1, {}))
    few_q, few_p = graph(8, 2), graph(2, 8)  # the same size, other predicate counts
    assert len(few_q) == len(few_p)
    assert planned(few_q)[0] is by_q
    assert len(estimated) == 2
    # another group of the same state reads no estimate again
    rules._plan(few_q, GroupPattern((by_q, TriplePattern(V("z"), q, V("w")))), ())
    assert len(estimated) == 2
    assert planned(few_p)[0] is by_p
    assert planned(few_p) == fresh_plan(few_p)
    # growing a graph re-estimates it: the order follows the new counts
    estimated.clear()
    assert planned(few_q)[0] is by_q and len(estimated) == 2
    few_q.update(Triple(Iri(f"{EX}o{k}"), q, Iri(f"{EX}c{k}")) for k in range(2, 30))
    assert planned(few_q)[0] is by_p and len(estimated) == 4
    assert planned(few_q) == fresh_plan(few_q)


def test_a_program_is_compiled_once_per_order_and_shares_its_pattern_steps(monkeypatch):
    a, p, q, r = (Iri(EX + x) for x in "apqr")
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), q, V("z")),
                       TriplePattern(V("z"), r, V("w")), Filter(Comparison(V("x"), True, V("w")))))
    compiled = []
    compile_ = rules._compile
    monkeypatch.setattr(rules, "_compile", lambda *args: compiled.append(args) or compile_(*args))
    # ?z r ?w: many triples on two subjects, so it runs last in every order
    g = Graph([Triple(Iri(f"{EX}z{k % 2}"), r, Iri(f"{EX}w{k}")) for k in range(30)] +
              [Triple(Iri(f"{EX}x{k}"), p, Iri(f"{EX}y{k}")) for k in range(6)])
    orders = set()
    for k in range(16):  # q from fewer triples than p to more: the first two patterns swap
        g.insert(Triple(Iri(f"{EX}y{k}"), q, Iri(f"{EX}z{k % 2}")))
        assert evaluate_where(g, gp) == oracle.evaluate_where(g, gp)
        orders.add(tuple(map(id, rules._plan(g, gp, ())[0])))
    (analysis,) = gp.analyses.values()
    (segment,) = analysis.parts
    programs = [program for _, program in segment.programs]
    assert len(orders) == len(programs) == 2
    assert len(compiled) == sum(map(len, programs))  # each order compiled once
    # `?z r ?w` with ?z bound is one step of both orders
    patterns = [step for program in programs for step in program
                if step[0] in rules._PATTERN_RUNS]
    assert len({id(step) for step in patterns}) == len(patterns) - 1


# --- the role-star generator ----------------------------------------------------

ROLE = Iri(EX + "Role")
_ROLE_GUARDS = """
    NOT EXISTS{?t a ex:Role. FILTER(?t!=?x) ?a ?t ?v. NOT EXISTS{?b ?t ?w}}
    NOT EXISTS{?t a ex:Role. FILTER(?t!=?x) ?a ?t ?v. ?b ?t ?w. FILTER(?v!=?w)}"""


def _where(text: str) -> GroupPattern:
    return parse_rule("t", "CONSTRUCT{}WHERE{" + text + "}", {"ex": EX}).where_clause


def _role_graph(rnd: random.Random, subjects: int) -> Graph:
    """`subjects` subjects of two classes with 0-2 values, IRIs or literals,
    for each of three predicates typed as roles and for one that is not."""
    roles = [Iri(f"{EX}r{k}") for k in range(3)]
    values = [Iri(EX + "v0"), Iri(EX + "v1"), Literal("v0"), Literal("v1")]
    g = Graph(Triple(role, RDF_TYPE, ROLE) for role in roles)
    for k in range(subjects):
        e = Iri(f"{EX}e{k}")
        g.insert(Triple(e, RDF_TYPE, Iri(EX + rnd.choice("KL"))))
        for p in roles + [Iri(EX + "p3")]:
            g.update(Triple(e, p, v) for v in rnd.sample(values, rnd.choice((0, 1, 1, 1, 2))))
    return g


def _generated(g, gp, seed) -> list:
    """The role stars of the pattern steps compiled for `seed`'s variables."""
    rules._plan(g, gp, seed)
    programs = gp.analyses[frozenset(seed)].programs
    return [step[7] for program in programs if program for step in program
            if step[0] is rules._extend and step[7] is not None]


def test_role_star_generator_matches_oracle_on_random_role_graphs(monkeypatch):
    # the hot rule's shape, with ?a and ?b both ways round and ?x a bound
    # role, and `conflict`'s, one way round and without ?x; neither has
    # FILTER(?a != ?b), so ?a == ?b occurs
    hot = _where("""?e1 a ?c. ?e2 a ?c. ?trn a ex:Role. ?e1 ?trn ?tv.
        NOT EXISTS{?tr a ex:Role. FILTER(?tr!=?trn) ?e1 ?tr ?tv1. NOT EXISTS{?e2 ?tr ?tv2}}
        NOT EXISTS{?tr a ex:Role. FILTER(?tr!=?trn) ?e2 ?tr ?tv2. NOT EXISTS{?e1 ?tr ?tv1}}
        NOT EXISTS{?tr a ex:Role. FILTER(?tr!=?trn) ?e1 ?tr ?tv1. ?e2 ?tr ?tv2.
                   FILTER(?tv1!=?tv2)}""")
    conflict = _where("""?en a ?c. ?e a ?c.
        NOT EXISTS{?tr a ex:Role. ?en ?tr ?vn. NOT EXISTS{?e ?tr ?vp}}
        NOT EXISTS{?tr a ex:Role. ?e ?tr ?vp. ?en ?tr ?vn. FILTER(?vp!=?vn)}""")
    generated = 0
    holders = rules._holders

    def counted(*args):
        nonlocal generated
        found = holders(*args)
        generated += found is not None
        return found

    monkeypatch.setattr(rules, "_holders", counted)
    rnd = random.Random(2297)
    roles = [Iri(f"{EX}r{k}") for k in range(3)]
    solutions = 0
    for case in range(170):
        g = _role_graph(rnd, rnd.randrange(3, 6))
        subjects = sorted({t.subject for t in g.match_iter(None, RDF_TYPE)
                           if t.object != ROLE}, key=str)
        # a seed binding ?a (and ?x) runs the generator at every binding of
        # ?b's step; its solutions are the oracle's that agree with the seed
        for gp, seeds in ((hot, [{a: s, V("trn"): r} for a in (V("e1"), V("e2"))
                                 for s in subjects for r in roles]),
                          (conflict, [{V("en"): s} for s in subjects])):
            want = oracle.evaluate_where(g, gp)
            solutions += len(want)
            for seed in [None] + seeds:
                agree = [b for b in want if all(b[v] == t for v, t in (seed or {}).items())]
                assert evaluate_where(g, gp, seed) == agree, (case, seed)
                _assert_probe_agrees(g, gp, seed, ("ok", agree))
    assert generated >= 10000 and solutions >= 2500, (generated, solutions)


def test_role_star_generator_compiles_only_for_both_guards_of_a_role_star():
    g = parse_turtle("""@prefix ex: <https://example.org/> .
        ex:r0 a ex:Role . ex:r1 a ex:Role . ex:r2 a ex:Role .
        ex:a a ex:K ; ex:r0 ex:v0 ; ex:r1 ex:v1 ; ex:r2 "l" ; ex:p3 ex:v0 .
        ex:b1 a ex:K ; ex:r0 ex:v9 ; ex:r1 ex:v1 ; ex:r2 "l" .  # differs on ?x only
        ex:b2 a ex:K ; ex:r1 ex:v1 .                            # lacks a role
        ex:b3 a ex:L ; ex:r1 ex:v1 ; ex:r2 "l" .                # of another class
        ex:b4 a ex:K ; ex:r1 ex:v1 ; ex:r2 "l", "m" .           # two values of a role
        ex:b5 a ex:K ; ex:r1 ex:v1 ; ex:r2 "l" ; ex:p3 ex:v1 .  # differs off the roles
        """)
    seed = {V("a"): Iri(EX + "a"), V("x"): Iri(EX + "r0")}
    solutions = [b[V("b")] for b in evaluate_where(g, _where("?a a ?c. ?b a ?c." + _ROLE_GUARDS),
                                                    seed)]
    assert solutions == [Iri(EX + name) for name in ("a", "b1", "b5")]
    outer = "?a a ?c. ?b a ?c. ?x a ex:Role."
    cases = {
        "both guards": outer + _ROLE_GUARDS,
        # necessarily-violated: ?v is bound outside, so only one value is compared
        "?v bound outside": outer + " ?a ?x ?v." + _ROLE_GUARDS,
        "a UNION": outer + _ROLE_GUARDS.replace(
            "?t a ex:Role. FILTER", "{?t a ex:Role} UNION {?t a ex:Other} FILTER", 1),
        "= for !=": outer + _ROLE_GUARDS.replace("?v!=?w", "?v=?w"),
        "= for != on ?x": outer + _ROLE_GUARDS.replace("?t!=?x", "?t=?x"),
        "containment only": outer + _ROLE_GUARDS.split("\n")[1],
        "agreement only": outer + _ROLE_GUARDS.split("\n")[2],
        "another ?x": outer + " ?y a ex:Role." + _ROLE_GUARDS.replace("?t!=?x", "?t!=?y", 1),
    }
    for name, text in cases.items():
        gp = _where(text)
        want = _outcome(oracle.evaluate_where, g, gp, seed)
        assert _outcome(evaluate_where, g, gp, seed) == want, name
        assert bool(_generated(g, gp, seed)) == (name == "both guards"), name
    # a BIND of a bound variable, which once turned the generator off, is a syntax error
    with pytest.raises(RuleSyntaxError, match=r"variable \?z is already bound"):
        _where(outer + _ROLE_GUARDS + " NOT EXISTS{?a ex:p3 ?z. BIND(ex:v0 AS ?z)}")

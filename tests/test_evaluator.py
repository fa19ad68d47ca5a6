"""The WHERE evaluator against the frozen naive one in oracle.py, the
existence probe, and the graph's two-level indexes."""

import random

import oracle
from normgraph.engine import load_rules
from normgraph.model import BlankNode, Graph, Iri, Literal, RDF_TYPE, Triple, graph_union
from normgraph.ontology import FIXTURES, builtin_ruleset, fixture, vocabulary
from normgraph.rules import (
    Bind, BindConflict, Comparison, ExprAnd, ExprOr, Filter, GroupPattern,
    NotExists, TriplePattern, Union, Variable, evaluate_where,
)
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
        want = _outcome(oracle.evaluate_where, g, gp, seed)
        got = _outcome(evaluate_where, g, gp, seed)
        assert got == want, f"case {case}: {gp} seed={seed}"
        _assert_probe_agrees(g, gp, seed, want)
        seen["raised" if want[0] == "raised" else "nonempty" if want[1] else "empty"] += 1
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


def test_bind_conflict_is_raised_at_the_first_element_any_solution_conflicts_at():
    a, b, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "p")
    g = Graph([Triple(a, p, b)])
    # the left branch reaches the BIND of ?x first, depth first; the right
    # branch conflicts one element earlier, at the BIND of ?z
    union = Union(GroupPattern((TriplePattern(V("x"), p, V("y")),)),
                  GroupPattern((TriplePattern(V("z"), p, V("w")),)))
    gp = GroupPattern((union, Bind(a, V("z")), Bind(b, V("x"))))
    want = _outcome(oracle.evaluate_where, g, gp)
    assert want == ("raised", "BindConflict", "variable ?z is already bound")
    for outer in (gp, GroupPattern((NotExists(gp),)), GroupPattern((Union(gp, gp),))):
        assert _outcome(evaluate_where, g, outer) == want
        assert _outcome(evaluate_where, g, outer, limit=1) == want


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
    from normgraph import rules
    p = Iri(EX + "p")
    g = Graph([Triple(Iri(EX + "a"), p, Iri(EX + "b"))])
    gp = GroupPattern((TriplePattern(V("x"), p, V("y")), TriplePattern(V("y"), p, V("z"))))
    planned = []
    original = rules._plan_run
    monkeypatch.setattr(rules, "_plan_run",
                        lambda *args: planned.append(1) or original(*args))
    evaluate_where(g, gp)
    evaluate_where(g, gp)
    assert len(planned) == 1
    evaluate_where(g, gp, {V("x"): Iri(EX + "a")})
    assert len(planned) == 2  # another set of bound variables
    g.insert(Triple(Iri(EX + "b"), p, Iri(EX + "c")))
    assert evaluate_where(g, gp) == oracle.evaluate_where(g, gp)
    assert len(planned) == 3


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
        for _ in range(rnd.randrange(1, 60)):
            t = _random_triple(rnd)
            assert g.insert(t) is (t not in inserted)
            inserted.add(t)
            assert g.check_indexes()
        assert g.triples() == inserted
        for _ in range(20):
            probe = _random_triple(rnd)
            for mask in range(8):
                s, p, o = (part if mask >> i & 1 else None
                           for i, part in enumerate((probe.subject, probe.predicate,
                                                     probe.object)))
                want = {t for t in inserted
                        if s in (None, t.subject) and p in (None, t.predicate)
                        and o in (None, t.object)}
                assert set(g.match_iter(s, p, o)) == want
            assert g.subject_pool(probe.subject) == sum(
                t.subject == probe.subject for t in inserted)
            assert g.predicate_pool(probe.predicate) == sum(
                t.predicate == probe.predicate for t in inserted)
            assert g.object_pool(probe.object) == sum(t.object == probe.object for t in inserted)
        assert g.copy().check_indexes()


def test_check_indexes_notices_a_triple_under_the_wrong_key():
    a, b, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "p")
    g = Graph([Triple(a, p, b)])
    assert g.check_indexes()
    g._os[b][a][p] = Triple(b, p, a)
    assert not g.check_indexes()


def test_memo_is_emptied_once_the_graph_grows():
    a, b, p = Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "p")
    g = Graph([Triple(a, p, b)])
    g.memo()["k"] = 1
    g.insert(Triple(a, p, b))
    assert g.memo() == {"k": 1}
    g.insert(Triple(b, p, a))
    assert g.memo() == {}

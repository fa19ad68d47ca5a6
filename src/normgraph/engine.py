"""Fixpoint application of rule sets over a graph.

Every iteration evaluates the rules against the graph as it stood at the
start of the iteration, then merges all produced triples at once. That buys
rule-order independence (together with deterministic skolemization). Blank
nodes in a template are salted with the iteration, so a rule without a NOT
EXISTS guard mints a new individual on every pass.

From the second iteration on, a rule is not re-evaluated when none of the
triples the previous iteration added can give it a new solution. The test
works on the rule's branches, the conjunctive groups its UNIONs distribute
into (see `GroupPattern.branches`), whose solutions are the rule's:

  - The graph only grows. A solution of a branch that is new in iteration
    i therefore matches a triple added in iteration i-1 with one of the
    branch's triple patterns, or passes one of its NOT EXISTS that failed in
    iteration i-1. In the second case the inner group lost every solution it
    had under that binding, each to a NOT EXISTS of its own whose group
    gained a new solution, and the same argument applies to that one, two
    levels deeper. So only a triple that matches a pattern under an even
    number of NOT EXISTS (0, 2, ...) can give a rule a new solution: these
    patterns are the rule's anchors. A test on the top-level patterns alone
    would miss the `violated-by` solution that `sketty-necessity` gains in
    iteration 3 from a triple two NOT EXISTS deep.
  - An added triple wakes an anchor only if every pattern of the anchor's
    branch and enclosing branches has some match in the graph, and each of
    them that shares a variable with the anchor still has one under the
    triple's binding: the witness of a new solution, or of a NOT EXISTS
    group's new solution, holds a full match of all of them. A NOT EXISTS
    group shares a variable with its parent where the parent's branch binds
    it; every other variable is renamed apart. Dropping constraints this way
    only makes the test wake more rules.
  - A rule that is not woken keeps the previous iteration's solutions that
    still pass each NOT EXISTS of the branch that gave them, probed under
    the solution, as the full evaluation probes it. By the same argument one
    level down, a NOT EXISTS gains a solution only from a triple that
    matches a pattern under an odd number of NOT EXISTS (a guard); when none
    does, the solutions are kept as they are. A solution's branch is the one
    binding exactly its variables; where sibling branches bind the same
    ones, as `{?e :not ?ne} UNION {?ne :not ?e}` does, a rule with solutions
    whose guard an added triple matches is evaluated in full instead.

Every rule can be skipped this way. A skipped rule whose template has a
blank node is instantiated like any other, with the same solutions and the
same salt. One whose template has none is not instantiated again: its
solutions are some of the last iteration's, whose triples the graph holds
by now, so it adds nothing, and its trace record says so. Either way the
graph, the skolem labels, the provenance and the trace are the ones full
evaluation gives. Instantiation looks each triple up by its terms, in the
graph and among the iteration's new triples, and builds only a new one.

The engine is conflict-blind by construction: nothing branches on the
abnormality predicates, so contradictions and conflicts accumulate in the
graph like any other triples and never stop a run. Termination comes from
the rules' NOT EXISTS guards; max_iterations is only a backstop against
rules that mint fresh individuals without a guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import count
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .model import (
    BlankNode, Graph, HAS_SPARQL_CODE, INFERENCE_RULE, Literal, RDF_TYPE,
    Term, Triple, graph_difference, local_name, term_key,
)
from . import rules as _rules
from .rules import (
    Binding, GroupPattern, NotExists, RuleQuery, TriplePattern, Variable,
    evaluate_where, instantiate, parse_rule,
)


class MissingRuleBody(Exception):
    pass


class MaxIterationsExceeded(Exception):
    def __init__(self, limit: int, last_added: int, rule_ids: tuple[str, ...] = ()):
        by = f", by rule(s) {', '.join(rule_ids)}" if rule_ids else ""
        super().__init__(
            f"no fixpoint after {limit} iterations; "
            f"the last pass still added {last_added} triple(s){by}")
        self.limit = limit
        self.last_added = last_added
        self.rule_ids = rule_ids


class _Anchor(NamedTuple):
    """A triple pattern of a rule, as a test on the triples an iteration
    added.

    The test reads the tuple `(s, p, o, *constants)` of an added triple:
    the pairs of positions in `equal` must hold the same term, and each
    neighbour's match key is read off it by a getter. A key position is one
    of the anchor's, `constants[0]` (None) for a variable the anchor does
    not bind, or one of the constants. The anchor is skipped while a pattern
    of `shapes` has no match at all."""

    # the constant predicate, and object, the added triples are looked up
    # by; None for a variable (the object too when the predicate is one)
    predicate: Optional[Term]
    object: Optional[Term]
    equal: tuple               # position pairs that must hold the same term
    constants: tuple
    per_predicate: tuple       # key getters of neighbours that read the predicate only
    per_triple: tuple          # key getters of the other neighbours
    # every pattern around the anchor, its own included, as its terms with
    # None for a variable; one tuple for all anchors of a branch
    shapes: tuple


class _Added:
    """The triples one iteration added, by predicate and by predicate and
    object, and memos of the graph they were added to: `matched(key)`, whether
    it has a triple that matches the key (None is a wildcard), and
    `alive(shapes)`, whether every shape has a match in it."""

    def __init__(self, graph: Graph, triples: list[Triple]):
        self._by_predicate: dict[Term, list[Triple]] = {}
        self._by_predicate_object: dict[tuple[Term, Term], list[Triple]] = {}
        for t in triples:
            self._by_predicate.setdefault(t.predicate, []).append(t)
            self._by_predicate_object.setdefault((t.predicate, t.object), []).append(t)
        matched = self.matched = cache(lambda key: next(graph.match_iter(*key), None) is not None)
        self.alive = cache(lambda shapes: all(map(matched, shapes)))

    def candidates(self, anchor: _Anchor) -> Iterable[tuple[Term, list[Triple]]]:
        """The added triples that have the anchor's constant predicate and
        object, grouped by predicate."""
        if anchor.predicate is None:
            return self._by_predicate.items()
        if anchor.object is None:
            return ((anchor.predicate, self._by_predicate.get(anchor.predicate, ())),)
        return ((anchor.predicate,
                 self._by_predicate_object.get((anchor.predicate, anchor.object), ())),)


def _matches(anchors: tuple[_Anchor, ...], added: _Added) -> bool:
    """Whether an added triple matches one of the anchors."""
    for anchor in anchors:
        for predicate, triples in added.candidates(anchor):
            if not triples:
                continue
            if not added.alive(anchor.shapes):
                break
            if anchor.per_predicate:
                head = (None, predicate, None) + anchor.constants
                if not all(added.matched(get(head)) for get in anchor.per_predicate):
                    continue
            equal, per_triple, matched = anchor.equal, anchor.per_triple, added.matched
            for t in triples:
                parts = (t.subject, predicate, t.object) + anchor.constants
                for i, j in equal:
                    if parts[i] != parts[j]:
                        break
                else:
                    for get in per_triple:
                        if not matched(get(parts)):
                            break
                    else:
                        return True
    return False


class WakeTest(NamedTuple):
    """Decides whether a rule can gain a solution from the triples the last
    iteration added, and gives its solutions when it cannot."""

    anchors: tuple[_Anchor, ...]  # the patterns under an even number of NOT EXISTS
    guards: tuple[_Anchor, ...]   # and those under an odd number
    # each top-level branch's NOT EXISTS groups, by the branch's variables;
    # None when two branches bind the same
    probes: Optional[dict[frozenset, tuple[GroupPattern, ...]]]

    def kept(self, graph: Graph, solutions: list[Binding], added: _Added) -> Optional[list]:
        """The solutions that still pass each NOT EXISTS of their branch,
        probed under the solution, or None when a probe is needed and the
        branches are not known. The probes go through `rules.evaluate_where`,
        like those of a full evaluation."""
        if not solutions or not _matches(self.guards, added):
            return solutions
        if self.probes is None:
            return None
        return [b for b in solutions
                if not any(_rules.evaluate_where(graph, inner, b, limit=1)
                           for inner in self.probes[frozenset(b)])]


def _wake_test(where: GroupPattern) -> WakeTest:
    """The rule's wake test."""
    # the anchors of each parity, once each: branches share patterns
    anchors: dict[tuple, None] = {}
    guards: dict[tuple, None] = {}
    probes: dict[frozenset, tuple] = {}
    tags = count(1)

    def walk(gp: GroupPattern, depth: int, names: dict[Variable, Variable], tag: int,
             scope: set[Variable], enclosing: list[TriplePattern]):
        """Adds the anchors of each branch of the group and of the groups
        nested in it, and the probes of the top-level branches.

        Variables are renamed apart across the rule: `names` holds the names
        a NOT EXISTS group inherits from its parent, and its other variables
        get the group's `tag`. `scope` holds the variables bound around the
        group, and `enclosing` the renamed triple patterns of the groups
        around this one, all of which a solution of this group needs
        matched. A NOT EXISTS in several branches is walked once, with what
        all of them bind and the patterns all of them hold."""
        def name(v: Variable) -> Variable:
            return names.get(v) or Variable(f"{v.name}#{tag}")

        nested: dict[int, tuple] = {}
        for elements in gp.branches:
            own = [TriplePattern(*(name(part) if isinstance(part, Variable) else part
                                   for part in (el.subject, el.predicate, el.object)))
                   for el in elements if isinstance(el, TriplePattern)]
            around = enclosing + own
            shapes = tuple(dict.fromkeys(map(_rules._shape, around)))
            for k in range(len(enclosing), len(around)):
                (guards if depth % 2 else anchors)[
                    (*_anchor(around[k], around[:k] + around[k + 1:]), shapes)] = None
            bound = scope.union(*map(_rules._binds, elements))
            groups = [el for el in elements if isinstance(el, NotExists)]
            for el in groups:
                _, shared, common = nested.get(id(el), (el, bound, own))
                nested[id(el)] = (el, shared & bound, [tp for tp in common if tp in own])
            if gp is where:
                probes[frozenset(bound)] = tuple(el.inner for el in groups)
        for el, bound, common in nested.values():
            walk(el.inner, depth + 1, {v: name(v) for v in bound}, next(tags), bound,
                 enclosing + common)

    walk(where, 0, {}, 0, set(), [])

    def built(fields) -> tuple[_Anchor, ...]:
        return tuple(_Anchor(*head, *(tuple(itemgetter(*picks) for picks in getters)
                                      for getters in (per_predicate, per_triple)), shapes)
                     for *head, per_predicate, per_triple, shapes in fields)

    return WakeTest(built(anchors), built(guards),
                    probes if len(probes) == len(where.branches) else None)


def _anchor(tp: TriplePattern, neighbours: list[TriplePattern]) -> tuple:
    """The anchor `tp`, checked against those of the `neighbours` that
    share a variable with it: the fields of an _Anchor up to its shapes,
    with the positions each getter picks in place of the getter."""
    constants: list = [None]

    def constant(term: Term) -> int:
        if term not in constants:
            constants.append(term)
        return 3 + constants.index(term)

    predicate = None if isinstance(tp.predicate, Variable) else tp.predicate
    # the added triples are looked up by constant predicate and object
    looked_up = (1,) if predicate is None else (1, 2)
    position: dict[Variable, int] = {}
    equal = []
    for i, part in enumerate((tp.subject, tp.predicate, tp.object)):
        if not isinstance(part, Variable):
            if i not in looked_up:
                equal.append((i, constant(part)))
        elif part in position:
            equal.append((position[part], i))
        else:
            position[part] = i
    per_predicate: dict[tuple, None] = {}
    per_triple: dict[tuple, None] = {}
    for other in neighbours:
        parts = (other.subject, other.predicate, other.object)
        reads = {position[part] for part in parts if part in position}
        if reads:
            picks = tuple(position.get(part, 3) if isinstance(part, Variable) else constant(part)
                          for part in parts)
            (per_predicate if reads == {1} else per_triple)[picks] = None
    obj = None if predicate is None or isinstance(tp.object, Variable) else tp.object
    return predicate, obj, tuple(equal), tuple(constants), tuple(per_predicate), tuple(per_triple)


@dataclass(frozen=True)
class RuleEntry:
    rule_id: str
    query: RuleQuery
    layer: str = "user"

    @cached_property
    def wake(self) -> WakeTest:
        """Worked out the first time a fixpoint asks, in its second
        iteration, and kept."""
        return _wake_test(self.query.where_clause)


class RuleSet:
    """Ordered collection of rules with unique ids."""

    def __init__(self, entries: Iterable[RuleEntry] = ()):
        self.entries: list[RuleEntry] = []
        self._ids: set[str] = set()
        for e in entries:
            self.add(e)

    def add(self, entry: RuleEntry):
        if entry.rule_id in self._ids:
            raise ValueError(f"duplicate rule id {entry.rule_id!r}")
        self._ids.add(entry.rule_id)
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.rule_id for e in self.entries]

    def __add__(self, other: "RuleSet") -> "RuleSet":
        return RuleSet([*self.entries, *other.entries])


@dataclass
class EngineConfig:
    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    rule_id: str
    solutions: int
    added: int


@dataclass
class RunResult:
    graph: Graph
    iterations_used: int
    provenance: dict[Triple, tuple[str, int]]
    trace: list[TraceRecord] = field(default_factory=list)


MAX_CACHED_RULES = 256  # the catalog's 38 rules and the user rules last loaded


@lru_cache(maxsize=MAX_CACHED_RULES)
def rule_entry(rule_id: str, text: str, prefixes: frozenset, layer: str) -> RuleEntry:
    """The rule parsed under the prefix bindings, once per process while
    cached, with its plans and wake test. Keyword calls are cached apart."""
    return RuleEntry(rule_id, parse_rule(rule_id, text, dict(prefixes)), layer)


def load_rules(g: Graph) -> RuleSet:
    """One rule per individual typed :InferenceRule, which must carry
    exactly one literal rule body. A rule is named by its blank node's label,
    or by its IRI's local name under the graph's prefixes (`local_name`)."""
    subjects = sorted(g.subjects(RDF_TYPE, INFERENCE_RULE), key=term_key)
    prefixes = frozenset(g.prefix_map.items())
    namespaces = sorted(g.prefix_map.values(), key=len, reverse=True)
    out = RuleSet()
    for subject in subjects:
        bodies = list(g.objects(subject, HAS_SPARQL_CODE))
        rule_id = (subject.label if isinstance(subject, BlankNode)
                   else local_name(subject, namespaces))
        if not bodies:
            raise MissingRuleBody(f"inference rule {rule_id} has no rule body")
        if len(bodies) > 1 or not isinstance(bodies[0], Literal):
            raise MissingRuleBody(f"inference rule {rule_id} has {len(bodies)} rule body "
                                  f"value(s); it needs exactly one literal")
        out.add(rule_entry(rule_id, bodies[0].value, prefixes, "user"))
    return out


def strip_rules(g: Graph) -> Graph:
    """The data remainder of a graph: everything except rule definitions."""
    subjects = set(g.subjects(RDF_TYPE, INFERENCE_RULE))
    out = Graph(prefix_map=g.prefix_map)
    for t in g.match_iter():
        if t.subject in subjects and (
                (t.predicate == RDF_TYPE and t.object == INFERENCE_RULE)
                or t.predicate == HAS_SPARQL_CODE):
            continue
        out.insert(t)
    return out


def run_fixpoint(data: Graph, rules: RuleSet, cfg: Optional[EngineConfig] = None) -> RunResult:
    """Apply all rules to a fixpoint; the result graph always contains the input."""
    cfg = cfg or EngineConfig()
    graph = data.copy()
    provenance: dict[Triple, tuple[str, int]] = {}
    trace: list[TraceRecord] = []
    last: dict[int, list[Binding]] = {}  # each rule's solutions in the last iteration
    delta: Optional[_Added] = None  # what the last iteration added
    for iteration in range(1, cfg.max_iterations + 1):
        pending: list[Triple] = []
        seen: set[tuple] = set()  # this pass's new triples, as (s, p, o)
        for position, entry in enumerate(rules):
            solutions = kept = None
            if delta is not None and not _matches(entry.wake.anchors, delta):
                solutions = kept = entry.wake.kept(graph, last[position], delta)
            if solutions is None:
                solutions = evaluate_where(graph, entry.query.where_clause)
            last[position] = solutions
            # kept solutions gave their triples last iteration, save fresh blank nodes
            added = (instantiate(entry.query, solutions, f"i{iteration}", graph, seen)
                     if kept is None or entry.query.template.blanks else [])
            pending += added
            provenance.update(dict.fromkeys(added, (entry.rule_id, iteration)))
            trace.append(TraceRecord(iteration, entry.rule_id, len(solutions), len(added)))
        if not pending:
            return RunResult(graph, iteration, provenance, trace)
        graph.update(pending)
        delta = _Added(graph, pending)
    raise MaxIterationsExceeded(cfg.max_iterations, len(pending),
                                tuple(dict.fromkeys(provenance[t][0] for t in pending)))


def diff_inferred(result: RunResult, data: Graph) -> Graph:
    """Exactly the inferred triples: the run's graph minus its input."""
    return graph_difference(result.graph, data)

"""A frozen copy of the naive WHERE evaluator and fixpoint, kept as a test oracle.

`evaluate_where` is the evaluator as it stood before NOT EXISTS became an
existence probe, join plans were cached per graph snapshot and the graph got
two-level indexes: every NOT EXISTS runs the whole inner group, every call
re-plans its runs of triple patterns, and every element's solutions are
deduplicated. It reads the graph only through `match_iter` and the three
`*_pool` sizes. Do not optimise it: the tests compare the engine's
evaluator against it, solution list for solution list.

`run_fixpoint` is the naive snapshot fixpoint over that evaluator, with the
`instantiate` and skolem labels it calls: every iteration evaluates every
rule in full against the graph as it stood when the iteration began. The
tests compare the engine's graph, provenance, trace and iteration count
against it.

`_Parser` is the Turtle reader, with its `_Scanner`, `_read_string` and
`_read_name`, as it stood when it kept `line` and `col` in step with `pos`
one character at a time, but for one later change: an IRI the model rejects
is a syntax error at its `<` or name, and so is a `@prefix` whose namespace
can make no IRI, at the directive. The tests compare the reader's triples,
prefix map and errors (message, line and column) against it.

`_order` and `_greedy` are the join planner's branch ordering as it stood
before its per-call work was trimmed: every call sorts all its starts and
places the guards by filtering the waiting ones at each binder. They read a
segment's `after`, the variables each binder had to wait for when a guard
saw only the variables bound where it is written; the tests hand them
segments with an all-zero `after`, and compare `rules._order` against them,
step for step and by identity.

`branch_scoped` is not frozen: it rewrites a group so that the frozen
left-to-right `evaluate_where` applies each FILTER and NOT EXISTS to the
whole branch it stands in, as the engine does.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from normgraph.engine import EngineConfig, MaxIterationsExceeded, RuleSet, RunResult, TraceRecord
from normgraph.model import (
    BlankNode, DEFAULT_PREFIXES, Graph, Iri, Literal, RDF_TYPE, Term, Triple, render_term,
    term_key,
)
from normgraph.rules import (
    Bind, BindConflict, Comparison, ExprAnd, Filter, GroupPattern, NotExists,
    RuleQuery, TemplateBlank, TriplePattern, UnboundTemplateVariable, Union, Variable,
    bindable_variables,
)
from normgraph.turtle import TurtleSyntaxError

Binding = dict[Variable, Term]


def _freeze(b: Binding) -> frozenset:
    return frozenset((v.name, t) for v, t in b.items())


def _match_pattern(g: Graph, tp: TriplePattern, binding: Binding) -> list[Binding]:
    def resolve(part):
        if isinstance(part, Variable):
            return binding.get(part)
        return part

    s, p, o = resolve(tp.subject), resolve(tp.predicate), resolve(tp.object)
    out = []
    for t in g.match_iter(s, p, o):
        new = dict(binding)
        ok = True
        for part, actual in ((tp.subject, t.subject), (tp.predicate, t.predicate),
                             (tp.object, t.object)):
            if isinstance(part, Variable):
                bound = new.get(part)
                if bound is None:
                    new[part] = actual
                elif bound != actual:
                    ok = False
                    break
        if ok:
            out.append(new)
    return out


class _UnboundInFilter(Exception):
    pass


def _eval_expr(expr, binding: Binding) -> bool:
    if isinstance(expr, Comparison):
        def value(part):
            if isinstance(part, Variable):
                if part not in binding:
                    raise _UnboundInFilter(part.name)
                return binding[part]
            return part
        equal = value(expr.left) == value(expr.right)
        return (not equal) if expr.negated else equal
    if isinstance(expr, ExprAnd):
        return all(_eval_expr(item, binding) for item in expr.items)
    return any(_eval_expr(item, binding) for item in expr.items)


_BOUND_POOL = 4


def _pattern_cost(g: Graph, tp: TriplePattern, bound: set[Variable]) -> int:
    pools = []
    for part, pool_of in ((tp.subject, g.subject_pool),
                          (tp.predicate, g.predicate_pool),
                          (tp.object, g.object_pool)):
        if isinstance(part, Variable):
            if part in bound:
                pools.append(_BOUND_POOL)
        else:
            pools.append(pool_of(part))
    return min(pools) if pools else len(g) + 1


def _pattern_vars(tp: TriplePattern):
    return (part for part in (tp.subject, tp.predicate, tp.object)
            if isinstance(part, Variable))


def _plan_run(g: Graph, run: list[TriplePattern], bound: set[Variable]) -> list[TriplePattern]:
    remaining = list(enumerate(run))
    ordered = []
    bound = set(bound)
    while remaining:
        index, best = min(remaining,
                          key=lambda iv: (_pattern_cost(g, iv[1], bound), iv[0]))
        remaining.remove((index, best))
        ordered.append(best)
        bound.update(_pattern_vars(best))
    return ordered


def _order(segment: _Segment, estimates: Optional[list] = None) -> list:
    """The branch's steps: its binders in the cheapest order found, each
    guard right after the binder that binds the last of its needed
    variables, and the guards that become ready together in rank order.

    `estimates` holds each binder's expected matches with nothing bound and
    the factor that binding each of its variables divides them by (see
    `_estimate`); without them the binders keep their written order. The
    search runs `_greedy` from each allowed first binder, cheapest first:
    the plain greedy's run in full, then, if its plan's bindings exceed 8
    times the binders it looked at, runs cut once they cost as much as the
    best, until a start alone does or all runs have looked at that many."""
    order = range(len(segment.binders))
    if estimates:
        factors = [list(zip(bits, pairs)) for bits, (_, pairs) in zip(segment.bits, estimates)]
        cost = [matches for matches, _ in estimates]
        for i, pairs in enumerate(factors):
            for bit, factor in pairs:
                if segment.entry & bit:
                    cost[i] /= factor
        starts = sorted((i for i in order if not segment.after[i]), key=cost.__getitem__)
        order, best, work = _greedy(segment, factors, cost, starts[0], None, 0)
        budget = 8 * work
        for first in starts[1:] if budget < best else ():
            if cost[first] >= best or work >= budget:
                break
            steps, total, work = _greedy(segment, factors, cost, first, best, work)
            if steps is not None:
                order, best = steps, total
    steps, placed, waiting = [], 0, segment.guards
    for i in order:
        if waiting:
            steps += (guard.element for guard in waiting if not guard.needed & ~placed)
            waiting = [guard for guard in waiting if guard.needed & ~placed]
        steps.append(segment.binders[i])
        placed |= segment.masks[i]
    return steps + [guard.element for guard in waiting]


def _greedy(segment: _Segment, factors: list, cost: list, first: int,
            limit: Optional[float], work: int) -> tuple[Optional[list], float, int]:
    """The order that takes binder `first`, then each time the allowed one
    with the fewest expected matches per binding, the first written on a
    tie; its estimated total bindings, the sum of the rows after each step;
    and `work` plus the binders looked at. The order is None if the total
    reaches `limit` first. The first written binder left is always allowed."""
    cost, remaining, masks, after = list(cost), list(range(len(cost))), segment.masks, segment.after
    bound, rows, total, order, allowed = segment.entry, 1.0, 0.0, [], [first]
    while allowed:
        best = min(allowed, key=cost.__getitem__)
        rows *= cost[best]
        total += rows
        if limit is not None and total >= limit:
            return None, total, work
        order.append(best)
        remaining.remove(best)
        fresh, bound = masks[best] & ~bound, bound | masks[best]
        for i in remaining:
            if fresh & masks[i]:
                for bit, factor in factors[i]:
                    if fresh & bit:
                        cost[i] /= factor
        work += len(remaining)
        allowed = [i for i in remaining if not after[i] & ~bound] if any(after) else remaining
    return order, total, work


def evaluate_where(g: Graph, gp: GroupPattern, seed: Optional[Binding] = None) -> list[Binding]:
    acc: list[Binding] = [dict(seed) if seed else {}]
    bound: set[Variable] = set(seed) if seed else set()
    elements = list(gp.elements)
    position = 0
    while position < len(elements):
        el = elements[position]
        if not acc:
            break
        if isinstance(el, TriplePattern):
            run = [el]
            while position + 1 < len(elements) and isinstance(elements[position + 1],
                                                              TriplePattern):
                position += 1
                run.append(elements[position])
            for tp in _plan_run(g, run, bound):
                acc = [nb for b in acc for nb in _match_pattern(g, tp, b)]
                bound.update(_pattern_vars(tp))
                if not acc:
                    break
        elif isinstance(el, Union):
            nxt: list[Binding] = []
            for b in acc:
                nxt.extend(evaluate_where(g, el.left, b))
                nxt.extend(evaluate_where(g, el.right, b))
            acc = nxt
            bound |= bindable_variables(el.left) | bindable_variables(el.right)
        elif isinstance(el, NotExists):
            acc = [b for b in acc if not evaluate_where(g, el.inner, b)]
        elif isinstance(el, Filter):
            kept = []
            for b in acc:
                try:
                    if _eval_expr(el.expr, b):
                        kept.append(b)
                except _UnboundInFilter:
                    pass
            acc = kept
        elif isinstance(el, Bind):
            for b in acc:
                if el.var in b:
                    raise BindConflict(f"variable ?{el.var.name} is already bound")
                b[el.var] = el.value
            bound.add(el.var)
        else:
            raise TypeError(f"unknown pattern element {el!r}")
        seen: set[frozenset] = set()
        unique: list[Binding] = []
        for b in acc:
            key = _freeze(b)
            if key not in seen:
                seen.add(key)
                unique.append(b)
        acc = unique
        position += 1
    acc.sort(key=lambda b: sorted((v.name, term_key(t)) for v, t in b.items()))
    return acc


def branch_scoped(gp: GroupPattern) -> GroupPattern:
    """The UNION of the group's branches (`GroupPattern.branches`), each its
    binders in written order, then its FILTERs and NOT EXISTS in written
    order, the group of each NOT EXISTS rewritten the same way."""
    branches = []
    for elements in gp.branches:
        binders = tuple(el for el in elements if isinstance(el, (TriplePattern, Bind)))
        guards = tuple(NotExists(branch_scoped(el.inner)) if isinstance(el, NotExists) else el
                       for el in elements if isinstance(el, (Filter, NotExists)))
        branches.append(GroupPattern(binders + guards))
    union = branches[0]
    for right in branches[1:]:
        union = GroupPattern((Union(union, right),))
    return union


def _skolem_label(rule_id: str, index: int, salt: str, signature: str) -> str:
    digest = hashlib.sha1(
        f"{rule_id}\x00{index}\x00{salt}\x00{signature}".encode()).hexdigest()[:12]
    return f"skolem:{rule_id}:{index}:{digest}"


def _solution_signature(binding: Binding) -> str:
    return ",".join(f"{v.name}={render_term(t)}"
                    for v, t in sorted(binding.items(), key=lambda kv: kv[0].name))


def instantiate(rq: RuleQuery, solutions: Iterable[Binding], salt: str = "") -> Graph:
    out = Graph()
    for binding in solutions:
        signature = _solution_signature(binding)
        blanks: dict[int, BlankNode] = {}

        def resolve(part):
            if isinstance(part, Variable):
                if part not in binding:
                    raise UnboundTemplateVariable(
                        f"rule '{rq.rule_id}': ?{part.name} unbound at instantiation")
                return binding[part]
            if isinstance(part, TemplateBlank):
                if part.index not in blanks:
                    blanks[part.index] = BlankNode(
                        _skolem_label(rq.rule_id, part.index, salt, signature))
                return blanks[part.index]
            return part

        for tt in rq.construct_template:
            out.insert(Triple(resolve(tt.subject), resolve(tt.predicate), resolve(tt.object)))
    return out


def run_fixpoint(data: Graph, rules: RuleSet, cfg: Optional[EngineConfig] = None) -> RunResult:
    cfg = cfg or EngineConfig()
    graph = data.copy()
    provenance: dict[Triple, tuple[str, int]] = {}
    trace: list[TraceRecord] = []
    for iteration in range(1, cfg.max_iterations + 1):
        pending: list[Triple] = []
        pending_set: set[Triple] = set()
        for entry in rules:
            solutions = evaluate_where(graph, entry.query.where_clause)
            produced = instantiate(entry.query, solutions, f"i{iteration}")
            added = 0
            for t in produced:
                if t in graph or t in pending_set:
                    continue
                pending.append(t)
                pending_set.add(t)
                provenance[t] = (entry.rule_id, iteration)
                added += 1
            trace.append(TraceRecord(iteration, entry.rule_id, len(solutions), added))
        if not pending:
            return RunResult(graph, iteration, provenance, trace)
        graph.update(pending)
    raise MaxIterationsExceeded(cfg.max_iterations, len(pending))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, at: tuple[int, int] | None = None) -> TurtleSyntaxError:
        """The error at `at`, a line and column, or else where the scanner is."""
        return TurtleSyntaxError(message, *(at or (self.line, self.col)))

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + n]
        for c in chunk:
            if c == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return chunk

    def skip_ws(self):
        while not self.eof():
            c = self.peek()
            if c in " \t\r\n":
                self.advance()
            elif c == "#":
                while not self.eof() and self.peek() != "\n":
                    self.advance()
            else:
                break

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")
_SHORT_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _read_string(sc: _Scanner) -> str:
    at = (sc.line, sc.col)  # the opening quote
    if sc.startswith('"""'):
        sc.advance(3)
        start = sc.pos
        while not sc.startswith('"""'):
            if sc.eof():
                raise sc.error("unterminated long string", at)
            sc.advance()
        value = sc.text[start:sc.pos]
        sc.advance(3)
        return value
    sc.advance()  # opening quote
    out = []
    while True:
        if sc.eof():
            raise sc.error("unterminated string", at)
        c = sc.peek()
        if c in ("\n", "\r"):
            raise sc.error("newline in short string")
        if c == '"':
            sc.advance()
            return "".join(out)
        if c == "\\":
            sc.advance()
            esc = sc.advance()
            if esc not in _SHORT_ESCAPES:
                raise sc.error(f"unknown escape \\{esc}")
            out.append(_SHORT_ESCAPES[esc])
        else:
            out.append(sc.advance())


def _read_name(sc: _Scanner) -> str:
    start = sc.pos
    while not sc.eof() and sc.peek() in _NAME_CHARS:
        sc.advance()
    name = sc.text[start:sc.pos]
    # A trailing dot belongs to the statement terminator, not the name.
    while name.endswith("."):
        name = name[:-1]
        sc.pos -= 1
        sc.col -= 1
    return name


def _iri(value: str, at: tuple[int, int]) -> Iri:
    """The IRI `value`, or a syntax error at `at`, the line and column it is written at."""
    try:
        return Iri(value)
    except ValueError as err:
        raise TurtleSyntaxError(str(err), *at) from None


class _Parser:
    def __init__(self, text: str, scope: str = ""):
        self.sc = _Scanner(text)
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.graph = Graph(prefix_map=self.prefixes)
        self._blank_counter = 0
        self._label_prefix = f"parse:{scope}:" if scope else "parse:"

    def fresh_blank(self) -> BlankNode:
        # Anonymous "[ ... ]" nodes get a reserved sub-namespace so they can
        # never collide with explicit "_:label" nodes from the same document.
        self._blank_counter += 1
        return BlankNode(f"{self._label_prefix}anon:{self._blank_counter}")

    def parse(self) -> Graph:
        sc = self.sc
        while True:
            sc.skip_ws()
            if sc.eof():
                break
            if sc.startswith("@prefix"):
                self.parse_prefix()
                continue
            self.parse_statement()
        self.graph.prefix_map = dict(self.prefixes)
        return self.graph

    def parse_prefix(self):
        sc = self.sc
        at = (sc.line, sc.col)
        sc.advance(len("@prefix"))
        sc.skip_ws()
        name = _read_name(sc)
        if sc.peek() != ":":
            raise sc.error("expected ':' in @prefix directive")
        sc.advance()
        sc.skip_ws()
        if sc.peek() != "<":
            raise sc.error("expected IRI in @prefix directive")
        opened = (sc.line, sc.col)
        sc.advance()
        start = sc.pos
        while not sc.eof() and sc.peek() != ">":
            sc.advance()
        if sc.eof():
            raise sc.error("unterminated IRI", opened)
        iri = sc.text[start:sc.pos]
        if iri:
            _iri(iri, at)
        sc.advance()
        sc.skip_ws()
        if sc.peek() == ".":
            sc.advance()
        self.prefixes[name] = iri

    def expand(self, prefix: str, local: str, at: tuple[int, int]) -> Iri:
        if prefix not in self.prefixes:
            raise self.sc.error(f"undeclared prefix '{prefix}:'", at)
        return _iri(self.prefixes[prefix] + local, at)

    def parse_term(self, as_subject: bool = False) -> Term:
        sc = self.sc
        sc.skip_ws()
        c = sc.peek()
        at = (sc.line, sc.col)
        if c == "<":
            sc.advance()
            start = sc.pos
            while not sc.eof() and sc.peek() != ">":
                sc.advance()
            if sc.eof():
                raise sc.error("unterminated IRI", at)
            value = sc.text[start:sc.pos]
            sc.advance()
            return _iri(value, at)
        if c == '"':
            if as_subject:
                raise sc.error("literal cannot be a subject")
            return Literal(_read_string(sc))
        if c == "[":
            return self.parse_bnode_property_list()
        if sc.startswith("_:"):
            sc.advance(2)
            label = _read_name(sc)
            if not label:
                raise sc.error("empty blank node label")
            # Extend the legal label alphabet with ':' so serialized
            # skolem/parse labels survive a round trip. Explicit labels get
            # their own sub-namespace, disjoint from anonymous "[ ... ]" ones.
            while not sc.eof() and sc.peek() == ":":
                sc.advance()
                label += ":" + _read_name(sc)
            return BlankNode(f"{self._label_prefix}id:{label}")
        if c == ":" or c in _NAME_CHARS:
            if c == ":":
                sc.advance()
                return self.expand("", _read_name(sc), at)
            name = _read_name(sc)
            if sc.peek() == ":":
                sc.advance()
                return self.expand(name, _read_name(sc), at)
            if name == "a":
                return RDF_TYPE
            raise sc.error(f"unexpected token {name!r}", at)
        raise sc.error(f"unexpected character {c!r}")

    def parse_bnode_property_list(self) -> BlankNode:
        sc = self.sc
        sc.advance()  # '['
        node = self.fresh_blank()
        sc.skip_ws()
        if sc.peek() == "]":
            sc.advance()
            return node
        self.parse_predicate_object_list(node)
        sc.skip_ws()
        if sc.peek() != "]":
            raise sc.error("expected ']'")
        sc.advance()
        return node

    def parse_predicate_object_list(self, subject: Term):
        sc = self.sc
        while True:
            sc.skip_ws()
            predicate = self.parse_term()
            if not isinstance(predicate, Iri):
                raise sc.error("predicate must be an IRI")
            while True:
                obj = self.parse_term()
                self.graph.insert(Triple(subject, predicate, obj))
                sc.skip_ws()
                if sc.peek() == ",":
                    sc.advance()
                    continue
                break
            sc.skip_ws()
            if sc.peek() == ";":
                sc.advance()
                sc.skip_ws()
                # A ';' may legally be followed by the list terminator.
                if sc.peek() in ("]", ".", ""):
                    return
                continue
            return

    def parse_statement(self):
        sc = self.sc
        subject = self.parse_term(as_subject=True)
        sc.skip_ws()
        # A bare property list such as "[ ... ]." is a complete statement.
        if not (isinstance(subject, BlankNode) and (sc.peek() in (".", "") or sc.eof())):
            self.parse_predicate_object_list(subject)
        sc.skip_ws()
        if sc.peek() == ".":
            sc.advance()
        elif not sc.eof():
            raise sc.error("expected '.' after statement")

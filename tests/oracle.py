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
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from normgraph.engine import EngineConfig, MaxIterationsExceeded, RuleSet, RunResult, TraceRecord
from normgraph.model import BlankNode, Graph, Term, Triple, render_term, term_key
from normgraph.rules import (
    Bind, BindConflict, Comparison, ExprAnd, Filter, GroupPattern, NotExists,
    RuleQuery, TemplateBlank, TriplePattern, UnboundTemplateVariable, Union, Variable,
    bindable_variables,
)

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
            if cfg.trace_enabled:
                trace.append(TraceRecord(iteration, entry.rule_id, len(solutions), added))
        if not pending:
            return RunResult(graph, iteration, provenance, trace)
        graph.update(pending)
    raise MaxIterationsExceeded(cfg.max_iterations, len(pending))

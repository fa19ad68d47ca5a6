"""The CONSTRUCT-WHERE rule dialect: syntax, parsing, and evaluation.

A rule is a CONSTRUCT template plus a WHERE group pattern. The dialect is a
frozen subset of SPARQL 1.1:

    rule      := CONSTRUCT '{' statement* '}' WHERE '{' group '}'
    statement := node verbs | blank
    verbs     := verb node (',' node)* (';' verb node (',' node)*)* [';']
    verb      := ?var | IRI
    node      := ?var | IRI | literal (not as a subject) | blank
    blank     := '[' [verbs] ']'
    group     := element*
    element   := statement
               | '{' group '}' UNION '{' group '}'
               | NOT EXISTS '{' group '}'
               | FILTER '(' expr ')'
               | BIND '(' ground-term AS ?var ')'   (?var unbound where written)
    expr      := comparisons ?v = t, ?v != t (also var/var), combined with
                 '&&', '||', and parentheses; t is no '[ ... ]'

The template and WHERE share the statement grammar: a `[ ... ]` stands only
where a subject or an object goes, and only a bare `[ ... ]` is a statement
without a predicate.

Rule text is read by the Turtle reader, subclassed (`_RuleParser`): IRIs,
prefixed names, literals and their escapes, `a`, `[ ... ]` and
predicate-object lists read as in Turtle. So a `.` inside a name belongs to
it and one at its end ends the statement (`:o.NOT` is one name); a short
string knows the escapes \\n, \\t, \\r, \\" and \\\\ and no raw line break,
and a long one keeps its text as written; an IRI the data model rejects
(`<a b>`, `<>`) is an error at its `<` or name. Rule text adds variables,
keywords (in any case), braced groups, UNION, NOT EXISTS, FILTER and BIND,
and differs where the subclass overrides the reader: `?x` and keywords go
where Turtle has terms; `.` is optional between elements, and a `;` may come
before `}`; `_:` is a prefix like any other, not a blank node label; and a
RuleSyntaxError gives the offset of the first problem met reading from the
start (of an unknown escape, its backslash). Braces, brackets and
parentheses nest at most MAX_NESTING (100) levels deep. Anything outside
this grammar is a syntax error: the evaluator would rather fail loudly than
silently mis-evaluate a rule.

Evaluation is set-semantics. A group's solutions are those of its branches,
the conjunctive groups its UNIONs distribute into (below). A branch's
solutions are the joins of its triple patterns and BINDs that pass each of
its FILTERs and NOT EXISTS: a guard applies to its whole branch, wherever it
is written, as a FILTER does to its group in SPARQL 1.1 (section 18.2.2):

  - a triple pattern joins all compatible graph matches;
  - UNION contributes the solutions of both branches;
  - NOT EXISTS keeps a solution iff the inner group has no solution under it
    (the solution substitutes into the inner pattern);
  - FILTER keeps solutions whose expression is true. It is evaluated left
    to right and stops once the result is known: `&&` at the first false
    item, `||` at the first true one. A comparison that is reached and
    mentions an unbound variable rejects the solution. With ?z unbound,
    `FILTER(?y = :b || ?z = :c)` passes a solution with ?y = :b, but
    `FILTER(?z = :c || ?y = :b)` rejects it; SPARQL 1.1 passes both;
  - BIND extends every solution with a constant.

A bare `{ }` group flattens into its parent and a UNION alternative into
each branch it is distributed into, so a FILTER or NOT EXISTS inside either
applies to that whole branch; SPARQL 1.1 scopes it to its own group.

How it runs:

  - Each group is put in a normal form once, kept on it: every UNION is
    distributed into it, so it becomes a tuple of conjunctive branches
    (Pérez, Arenas & Gutierrez, TODS 2009); `{A} UNION {B} {C} UNION {D}`
    has the branches AC, AD, BC, BD. The group's solutions are those of its
    branches, and a NOT EXISTS fails when any branch of its group has a
    solution. A group has at most MAX_BRANCHES (64) branches.
  - A BIND of a variable bound where it is written (as in SPARQL 1.1,
    section 18.2.1), or, in a NOT EXISTS group, of one that the branch
    around the group binds, is a syntax error at its BIND, so a BIND is a
    one-row join. A group built by hand with such a BIND raises BindConflict
    before it is searched.
  - A branch is planned as one unit: its triple patterns and BINDs in the
    order with the fewest estimated bindings in total that a bounded search
    finds (`_order`), from per-predicate counts and exact counts for
    constants, read once per graph state for each pattern shape. Each FILTER
    and NOT EXISTS runs right after the step that binds the last of the
    variables it mentions that the branch binds, so it sees the values the
    solution gives them. Guards that become ready together run FILTER
    first, then NOT EXISTS by nesting depth, then by number of patterns. A
    branch with a pattern whose constants match no triple has no solution:
    in that graph state it is neither ordered nor searched.
  - Each order is compiled once into a program of steps, each holding the
    function that runs it, as the variables bound before each step are
    known: what a BIND or a lone comparison does, and which positions of a
    pattern are free. With none free it runs `_contains`, a membership test;
    with only the object or only the subject free, `_objects` or `_subjects`,
    which read one index bucket; else `_extend`. A bucket read that binds ?x
    folds in the membership tests right after it that hold ?x once, not as the
    predicate: it keeps, in order, the terms that each test's bucket holds, a
    star join (RDF-3X) with no runner call per test. A group keeps, per set of
    seeded variables, its programs, its last order and the graph, held weakly,
    with its size; another graph, or the same one grown, is planned anew.
  - A branch may hold a role star: for a role class C, the containment guard
    `NOT EXISTS{?t a C. [FILTER(?t != ?x)] ?a ?t ?v. NOT EXISTS{?b ?t ?w}}`
    and the agreement guard `NOT EXISTS{?t a C. [FILTER(?t != ?x)] ?a ?t ?v.
    ?b ?t ?w. FILTER(?v != ?w)}` (its ?a and ?b either way round), `?a`, `?b`
    and `?x` bound by the branch (`_role_guard`). A pattern step whose one
    free variable is `?b`, once `?a` and `?x` are bound, takes as candidates
    the subjects that hold every (t, v) that `?a` holds for a member t of C
    other than `?x` (`_holders`), and keeps those its pattern matches; when
    `?a` holds no such pair it takes the pattern's matches. This loses no
    solution: for such a t, containment gives `?b` a value for t, and
    agreement makes every value `?a` has for t equal to every value `?b` has,
    so `?a` has one, v, and `?b` holds (t, v). Both guards still run, so the
    solutions are the same (Graefe, ICDE 1989; Helmer & Moerkotte, VLDB 1997).
  - NOT EXISTS is an existence probe, `evaluate_where(..., limit=1)`: the
    search stops at the first solution, and the probe at the first branch
    that gives one. Each call checks the group's kept plan against the
    graph inline, by size and then by the weak reference, and plans only
    when that fails; it searches with the binding it is given, which
    nothing changes. A full evaluation leaves its solutions in search order
    (SPARQL 1.1 orders none without ORDER BY); one branch never gives a
    solution twice, so only a group with several branches deduplicates them.

Blank nodes written in a WHERE group behave as fresh variables. Blank nodes
in the template become skolem nodes named from the rule id, the blank's
position, the solution, and the instantiation salt, so one instantiation call
is reproducible bit-for-bit. A solution that makes a template triple's
subject a literal, or its predicate anything but an IRI, stops instantiation
with a ValueError that names the rule. SPARQL 1.1 (section 16.2) would leave
such a triple out of the output; this dialect stops, so that a rule that
builds ill-formed triples is noticed.
"""

from __future__ import annotations

import hashlib
import re
import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, is_, itemgetter
from typing import Iterable, NamedTuple, Optional

from .model import (
    BlankNode, Graph, Iri, Literal, RDF_TYPE, Term, Triple, _Interned, render_term,
)
from .turtle import NAME, _NAME, _Parser


class RuleSyntaxError(Exception):
    def __init__(self, message: str, pos: int = -1, rule_id: str = ""):
        where = f" at offset {pos}" if pos >= 0 else ""
        tag = f" in rule '{rule_id}'" if rule_id else ""
        super().__init__(f"{message}{where}{tag}")
        self.pos = pos
        self.rule_id = rule_id


class UnboundTemplateVariable(Exception):
    pass


class BindConflict(Exception):
    pass


class Variable(_Interned):
    __slots__ = ("name", "__weakref__")


@dataclass(frozen=True)
class TemplateBlank:
    index: int


PatternTerm = Term | Variable


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm


@dataclass(frozen=True)
class Comparison:
    left: PatternTerm
    negated: bool  # True for !=
    right: PatternTerm


@dataclass(frozen=True)
class ExprAnd:
    items: tuple


@dataclass(frozen=True)
class ExprOr:
    items: tuple


Expr = Comparison | ExprAnd | ExprOr


@dataclass(frozen=True)
class Filter:
    expr: Expr


@dataclass(frozen=True)
class Bind:
    value: Term
    var: Variable


@dataclass(frozen=True)
class GroupPattern:
    elements: tuple

    @cached_property
    def branches(self) -> tuple[tuple, ...]:
        """The group with every UNION distributed into it: the branches, each
        its elements in written order, whose solutions together are the group's."""
        return tuple(_distribute(self))

    @cached_property
    def analyses(self) -> dict:
        """This group's `_Analysis`, the plan of its branches, per set of
        seeded variables, made by the first `_plan` for it; kept with the group."""
        return {}


def _distribute(gp: GroupPattern) -> list[tuple]:
    """The elements of each branch of the group, in written order."""
    branches = [()]
    for el in gp.elements:
        alternatives = (_distribute(el.left) + _distribute(el.right) if isinstance(el, Union)
                        else [(el,)])
        branches = [elements + more for elements in branches for more in alternatives]
    return branches


@dataclass(frozen=True)
class Union:
    left: GroupPattern
    right: GroupPattern


@dataclass(frozen=True)
class NotExists:
    inner: GroupPattern


@dataclass(frozen=True)
class RuleQuery:
    rule_id: str
    construct_template: tuple  # of TriplePattern, whose terms may be TemplateBlank
    where_clause: GroupPattern

    @cached_property
    def template(self) -> _Template:
        """The CONSTRUCT template compiled for `instantiate`, once, and kept."""
        return _compile_template(self.construct_template)


# --- Parser ------------------------------------------------------------------

_KEYWORDS = ("construct", "where", "union", "not", "exists", "filter", "bind", "as")
_WORD = r"[A-Za-z0-9_\-]"  # a letter of a variable name or a keyword
# Punctuation, a keyword that does not begin a prefixed name, or the end
_MARK = re.compile(
    rf"&&|\|\||!=|[{{}}()\[\];,=.]|(?!{NAME}:)(?:{'|'.join(_KEYWORDS)})(?!{_WORD})|\Z", re.I)
_MARK_START = "&|!{}()[];,=." + "".join(k[0] + k[0].upper() for k in _KEYWORDS)  # or the end
_VARIABLE = re.compile(f"{_WORD}*")
# The most branches a WHERE group may have once its UNIONs are distributed
# (see GroupPattern.branches); each is planned and searched on its own.
MAX_BRANCHES = 64


class _RuleParser(_Parser):
    """The Turtle reader, with variables and the SPARQL constructs on the
    same text and offset. The template and WHERE read triples with the same
    methods: they go to `triples`, and the n-th `[ ... ]` of the clause,
    from 0, is `blank(n)`."""

    ENDS = ("]", ".", "}", "")

    def __init__(self, rule_id: str, text: str, prefixes: dict[str, str]):
        super().__init__(text)
        self.prefixes.update(prefixes)
        self.rule_id = rule_id
        self.triples: list = []  # the template's, then the innermost open group's elements
        self.blank = TemplateBlank
        self.bind_at: dict[int, int] = {}  # the offset of each BIND keyword, by its Bind's id

    def error(self, message: str, pos: Optional[int] = None) -> RuleSyntaxError:
        return RuleSyntaxError(message, self.pos if pos is None else pos, self.rule_id)

    def add(self, subject, predicate, object):
        self.triples.append(TriplePattern(subject, predicate, object))

    def fresh_blank(self):
        self.blanks += 1
        return self.blank(self.blanks - 1)

    def escape_at(self, backslash: int, escape: str) -> int:
        return backslash

    def parse_term(self, as_subject: bool = False):
        """A variable, or a term as in Turtle; no mark but `[` is a term."""
        if self.next_char() == "?":
            self.pos += 1
            name = self.take(_VARIABLE)
            if not name:
                raise self.error("bad variable name", self.pos - 1)
            return Variable(name)
        mark = self.mark()
        if mark is not None and mark != "[":
            raise self.unexpected(f"unexpected token {mark!r}")
        return super().parse_term(as_subject)

    def parse_label(self, start: int) -> Iri:
        """`_:` is a prefix like any other: a rule has no blank node labels."""
        return self.expand("_", self.take(_NAME), start)

    def parse_predicate(self):
        if self.next_char() == "[":
            raise self.error("bad predicate")
        predicate = self.parse_term()
        if isinstance(predicate, Literal):
            raise self.error("bad predicate")
        return predicate

    def mark(self) -> Optional[str]:
        """The punctuation or keyword (in lower case) next, '' at the end, or None."""
        c = self.next_char()
        if c and c not in _MARK_START:
            return None
        found = _MARK.match(self.text, self.pos)
        return found and found[0].lower()

    def expect(self, mark: str):
        if self.mark() != mark:
            raise self.unexpected(f"expected {mark.upper() if mark.isalpha() else repr(mark)}")
        self.pos += len(mark)

    def unexpected(self, message: str) -> RuleSyntaxError:
        """`message` at the next token, which `mark` has found, or the end of the rule."""
        return self.error(message if self.pos < len(self.text) else "unexpected end of rule")

    def parse_rule(self) -> RuleQuery:
        self.expect("construct")
        self.expect("{")
        template = self.triples
        while self.mark() != "}":
            self.parse_triples()
            while self.mark() == ".":
                self.pos += 1
        self.pos += 1
        self.expect("where")
        # in WHERE a `[ ... ]` is a variable whose name no rule author can write
        self.blank, self.blanks = (lambda n: Variable(f" bnode{n}")), 0
        where, _ = self.parse_group()
        if self.mark() != "":
            raise self.error("trailing tokens after WHERE clause")
        rebound = rebinds(where)
        if rebound:
            pos, name = min((self.bind_at[id(el)], el.var.name) for el in rebound)
            raise self.error(f"variable ?{name} is already bound", pos)
        rq = RuleQuery(self.rule_id, tuple(template), where)
        unbound = template_variables(rq) - bindable_variables(where)
        if unbound:
            names = ", ".join(sorted(v.name for v in unbound))
            raise UnboundTemplateVariable(
                f"rule '{self.rule_id}': template variables never bound in WHERE: {names}")
        return rq

    def parse_triples(self):
        """A subject and its predicate-object list, which only a bare `[ ... ]` may leave out."""
        bare = self.next_char() == "["
        subject = self.parse_term(as_subject=True)
        if not (bare and self.next_char() in self.ENDS):
            self.parse_predicate_object_list(subject)

    # WHERE --------------------------------------------------------------

    def parse_group(self) -> tuple[GroupPattern, int]:
        """A braced group, and the number of branches it has."""
        self.expect("{")
        self.opened()
        elements: list = []
        outer, self.triples = self.triples, elements
        width = 1
        while (mark := self.mark()) not in ("", "}"):
            pos = self.pos
            if mark == ".":
                self.pos += 1
            elif mark == "{":
                left, alternatives = self.parse_group()
                union: Union | None = None
                while self.mark() == "union":
                    self.pos += len("union")
                    right, more = self.parse_group()
                    union = Union(left if union is None else GroupPattern((union,)), right)
                    alternatives += more
                width *= alternatives
                if width > MAX_BRANCHES:
                    raise self.error(f"more than {MAX_BRANCHES} UNION branches in a group", pos)
                # a bare braced group just flattens into the sequence
                elements += (union,) if union else left.elements
            elif mark == "not":
                self.pos += len("not")
                self.expect("exists")
                elements.append(NotExists(self.parse_group()[0]))
            elif mark == "filter":
                self.pos += len("filter")
                self.expect("(")
                expr = self.parse_expr()
                self.expect(")")
                elements.append(Filter(expr))
            elif mark == "bind":
                self.pos += len("bind")
                self.expect("(")
                if self.next_char() == "[":
                    raise self.error("BIND accepts only ground terms")
                value = self.parse_term()
                if isinstance(value, Variable):
                    raise self.error("BIND accepts only ground terms")
                self.expect("as")
                if self.next_char() != "?":
                    raise self.unexpected("expected variable after AS")
                var = self.parse_term()
                self.expect(")")
                elements.append(Bind(value, var))
                self.bind_at[id(elements[-1])] = pos
            elif mark in _KEYWORDS:
                raise self.error(f"unexpected keyword {mark.upper()}")
            else:
                self.parse_triples()
        self.expect("}")
        self.triples = outer
        self.depth -= 1
        return GroupPattern(tuple(elements)), width

    def parse_expr(self, joiner: str = "||") -> Expr:
        """`&&` chains joined by `||`, or with `joiner` '&&' primaries joined by `&&`."""
        item, join = ((self.parse_primary, ExprAnd) if joiner == "&&"
                      else (lambda: self.parse_expr("&&"), ExprOr))
        items = [item()]
        while self.mark() == joiner:
            self.pos += 2
            items.append(item())
        return items[0] if len(items) == 1 else join(tuple(items))

    def parse_primary(self) -> Expr:
        if self.mark() == "(":
            self.pos += 1
            self.opened()
            inner = self.parse_expr()
            # "(expr)" or "(operand op operand)" both arrive here; a closing
            # paren after a full expr ends the primary.
            self.expect(")")
            self.depth -= 1
            return inner
        left = self.parse_operand()
        op = self.mark()
        if op not in ("=", "!="):
            raise self.unexpected("expected '=' or '!='")
        self.pos += len(op)
        return Comparison(left, op == "!=", self.parse_operand())

    def parse_operand(self) -> PatternTerm:
        c = self.next_char()
        if c == "(":
            raise self.error("nested comparison operand")
        if c == "[":
            raise self.error("blank node in FILTER")
        return self.parse_term()


def parse_rule(rule_id: str, text: str, prefixes: Optional[dict[str, str]] = None) -> RuleQuery:
    """Parse one rule body (the literal value of a has-sparql-code triple)."""
    parser = _RuleParser(rule_id, text, prefixes or {})
    return parser.parse_rule()


# --- Static analysis ---------------------------------------------------------


def template_variables(rq: RuleQuery) -> set[Variable]:
    return {part for tt in rq.construct_template for part in (tt.subject, tt.predicate, tt.object)
            if isinstance(part, Variable)}


def bindable_variables(gp: GroupPattern) -> set[Variable]:
    """Variables that can carry a binding out of the group: triple-pattern
    positions and BIND targets of any of its branches, not those inside
    NOT EXISTS or FILTER."""
    return {v for branch in gp.branches for el in branch for v in _binds(el)}


# --- Evaluation --------------------------------------------------------------

Binding = dict[Variable, Term]

# By positions (subject 1, predicate 2, object 4), what reads their terms off a triple.
_READ = [None] + [attrgetter(*(name for i, name in enumerate(("subject", "predicate", "object"))
                               if positions >> i & 1)) for positions in range(1, 8)]


def _contains(g: Graph, step: tuple, binding: Binding) -> tuple:
    (_, s, p, o, _), get = step, binding.get
    return (binding,) if get(o, o) in g.objects(get(s, s), get(p, p)) else ()


def _objects(g: Graph, step: tuple, binding: Binding) -> list[Binding]:
    (_, s, p, o, checks), get = step, binding.get
    terms = g.objects(get(s, s), get(p, p))
    for read, a, b in checks:  # the folded membership tests (see `_program`)
        bucket = read(g, get(a, a), get(b, b))
        terms = [term for term in terms if term in bucket]
    return [{**binding, o: term} for term in terms]


def _subjects(g: Graph, step: tuple, binding: Binding) -> list[Binding]:
    (_, s, p, o, checks), get = step, binding.get
    terms = g.subjects(get(p, p), get(o, o))
    for read, a, b in checks:
        bucket = read(g, get(a, a), get(b, b))
        terms = [term for term in terms if term in bucket]
    return [{**binding, s: term} for term in terms]


def _extend(g: Graph, step: tuple, binding: Binding) -> list[Binding]:
    """The extensions of `binding` by every graph match of a triple pattern's
    `step` (see `_compile`). A step with a role star takes its one free
    variable's values from the star's holders, when there are any, and keeps
    those its pattern matches."""
    _, s, p, o, var, free, read, star = step
    get = binding.get  # a bound variable gives its value, a term or None itself
    if star is not None:
        a, role_class, x, at = star
        holders = _holders(g, get(a), role_class, get(x))
        if holders is not None:
            terms = (get(s, s), get(p, p), get(o, o))
            return [{**binding, var: h} for h in holders
                    if g.count(*terms[:at], h, *terms[at + 1:])]
    matches = g.match_iter(get(s, s), get(p, p), get(o, o))
    if var is not None:
        return [{**binding, var: read(t)} for t in matches]
    if len(set(free)) == len(free):
        return [{**binding, **dict(zip(free, terms))} for terms in map(read, matches)]
    # a variable in two free positions must match the same term
    return [{**binding, **new} for terms in map(read, matches)
            for new in (dict(zip(free, terms)),) if tuple(map(new.get, free)) == terms]


_LOOKUPS = {0: _contains, 1: _subjects, 4: _objects}  # by free positions, as in _READ
_PATTERN_RUNS = (*_LOOKUPS.values(), _extend)  # every runner of a triple pattern's step


def _holders(g: Graph, a: Term, role_class: Term, x: Optional[Term]) -> Optional[list]:
    """The subjects that hold every (role, value) pair `a` holds for a role
    of class `role_class` other than `x`, in the order the rarest pair's
    holders were added; None if `a` holds no such pair."""
    pairs = [(t.predicate, t.object) for t in g.match_iter(a)
             if t.predicate != x and g.count(t.predicate, RDF_TYPE, role_class)]
    if not pairs:
        return None
    rarest = min(pairs, key=lambda pair: g.count(None, *pair))
    return [s for s in g.subjects(*rarest) if all(g.count(s, *pair) for pair in pairs)]


def _bind(g: Graph, step: tuple, binding: Binding) -> tuple:
    return ({**binding, step[1]: step[2]},)


def _compare(g: Graph, step: tuple, binding: Binding) -> tuple:
    _, left, right, negated = step
    get = binding.get
    return (binding,) if (get(left, left) == get(right, right)) != negated else ()


def _not_exists(g: Graph, step: tuple, binding: Binding) -> tuple:
    return () if evaluate_where(g, step[1], binding, limit=1) else (binding,)


def _filter(g: Graph, step: tuple, binding: Binding) -> tuple:
    return (binding,) if _eval_expr(step[1], binding) else ()


def _eval_expr(expr: Expr, binding: Binding) -> Optional[bool]:
    """Its value, or None from the first comparison reached with an unbound variable."""
    if isinstance(expr, Comparison):
        left, right = binding.get(expr.left, expr.left), binding.get(expr.right, expr.right)
        if isinstance(left, Variable) or isinstance(right, Variable):
            return None
        return (left == right) != expr.negated
    decisive = isinstance(expr, ExprOr)  # True ends an ||, False an &&
    for item in expr.items:
        value = _eval_expr(item, binding)
        if value is None or value is decisive:
            return value
    return not decisive


def _binds(el) -> tuple:
    """The variables a step of a branch binds."""
    if isinstance(el, TriplePattern):
        return tuple(part for part in (el.subject, el.predicate, el.object)
                     if isinstance(part, Variable))
    return (el.var,) if isinstance(el, Bind) else ()


def _nested(gp: GroupPattern):
    """Every element of the group's branches and of the groups inside them,
    once each, with the number of NOT EXISTS between it and the group."""
    pending = [(gp, 0)]
    while pending:
        group, depth = pending.pop()
        for el in {id(e): e for b in group.branches for e in b}.values():
            yield el, depth
            if isinstance(el, NotExists):
                pending.append((el.inner, depth + 1))


def _expr_variables(expr: Expr):
    if isinstance(expr, Comparison):
        return {part for part in (expr.left, expr.right) if isinstance(part, Variable)}
    return set().union(*map(_expr_variables, expr.items))


def _mentioned(el: Filter | NotExists) -> set[Variable]:
    """The variables whose values can decide what a guard does: for a NOT
    EXISTS, those of its patterns, FILTERs and BINDs at any depth."""
    if isinstance(el, Filter):
        return _expr_variables(el.expr)
    out: set[Variable] = set()
    for inner, _ in _nested(el.inner):
        out.update(_expr_variables(inner.expr) if isinstance(inner, Filter) else _binds(inner))
    return out


def _guard_rank(el: Filter | NotExists, index: int) -> tuple:
    """FILTER first, then NOT EXISTS by nesting depth, then by the number of
    triple patterns inside, then in written order."""
    if isinstance(el, Filter):
        return (0, 0, 0, index)
    inside = list(_nested(el.inner))
    depth = 1 + max((d + 1 for inner, d in inside if isinstance(inner, NotExists)), default=0)
    return (1, depth, sum(isinstance(inner, TriplePattern) for inner, _ in inside), index)


class _Guard(NamedTuple):
    element: Filter | NotExists
    needed: int  # the variables it mentions that the branch's binders bind: it runs after them


class _Segment(NamedTuple):
    """A branch to order and compile; a set of its variables is an int, one bit each."""
    binders: tuple  # triple patterns and BINDs, in written order
    shapes: tuple   # per binder, its terms with None for a variable (None for a BIND)
    bits: tuple     # per binder, the bit of each variable it binds, in position order
    masks: tuple    # the variables each binder binds
    guards: tuple   # of _Guard, in rank order
    entry: int      # the seeded variables
    stars: tuple    # (a, b, C, x) of each role star of its guards (see `_role_guard`)
    programs: list  # (steps, program) of each order compiled (see `_program`)


def _segment(elements: tuple, seeded: frozenset) -> _Segment:
    binders = [el for el in elements if isinstance(el, (TriplePattern, Bind))]
    bits = {v: 1 << i for i, v in enumerate(dict.fromkeys(v for el in binders for v in _binds(el)))}

    def mask(variables) -> int:
        return sum(bits.get(v, 0) for v in set(variables))

    bound = seeded.union(bits)  # bound in every solution of the branch
    guards = []  # (rank, guard)
    roles = {}  # the role guards, as (contains, a, b, C, x), in written order
    for index, el in enumerate(elements):
        if isinstance(el, (TriplePattern, Bind)):
            continue
        guards.append((_guard_rank(el, index), _Guard(el, mask(_mentioned(el) - seeded))))
        role = _role_guard(el, bound)
        if role is not None:
            roles[role] = None
            contains, a, b, c, x = role
            if not contains:  # agreement says the same with ?a and ?b swapped
                roles[False, b, a, c, x] = None
    guards.sort()  # ranks differ, as they end in the written place
    shapes = tuple(None if isinstance(el, Bind) else _shape(el) for el in binders)
    stars = tuple(role[1:] for role in roles if role[0] and (False, *role[1:]) in roles)
    return _Segment(tuple(binders), shapes, tuple(tuple(map(bits.get, _binds(el)))
                                                  for el in binders),
                    tuple(mask(_binds(el)) for el in binders),
                    tuple(guard for _, guard in guards), mask(seeded), stars, [])


def _role_guard(el, bound: set) -> Optional[tuple]:
    """(True, a, b, C, x) if `el`, in a branch that binds the variables
    `bound`, is the containment guard `NOT EXISTS{?t a C. [FILTER(?t != ?x)]
    ?a ?t ?v. NOT EXISTS{?b ?t ?w}}` over the roles of the constant class C;
    (False, a, b, C, x) if it is the agreement guard `NOT EXISTS{?t a C.
    [FILTER(?t != ?x)] ?a ?t ?v. ?b ?t ?w. FILTER(?v != ?w)}`; else None. x
    is None without the first FILTER. ?a, ?b and ?x must be bound by the
    branch, ?t, ?v and ?w must not, and each group must have one branch."""
    branches = el.inner.branches if isinstance(el, NotExists) else ()
    match branches[0] if len(branches) == 1 else ():
        case [TriplePattern(Variable() as t, p, c), Filter(expr), *rest]:
            x = _unequal(expr, t)
            if x is None:
                return None
        case [TriplePattern(Variable() as t, p, c), *rest]:
            x = None
        case _:
            return None
    match rest:
        case [TriplePattern(Variable() as a, t1, Variable() as v),
              NotExists(GroupPattern([TriplePattern(Variable() as b, t2, Variable() as w)]))]:
            contains = True
        case [TriplePattern(Variable() as a, t1, Variable() as v),
              TriplePattern(Variable() as b, t2, Variable() as w), Filter(expr)] \
                if _unequal(expr, v) is w:
            contains = False
        case _:
            return None
    if p is not RDF_TYPE or isinstance(c, Variable) or not (t is t1 is t2) or \
            len({t, v, w}) < 3 or {t, v, w} & bound or a is b or not {a, b, x} - {None} <= bound:
        return None
    return contains, a, b, c, x


def _unequal(expr: Expr, var) -> Optional[Variable]:
    """The variable that `expr` says `var` differs from, if it is `var != ?y` or `?y != var`."""
    if isinstance(expr, Comparison) and expr.negated and var in (expr.left, expr.right):
        other = expr.right if expr.left is var else expr.left
        return other if isinstance(other, Variable) else None
    return None


def _shape(tp: TriplePattern) -> tuple:
    """The pattern's terms, with None for each variable: the key its
    matches are counted, or looked for, by."""
    return tuple(None if isinstance(t, Variable) else t
                 for t in (tp.subject, tp.predicate, tp.object))


def _compile(el, bound: set, stars: tuple = ()) -> tuple:
    """The step that runs `el` on a binding of the variables `bound`, as
    `run(g, step, binding)` for its first item `run`. A triple pattern's is
    `(run, s, p, o, ())`, with no checks (see `_program`) and `run` by its
    free positions: none, `_contains`; the object alone, `_objects`; the
    subject alone, `_subjects`; else `(_extend, s, p, o, var, free, read,
    star)`: its terms, None where free, the variable of one free position or
    those of several, their reader, and, if that one free variable is the ?b
    of a role star in `stars` whose ?a and ?x are bound, (a, C, x, its
    position). A BIND of a bound variable, one planned after a step that
    binds it, joins."""
    def free(part) -> bool:
        return isinstance(part, Variable) and part not in bound
    if isinstance(el, TriplePattern):
        parts = (el.subject, el.predicate, el.object)
        at = [i for i, part in enumerate(parts) if free(part)]
        fresh = tuple(parts[i] for i in at)
        star = next(((a, c, x, at[0]) for a, b, c, x in stars if len(at) == 1 and
                     b is fresh[0] and a in bound and (x is None or x in bound)), None)
        mask = sum(1 << i for i in at)
        if star is None and mask in _LOOKUPS:
            return _LOOKUPS[mask], *parts, ()
        return (_extend, *(None if i in at else part for i, part in enumerate(parts)),
                fresh[0] if len(at) == 1 else None, fresh if len(at) > 1 else (),
                _READ[mask], star)
    if isinstance(el, Bind):
        return (_bind, el.var, el.value) if free(el.var) else (_compare, el.var, el.value, False)
    if isinstance(el, NotExists):
        return _not_exists, el.inner
    if isinstance(el.expr, Comparison) and not (free(el.expr.left) or free(el.expr.right)):
        return _compare, el.expr.left, el.expr.right, el.expr.negated
    return _filter, el.expr


def _program(segment: _Segment, steps: tuple, seeded: Iterable) -> tuple:
    """The steps in this order compiled for a seed binding `seeded`, star tests
    folded in, kept as orders repeat; the pattern steps of older orders are shared."""
    for order, program in segment.programs:
        if all(map(is_, order, steps)):
            return program
    bound, program = set(seeded), [(None,)]  # (None,) stands for the step before the first
    for el in steps:
        step, last = _compile(el, bound, segment.stars), program[-1]
        x = last[1] if last[0] is _subjects else last[3] if last[0] is _objects else None
        if step[0] is _contains and step[1:4].count(x) == 1 and step[2] is not x:
            check = (Graph.subjects, *step[2:4]) if step[1] is x else (Graph.objects, *step[1:3])
            step = (*program.pop()[:4], last[4] + (check,))
        program.append(step)
        bound.update(_binds(el))
    known = {step: step for _, old in segment.programs for step in old if step[0] in _PATTERN_RUNS}
    segment.programs.append((steps, tuple(known.get(step, step) if step[0] in _PATTERN_RUNS
                                          else step for step in program[1:])))
    return segment.programs[-1][1]


@dataclass
class _Analysis:
    """A group's plan for a seed binding one set of variables, kept in
    `GroupPattern.analyses`; only the orders depend on the graph's state."""
    parts: list     # per branch, a _Segment to order per graph state, or None
    steps: list     # per branch, its elements in the order to search them, None if dead
    programs: list  # per branch, its steps compiled (see `_program`), None if dead
    state: Optional[tuple] = None  # (weak reference to the graph, its size)


def rebinds(gp: GroupPattern, seeded: Iterable[Variable] = ()) -> list[Bind]:
    """The BINDs that target a variable already bound, with a seed binding
    the variables `seeded`: those of the group's branches bound where they
    are written, and those of the NOT EXISTS groups under them bound by the
    branch, which the group is probed under. A group that many branches
    share is looked at once per set of variables bound around it."""
    pending, seen, found = [(gp, frozenset(seeded))], set(), []
    while pending:
        group, before = pending.pop()
        if (id(group), before) in seen:
            continue
        seen.add((id(group), before))
        for branch in group.branches:
            bound = set(before)
            for el in branch:
                if isinstance(el, Bind) and el.var in bound:
                    found.append(el)
                bound.update(_binds(el))
            pending += ((el.inner, frozenset(bound)) for el in branch if isinstance(el, NotExists))
    return found


def _order(segment: _Segment, estimates: Optional[list] = None) -> list:
    """The branch's steps: its binders in the cheapest order found, each
    guard right after the binder that binds the last of its needed
    variables, and the guards that become ready together in rank order.

    `estimates` holds each binder's expected matches with nothing bound and
    the factor that binding each of its variables divides them by (see
    `_estimate`); without them the binders keep their written order. The
    search runs `_greedy` from each first binder, cheapest first (the first
    written on a tie): the plain greedy's run in full, then, if its plan's
    bindings exceed 8 times the binders it looked at, the other starts,
    sorted only now, in runs cut once they cost as much as the best, until a
    start alone does or all runs have looked at that many."""
    order, entry = range(len(segment.binders)), segment.entry
    if estimates:
        cost = []
        for bits, (matches, factors) in zip(segment.bits, estimates):
            for bit, factor in zip(bits, factors) if entry else ():
                if entry & bit:
                    matches /= factor
            cost.append(matches)
        order, best, work = _greedy(segment, estimates, cost, min(order, key=cost.__getitem__),
                                    None, 0)
        budget = 8 * work
        for first in sorted(range(len(cost)), key=cost.__getitem__)[1:] if budget < best else ():
            if cost[first] >= best or work >= budget:
                break
            steps, total, work = _greedy(segment, estimates, cost, first, best, work)
            if steps is not None:
                order, best = steps, total
    if not segment.guards:
        return [segment.binders[i] for i in order]
    steps, placed, waiting = [], 0, segment.guards
    for i in order:  # a guard ready before binder i is placed, in rank order, as it is dropped
        if waiting:
            waiting = [guard for guard in waiting
                       if guard.needed & ~placed or steps.append(guard.element)]
        steps.append(segment.binders[i])
        placed |= segment.masks[i]
    return steps + [guard.element for guard in waiting]


def _greedy(segment: _Segment, estimates: list, cost: list, first: int,
            limit: Optional[float], work: int) -> tuple[Optional[list], float, int]:
    """The order that takes binder `first`, then each time the one left with
    the fewest expected matches per binding, the first written on a tie; its
    estimated total bindings, the sum of the rows after each step; and
    `work` plus the binders looked at. The order is None if the total
    reaches `limit` first."""
    cost, remaining, masks = list(cost), list(range(len(cost))), segment.masks
    bound, rows, total, order, best = segment.entry, 1.0, 0.0, [], first
    while True:
        rows *= cost[best]
        total += rows
        if limit is not None and total >= limit:
            return None, total, work
        order.append(best)
        remaining.remove(best)
        fresh, bound = masks[best] & ~bound, bound | masks[best]
        for i in remaining:
            if fresh & masks[i]:
                for bit, factor in zip(segment.bits[i], estimates[i][1]):
                    if fresh & bit:
                        cost[i] /= factor
        work += len(remaining)
        if not remaining:
            return order, total, work
        best = min(remaining, key=cost.__getitem__)


def _estimate(g: Graph, shape: tuple) -> tuple[int, list]:
    """A pattern shape's exact matches with no variable bound, and per variable
    position the factor that binding it divides them by: its distinct terms,
    among the triples of a constant predicate (System R's selectivity)."""
    distinct = g.distinct(shape[1])
    return g.count(*shape), [max(distinct[i], 1) for i, part in enumerate(shape) if part is None]


# (weak reference to the graph, its size, {shape: _estimate}) last planned for, for all groups.
_estimates: tuple = (None, -1, {})


def _plan(g: Graph, gp: GroupPattern, seeded: Iterable[Variable]) -> list[Optional[tuple]]:
    """Each branch's steps in the order to search them, for a seed binding
    `seeded`, kept with their programs and the graph's state on the group's
    _Analysis; `evaluate_where` plans again when another graph, or the same
    one grown, asks. The graph is held weakly, so a new one at a freed
    address is not taken for it; a stale order only costs time.

    The first plan for a set of seeded variables makes its _Analysis and
    compiles, once, each branch with at most one binder: it has one order
    whatever the graph holds. A group where a BIND rebinds (see `rebinds`),
    which only one built by hand can be, raises BindConflict then.

    Each shape's estimate is read once per graph state, and `_order` puts
    each branch in order from them. Joins commute, a BIND is a one-row join,
    and a guard runs once every variable it mentions that the branch binds
    is bound, so the order never changes the solutions. A branch's estimates
    are read up to its first shape with no match: such a branch has no
    solution. It is dead, its steps and program None, and is neither ordered
    nor searched; a graph only grows, so the verdict holds until its size
    changes. An order that comes back the same, step for step, keeps its program."""
    global _estimates
    seeded = frozenset(seeded)
    analysis = gp.analyses.get(seeded)
    if analysis is None:
        rebound = rebinds(gp, seeded)
        if rebound:
            raise BindConflict(f"variable ?{rebound[0].var.name} is already bound")
        analysis = _Analysis([], [], [])
        for elements in gp.branches:
            part = _segment(elements, seeded)
            fixed = len(part.binders) < 2
            steps = tuple(_order(part)) if fixed else ()
            analysis.parts.append(None if fixed else part)
            analysis.steps.append(steps)
            analysis.programs.append(_program(part, steps, seeded) if fixed else ())
        gp.analyses[seeded] = analysis
    state = (weakref.ref(g), len(g))
    if state != _estimates[:2]:
        _estimates = (*state, {None: (1, [])})
    known = _estimates[2]
    for i, part in enumerate(analysis.parts):
        if part is None:
            continue
        estimates = []
        for shape in part.shapes:
            estimates.append(known.get(shape) or known.setdefault(shape, _estimate(g, shape)))
            if not estimates[-1][0]:
                analysis.steps[i] = analysis.programs[i] = None
                break
        else:
            steps = tuple(_order(part, estimates))
            if not (analysis.steps[i] and all(map(is_, steps, analysis.steps[i]))):
                analysis.programs[i] = _program(part, steps, seeded)
            analysis.steps[i] = steps
    analysis.state = state
    return analysis.steps


def _search(g: Graph, program: tuple, seed: Binding, limit: Optional[int]) -> list[Binding]:
    """The solutions of a compiled branch, each step run by its first item,
    depth first, up to `limit` of them, with neither dedupe nor sort. The
    search keeps its own stack, so a long run costs no Python recursion."""
    if not program:
        return [seed]
    found, stack, last = [], [], len(program) - 1  # stack: the bindings left at each step above
    depth, rows = 0, iter((seed,))
    while True:
        step = program[depth]
        run = step[0]
        for b in rows:
            nxt = run(g, step, b)
            if depth == last:
                found += nxt
                if limit is not None and len(found) >= limit:
                    return found
            elif nxt:
                stack.append(rows)
                depth, rows = depth + 1, iter(nxt)
                break
        else:
            rows = None
        if rows is None:  # no binding left to run at this step
            if not stack:
                return found
            depth, rows = depth - 1, stack.pop()


def evaluate_where(g: Graph, gp: GroupPattern, seed: Optional[Binding] = None,
                   limit: Optional[int] = None) -> list[Binding]:
    """All solution bindings of the group over the graph, seeded with `seed`.

    The result is a set (no duplicate bindings) in the order the search
    finds it, branch by branch, each in the planned order (see `_plan`):
    the same in every run. Each branch's guards apply to the whole branch.

    With `limit`, at most that many solutions come back, in no particular
    order: an existence probe, as NOT EXISTS asks it, which stops at the
    branch that reaches the limit. The search never changes the seed, so it
    is not copied. A group where a BIND rebinds (see `rebinds`) raises
    BindConflict before any search.
    """
    seed = seed or {}
    seeded = frozenset(seed)
    analysis = gp.analyses.get(seeded)
    state = analysis and analysis.state
    if state is None or state[1] != len(g) or state[0]() is not g:
        _plan(g, gp, seeded)
        analysis = gp.analyses[seeded]
    found = []
    for program in analysis.programs:
        if program is None:  # a dead branch (see `_plan`)
            continue
        found += _search(g, program, seed, limit)
        if limit is not None and len(found) >= limit:
            break
    if limit is not None:
        return found[:limit]
    if len(analysis.programs) > 1:
        found = list({frozenset(b.items()): b for b in found}.values())
    return found


# --- Instantiation -----------------------------------------------------------


def _solution_signature(binding: Binding) -> str:
    return ",".join(f"{v.name}={render_term(t)}"
                    for v, t in sorted(binding.items(), key=lambda kv: kv[0].name))


class _Template(NamedTuple):
    """A CONSTRUCT template as `instantiate` runs it. Each solution fills a
    row with the `constants`, the values of the `variables` (None where
    unbound) and a skolem node per index of `blanks`, each kind in order of
    first appearance; each getter of `triples` reads one template triple's
    (s, p, o) off the row."""
    constants: tuple
    variables: tuple[Variable, ...]
    blanks: tuple[int, ...]
    triples: tuple


def _compile_template(template: tuple) -> _Template:
    kinds: tuple[list, list, list] = ([], [], [])  # constants, variables, blanks
    for part in dict.fromkeys(part for tt in template
                              for part in (tt.subject, tt.predicate, tt.object)):
        kinds[isinstance(part, Variable) + 2 * isinstance(part, TemplateBlank)].append(part)
    constants, variables, blanks = kinds
    at = {part: i for i, part in enumerate(constants + variables + blanks)}
    return _Template(tuple(constants), tuple(variables), tuple(b.index for b in blanks),
                     tuple(itemgetter(at[tt.subject], at[tt.predicate], at[tt.object])
                           for tt in template))


def instantiate(rq: RuleQuery, solutions: Iterable[Binding], salt: str = "",
                graph: Optional[Graph] = None, seen: Optional[set] = None) -> list[Triple]:
    """Expand the CONSTRUCT template once per solution: the distinct
    triples, in solution order and then template order. A template blank's
    label is a pure function of rule id, blank position, salt and solution,
    so reruns in any process give identical triples. The fixpoint salts with
    its iteration: an unguarded rule mints a new individual on every pass,
    as a fresh anonymous node would, and only NOT EXISTS guards stop it.

    The fixpoint also passes its graph and the (s, p, o) tuples of the
    triples its pass has made so far, `seen`: then only the triples in
    neither are given, and `seen` gains them. A triple is looked up by its
    terms and built only when it is new. The fixpoint does not call it for a
    kept rule whose template has no blank node (see `engine`): such a rule's
    solutions are some of the last iteration's, so it would give nothing."""
    constants, variables, blanks, triples = rq.template
    seen = set() if seen is None else seen
    out = []
    try:
        for binding in solutions:
            row = [*constants, *map(binding.get, variables)]
            if blanks:
                signature = _solution_signature(binding)
                for index in blanks:
                    digest = hashlib.sha1(f"{rq.rule_id}\x00{index}\x00{salt}"
                                          f"\x00{signature}".encode()).hexdigest()[:12]
                    row.append(BlankNode(f"skolem:{rq.rule_id}:{index}:{digest}"))
            for read in triples:
                s, p, o = key = read(row)
                if key in seen or graph is not None and o in graph.objects(s, p):
                    continue
                if None in key:  # the first unbound variable is in this triple
                    unbound = next(v for v in variables if v not in binding)
                    raise UnboundTemplateVariable(
                        f"rule '{rq.rule_id}': ?{unbound.name} unbound at instantiation")
                out.append(Triple(*key))
                seen.add(key)
    except ValueError as err:  # a literal subject, or a predicate that is no IRI
        raise ValueError(f"rule '{rq.rule_id}': {err}") from err
    return out

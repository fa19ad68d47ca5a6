"""The CONSTRUCT-WHERE rule dialect: syntax, parsing, and evaluation.

A rule is a CONSTRUCT template plus a WHERE group pattern. The dialect is a
frozen subset of SPARQL 1.1:

    rule      := CONSTRUCT '{' template '}' WHERE '{' group '}'
    template  := triples with variables and (possibly nested) '[ ... ]'
                 blank-node property lists
    group     := element*
    element   := triples-block
               | '{' group '}' UNION '{' group '}'
               | NOT EXISTS '{' group '}'
               | FILTER '(' expr ')'
               | BIND '(' ground-term AS ?var ')'
    expr      := comparisons ?v = t, ?v != t (also var/var), combined with
                 '&&', '||', and parentheses

Keywords are case-insensitive and whitespace is free-form; `a` abbreviates
rdf:type; `.` statement separators are optional between elements. Braces,
brackets and parentheses nest at most MAX_NESTING (100) levels deep. Anything
outside this grammar is a syntax error: the evaluator would rather fail
loudly than silently mis-evaluate a rule.

Evaluation is set-semantics, left to right, each element joining with the
accumulated solutions:

  - a triple pattern joins all compatible graph matches;
  - UNION contributes the solutions of both branches;
  - NOT EXISTS keeps a solution iff the inner group has no solution under it
    (outer bindings substitute into the inner pattern);
  - FILTER keeps solutions whose expression is true. It is evaluated left
    to right and stops once the result is known: `&&` at the first false
    item, `||` at the first true one. A comparison that is reached and
    mentions an unbound variable rejects the solution. With ?z unbound,
    `FILTER(?y = :b || ?z = :c)` passes a solution with ?y = :b, but
    `FILTER(?z = :c || ?y = :b)` rejects it; SPARQL 1.1 passes both;
  - BIND extends every solution with a constant.

How it runs:

  - A group is planned in segments, the stretches between UNION and BIND,
    which nothing moves across. In a segment the triple patterns are put
    in a greedy join order, fewest expected matches per binding first,
    estimated from the graph's per-predicate counts (triples, distinct
    subjects and objects) and exact counts for constants.
  - Each FILTER and NOT EXISTS of a segment runs right after the pattern
    that binds the last of its variables bound where it is written, and
    never after a pattern that binds one it mentions that is unbound
    there, so it sees the values it would see in place and the solutions
    do not change. Guards that become ready together run FILTER first,
    then NOT EXISTS by nesting depth, then by their number of patterns. In
    a group that holds a BIND anywhere, guards stay where they are written
    and only runs of adjacent patterns are ordered, so a BindConflict is
    raised exactly as without planning.
  - What does not depend on the graph (segments, each guard's needed and
    forbidden variables, its rank) is worked out once per group and set of
    seeded variables and kept on the group. The join order depends on the
    graph's counts too, so plans stay in the graph's memo until a triple
    is added.
  - A planned group is searched depth first with its own stack, so a long
    run of patterns needs no Python recursion.
  - NOT EXISTS is an existence probe, `evaluate_where(..., limit=1)`: the
    search stops at the first solution and neither deduplicates nor sorts.
    A group that holds a BIND is still searched in full, so a BindConflict
    is raised exactly when full evaluation raises it.
  - A full evaluation deduplicates and sorts its solutions once, at the
    end. UNION branches may bind different variables, so two different
    solutions of a UNION can become one after a later pattern.

Blank nodes written in a WHERE group behave as fresh variables. Blank nodes
in the template become skolem nodes named from the rule id, the blank's
position, the solution, and the instantiation salt, so one instantiation call
is reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .model import (
    BlankNode, DEFAULT_PREFIXES, Graph, Iri, Literal, RDF_TYPE, Term, Triple,
    render_term, term_key,
)


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


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class TemplateBlank:
    index: int


PatternTerm = Term | Variable
TemplateTerm = Term | Variable | TemplateBlank


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
    def analyses(self) -> dict:
        """The graph-independent part of this group's plans, per set of
        seeded variables; filled by `_plan`. It lives as long as the group."""
        return {}


@dataclass(frozen=True)
class Union:
    left: GroupPattern
    right: GroupPattern


@dataclass(frozen=True)
class NotExists:
    inner: GroupPattern


@dataclass(frozen=True)
class TemplateTriple:
    subject: TemplateTerm
    predicate: TemplateTerm
    object: TemplateTerm


@dataclass(frozen=True)
class RuleQuery:
    rule_id: str
    construct_template: tuple  # of TemplateTriple
    where_clause: GroupPattern


# --- Tokenizer ---------------------------------------------------------------

_KEYWORDS = {"construct", "where", "union", "not", "exists", "filter", "bind", "as"}
_PUNCT = ("&&", "||", "!=", "=", "{", "}", "(", ")", "[", "]", ";", ",", ".")
_NAME_RE = re.compile(r"[A-Za-z0-9_\-]+")


@dataclass
class _Token:
    kind: str  # keyword, var, iri, pname, literal, punct, a
    value: object
    pos: int


def _tokenize(text: str, rule_id: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith('"""', i):
            end = text.find('"""', i + 3)
            if end < 0:
                raise RuleSyntaxError("unterminated long string", i, rule_id)
            tokens.append(_Token("literal", text[i + 3:end], i))
            i = end + 3
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append({"n": "\n", "t": "\t", "r": "\r"}.get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise RuleSyntaxError("unterminated string", i, rule_id)
            tokens.append(_Token("literal", "".join(out), i))
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in ("&&", "||", "!="):
            tokens.append(_Token("punct", two, i))
            i += 2
            continue
        if c in "{}()[];,=.":
            tokens.append(_Token("punct", c, i))
            i += 1
            continue
        if c == "?":
            m = _NAME_RE.match(text, i + 1)
            if not m:
                raise RuleSyntaxError("bad variable name", i, rule_id)
            tokens.append(_Token("var", m.group(0), i))
            i = m.end()
            continue
        if c == "<":
            end = text.find(">", i)
            if end < 0:
                raise RuleSyntaxError("unterminated IRI", i, rule_id)
            tokens.append(_Token("iri", text[i + 1:end], i))
            i = end + 1
            continue
        if c == ":":
            m = _NAME_RE.match(text, i + 1)
            local = m.group(0) if m else ""
            tokens.append(_Token("pname", ("", local), i))
            i = (m.end() if m else i + 1)
            continue
        m = _NAME_RE.match(text, i)
        if m:
            word = m.group(0)
            j = m.end()
            if j < n and text[j] == ":":
                m2 = _NAME_RE.match(text, j + 1)
                local = m2.group(0) if m2 else ""
                tokens.append(_Token("pname", (word, local), i))
                i = (m2.end() if m2 else j + 1)
                continue
            lowered = word.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token("keyword", lowered, i))
            elif word == "a":
                tokens.append(_Token("a", "a", i))
            else:
                raise RuleSyntaxError(f"unknown keyword {word!r}", i, rule_id)
            i = j
            continue
        raise RuleSyntaxError(f"unexpected character {c!r}", i, rule_id)
    return tokens


# --- Parser ------------------------------------------------------------------

# The deepest nesting of braces, brackets and parentheses a rule may have,
# and of `[ ... ]` property lists in Turtle. The parsers, the evaluator and
# the fixpoint's rule analysis recurse once or a few times per level;
# evaluation runs out of Python stack at ~475 nested NOT EXISTS.
MAX_NESTING = 100


class _RuleParser:
    def __init__(self, rule_id: str, text: str, prefixes: dict[str, str]):
        self.rule_id = rule_id
        self.tokens = _tokenize(text, rule_id)
        self.i = 0
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.prefixes.update(prefixes)
        self.blank_count = 0       # template blanks
        self.where_blank_count = 0  # fresh variables for [] in WHERE
        self.depth = 0              # braces, brackets and parentheses now open

    def error(self, message: str) -> RuleSyntaxError:
        pos = self.tokens[self.i].pos if self.i < len(self.tokens) else -1
        return RuleSyntaxError(message, pos, self.rule_id)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise RuleSyntaxError("unexpected end of rule", -1, self.rule_id)
        self.i += 1
        return tok

    def expect_punct(self, value: str):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise RuleSyntaxError(f"expected {value!r}", tok.pos, self.rule_id)

    def expect_keyword(self, value: str):
        tok = self.next()
        if tok.kind != "keyword" or tok.value != value:
            raise RuleSyntaxError(f"expected {value.upper()}", tok.pos, self.rule_id)

    def opened(self):
        """Counts the opening token just read as one more level of nesting."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RuleSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  self.tokens[self.i - 1].pos, self.rule_id)

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.value == value

    def at_keyword(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "keyword" and tok.value == value

    def expand(self, prefix: str, local: str, pos: int) -> Iri:
        if prefix not in self.prefixes:
            raise RuleSyntaxError(f"undeclared prefix '{prefix}:'", pos, self.rule_id)
        return Iri(self.prefixes[prefix] + local)

    def parse_rule(self) -> RuleQuery:
        self.expect_keyword("construct")
        self.expect_punct("{")
        template = self.parse_triples_until_close(in_template=True)
        self.expect_keyword("where")
        self.expect_punct("{")
        where = self.parse_group()
        self.expect_punct("}")
        if self.peek() is not None:
            raise self.error("trailing tokens after WHERE clause")
        rq = RuleQuery(self.rule_id, tuple(template), where)
        unbound = template_variables(rq) - bindable_variables(where)
        if unbound:
            names = ", ".join(sorted(v.name for v in unbound))
            raise UnboundTemplateVariable(
                f"rule '{self.rule_id}': template variables never bound in WHERE: {names}")
        return rq

    # template parsing ---------------------------------------------------

    def parse_triples_until_close(self, in_template: bool) -> list[TemplateTriple]:
        acc: list[TemplateTriple] = []
        while not self.at_punct("}"):
            self.parse_triples_block(acc, in_template)
            while self.at_punct("."):
                self.next()
        self.expect_punct("}")
        return acc

    def parse_term(self, acc: list, in_template: bool):
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.value)
        if tok.kind == "iri":
            return Iri(tok.value)
        if tok.kind == "pname":
            prefix, local = tok.value
            return self.expand(prefix, local, tok.pos)
        if tok.kind == "a":
            return RDF_TYPE
        if tok.kind == "literal":
            return Literal(tok.value)
        if tok.kind == "punct" and tok.value == "[":
            return self.parse_property_list_node(acc, in_template)
        raise RuleSyntaxError(f"unexpected token {tok.value!r}", tok.pos, self.rule_id)

    def parse_property_list_node(self, acc: list, in_template: bool):
        self.opened()
        if in_template:
            node: TemplateTerm = TemplateBlank(self.blank_count)
            self.blank_count += 1
        else:
            # the leading space keeps these internal variables out of the
            # namespace a rule author can reach
            node = Variable(f" bnode{self.where_blank_count}")
            self.where_blank_count += 1
        if not self.at_punct("]"):
            self.parse_predicate_objects(node, acc, in_template)
        self.expect_punct("]")
        self.depth -= 1
        return node

    def parse_predicate_objects(self, subject, acc: list, in_template: bool):
        while True:
            predicate = self.parse_term(acc, in_template)
            if isinstance(predicate, (TemplateBlank, Literal)):
                raise self.error("bad predicate")
            while True:
                obj = self.parse_term(acc, in_template)
                if in_template:
                    acc.append(TemplateTriple(subject, predicate, obj))
                else:
                    acc.append(TriplePattern(subject, predicate, obj))
                if self.at_punct(","):
                    self.next()
                    continue
                break
            if self.at_punct(";"):
                self.next()
                # allow "; }" and "; ]" and "; ." like the Turtle reader
                if self.at_punct("]") or self.at_punct("}") or self.at_punct(".") or self.peek() is None:
                    return
                continue
            return

    def parse_triples_block(self, acc: list, in_template: bool):
        subject = self.parse_term(acc, in_template)
        if isinstance(subject, Literal):
            raise self.error("literal cannot be a subject")
        # "[ ... ]" used as a whole statement
        if isinstance(subject, (TemplateBlank, Variable)) and (
                self.at_punct(".") or self.at_punct("}") or self.peek() is None):
            return
        self.parse_predicate_objects(subject, acc, in_template)

    # WHERE parsing --------------------------------------------------------

    def parse_group(self) -> GroupPattern:
        """The elements up to the closing brace of the group whose opening
        brace was just read."""
        self.opened()
        elements: list = []
        while True:
            tok = self.peek()
            if tok is None or (tok.kind == "punct" and tok.value == "}"):
                break
            if tok.kind == "punct" and tok.value == ".":
                self.next()
                continue
            if tok.kind == "punct" and tok.value == "{":
                self.next()
                left = self.parse_group()
                self.expect_punct("}")
                if not self.at_keyword("union"):
                    # a bare braced group just flattens into the sequence
                    elements.extend(left.elements)
                    continue
                union: Union | None = None
                while self.at_keyword("union"):
                    self.next()
                    self.expect_punct("{")
                    right = self.parse_group()
                    self.expect_punct("}")
                    union = Union(left if union is None else GroupPattern((union,)), right)
                elements.append(union)
                continue
            if tok.kind == "keyword" and tok.value == "not":
                self.next()
                self.expect_keyword("exists")
                self.expect_punct("{")
                inner = self.parse_group()
                self.expect_punct("}")
                elements.append(NotExists(inner))
                continue
            if tok.kind == "keyword" and tok.value == "filter":
                self.next()
                self.expect_punct("(")
                expr = self.parse_expr()
                self.expect_punct(")")
                elements.append(Filter(expr))
                continue
            if tok.kind == "keyword" and tok.value == "bind":
                self.next()
                self.expect_punct("(")
                value = self.parse_term([], in_template=False)
                if isinstance(value, Variable):
                    raise self.error("BIND accepts only ground terms")
                self.expect_keyword("as")
                var_tok = self.next()
                if var_tok.kind != "var":
                    raise RuleSyntaxError("expected variable after AS", var_tok.pos, self.rule_id)
                self.expect_punct(")")
                elements.append(Bind(value, Variable(var_tok.value)))
                continue
            if tok.kind == "keyword":
                raise self.error(f"unexpected keyword {tok.value.upper()}")
            patterns: list = []
            self.parse_triples_block(patterns, in_template=False)
            elements.extend(patterns)
        self.depth -= 1
        return GroupPattern(tuple(elements))

    def parse_expr(self) -> Expr:
        items = [self.parse_and()]
        while self.at_punct("||"):
            self.next()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else ExprOr(tuple(items))

    def parse_and(self) -> Expr:
        items = [self.parse_primary()]
        while self.at_punct("&&"):
            self.next()
            items.append(self.parse_primary())
        return items[0] if len(items) == 1 else ExprAnd(tuple(items))

    def parse_primary(self) -> Expr:
        if self.at_punct("("):
            self.next()
            self.opened()
            inner = self.parse_expr()
            # "(expr)" or "(operand op operand)" both arrive here; a closing
            # paren after a full expr ends the primary.
            self.expect_punct(")")
            self.depth -= 1
            return inner
        left = self.parse_operand()
        tok = self.next()
        if tok.kind != "punct" or tok.value not in ("=", "!="):
            raise RuleSyntaxError("expected '=' or '!='", tok.pos, self.rule_id)
        right = self.parse_operand()
        return Comparison(left, tok.value == "!=", right)

    def parse_operand(self) -> PatternTerm:
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.value == "(":
            raise self.error("nested comparison operand")
        term = self.parse_term([], in_template=False)
        if isinstance(term, TemplateBlank):
            raise self.error("blank node in FILTER")
        return term


def parse_rule(rule_id: str, text: str, prefixes: Optional[dict[str, str]] = None) -> RuleQuery:
    """Parse one rule body (the literal value of a has-sparql-code triple)."""
    parser = _RuleParser(rule_id, text, prefixes or {})
    return parser.parse_rule()


# --- Static analysis ---------------------------------------------------------


def template_variables(rq: RuleQuery) -> set[Variable]:
    out: set[Variable] = set()
    for tt in rq.construct_template:
        for part in (tt.subject, tt.predicate, tt.object):
            if isinstance(part, Variable):
                out.add(part)
    return out


def bindable_variables(gp: GroupPattern) -> set[Variable]:
    """Variables that can carry a binding out of the group: triple-pattern
    positions and BIND targets, looking through UNION branches but not into
    NOT EXISTS or FILTER."""
    out: set[Variable] = set()
    for el in gp.elements:
        if isinstance(el, TriplePattern):
            for part in (el.subject, el.predicate, el.object):
                if isinstance(part, Variable):
                    out.add(part)
        elif isinstance(el, Union):
            out |= bindable_variables(el.left)
            out |= bindable_variables(el.right)
        elif isinstance(el, Bind):
            out.add(el.var)
    return out


# --- Evaluation --------------------------------------------------------------

Binding = dict[Variable, Term]

_POSITIONS = ("subject", "predicate", "object")


def _extend(g: Graph, tp: TriplePattern, binding: Binding) -> list[Binding]:
    """The extensions of `binding` by every graph match of `tp`. A binding
    that the pattern adds nothing to comes back as itself."""
    key = [tp.subject, tp.predicate, tp.object]
    free = []  # (position, variable) of each position not yet bound
    for i, part in enumerate(key):
        if isinstance(part, Variable):
            key[i] = binding.get(part)
            if key[i] is None:
                free.append((_POSITIONS[i], part))
    matches = g.match_iter(*key)
    if not free:
        return [binding] if next(matches, None) is not None else []
    if len(free) == 1:
        name, var = free[0]
        return [{**binding, var: getattr(t, name)} for t in matches]
    out = []
    for t in matches:
        new = dict(binding)
        for name, var in free:
            actual = getattr(t, name)
            # a variable in two free positions must match the same term
            if new.setdefault(var, actual) != actual:
                break
        else:
            out.append(new)
    return out


class _UnboundInFilter(Exception):
    pass


def _eval_expr(expr: Expr, binding: Binding) -> bool:
    if isinstance(expr, Comparison):
        def value(part: PatternTerm) -> Term:
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


def _passes(expr: Expr, binding: Binding) -> bool:
    try:
        return _eval_expr(expr, binding)
    except _UnboundInFilter:
        return False


def pattern_variables(tp: TriplePattern):
    return (part for part in (tp.subject, tp.predicate, tp.object)
            if isinstance(part, Variable))


def _nested(gp: GroupPattern):
    """Every element of the group and of the groups inside it, each with the
    number of NOT EXISTS between it and the group."""
    pending = [(gp, 0)]
    while pending:
        group, depth = pending.pop()
        for el in group.elements:
            yield el, depth
            if isinstance(el, Union):
                pending += ((el.left, depth), (el.right, depth))
            elif isinstance(el, NotExists):
                pending.append((el.inner, depth + 1))


def has_bind(gp: GroupPattern) -> bool:
    """Whether a BIND occurs anywhere in the group, nested groups included."""
    return any(isinstance(el, Bind) for el, _ in _nested(gp))


def _expr_variables(expr: Expr):
    if isinstance(expr, Comparison):
        return {part for part in (expr.left, expr.right) if isinstance(part, Variable)}
    return set().union(*map(_expr_variables, expr.items))


def _mentioned(el: Filter | NotExists) -> set[Variable]:
    """The variables whose values can decide what a guard does. A guard is
    only moved in a group with no BIND anywhere, so none is looked for."""
    if isinstance(el, Filter):
        return _expr_variables(el.expr)
    out: set[Variable] = set()
    for inner, _ in _nested(el.inner):
        if isinstance(inner, TriplePattern):
            out.update(pattern_variables(inner))
        elif isinstance(inner, Filter):
            out |= _expr_variables(inner.expr)
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
    needed: frozenset     # bound by patterns written before it: it runs after them
    forbidden: frozenset  # unbound where it is written: it runs before what binds them


class _Segment(NamedTuple):
    """The triple patterns and guards of a group between two barriers."""
    patterns: tuple   # in written order
    variables: tuple  # the variables of each pattern, a tuple each
    guards: tuple     # of _Guard, in rank order
    entry: frozenset  # the variables that may be bound when it starts


def _segment(elements: list, entry: set[Variable], sure: set[Variable]) -> _Segment:
    """`sure` are the variables bound for every binding that reaches the
    segment; `entry` also holds those only some of them bind."""
    patterns = [el for el in elements if isinstance(el, TriplePattern)]
    variables = tuple(tuple(pattern_variables(tp)) for tp in patterns)
    everywhere = {v for pattern in variables for v in pattern}
    before: set[Variable] = set()  # bound by the patterns written so far
    guards = []
    for index, el in enumerate(elements):
        if isinstance(el, TriplePattern):
            before.update(pattern_variables(el))
            continue
        mentioned = _mentioned(el) - sure
        guards.append((_guard_rank(el, index),
                       _Guard(el, frozenset(mentioned & before),
                              frozenset(mentioned & (everywhere - before)))))
    guards.sort(key=lambda rank_guard: rank_guard[0])
    return _Segment(tuple(patterns), variables, tuple(guard for _, guard in guards),
                    frozenset(entry))


def _analyse(gp: GroupPattern, seeded: frozenset) -> tuple[tuple, bool]:
    """The part of the group's plan that does not depend on the graph, for a
    seed binding the variables `seeded`: a tuple of parts, each a _Segment
    to order against the graph or a tuple of steps in their final order, and
    whether the group holds a BIND anywhere.

    UNION and BIND are barriers that nothing moves across. In a group that
    holds a BIND anywhere, FILTER and NOT EXISTS are barriers too, so
    elements keep their written order and a BindConflict comes where it
    would without planning. A segment with at most one pattern has one
    order whatever the graph holds, so it is ordered here.
    """
    binds = has_bind(gp)
    movable = (TriplePattern,) if binds else (TriplePattern, Filter, NotExists)
    parts: list = []
    entry, sure = set(seeded), set(seeded)
    elements: list = []
    for el in (*gp.elements, None):
        if isinstance(el, movable):
            elements.append(el)
            continue
        if elements:
            segment = _segment(elements, entry, sure)
            parts.append(segment if len(segment.patterns) > 1 else tuple(_order(segment)))
            bound = {v for variables in segment.variables for v in variables}
            entry |= bound
            sure |= bound
            elements = []
        if isinstance(el, Union):
            entry |= bindable_variables(el.left) | bindable_variables(el.right)
        elif isinstance(el, Bind):
            entry.add(el.var)
            sure.add(el.var)
        if el is not None:
            parts.append((el,))
    return tuple(parts), binds


def _order(segment: _Segment, estimates: Optional[list] = None) -> list:
    """The segment's steps: its patterns in greedy order, each guard right
    after the pattern that binds the last of its needed variables, and the
    guards that become ready together in rank order.

    `estimates` holds each pattern's expected matches with nothing bound and
    the factor that binding each of its variables divides them by (see
    `_estimate`). The next pattern is the one with the fewest expected
    matches per binding, the first written on a tie; without estimates it is
    the first written. A pattern is not taken while a waiting guard forbids
    one of its variables. The written order satisfies every guard, so the
    first written pattern left is always allowed."""
    bound = set(segment.entry)
    cost = []
    for matches, factors in estimates or ():
        for var, factor in factors:
            if var in bound:
                matches /= factor
        cost.append(matches)
    steps: list = []
    placed: set[Variable] = set()  # the variables of the patterns taken
    waiting = list(segment.guards)
    remaining = list(range(len(segment.patterns)))
    while True:
        if waiting:
            steps += (guard.element for guard in waiting if guard.needed <= placed)
            waiting = [guard for guard in waiting if not guard.needed <= placed]
        if not remaining:
            return steps
        allowed = remaining
        if waiting:
            blocked = frozenset().union(*(guard.forbidden for guard in waiting))
            allowed = [i for i in remaining if blocked.isdisjoint(segment.variables[i])]
        best = min(allowed, key=cost.__getitem__) if cost else allowed[0]
        remaining.remove(best)
        steps.append(segment.patterns[best])
        placed.update(segment.variables[best])
        if cost:
            fresh = [v for v in segment.variables[best] if v not in bound]
            bound.update(fresh)
            for i in remaining:
                for var, factor in estimates[i][1]:
                    if var in fresh:
                        cost[i] /= factor


def _estimate(g: Graph, tp: TriplePattern) -> tuple[int, list]:
    """A pattern's matches with none of its variables bound, and for each
    variable the factor that binding it divides them by: the number of
    distinct terms at its position, among the triples of the pattern's
    predicate if that is a constant (System R's selectivity). Constants are
    looked up exactly."""
    parts = (tp.subject, tp.predicate, tp.object)
    constants = [None if isinstance(part, Variable) else part for part in parts]
    distinct = g.distinct(constants[1])
    return g.count(*constants), [(part, max(distinct[i], 1)) for i, part in enumerate(parts)
                                 if constants[i] is None]


def _plan_run(g: Graph, segment: _Segment) -> list:
    """Puts a segment in order for the graph as it is: patterns by expected
    matches per binding, guards as early as their variables allow (see
    `_order`). Joins commute, and a guard sees the same values of the
    variables it mentions wherever it runs in the segment, so the order
    never changes the solutions, only how much work finds them.

    Each pattern's estimate is read once; a greedy round then costs O(1)
    per pattern."""
    return _order(segment, [_estimate(g, tp) for tp in segment.patterns])


def _plan(g: Graph, gp: GroupPattern, seeded: Iterable[Variable]) -> tuple[tuple, bool]:
    """The group's steps in the order to search them, for a seed binding
    the variables `seeded`, and whether the group holds a BIND anywhere.

    The analysis that does not depend on the graph (`_analyse`) is kept on
    the group, one per set of seeded variables. The order of each segment
    depends on the graph's counts too, so the plan is kept in the graph's
    memo until the graph changes. The memo is keyed by the group's id and
    holds the group itself, so the id cannot be reused by another group
    while the entry lives.
    """
    seeded = frozenset(seeded)
    key = (id(gp), seeded)
    memo = g.memo()
    if key not in memo:
        analyses = gp.analyses
        if seeded not in analyses:
            analyses[seeded] = _analyse(gp, seeded)
        parts, binds = analyses[seeded]
        steps: list = []
        for part in parts:
            steps += _plan_run(g, part) if isinstance(part, _Segment) else part
        memo[key] = (gp, (tuple(steps), binds))
    return memo[key][1]


def _search(g: Graph, steps: tuple, seed: Binding, limit: Optional[int]) -> list[Binding]:
    """The solutions of a planned group, depth first, up to `limit` of them,
    with neither dedupe nor sort.

    The search keeps its own stack, one iterator of bindings per step, so a
    long run of patterns costs no Python recursion; the bindings of the top
    iterator have been through `len(stack) - 1` steps, and what the last
    step gives is a solution. A BindConflict is raised as the
    element-by-element evaluation would raise it: at the first step any
    binding conflicts at, for the first binding to reach that step. So
    after a conflict the search goes on above that step only.
    """
    if not steps:
        return [seed]
    found: list[Binding] = []
    end = len(steps)
    conflict: Optional[BindConflict] = None
    stack = [iter((seed,))]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            continue
        depth = len(stack) - 1
        el = steps[depth]
        try:
            if isinstance(el, TriplePattern):
                nxt = _extend(g, el, b)
            elif isinstance(el, NotExists):
                nxt = () if evaluate_where(g, el.inner, b, limit=1) else (b,)
            elif isinstance(el, Filter):
                nxt = (b,) if _passes(el.expr, b) else ()
            elif isinstance(el, Union):
                # both branches may give the same binding: each later step
                # would repeat its work on the copy
                nxt = _unique(evaluate_where(g, el.left, b) + evaluate_where(g, el.right, b))
            elif isinstance(el, Bind):
                if el.var in b:
                    raise BindConflict(f"variable ?{el.var.name} is already bound")
                nxt = ({**b, el.var: el.value},)
            else:  # pragma: no cover - parser only emits the kinds above
                raise TypeError(f"unknown pattern element {el!r}")
        except BindConflict as err:
            # any later conflict is at a shallower step, and wins
            conflict, end = err, depth
            del stack[depth:]
            continue
        if depth + 1 == end:
            found += nxt
            if limit is not None and len(found) >= limit:
                break
        elif nxt:
            stack.append(iter(nxt))
    if conflict is not None:
        raise conflict
    return found


def _unique(acc: list[Binding]) -> list[Binding]:
    seen: dict[frozenset, Binding] = {}
    for b in acc:
        seen.setdefault(frozenset(b.items()), b)
    return list(seen.values())


def evaluate_where(g: Graph, gp: GroupPattern, seed: Optional[Binding] = None,
                   limit: Optional[int] = None) -> list[Binding]:
    """All solution bindings of the group over the graph, seeded with `seed`.

    The result is a set (no duplicate bindings) in a deterministic order.
    Elements keep their left-to-right semantics; the search runs them in
    the planned order (see `_plan`), which gives the same solutions.

    With `limit`, at most that many solutions come back, in no particular
    order: an existence probe, as NOT EXISTS asks it. A group that holds a
    BIND is still searched in full, so that a BindConflict is raised
    whenever the full evaluation would raise it.
    """
    seed = dict(seed) if seed else {}
    steps, binds = _plan(g, gp, seed)
    found = _search(g, steps, seed, None if binds else limit)
    if limit is not None:
        return found[:limit]
    found = _unique(found)
    found.sort(key=lambda b: sorted((v.name, term_key(t)) for v, t in b.items()))
    return found


# --- Instantiation -----------------------------------------------------------


@dataclass(frozen=True)
class SkolemPolicy:
    """Names blank nodes created by rule templates.

    The label is a pure function of (rule id, template blank position, salt,
    solution), so instantiating the same rule on the same solution with the
    same policy reproduces identical triples across runs and processes. The
    fixpoint engine salts the policy with its iteration counter: an unguarded
    rule therefore mints a new individual on every pass, exactly like a fresh
    anonymous node would, and only NOT EXISTS guards stop the loop.
    """

    salt: str = ""

    def label(self, rule_id: str, index: int, signature: str) -> str:
        digest = hashlib.sha1(
            f"{rule_id}\x00{index}\x00{self.salt}\x00{signature}".encode()).hexdigest()[:12]
        return f"skolem:{rule_id}:{index}:{digest}"


def _solution_signature(binding: Binding) -> str:
    return ",".join(f"{v.name}={render_term(t)}"
                    for v, t in sorted(binding.items(), key=lambda kv: kv[0].name))


def instantiate(rq: RuleQuery, solutions: Iterable[Binding],
                skolem: Optional[SkolemPolicy] = None) -> Graph:
    """Expand the CONSTRUCT template once per solution into a graph."""
    policy = skolem or SkolemPolicy()
    out = Graph()
    for binding in solutions:
        signature = _solution_signature(binding)
        blanks: dict[int, BlankNode] = {}

        def resolve(part: TemplateTerm) -> Term:
            if isinstance(part, Variable):
                if part not in binding:
                    raise UnboundTemplateVariable(
                        f"rule '{rq.rule_id}': ?{part.name} unbound at instantiation")
                return binding[part]
            if isinstance(part, TemplateBlank):
                if part.index not in blanks:
                    blanks[part.index] = BlankNode(
                        policy.label(rq.rule_id, part.index, signature))
                return blanks[part.index]
            return part

        for tt in rq.construct_template:
            out.insert(Triple(resolve(tt.subject), resolve(tt.predicate), resolve(tt.object)))
    return out

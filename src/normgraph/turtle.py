"""Parser and serializer for the Turtle subset used by the rule corpus.

Supported syntax: @prefix directives, `a`, `;`/`,` abbreviations, anonymous
blank-node property lists `[ ... ]` (nested), explicit `_:label` blank nodes,
short (double-quoted) and long (triple-double-quoted) string literals, and
`#` comments. Long strings preserve their inner text byte-for-byte, which is
what lets rule bodies travel inside `has-sparql-code` literals. No
collections, no numeric literals, no datatypes. Property lists nest at most
`MAX_NESTING` (100) levels deep; the `[` one level deeper is a syntax
error, so deep input cannot exhaust the Python stack.

The reader is one recursive-descent parser over the text and its offset,
`pos`. A term is one match of `_TERM`: white space and comments, then a
prefixed name, the `_:` of a label or `a`; `<`, `"` and `[` go on from the
character after the white space. Between terms, a lone space or line feed
is stepped over without a match. Each parse keeps what each prefixed name
and each label read so far stands for, so a repeated one is one dict lookup;
an `@prefix` empties the names' memo. A label (`_LABEL`), a name and a short
string's body are one match each; where the body stops short of a closing
quote, the character there names the error: the end of the text, a line
break, or a backslash that starts no known escape. A `TurtleSyntaxError`
works out its line and column from the offset when it is raised: columns
count characters from 1, and only a line feed starts a line. The reader, the
writer and the rule reader share one definition of a name (`NAME`), which
never ends in `.`; the writer renders each distinct term once per call. The
rule reader (`rules._RuleParser`) is this reader, subclassed: rule text reads
its IRIs, names, literals, `a`, `[ ... ]` and predicate-object lists with
these methods, and adds what SPARQL has on the same text and offset.
"""

from __future__ import annotations

import re

from .model import (
    BlankNode, DEFAULT_PREFIXES, Graph, Iri, Literal, Memo, RDF_TYPE, Term, Triple,
)

# A name in Turtle and rules (prefix, local part, blank node label), maybe
# empty: ASCII letters, digits, '_', '-' and '.', but a final '.' ends the statement.
NAME = r"(?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
# The escapes of a short string, in Turtle as in rules; any other is an error.
STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# The deepest nesting of `[ ... ]` property lists in Turtle, and of braces,
# brackets and parentheses in a rule. The readers, the evaluator and the
# fixpoint's rule analysis recurse once or a few times per level; evaluation
# runs out of Python stack at ~475 nested NOT EXISTS.
MAX_NESTING = 100


class TurtleSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message  # without the location
        self.line = line
        self.column = column


_WS = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_NAME = re.compile(NAME)
# White space and comments (group 1), then maybe a term's start: `_:` (2), a prefixed
# name (3) or `a` (4) as a whole name, so only dots may follow it.
_TERM = re.compile(rf"({_WS.pattern})(?:(_:)|({NAME}:{NAME})|(a)(?![.]*[A-Za-z0-9_\-]))?")
# A blank node label after `_:`: a name that is not empty, then `:name` parts.
_LABEL = re.compile(rf"[A-Za-z0-9_.\-]*[A-Za-z0-9_\-](?::{NAME})*")
# The body of a short string, up to the first character that cannot go on it:
# the closing quote, the end, a line break or a backslash without a known escape.
_SHORT_BODY = re.compile(r'(?:[^"\\\r\n]+|\\[nrt"\\])*')
_ESCAPE = re.compile(r"\\(.)")


class _Parser:
    """The reader of the triples grammar. The rule reader subclasses it and
    overrides where rule text differs: `error`, `add`, `fresh_blank`,
    `escape_at`, `parse_term`, `parse_label`, `parse_predicate` and `ENDS`."""

    ENDS = ("]", ".", "")  # what may follow a ';' and end its list

    def __init__(self, text: str, scope: str = ""):
        self.text = text
        self.pos = 0  # offset of the next character to read, never past the end
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.graph = Graph(prefix_map=self.prefixes)
        self.blanks = 0  # anonymous blank nodes made so far
        # What each prefixed name and each `_:` label read so far stands for; apart,
        # as a label may hold ':'. An @prefix empties `names`; errors are not kept.
        self.names: dict[str, Term] = {}
        self.labels: dict[str, Term] = {}
        self.depth = 0  # levels of nesting open around the current position
        self._label_prefix = f"parse:{scope}:" if scope else "parse:"

    def error(self, message: str, pos: int | None = None) -> Exception:
        """The error at `pos`, or else at the offset."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return TurtleSyntaxError(message, line, pos - self.text.rfind("\n", 0, pos))

    def add(self, subject: Term, predicate: Term, object: Term):
        self.graph.insert(Triple(subject, predicate, object))

    def fresh_blank(self) -> Term:
        # Anonymous "[ ... ]" nodes get a reserved sub-namespace so they can
        # never collide with explicit "_:label" nodes from the same document.
        self.blanks += 1
        return BlankNode(f"{self._label_prefix}anon:{self.blanks}")

    def iri(self, value: str, start: int) -> Iri:
        """The IRI `value`, or a syntax error at `start`, where it is written."""
        try:
            return Iri(value)
        except ValueError as err:  # empty, or holding white space
            raise self.error(str(err), start) from None

    def escape_at(self, backslash: int, escape: str) -> int:
        """The offset an unknown escape is reported at: after it."""
        return backslash + 1 + len(escape)

    def next_char(self) -> str:
        """Skip white space and comments; the character after them, '' at the end."""
        c = self.text[self.pos:self.pos + 1]
        if c == " " or c == "\n":  # a lone space or line feed needs no match
            self.pos += 1
            c = self.text[self.pos:self.pos + 1]
        if c in " \t\r\n#":  # or '', the end
            self.pos = _WS.match(self.text, self.pos).end()
            c = self.text[self.pos:self.pos + 1]
        return c

    def take(self, pattern: re.Pattern) -> str:
        """Consume the text `pattern` matches at the offset."""
        match = pattern.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def until(self, end: str, what: str, start: int) -> str:
        """The text up to the next `end`, which is consumed too; without one,
        an error at `start`, where the token opens."""
        stop = self.text.find(end, self.pos)
        if stop < 0:
            raise self.error(f"unterminated {what}", start)
        value = self.text[self.pos:stop]
        self.pos = stop + len(end)
        return value

    def opened(self):
        """Counts the bracket just read as one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.pos - 1)
        self.depth += 1

    def parse(self) -> Graph:
        while self.next_char():
            if self.text.startswith("@prefix", self.pos):
                self.parse_prefix()
            else:
                self.parse_statement()
        self.graph.prefix_map = dict(self.prefixes)
        return self.graph

    def parse_prefix(self):
        start = self.pos
        self.pos += len("@prefix")
        self.next_char()
        name = self.take(_NAME)
        if not self.text.startswith(":", self.pos):
            raise self.error("expected ':' in @prefix directive")
        self.pos += 1
        if self.next_char() != "<":
            raise self.error("expected IRI in @prefix directive")
        self.pos += 1
        iri = self.until(">", "IRI", self.pos - 1)
        if iri:  # a namespace that is no IRI makes none; an empty one makes local names IRIs
            self.iri(iri, start)
        if self.next_char() == ".":
            self.pos += 1
        self.prefixes[name] = iri
        self.names.clear()

    def expand(self, prefix: str, local: str, start: int) -> Iri:
        if prefix not in self.prefixes:
            raise self.error(f"undeclared prefix '{prefix}:'", start)
        return self.iri(self.prefixes[prefix] + local, start)

    def parse_term(self, as_subject: bool = False) -> Term:
        term = _TERM.match(self.text, self.pos)
        self.pos = term.end()
        kind = term.lastindex
        if kind == 3:
            name = term[3]
            iri = self.names.get(name)
            if iri is None:
                prefix, _, local = name.partition(":")
                iri = self.names[name] = self.expand(prefix, local, term.end(1))
            return iri
        if kind == 2:
            return self.parse_label(term.end(1))
        if kind == 4:
            return RDF_TYPE
        start = self.pos
        c = self.text[start:start + 1]
        if c == "<":
            self.pos += 1
            return self.iri(self.until(">", "IRI", start), start)
        if c == '"':
            if as_subject:
                raise self.error("literal cannot be a subject")
            return self.parse_literal()
        if c == "[":
            return self.parse_bnode_property_list()
        name = self.take(_NAME)
        # An empty name: c is no name character, or it begins a run of dots.
        if not name and c != ".":
            raise self.error(f"unexpected character {c!r}")
        raise self.error(f"unexpected token {name!r}", start)

    def parse_label(self, start: int) -> Term:
        """The blank node whose label follows the `_:` at offset `start`."""
        # Extend the legal label alphabet with ':' so serialized
        # skolem/parse labels survive a round trip. Explicit labels get
        # their own sub-namespace, disjoint from anonymous "[ ... ]" ones.
        label = _LABEL.match(self.text, self.pos)
        if not label:
            raise self.error("empty blank node label")
        self.pos = label.end()
        node = self.labels.get(label[0])
        if node is None:
            node = self.labels[label[0]] = BlankNode(f"{self._label_prefix}id:{label[0]}")
        return node

    def parse_literal(self) -> Literal:
        start = self.pos
        if self.text.startswith('"""', start):
            self.pos += 3
            return Literal(self.until('"""', "long string", start))
        self.pos += 1  # opening quote
        body = self.take(_SHORT_BODY)
        stop = self.text[self.pos:self.pos + 1]
        if stop == '"':
            self.pos += 1
            return Literal(_ESCAPE.sub(lambda m: STRING_ESCAPES[m[1]], body))
        if stop == "\\":
            escape = self.text[self.pos + 1:self.pos + 2]
            raise self.error(f"unknown escape \\{escape}", self.escape_at(self.pos, escape))
        if stop:
            raise self.error("newline in short string")
        raise self.error("unterminated string", start)

    def parse_bnode_property_list(self) -> Term:
        self.pos += 1  # '['
        self.opened()
        node = self.fresh_blank()
        if self.next_char() != "]":
            self.parse_predicate_object_list(node)
            if self.next_char() != "]":
                raise self.error("expected ']'")
        self.pos += 1
        self.depth -= 1
        return node

    def parse_predicate_object_list(self, subject: Term):
        while True:
            predicate = self.parse_predicate()
            while True:
                self.add(subject, predicate, self.parse_term())
                c = self.next_char()
                if c != ",":
                    break
                self.pos += 1
            if c != ";":
                return
            self.pos += 1
            # A ';' may legally be followed by the list terminator.
            if self.next_char() in self.ENDS:
                return

    def parse_predicate(self) -> Term:
        predicate = self.parse_term()
        if not isinstance(predicate, Iri):
            raise self.error("predicate must be an IRI")
        return predicate

    def parse_statement(self):
        subject = self.parse_term(as_subject=True)
        # A bare property list such as "[ ... ]." is a complete statement.
        if not (isinstance(subject, BlankNode) and self.next_char() in (".", "")):
            self.parse_predicate_object_list(subject)
        c = self.next_char()
        if c == ".":
            self.pos += 1
        elif c:
            raise self.error("expected '.' after statement")


def parse_turtle(text: str, scope: str = "") -> Graph:
    """Parse a document. `scope` namespaces the blank-node labels, so graphs
    parsed from different sources can be unioned without label collisions."""
    return _Parser(text, scope).parse()


def _compress(iri: Iri, prefixes: dict[str, str]) -> str:
    best: tuple[int, str, str] | None = None
    for prefix, ns in prefixes.items():
        if iri.value.startswith(ns) and (best is None or len(ns) > best[0]):
            local = iri.value[len(ns):]
            # RDF 1.1's PN_LOCAL, unlike NAME, starts with neither '.' nor '-'
            if local and local[0] not in ".-" and _NAME.fullmatch(local):
                best = (len(ns), prefix, local)
    if best is None:
        return f"<{iri.value}>"
    return f"{best[1]}:{best[2]}"


def _render(t: Term, prefixes: dict[str, str]) -> str:
    if isinstance(t, Iri):
        return _compress(t, prefixes)
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if "\n" in t.value or '"' in t.value or "\r" in t.value:
        # a long string keeps a carriage return raw, which a text-mode read turns into \n
        if '"""' not in t.value and not t.value.endswith('"') and "\r" not in t.value:
            return f'"""{t.value}"""'
        escaped = (t.value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))
        return f'"{escaped}"'
    return '"' + t.value.replace("\\", "\\\\") + '"'


def serialize_turtle(g: Graph) -> str:
    """Deterministic serialization: prefix block, then one sorted triple per
    line. Blank nodes keep explicit labels; `[ ... ]` is never re-created.
    `rdf:type` is written `a` only as a predicate, where Turtle allows it."""
    prefixes = dict(DEFAULT_PREFIXES)
    prefixes.update(g.prefix_map)
    lines = []
    for prefix in sorted(prefixes):
        lines.append(f"@prefix {prefix}: <{prefixes[prefix]}> .")
    if len(g):
        lines.append("")
    # each term's text, kept for this call only: the prefixes differ between calls
    text = Memo(lambda term: _render(term, prefixes))
    for t in g.match():
        verb = "a" if t.predicate is RDF_TYPE else text[t.predicate]
        lines.append(f"{text[t.subject]} {verb} {text[t.object]} .")
    return "\n".join(lines) + "\n"

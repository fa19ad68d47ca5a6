"""Parser and serializer for the Turtle subset used by the rule corpus.

Supported syntax: @prefix directives, `a`, `;`/`,` abbreviations, anonymous
blank-node property lists `[ ... ]` (nested), explicit `_:label` blank nodes,
short (double-quoted) and long (triple-double-quoted) string literals, and
`#` comments. Long strings preserve their inner text byte-for-byte, which is
what lets rule bodies travel inside `has-sparql-code` literals. No
collections, no numeric literals, no datatypes. Property lists nest at most
`rules.MAX_NESTING` (100) levels deep; the `[` one level deeper is a syntax
error, so deep input cannot exhaust the Python stack.

The reader is one recursive-descent parser over the text and its offset,
`pos`. It reads white space and comments, a name, and a short string's body
each with one regular expression (`_WS`, `_NAME`, `_SHORT_BODY`); where the
body stops short of a closing quote, the character there names the error: the
end of the text, a line break, or a backslash that starts no known escape. A
`TurtleSyntaxError` works out its line and column from the offset when it is
raised: columns count characters from 1, and only a line feed starts a line.
The reader and the writer share one definition of a name (`_NAME`), which
never ends in `.`.
"""

from __future__ import annotations

import re

from .model import (
    BlankNode, DEFAULT_PREFIXES, Graph, Iri, Literal, RDF_TYPE, Term, Triple,
)
from .rules import MAX_NESTING, STRING_ESCAPES


class TurtleSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message  # without the location
        self.line = line
        self.column = column


_WS = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
# A name never ends in '.': a trailing dot terminates the statement.
_NAME = re.compile(r"(?:[\w.-]*[\w-])?", re.ASCII)
# The body of a short string, up to the first character that cannot go on it:
# the closing quote, the end, a line break or a backslash without a known escape.
_SHORT_BODY = re.compile(r'(?:[^"\\\r\n]+|\\[nrt"\\])*')
_ESCAPE = re.compile(r"\\(.)")


class _Parser:
    def __init__(self, text: str, scope: str = ""):
        self.text = text
        self.pos = 0  # offset of the next character to read, never past the end
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.graph = Graph(prefix_map=self.prefixes)
        self._blank_counter = 0
        self.depth = 0  # open '[' around the current position
        self._label_prefix = f"parse:{scope}:" if scope else "parse:"

    def error(self, message: str) -> TurtleSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        return TurtleSyntaxError(message, line, self.pos - self.text.rfind("\n", 0, self.pos))

    def next_char(self) -> str:
        """Skip white space and comments; the character after them, '' at the end."""
        self.pos = _WS.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, pattern: re.Pattern) -> str:
        """Consume the text `pattern` matches at the offset."""
        match = pattern.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def until(self, end: str, what: str) -> str:
        """The text up to the next `end`, which is consumed too."""
        stop = self.text.find(end, self.pos)
        if stop < 0:
            self.pos = len(self.text)
            raise self.error(f"unterminated {what}")
        value = self.text[self.pos:stop]
        self.pos = stop + len(end)
        return value

    def fresh_blank(self) -> BlankNode:
        # Anonymous "[ ... ]" nodes get a reserved sub-namespace so they can
        # never collide with explicit "_:label" nodes from the same document.
        self._blank_counter += 1
        return BlankNode(f"{self._label_prefix}anon:{self._blank_counter}")

    def parse(self) -> Graph:
        while self.next_char():
            if self.text.startswith("@prefix", self.pos):
                self.parse_prefix()
            else:
                self.parse_statement()
        self.graph.prefix_map = dict(self.prefixes)
        return self.graph

    def parse_prefix(self):
        self.pos += len("@prefix")
        self.next_char()
        name = self.take(_NAME)
        if not self.text.startswith(":", self.pos):
            raise self.error("expected ':' in @prefix directive")
        self.pos += 1
        if self.next_char() != "<":
            raise self.error("expected IRI in @prefix directive")
        self.pos += 1
        iri = self.until(">", "IRI")
        if self.next_char() == ".":
            self.pos += 1
        self.prefixes[name] = iri

    def expand(self, prefix: str, local: str) -> Iri:
        if prefix not in self.prefixes:
            raise self.error(f"undeclared prefix '{prefix}:'")
        return Iri(self.prefixes[prefix] + local)

    def parse_term(self, as_subject: bool = False) -> Term:
        c = self.next_char()
        if c == "<":
            self.pos += 1
            return Iri(self.until(">", "IRI"))
        if c == '"':
            if as_subject:
                raise self.error("literal cannot be a subject")
            return self.parse_literal()
        if c == "[":
            return self.parse_bnode_property_list()
        if self.text.startswith("_:", self.pos):
            self.pos += 2
            label = self.take(_NAME)
            if not label:
                raise self.error("empty blank node label")
            # Extend the legal label alphabet with ':' so serialized
            # skolem/parse labels survive a round trip. Explicit labels get
            # their own sub-namespace, disjoint from anonymous "[ ... ]" ones.
            while self.text.startswith(":", self.pos):
                self.pos += 1
                label += ":" + self.take(_NAME)
            return BlankNode(f"{self._label_prefix}id:{label}")
        if c == ":":
            self.pos += 1
            return self.expand("", self.take(_NAME))
        name = self.take(_NAME)
        # An empty name: c is no name character, or it begins a run of dots.
        if not name and c != ".":
            raise self.error(f"unexpected character {c!r}")
        if self.text.startswith(":", self.pos):
            self.pos += 1
            return self.expand(name, self.take(_NAME))
        if name == "a":
            return RDF_TYPE
        raise self.error(f"unexpected token {name!r}")

    def parse_literal(self) -> Literal:
        if self.text.startswith('"""', self.pos):
            self.pos += 3
            return Literal(self.until('"""', "long string"))
        self.pos += 1  # opening quote
        body = self.take(_SHORT_BODY)
        stop = self.text[self.pos:self.pos + 1]
        if stop == '"':
            self.pos += 1
            return Literal(_ESCAPE.sub(lambda m: STRING_ESCAPES[m[1]], body))
        if stop == "\\":
            escape = self.text[self.pos + 1:self.pos + 2]
            self.pos += 1 + len(escape)
            raise self.error(f"unknown escape \\{escape}")
        raise self.error("newline in short string" if stop else "unterminated string")

    def parse_bnode_property_list(self) -> BlankNode:
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.pos += 1  # '['
        node = self.fresh_blank()
        if self.next_char() != "]":
            self.depth += 1
            self.parse_predicate_object_list(node)
            self.depth -= 1
            if self.next_char() != "]":
                raise self.error("expected ']'")
        self.pos += 1
        return node

    def parse_predicate_object_list(self, subject: Term):
        while True:
            predicate = self.parse_term()
            if not isinstance(predicate, Iri):
                raise self.error("predicate must be an IRI")
            while True:
                self.graph.insert(Triple(subject, predicate, self.parse_term()))
                c = self.next_char()
                if c != ",":
                    break
                self.pos += 1
            if c != ";":
                return
            self.pos += 1
            # A ';' may legally be followed by the list terminator.
            if self.next_char() in ("]", ".", ""):
                return

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
    if iri == RDF_TYPE:
        return "a"
    best: tuple[int, str, str] | None = None
    for prefix, ns in prefixes.items():
        if iri.value.startswith(ns) and (best is None or len(ns) > best[0]):
            local = iri.value[len(ns):]
            if local and _NAME.fullmatch(local):
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
    line. Blank nodes keep explicit labels; `[ ... ]` is never re-created."""
    prefixes = dict(DEFAULT_PREFIXES)
    prefixes.update(g.prefix_map)
    lines = []
    for prefix in sorted(prefixes):
        lines.append(f"@prefix {prefix}: <{prefixes[prefix]}> .")
    if len(g):
        lines.append("")
    for t in g.match():
        lines.append(f"{_render(t.subject, prefixes)} {_render(t.predicate, prefixes)} "
                     f"{_render(t.object, prefixes)} .")
    return "\n".join(lines) + "\n"

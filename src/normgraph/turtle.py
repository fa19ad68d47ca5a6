"""Parser and serializer for the Turtle subset used by the rule corpus.

Supported syntax: @prefix directives, `a`, `;`/`,` abbreviations, anonymous
blank-node property lists `[ ... ]` (nested), explicit `_:label` blank nodes,
short (double-quoted) and long (triple-double-quoted) string literals, and
`#` comments. Long strings preserve their inner text byte-for-byte, which is
what lets rule bodies travel inside `has-sparql-code` literals. No
collections, no numeric literals, no datatypes. Property lists nest at most
`rules.MAX_NESTING` (100) levels deep; the `[` one level deeper is a syntax
error, so deep input cannot exhaust the Python stack.

The reader keeps one piece of state, its offset into the text. A
`TurtleSyntaxError` works out its line and column from that offset when it is
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TurtleSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        return TurtleSyntaxError(message, line, self.pos - self.text.rfind("\n", 0, self.pos))

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + n]
        # Never past the end, so an error there reports the end's column.
        self.pos += len(chunk)
        return chunk

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def until(self, end: str, what: str) -> str:
        """The text up to the next `end`, which is consumed too."""
        stop = self.text.find(end, self.pos)
        if stop < 0:
            self.pos = len(self.text)
            raise self.error(f"unterminated {what}")
        value = self.text[self.pos:stop]
        self.pos = stop + len(end)
        return value


_WS = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
# A name never ends in '.': a trailing dot terminates the statement.
_NAME = re.compile(r"(?:[\w.-]*[\w-])?", re.ASCII)


def _read_string(sc: _Scanner) -> str:
    if sc.startswith('"""'):
        sc.advance(3)
        return sc.until('"""', "long string")
    sc.advance()  # opening quote
    out = []
    while True:
        if sc.eof():
            raise sc.error("unterminated string")
        c = sc.peek()
        if c in "\r\n":
            raise sc.error("newline in short string")
        if c == '"':
            sc.advance()
            return "".join(out)
        if c == "\\":
            sc.advance()
            esc = sc.advance()
            if esc not in STRING_ESCAPES:
                raise sc.error(f"unknown escape \\{esc}")
            out.append(STRING_ESCAPES[esc])
        else:
            out.append(sc.advance())


def _read_name(sc: _Scanner) -> str:
    match = _NAME.match(sc.text, sc.pos)
    sc.pos = match.end()
    return match.group()


class _Parser:
    def __init__(self, text: str, scope: str = ""):
        self.sc = _Scanner(text)
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.graph = Graph(prefix_map=self.prefixes)
        self._blank_counter = 0
        self.depth = 0  # open '[' around the current position
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
        sc.advance(len("@prefix"))
        sc.skip_ws()
        name = _read_name(sc)
        if sc.peek() != ":":
            raise sc.error("expected ':' in @prefix directive")
        sc.advance()
        sc.skip_ws()
        if sc.peek() != "<":
            raise sc.error("expected IRI in @prefix directive")
        sc.advance()
        iri = sc.until(">", "IRI")
        sc.skip_ws()
        if sc.peek() == ".":
            sc.advance()
        self.prefixes[name] = iri

    def expand(self, prefix: str, local: str) -> Iri:
        if prefix not in self.prefixes:
            raise self.sc.error(f"undeclared prefix '{prefix}:'")
        return Iri(self.prefixes[prefix] + local)

    def parse_term(self, as_subject: bool = False) -> Term:
        sc = self.sc
        sc.skip_ws()
        c = sc.peek()
        if c == "<":
            sc.advance()
            return Iri(sc.until(">", "IRI"))
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
        if c == ":":
            sc.advance()
            return self.expand("", _read_name(sc))
        name = _read_name(sc)
        # An empty name: c is no name character, or it begins a run of dots.
        if not name and c != ".":
            raise sc.error(f"unexpected character {c!r}")
        if sc.peek() == ":":
            sc.advance()
            return self.expand(name, _read_name(sc))
        if name == "a":
            return RDF_TYPE
        raise sc.error(f"unexpected token {name!r}")

    def parse_bnode_property_list(self) -> BlankNode:
        sc = self.sc
        if self.depth == MAX_NESTING:
            raise sc.error(f"nesting deeper than {MAX_NESTING} levels")
        sc.advance()  # '['
        node = self.fresh_blank()
        sc.skip_ws()
        if sc.peek() != "]":
            self.depth += 1
            self.parse_predicate_object_list(node)
            self.depth -= 1
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
        if not (isinstance(subject, BlankNode) and sc.peek() in (".", "")):
            self.parse_predicate_object_list(subject)
        sc.skip_ws()
        if sc.peek() == ".":
            sc.advance()
        elif not sc.eof():
            raise sc.error("expected '.' after statement")


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

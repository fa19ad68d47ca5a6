"""Shared test helpers: cached fixture runs, reification lookup, random data."""

from __future__ import annotations

import random
import shutil
import tempfile

import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from normgraph.cli import PipelineResult, run_pipeline
from normgraph.model import (
    BlankNode, Graph, Iri, Literal, RDF_OBJECT, RDF_PREDICATE,
    RDF_SUBJECT, RDF_TYPE, Term, Triple, term_key,
)
from normgraph.ontology import FIXTURES, fixture

# Hypothesis caches constants read from the source while it collects a
# property, whatever its database setting; keep that cache out of the checkout.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="normgraph-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


_PIPELINE_CACHE: dict[str, PipelineResult] = {}


def run_fixture(name: str) -> PipelineResult:
    """Run one fixture's pipeline with its declared layers (cached)."""
    if name not in _PIPELINE_CACHE:
        info = FIXTURES[name]
        data, user_rules, _ = fixture(name)
        _PIPELINE_CACHE[name] = run_pipeline([data, user_rules], set(info.layers))
    return _PIPELINE_CACHE[name]


def canonical(solutions: list) -> list:
    """The solutions sorted by their (variable name, term) pairs, duplicates
    kept. A full evaluation gives its solutions in the order its search finds
    them, so two lists of solutions are compared as multisets: each side
    through this."""
    return sorted(solutions, key=lambda b: sorted((v.name, term_key(t)) for v, t in b.items()))


def reified_nodes(g: Graph, s: Term | None = None, p: Term | None = None,
                  o: Term | None = None, classes: tuple = ()) -> list[Term]:
    """Nodes reifying (s, p, o) that carry all the given truth classes."""
    candidates = None
    for pred, val in ((RDF_SUBJECT, s), (RDF_PREDICATE, p), (RDF_OBJECT, o)):
        if val is None:
            continue
        nodes = {t.subject for t in g.match_iter(p=pred, o=val)}
        candidates = nodes if candidates is None else candidates & nodes
    if candidates is None:
        candidates = {t.subject for t in g.match_iter(p=RDF_SUBJECT)}
    out = []
    for node in candidates:
        if all(Triple(node, RDF_TYPE, c) in g for c in classes):
            out.append(node)
    return out


def has_reified(g: Graph, s: Term, p: Term, o: Term, classes: tuple) -> bool:
    return bool(reified_nodes(g, s, p, o, classes))


def soa(local: str) -> Iri:
    from normgraph.model import SOA_NS
    return Iri(SOA_NS + local)


def random_graph(rng: random.Random, max_triples: int = 12,
                 with_blanks: bool = True, with_literals: bool = True) -> Graph:
    iris = [Iri(f"https://example.org/n{i}") for i in range(6)]
    iris += [soa(f"thing{i}") for i in range(3)]
    preds = [Iri(f"https://example.org/p{i}") for i in range(4)]
    blanks = [BlankNode(f"parse:x{i}") for i in range(3)]
    literals = [Literal("plain"), Literal('with "quotes"'), Literal("line\nbreak"),
                Literal("tab\tand\\slash")]
    g = Graph()
    for _ in range(rng.randrange(max_triples + 1)):
        spool = iris + (blanks if with_blanks else [])
        opool = iris + (blanks if with_blanks else []) + (literals if with_literals else [])
        g.insert(Triple(rng.choice(spool), rng.choice(preds), rng.choice(opool)))
    return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


# Rule text: the start of a template, of a WHERE group or of a FILTER, then
# parts that are well-formed there or not, or single tokens, and maybe the
# rest of the rule. Half the texts join parts only, so that many parse. The
# parts that are not well-formed are the three constructs SPARQL 1.1 has no
# place for: a lone variable, a `[ ... ]` predicate and a `[ ... ]` FILTER
# operand.
_STATEMENTS = ["?x :p ?y .", "[ :p ?x ] .", "?y a [ a :p ; :p [] ] .", "?x :p ?y , [] .", "[] .",
               "?x .", "?x [ :p ?y ] ?y ."]
_RULE_CLAUSES = [
    ("CONSTRUCT{", _STATEMENTS, "}WHERE{?x :p ?y}"),
    ("CONSTRUCT{?x :q ?y}WHERE{", _STATEMENTS + [
        "FILTER(?x != ?y)", "NOT EXISTS{?x :p [] }", "{ ?x :p ?y } UNION { ?y :p ?x }",
        "BIND(:p AS ?z)", "FILTER(?x = [ :p ?y ])"], "}"),
    ("CONSTRUCT{?x :q ?y}WHERE{?x :p ?y FILTER(",
     ["?x = ?y &&", "( ?y != :p || ?x = ?y ) ||", "[ :p ?y ] != ?x &&"], "?x != ?y)}")]
_RULE_TOKENS = [
    "?x", "?y", "?", ":p", "soa:o", ":has.part", "a", "<https://e/x>", "<a b>", "<>", "<", '"s"',
    '"t\\n"', '"\\q"', '"""l"""', '"', "[", "]", "{", "}", "(", ")", ".", ";", ",", "=", "!=",
    "&&", "||", "FILTER", "NOT", "EXISTS", "UNION", "BIND", "AS", "WHERE", "x", "#", "\n"]
RULE_TEXTS = st.sampled_from(_RULE_CLAUSES).flatmap(lambda clause: st.builds(
    lambda parts, close: clause[0] + " ".join(parts) + (clause[2] if close else ""),
    st.lists(st.sampled_from(clause[1]), max_size=6)
    | st.lists(st.sampled_from(clause[1] + _RULE_TOKENS), max_size=30),
    st.booleans()))

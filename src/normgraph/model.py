"""RDF-style terms, triples, and an indexed in-memory graph.

The data model is deliberately small: IRIs, blank nodes, and plain literals.
No datatypes, no language tags, no named graphs. Graphs are sets of triples
with subject and predicate indexes, plus blank-node-isomorphism comparison
so that derived graphs containing anonymous individuals can be checked against
expected ones.

Terms are interned, one object per kind and string in a process, so `==` and
`hash` are by identity, in C; copies re-intern, and unused terms are dropped.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

# Matches exactly the characters for which str.isspace() is true.
_SPACE = re.compile(r"\s")


class _Interned:
    """A one-field value, held once per class and value in the class's weak table."""
    __slots__ = ()
    _check = staticmethod(lambda value: None)  # raises ValueError for a value to reject

    def __init_subclass__(cls):
        cls._table = weakref.WeakValueDictionary()

    def __new__(cls, value: str):
        self = cls._table.get(value)
        if self is None:
            cls._check(value)
            self = cls._table[value] = object.__new__(cls)
            object.__setattr__(self, cls.__slots__[0], value)
        return self

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):  # copy, deepcopy and pickle intern again
        return type(self), (getattr(self, self.__slots__[0]),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={getattr(self, self.__slots__[0])!r})"


class Iri(_Interned):
    __slots__ = ("value", "__weakref__")

    @staticmethod
    def _check(value: str) -> None:
        # Turtle writes an IRI as <value>, so a '>' in it would end it early.
        if not value or _SPACE.search(value) or ">" in value:
            raise ValueError(f"invalid IRI: {value!r}")


class BlankNode(_Interned):
    # Labels carry a generation-source prefix ("parse:", "skolem:") so the
    # origin of an anonymous individual stays inspectable. Interned by label.
    __slots__ = ("label", "__weakref__")


class Literal(_Interned):
    # Plain literal, interned by lexical form.
    __slots__ = ("value", "__weakref__")


Term = Iri | BlankNode | Literal

# Deterministic total order over terms: Iri < BlankNode < Literal, then by
# the underlying string. Used wherever output must be reproducible.
def term_key(t: Term) -> tuple[int, str]:
    if isinstance(t, Iri):
        return (0, t.value)
    if isinstance(t, BlankNode):
        return (1, t.label)
    return (2, t.value)


def render_term(t: Term) -> str:
    """Canonical prefix-independent rendering, for sort keys and hashes."""
    if isinstance(t, Iri):
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    escaped = t.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def local_name(iri: Iri, namespaces: Iterable[str]) -> str:
    """The text after the longest of the `namespaces`, given longest first,
    that the IRI extends, an empty one skipped; else the text after its last
    '#' or else '/', if not empty; else the whole IRI. It names a rule and
    shortens a name in a report."""
    value = iri.value
    for ns in namespaces:
        if ns and len(value) > len(ns) and value.startswith(ns):
            return value[len(ns):]
    for sep in "#/":
        _, found, local = value.rpartition(sep)
        if found and local:
            return local
    return value


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if not isinstance(self.predicate, Iri):
            raise ValueError(f"triple predicate must be an IRI, got {self.predicate!r}")
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")

    def key(self) -> tuple:
        return (term_key(self.subject), term_key(self.predicate), term_key(self.object))


# What a lookup that misses an index level reads from; never written to.
_NO_BUCKETS = MappingProxyType({})


class Memo(dict):
    """`make(key)` for each key, made at its first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Graph:
    """A set of triples with two-level indexes and a prefix map.

    Two indexes map one position to a second one and then to a bucket:
    subject to predicate and predicate to object. A bucket maps the remaining
    term to its triple, so a fully bound pattern is a membership test and one
    that binds the predicate, or the subject alone, is one lookup per level.
    Rule bodies seldom bind an object without its predicate, so no index
    starts at the object: such a lookup reads each of the subject's buckets,
    or each predicate's entry. The indexes are the only store of the
    triples: `in` is a lookup in the s→p→o index, and a whole-graph walk
    (`match_iter()` with nothing bound) follows it, in insertion order
    grouped by subject and predicate, so the walk and its work depend on
    neither hash seed nor term address.
    `insert` also keeps the size and two counts per predicate, its triples
    and its distinct subjects; its distinct objects are the size of its p→o
    entry. Join planning reads these through `count` and `distinct` in O(1),
    except that a constant subject or object with no constant predicate, and
    the whole graph's distinct objects, add up buckets.
    `insert` walks down each index once, and learns on the way whether the
    triple is new and whether its (s, p) bucket is. `match` sorts by keys
    made once per distinct term. Triples are only ever added, so the size
    tells whether the graph has changed.
    """

    def __init__(self, triples: Iterable[Triple] = (), prefix_map: Optional[dict[str, str]] = None):
        self._sp: dict[Term, dict[Term, dict[Term, Triple]]] = {}
        self._po: dict[Term, dict[Term, dict[Term, Triple]]] = {}
        # predicate -> [triples, distinct subjects]
        self._counts: dict[Term, list[int]] = {}
        self._size = 0
        self.prefix_map: dict[str, str] = dict(prefix_map or {})
        for t in triples:
            self.insert(t)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, t: Triple) -> bool:
        return t.object in self._sp.get(t.subject, _NO_BUCKETS).get(t.predicate, _NO_BUCKETS)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.match())

    def triples(self) -> frozenset[Triple]:
        return frozenset(self.match_iter())

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True iff it was not already present."""
        s, p, o = t.subject, t.predicate, t.object
        buckets = self._sp.get(s)
        if buckets is None:
            buckets = self._sp[s] = {}
        bucket = buckets.get(p)
        if bucket is None:  # a new (s, p) bucket: s is a new subject of p
            buckets[p] = {o: t}
            counts = self._counts.get(p)
            if counts is None:
                counts = self._counts[p] = [0, 0]
            counts[1] += 1
        elif o in bucket:
            return False
        else:
            bucket[o] = t
            counts = self._counts[p]
        counts[0] += 1
        self._size += 1
        objects = self._po.get(p)
        if objects is None:
            self._po[p] = {o: {s: t}}
        else:
            bucket = objects.get(o)
            if bucket is None:
                objects[o] = {s: t}
            else:
                bucket[s] = t
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.insert(t))

    def copy(self) -> "Graph":
        """An independent graph with the same triples, in the same order, and
        the same prefix map. The indexes are copied level by level, which
        hashes no term again."""
        out = Graph(prefix_map=self.prefix_map)
        out._sp, out._po = (
            {first: {second: dict(bucket) for second, bucket in buckets.items()}
             for first, buckets in index.items()}
            for index in (self._sp, self._po))
        out._counts = {p: list(counts) for p, counts in self._counts.items()}
        out._size = self._size
        return out

    def match_iter(self, s: Optional[Term] = None, p: Optional[Term] = None,
                   o: Optional[Term] = None) -> Iterator[Triple]:
        """Unordered match: one index lookup per bound position, save an object
        without a predicate (see the class). With nothing bound it walks the
        s→p→o index, in insertion order."""
        if s is not None:
            if p is not None:
                bucket = self._sp.get(s, _NO_BUCKETS).get(p, _NO_BUCKETS)
                if o is None:
                    return iter(bucket.values())
                return iter([bucket[o]] if o in bucket else ())
            if o is not None:
                return (bucket[o] for bucket in self._sp.get(s, _NO_BUCKETS).values()
                        if o in bucket)
            buckets = self._sp.get(s, _NO_BUCKETS)
        elif p is not None:
            if o is not None:
                return iter(self._po.get(p, _NO_BUCKETS).get(o, _NO_BUCKETS).values())
            buckets = self._po.get(p, _NO_BUCKETS)
        elif o is not None:
            return chain.from_iterable(objects[o].values() for objects in self._po.values()
                                       if o in objects)
        else:
            return chain.from_iterable(bucket.values() for buckets in self._sp.values()
                                       for bucket in buckets.values())
        return chain.from_iterable(bucket.values() for bucket in buckets.values())

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> list[Triple]:
        """The matches in `Triple.key` order. Each term's key is made once per
        call, as one string: its kind's digit, then its text, which sorts alike."""
        keys = Memo(lambda term: "%d%s" % term_key(term))
        return sorted(self.match_iter(s, p, o),
                      key=lambda t: (keys[t.subject], keys[t.predicate], keys[t.object]))

    def subject_pool(self, t: Term) -> int:
        return sum(map(len, self._sp.get(t, _NO_BUCKETS).values()))

    def predicate_pool(self, t: Term) -> int:
        return self._counts.get(t, (0,))[0]

    def object_pool(self, t: Term) -> int:
        return sum(len(objects[t]) for objects in self._po.values() if t in objects)

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """How many triples `match_iter(s, p, o)` gives, without visiting
        them; only a subject or an object bound alone adds up buckets."""
        if p is not None:
            if s is None and o is None:
                return self.predicate_pool(p)
            if o is None:
                return len(self._sp.get(s, _NO_BUCKETS).get(p, _NO_BUCKETS))
            if s is None:
                return len(self._po.get(p, _NO_BUCKETS).get(o, _NO_BUCKETS))
            return int(o in self._sp.get(s, _NO_BUCKETS).get(p, _NO_BUCKETS))
        if s is not None:
            if o is None:
                return self.subject_pool(s)
            return sum(o in bucket for bucket in self._sp.get(s, _NO_BUCKETS).values())
        if o is not None:
            return self.object_pool(o)
        return self._size

    def distinct(self, p: Optional[Term] = None) -> tuple[int, int, int]:
        """The number of distinct subjects, predicates and objects among the
        triples with predicate `p`, or among all triples for None."""
        if p is None:
            return len(self._sp), len(self._po), len(set().union(*self._po.values()))
        objects = self._po.get(p)
        if objects is None:
            return 0, 0, 0
        return self._counts[p][1], 1, len(objects)

    def check_indexes(self) -> bool:
        """Internal consistency: each index files every triple under its own
        terms, the p→o index holds exactly the triples of the s→p→o one, and
        the size and per-predicate counts are those of its triples."""
        filed = []
        for index, order in ((self._sp, lambda t: (t.subject, t.predicate, t.object)),
                             (self._po, lambda t: (t.predicate, t.object, t.subject))):
            entries = [(first, second, third, t)
                       for first, buckets in index.items()
                       for second, bucket in buckets.items()
                       for third, t in bucket.items()]
            if any(order(t) != (first, second, third) for first, second, third, t in entries):
                return False
            filed.append([t for *_, t in entries])
        triples = set(filed[0])
        if len(triples) != self._size or set(filed[1]) != triples:
            return False
        counts: dict[Term, list] = {}
        for t in triples:
            entry = counts.setdefault(t.predicate, [0, set()])
            entry[0] += 1
            entry[1].add(t.subject)
        return {p: [n, len(subjects)] for p, (n, subjects) in counts.items()} == self._counts

    def terms(self) -> set[Term]:
        return set(chain(self._sp, self._po, *self._po.values()))

    def blank_nodes(self) -> set[BlankNode]:
        return {t for t in self.terms() if isinstance(t, BlankNode)}


def graph_union(*graphs: Graph) -> Graph:
    if not graphs:
        return Graph()
    out = graphs[0].copy()
    for g in graphs[1:]:
        out.update(g.match_iter())
        for k, v in g.prefix_map.items():
            out.prefix_map.setdefault(k, v)
    return out


def graph_difference(g1: Graph, g2: Graph) -> Graph:
    out = Graph(prefix_map=g1.prefix_map)
    out.update(t for t in g1.match_iter() if t not in g2)
    return out


def _ground_part(g: Graph) -> set[Triple]:
    return {t for t in g.match_iter()
            if not isinstance(t.subject, BlankNode) and not isinstance(t.object, BlankNode)}


def _signature(g: Graph, b: BlankNode) -> tuple:
    """Degree signature used to prune the bijection search."""
    out_edges = sorted((term_key(t.predicate),
                        term_key(t.object) if not isinstance(t.object, BlankNode) else (1, "*"))
                       for t in g.match_iter(s=b))
    in_edges = sorted((term_key(t.predicate),
                       term_key(t.subject) if not isinstance(t.subject, BlankNode) else (1, "*"))
                      for t in g.match_iter(o=b))
    return (tuple(out_edges), tuple(in_edges))


def _map_triple(t: Triple, mapping: dict[BlankNode, BlankNode]) -> Triple:
    return Triple(mapping.get(t.subject, t.subject), t.predicate, mapping.get(t.object, t.object))


def _extend_mapping(sub: Graph, sup: Graph, blanks: list[tuple[BlankNode, Optional[tuple]]],
                    candidates: list[tuple[BlankNode, Optional[tuple]]],
                    mapping: dict[BlankNode, BlankNode], used: set[BlankNode]) -> bool:
    """Maps `blanks`, sub's blank nodes still unmapped, onto `candidates`,
    sup's blank nodes in term order. Each comes with its signature, or None
    where any candidate may take any blank."""
    if not blanks:
        return all(_map_triple(t, mapping) in sup for t in sub.match_iter())
    b, sig = blanks[0]
    for cand, cand_sig in candidates:
        if cand in used or cand_sig != sig:
            continue
        mapping[b] = cand
        used.add(cand)
        # Check only triples whose blanks are all mapped so far.
        ok = all(_map_triple(t, mapping) in sup
                 for t in chain(sub.match_iter(s=b), sub.match_iter(o=b))
                 if not (isinstance(t.subject, BlankNode) and t.subject not in mapping
                         or isinstance(t.object, BlankNode) and t.object not in mapping))
        if ok and _extend_mapping(sub, sup, blanks[1:], candidates, mapping, used):
            return True
        del mapping[b]
        used.discard(cand)
    return False


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff a bijection over blank nodes maps g1's triples onto g2's."""
    if len(g1) != len(g2):
        return False
    if _ground_part(g1) != _ground_part(g2):
        return False
    b1, b2 = g1.blank_nodes(), g2.blank_nodes()
    if len(b1) != len(b2):
        return False
    ordered = sorted(((b, _signature(g1, b)) for b in b1),
                     key=lambda pair: (pair[1], term_key(pair[0])))
    candidates = sorted(((b, _signature(g2, b)) for b in b2), key=lambda pair: term_key(pair[0]))
    return _extend_mapping(g1, g2, ordered, candidates, {}, set())


def contains_isomorphic(sub: Graph, sup: Graph) -> bool:
    """True iff sub embeds into sup: ground triples are contained directly and
    sub's blank nodes map injectively onto sup's so every triple lands in sup."""
    if not all(t in sup for t in _ground_part(sub)):
        return False
    ordered = [(b, None) for b in sorted(sub.blank_nodes(), key=term_key)]
    if not ordered:
        return True
    candidates = [(b, None) for b in sorted(sup.blank_nodes(), key=term_key)]
    return _extend_mapping(sub, sup, ordered, candidates, {}, set())


# --- Well-known vocabulary -------------------------------------------------

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
ONT_NS = "https://w3id.org/ontology/conflict-tolerantdeontictraditionalscheme#"
SOA_NS = ONT_NS + "soa"

DEFAULT_PREFIXES: dict[str, str] = {
    "": ONT_NS,
    "soa": SOA_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
}


def _iri(ns: str, local: str) -> Iri:
    return Iri(ns + local)


RDF_TYPE = _iri(RDF_NS, "type")
RDF_SUBJECT = _iri(RDF_NS, "subject")
RDF_PREDICATE = _iri(RDF_NS, "predicate")
RDF_OBJECT = _iri(RDF_NS, "object")
RDF_STATEMENT = _iri(RDF_NS, "Statement")
RDF_PROPERTY = _iri(RDF_NS, "Property")
RDFS_CLASS = _iri(RDFS_NS, "Class")
RDFS_SUBCLASSOF = _iri(RDFS_NS, "subClassOf")
RDFS_DOMAIN = _iri(RDFS_NS, "domain")
RDFS_RANGE = _iri(RDFS_NS, "range")

STATEMENT = _iri(ONT_NS, "statement")
TRUE = _iri(ONT_NS, "true")
FALSE = _iri(ONT_NS, "false")
HOLD = _iri(ONT_NS, "hold")
NECESSARY = _iri(ONT_NS, "necessary")
POSSIBLE = _iri(ONT_NS, "possible")
EVENTUALITY = _iri(ONT_NS, "Eventuality")
MODALITY = _iri(ONT_NS, "Modality")
REXIST = _iri(ONT_NS, "Rexist")
DEONTIC_MODALITY = _iri(ONT_NS, "DeonticModality")
OBLIGATORY = _iri(ONT_NS, "Obligatory")
PERMITTED = _iri(ONT_NS, "Permitted")
OPTIONAL = _iri(ONT_NS, "Optional")
THEMATIC_ROLE = _iri(ONT_NS, "ThematicRole")
NOT = _iri(ONT_NS, "not")
AND1 = _iri(ONT_NS, "and1")
AND2 = _iri(ONT_NS, "and2")
OR1 = _iri(ONT_NS, "or1")
OR2 = _iri(ONT_NS, "or2")
DISJUNCTION = _iri(ONT_NS, "disjunction")
IS_IN_CONTRADICTION_WITH = _iri(ONT_NS, "is-in-contradiction-with")
IS_IN_CONFLICT_WITH = _iri(ONT_NS, "is-in-conflict-with")
IS_COMPLIED_WITH_BY = _iri(ONT_NS, "is-complied-with-by")
IS_VIOLATED_BY = _iri(ONT_NS, "is-violated-by")
IS_NECESSARILY_VIOLATED_BY = _iri(ONT_NS, "is-necessarily-violated-by")
INFERENCE_RULE = _iri(ONT_NS, "InferenceRule")
HAS_SPARQL_CODE = _iri(ONT_NS, "has-sparql-code")

"""Built-in vocabulary and the layered rule catalog.

The catalog is organized in six layers:

  core          reified truth bookkeeping for really-existing eventualities:
                opposites, co-occurrence, disjunctive occurrence, disjunctive
                syllogism at both levels, and contradiction detection
  pragmatics    the implicature that two same-class eventualities diverging on
                exactly one thematic role are opposites
  dts           the inter-definitions of obligatory / permitted / optional
  deontic-bool  conjunction and disjunction distribution for the deontic
                modalities, plus disjunctive syllogism for obligations
  compliance    compliance, violation, and conflict detection
  modal         necessity: materialization and necessary violations

Statements about statements are written with RDF reification: a node typed
:true/:false (optionally :hold, :necessary, :possible) carrying rdf:subject,
rdf:predicate, rdf:object. Held-true statements are normally asserted
directly as triples; held-false ones only ever exist reified.

Domain content (mutual exclusivity of payment instruments, building or
parking norms, contextual necessities) is not built in: those are states of
affairs, shipped as user rules inside the fixture corpus instead.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache

from .engine import RuleSet, rule_entry
from .model import Graph
from .turtle import parse_turtle

LAYER_NAMES = ("core", "pragmatics", "dts", "deontic-bool", "compliance", "modal")


class UnknownLayer(Exception):
    pass


class UnknownFixture(Exception):
    pass


_VOCABULARY_TTL = """
:statement a rdfs:Class; rdfs:subClassOf rdf:Statement.
:true a rdfs:Class; rdfs:subClassOf :statement.
:false a rdfs:Class; rdfs:subClassOf :statement.
:hold a rdfs:Class; rdfs:subClassOf :statement.
:necessary a rdfs:Class; rdfs:subClassOf :statement.
:possible a rdfs:Class; rdfs:subClassOf :statement.

:Eventuality a rdfs:Class.
:ThematicRole a rdfs:Class.
:Modality a rdfs:Class.
:Rexist a rdfs:Class, :Modality.
:DeonticModality a rdfs:Class; rdfs:subClassOf :Modality.
:Obligatory a rdfs:Class, :DeonticModality.
:Permitted a rdfs:Class, :DeonticModality.
:Optional a rdfs:Class, :DeonticModality.

:not a rdf:Property; rdfs:domain :Eventuality; rdfs:range :Eventuality.
:and1 a rdf:Property; rdfs:domain :Eventuality; rdfs:range :Eventuality.
:and2 a rdf:Property; rdfs:domain :Eventuality; rdfs:range :Eventuality.
:or1 a rdf:Property; rdfs:domain :Eventuality; rdfs:range :Eventuality.
:or2 a rdf:Property; rdfs:domain :Eventuality; rdfs:range :Eventuality.
:disjunction a rdf:Property; rdfs:domain :statement; rdfs:range :statement.

:is-in-contradiction-with a rdf:Property; rdfs:domain :statement; rdfs:range :statement.
:is-in-conflict-with a rdf:Property; rdfs:domain :statement; rdfs:range :statement.
:is-complied-with-by a rdf:Property; rdfs:domain :statement; rdfs:range :statement.
:is-violated-by a rdf:Property; rdfs:domain :statement; rdfs:range :statement.
:is-necessarily-violated-by a rdf:Property; rdfs:domain :statement; rdfs:range :statement.

:InferenceRule a rdfs:Class.
:has-sparql-code a rdf:Property.
"""


@lru_cache(maxsize=None)
def _parsed_vocabulary() -> Graph:
    return parse_turtle(_VOCABULARY_TTL)


def vocabulary() -> Graph:
    """The declaration triples for every built-in class and property: a
    copy of the one parse, so a caller may change it."""
    return _parsed_vocabulary().copy()


@dataclass(frozen=True)
class RuleCatalogEntry:
    rule_id: str
    layer: str
    description: str
    text: str


# The catalog. Rule bodies are the executable source of record; descriptions
# are one-line summaries used by the CLI listing.
CATALOG: tuple[RuleCatalogEntry, ...] = (
    # --- core ---------------------------------------------------------------
    RuleCatalogEntry(
        "not-false", "core",
        "a really existing eventuality makes its opposite's really-exists "
        "statement hold false",
        """
        CONSTRUCT{[a :false,:hold;
                   rdf:subject ?ne; rdf:predicate rdf:type; rdf:object :Rexist]}
        WHERE{?e :not ?ne. ?e rdf:type :Rexist.
              NOT EXISTS{?f a :false,:hold; rdf:subject ?ne;
                         rdf:predicate rdf:type; rdf:object :Rexist}}
        """),
    RuleCatalogEntry(
        "not-rexist", "core",
        "a held-false really-exists statement makes the opposite eventuality "
        "really exist",
        """
        CONSTRUCT{?ne a :Rexist}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e} ?r a :false,:hold;
              rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist}
        """),
    RuleCatalogEntry(
        "hold-true", "core",
        "materializes the triple reified by every statement that holds true",
        """
        CONSTRUCT{?s ?p ?o}
        WHERE{?r a :true,:hold; rdf:subject ?s;
              rdf:predicate ?p; rdf:object ?o}
        """),
    RuleCatalogEntry(
        "and-down", "core",
        "a really existing co-occurrence makes both parts really exist",
        """
        CONSTRUCT{?e1 a :Rexist. ?e2 a :Rexist.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2. ?ea a :Rexist}
        """),
    RuleCatalogEntry(
        "and-up", "core",
        "two really existing parts make their co-occurrence really exist",
        """
        CONSTRUCT{?ea a :Rexist.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2.
              ?e1 a :Rexist. ?e2 a :Rexist}
        """),
    RuleCatalogEntry(
        "or-to-disjunction", "core",
        "a really existing disjunctive occurrence yields the statement-level "
        "disjunction of its parts really existing",
        """
        CONSTRUCT{[a :true; rdf:subject ?e1; rdf:predicate rdf:type;
                   rdf:object :Rexist] :disjunction [a :true; rdf:subject ?e2;
                   rdf:predicate rdf:type; rdf:object :Rexist]}
        WHERE{?eo :or1 ?e1. ?eo :or2 ?e2. ?eo a :Rexist.
              NOT EXISTS{?r1 a :true; rdf:predicate rdf:type; rdf:object :Rexist.
                         ?r2 a :true; rdf:predicate rdf:type; rdf:object :Rexist.
                         {?r1 rdf:subject ?e1. ?r2 rdf:subject ?e2.}UNION
                         {?r1 rdf:subject ?e2. ?r2 rdf:subject ?e1.}}}
        """),
    RuleCatalogEntry(
        "or-up", "core",
        "a really existing part makes the disjunctive occurrence really exist",
        """
        CONSTRUCT{?eo a :Rexist}
        WHERE{{?eo :or1 ?e1. ?eo :or2 ?e2}UNION{?eo :or1 ?e2. ?eo :or2 ?e1}
              {?e1 rdf:type :Rexist}UNION{?e2 rdf:type :Rexist}}
        """),
    RuleCatalogEntry(
        "ds-rexist", "core",
        "disjunctive syllogism over really existing eventualities",
        """
        CONSTRUCT{?e2 a :Rexist}
        WHERE{?eo a :Rexist. ?en1 a :Rexist.
              {?eo :or1 ?e1; :or2 ?e2}UNION{?eo :or1 ?e2; :or2 ?e1}
              {?e1 :not ?en1}UNION{?en1 :not ?e1}}
        """),
    RuleCatalogEntry(
        "ds-statement", "core",
        "disjunctive syllogism over reified statements joined by disjunction",
        """
        CONSTRUCT{?r2 a :hold}
        WHERE{{?r1 :disjunction ?r2}UNION{?r2 :disjunction ?r1}
              ?r1 a ?tvr1; rdf:subject ?s; rdf:predicate ?p; rdf:object ?o.
              ?rn1 a :hold,?tvrn1; rdf:subject ?s; rdf:predicate ?p; rdf:object ?o.
              FILTER(((?tvr1=:true)&&(?tvrn1=:false))||
                     ((?tvr1=:false)&&(?tvrn1=:true)))}
        """),
    RuleCatalogEntry(
        "contradiction-rexist", "core",
        "flags an eventuality that both really exists and is held not to",
        """
        CONSTRUCT{[a :true,:hold;
                   rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist]
                  :is-in-contradiction-with ?r}
        WHERE{?e a :Rexist. ?r a :false,:hold;
              rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist.
              NOT EXISTS{{?t :is-in-contradiction-with ?r}UNION
                         {?r :is-in-contradiction-with ?t} ?t a :true,:hold;
                         rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist}}
        """),
    RuleCatalogEntry(
        "contradiction-thematic", "core",
        "flags a thematic role value that is both asserted and held false",
        """
        CONSTRUCT{[a :true,:hold;
                   rdf:subject ?e; rdf:predicate ?tr; rdf:object ?tv]
                  :is-in-contradiction-with ?r}
        WHERE{?e ?tr ?tv. ?tr a :ThematicRole. ?r a :false,:hold;
              rdf:subject ?e; rdf:predicate ?tr; rdf:object ?tv.
              NOT EXISTS{{?t :is-in-contradiction-with ?r}UNION
                         {?r :is-in-contradiction-with ?t} ?t a :true,:hold;
                         rdf:subject ?e; rdf:predicate ?tr; rdf:object ?tv}}
        """),
    # --- pragmatics -----------------------------------------------------------
    RuleCatalogEntry(
        "not-from-thematic-divergence", "pragmatics",
        "two same-class eventualities sharing every other role are opposites "
        "when one holds a role value the other is denied",
        """
        CONSTRUCT{?e1 :not ?e2}
        WHERE{?e1 a ?c. ?e2 a ?c. ?c a :Eventuality. FILTER(?e1!=?e2)
              ?trn a :ThematicRole. ?e1 ?trn ?tv. ?r a :false,:hold;
              rdf:subject ?e2; rdf:predicate ?trn; rdf:object ?vn.
              NOT EXISTS{?tr a :ThematicRole. FILTER(?tr!=?trn) ?e1 ?tr ?tv1.
                         NOT EXISTS{?e2 ?tr ?tv2}}
              NOT EXISTS{?tr a :ThematicRole. FILTER(?tr!=?trn) ?e2 ?tr ?tv2.
                         NOT EXISTS{?e1 ?tr ?tv1}}
              NOT EXISTS{?tr a :ThematicRole. FILTER(?tr!=?trn)
                         ?e1 ?tr ?tv1. ?e2 ?tr ?tv2. FILTER(?tv1!=?tv2)}}
        """),
    # --- dts ------------------------------------------------------------------
    RuleCatalogEntry(
        "ob-pe-dual-fwd", "dts",
        "an obligatory (permitted) eventuality denies the permission "
        "(obligation) of its opposite",
        """
        CONSTRUCT{[a :false,:hold;
                   rdf:subject ?ne; rdf:predicate rdf:type; rdf:object ?ddm]}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e}
              {?e a :Obligatory. BIND(:Permitted AS ?ddm)}UNION
              {?e a :Permitted. BIND(:Obligatory AS ?ddm)}
              NOT EXISTS{?f a :false,:hold; rdf:subject ?ne;
                         rdf:predicate rdf:type; rdf:object ?ddm}}
        """),
    RuleCatalogEntry(
        "ob-pe-dual-bwd", "dts",
        "a denied obligation (permission) makes the opposite eventuality "
        "permitted (obligatory)",
        """
        CONSTRUCT{?ne a ?ddm}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e}
              ?r a :false,:hold; rdf:subject ?e; rdf:predicate rdf:type.
              {?r rdf:object :Obligatory. BIND(:Permitted AS ?ddm)}UNION
              {?r rdf:object :Permitted. BIND(:Obligatory AS ?ddm)}}
        """),
    RuleCatalogEntry(
        "op-to-not-ob-self", "dts",
        "an optional eventuality is not obligatory",
        """
        CONSTRUCT{[a :false,:hold; rdf:subject ?e;
                   rdf:predicate rdf:type; rdf:object :Obligatory]}
        WHERE{?e a :Optional. {?e :not ?ne}UNION{?ne :not ?e}
              NOT EXISTS{?f a :false,:hold; rdf:subject ?e;
                         rdf:predicate rdf:type; rdf:object :Obligatory}}
        """),
    RuleCatalogEntry(
        "op-to-not-ob-opposite", "dts",
        "the opposite of an optional eventuality is not obligatory",
        """
        CONSTRUCT{[a :false,:hold; rdf:subject ?ne;
                   rdf:predicate rdf:type; rdf:object :Obligatory]}
        WHERE{?e a :Optional. {?e :not ?ne}UNION{?ne :not ?e}
              NOT EXISTS{?f a :false,:hold; rdf:subject ?ne;
                         rdf:predicate rdf:type; rdf:object :Obligatory}}
        """),
    RuleCatalogEntry(
        "not-ob-pair-to-op", "dts",
        "an eventuality is optional when neither it nor its opposite is "
        "obligatory",
        """
        CONSTRUCT{?e a :Optional. ?ne a :Optional}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e}
              ?r1 a :false,:hold; rdf:subject ?e;
              rdf:predicate rdf:type; rdf:object :Obligatory.
              ?r2 a :false,:hold; rdf:subject ?ne;
              rdf:predicate rdf:type; rdf:object :Obligatory}
        """),
    RuleCatalogEntry(
        "ob-to-not-op-self", "dts",
        "an obligatory eventuality is not optional",
        """
        CONSTRUCT{[a :false,:hold; rdf:subject ?e;
                   rdf:predicate rdf:type; rdf:object :Optional]}
        WHERE{?e a :Obligatory. {?e :not ?ne}UNION{?ne :not ?e}
              NOT EXISTS{?f a :false,:hold; rdf:subject ?e;
                         rdf:predicate rdf:type; rdf:object :Optional}}
        """),
    RuleCatalogEntry(
        "ob-to-not-op-opposite", "dts",
        "the opposite of an obligatory eventuality is not optional",
        """
        CONSTRUCT{[a :false,:hold; rdf:subject ?ne;
                   rdf:predicate rdf:type; rdf:object :Optional]}
        WHERE{?e a :Obligatory. {?e :not ?ne}UNION{?ne :not ?e}
              NOT EXISTS{?f a :false,:hold; rdf:subject ?ne;
                         rdf:predicate rdf:type; rdf:object :Optional}}
        """),
    RuleCatalogEntry(
        "not-op-to-ob-disjunction", "dts",
        "a non-optional eventuality yields the disjunction: it or its "
        "opposite is obligatory",
        """
        CONSTRUCT{[a :true; rdf:subject ?e; rdf:predicate rdf:type;
                   rdf:object :Obligatory] :disjunction [a :true; rdf:subject ?ne;
                   rdf:predicate rdf:type; rdf:object :Obligatory]}
        WHERE{{?e :not ?ne}UNION{?ne :not ?e} ?r a :false,:hold;
              rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Optional.
              NOT EXISTS{?e a :Obligatory} NOT EXISTS{?ne a :Obligatory}
              NOT EXISTS{{?r1 :disjunction ?r2}UNION{?r2 :disjunction ?r1}
                         ?r1 a :true; rdf:subject ?e; rdf:predicate rdf:type;
                         rdf:object :Obligatory. ?r2 a :true; rdf:subject ?ne;
                         rdf:predicate rdf:type; rdf:object :Obligatory.}}
        """),
    RuleCatalogEntry(
        "ob-to-pe", "dts",
        "whatever is obligatory is permitted",
        """
        CONSTRUCT{?e a :Permitted} WHERE{?e a :Obligatory}
        """),
    RuleCatalogEntry(
        "not-pe-to-not-ob", "dts",
        "whatever is denied permission is denied obligation",
        """
        CONSTRUCT{[a :false,:hold; rdf:subject ?e;
                   rdf:predicate rdf:type; rdf:object :Obligatory]}
        WHERE{?r a :false, :hold;
              rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Permitted.
              NOT EXISTS{?f a :false,:hold; rdf:subject ?e;
                         rdf:predicate rdf:type; rdf:object :Obligatory}}
        """),
    # --- deontic-bool ---------------------------------------------------------
    RuleCatalogEntry(
        "and-down-obligatory", "deontic-bool",
        "an obligatory co-occurrence makes both parts obligatory",
        """
        CONSTRUCT{?e1 a :Obligatory. ?e2 a :Obligatory.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2. ?ea a :Obligatory}
        """),
    RuleCatalogEntry(
        "and-up-obligatory", "deontic-bool",
        "two obligatory parts make their co-occurrence obligatory",
        """
        CONSTRUCT{?ea a :Obligatory.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2.
              ?e1 a :Obligatory. ?e2 a :Obligatory}
        """),
    RuleCatalogEntry(
        "and-down-permitted", "deontic-bool",
        "a permitted co-occurrence makes both parts permitted",
        """
        CONSTRUCT{?e1 a :Permitted. ?e2 a :Permitted.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2. ?ea a :Permitted}
        """),
    RuleCatalogEntry(
        "and-up-permitted", "deontic-bool",
        "two permitted parts make their co-occurrence permitted",
        """
        CONSTRUCT{?ea a :Permitted.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2.
              ?e1 a :Permitted. ?e2 a :Permitted}
        """),
    RuleCatalogEntry(
        "and-down-optional", "deontic-bool",
        "an optional co-occurrence makes both parts optional",
        """
        CONSTRUCT{?e1 a :Optional. ?e2 a :Optional.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2. ?ea a :Optional}
        """),
    RuleCatalogEntry(
        "and-up-optional", "deontic-bool",
        "two optional parts make their co-occurrence optional",
        """
        CONSTRUCT{?ea a :Optional.}
        WHERE{?ea :and1 ?e1. ?ea :and2 ?e2.
              ?e1 a :Optional. ?e2 a :Optional}
        """),
    RuleCatalogEntry(
        "ds-obligatory", "deontic-bool",
        "disjunctive syllogism for obligations: an obligatory disjunctive "
        "occurrence whose one part's opposite is obligatory makes the other "
        "part obligatory",
        """
        CONSTRUCT{?e2 a :Obligatory}
        WHERE{?eo a :Obligatory. ?en1 a :Obligatory.
              {?eo :or1 ?e1; :or2 ?e2}UNION{?eo :or1 ?e2; :or2 ?e1}
              {?e1 :not ?en1}UNION{?en1 :not ?e1}}
        """),
    RuleCatalogEntry(
        "or-dist-permitted-fwd", "deontic-bool",
        "a permitted disjunctive occurrence yields the statement-level "
        "disjunction of its parts being permitted",
        """
        CONSTRUCT{[a :true; rdf:subject ?e1; rdf:predicate rdf:type;
                   rdf:object :Permitted] :disjunction [a :true; rdf:subject ?e2;
                   rdf:predicate rdf:type; rdf:object :Permitted]}
        WHERE{?eo :or1 ?e1. ?eo :or2 ?e2. ?eo a :Permitted.
              NOT EXISTS{?r1 a :true; rdf:predicate rdf:type; rdf:object :Permitted.
                         ?r2 a :true; rdf:predicate rdf:type; rdf:object :Permitted.
                         {?r1 rdf:subject ?e1. ?r2 rdf:subject ?e2.}UNION
                         {?r1 rdf:subject ?e2. ?r2 rdf:subject ?e1.}}}
        """),
    RuleCatalogEntry(
        "or-dist-permitted-bwd", "deontic-bool",
        "a permitted part makes the disjunctive occurrence permitted",
        """
        CONSTRUCT{?eo a :Permitted}
        WHERE{{?eo :or1 ?e1. ?eo :or2 ?e2}UNION{?eo :or1 ?e2. ?eo :or2 ?e1}
              {?e1 rdf:type :Permitted}UNION{?e2 rdf:type :Permitted}}
        """),
    RuleCatalogEntry(
        "or-dist-optional-fwd", "deontic-bool",
        "an optional disjunctive occurrence yields the statement-level "
        "disjunction of its parts being optional",
        """
        CONSTRUCT{[a :true; rdf:subject ?e1; rdf:predicate rdf:type;
                   rdf:object :Optional] :disjunction [a :true; rdf:subject ?e2;
                   rdf:predicate rdf:type; rdf:object :Optional]}
        WHERE{?eo :or1 ?e1. ?eo :or2 ?e2. ?eo a :Optional.
              NOT EXISTS{?r1 a :true; rdf:predicate rdf:type; rdf:object :Optional.
                         ?r2 a :true; rdf:predicate rdf:type; rdf:object :Optional.
                         {?r1 rdf:subject ?e1. ?r2 rdf:subject ?e2.}UNION
                         {?r1 rdf:subject ?e2. ?r2 rdf:subject ?e1.}}}
        """),
    RuleCatalogEntry(
        "or-dist-optional-bwd", "deontic-bool",
        "an optional part makes the disjunctive occurrence optional",
        """
        CONSTRUCT{?eo a :Optional}
        WHERE{{?eo :or1 ?e1. ?eo :or2 ?e2}UNION{?eo :or1 ?e2. ?eo :or2 ?e1}
              {?e1 rdf:type :Optional}UNION{?e2 rdf:type :Optional}}
        """),
    # --- compliance -----------------------------------------------------------
    RuleCatalogEntry(
        "complied-with", "compliance",
        "an obligation is complied with by a really existing eventuality of "
        "the same class that matches every one of its thematic roles",
        """
        CONSTRUCT{[a :true,:hold; rdf:subject ?eo; rdf:predicate rdf:type;
                   rdf:object :Obligatory] :is-complied-with-by [a :true,:hold;
                   rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist]}
        WHERE{?eo a :Obligatory, ?c. ?e a :Rexist, ?c. ?c a :Eventuality.
              NOT EXISTS{?tr a :ThematicRole. ?eo ?tr ?vo. NOT EXISTS{?e ?tr ?ve}}
              NOT EXISTS{?tr a :ThematicRole. ?eo ?tr ?vo. ?e ?tr ?ve.
                         FILTER(?vo!=?ve)}
              NOT EXISTS{?eor :is-complied-with-by ?er. ?eor a :true,:hold;
                         rdf:subject ?eo; rdf:predicate rdf:type;
                         rdf:object :Obligatory. ?er a :true,:hold;
                         rdf:subject ?e; rdf:predicate rdf:type;
                         rdf:object :Rexist}}
        """),
    RuleCatalogEntry(
        "violated-by", "compliance",
        "a prohibition is violated by a really existing eventuality of the "
        "same class that matches every one of its thematic roles",
        """
        CONSTRUCT{?epr :is-violated-by [a :true,:hold;
                  rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Rexist]}
        WHERE{?epr a :false,:hold;
              rdf:subject ?ep; rdf:predicate rdf:type; rdf:object :Permitted.
              ?ep a ?c. ?e a :Rexist, ?c. ?c a :Eventuality.
              NOT EXISTS{?tr a :ThematicRole. ?ep ?tr ?vp. NOT EXISTS{?e ?tr ?ve}}
              NOT EXISTS{?tr a :ThematicRole. ?ep ?tr ?vp. ?e ?tr ?ve.
                         FILTER(?vp!=?ve)}
              NOT EXISTS{?epr :is-violated-by ?te. ?te rdf:type :true,:hold;
                         rdf:subject ?e; rdf:predicate rdf:type;
                         rdf:object :Rexist}}
        """),
    RuleCatalogEntry(
        "conflict", "compliance",
        "a denied permission conflicts with a permitted eventuality of the "
        "same class that matches every one of its thematic roles",
        """
        CONSTRUCT{?enr :is-in-conflict-with [a :true,:hold;
                  rdf:subject ?e; rdf:predicate rdf:type; rdf:object :Permitted]}
        WHERE{?enr a :false,:hold;
              rdf:subject ?en; rdf:predicate rdf:type; rdf:object :Permitted.
              ?en a ?c. ?e a :Permitted, ?c. ?c a :Eventuality.
              NOT EXISTS{?tr a :ThematicRole. ?en ?tr ?vn. NOT EXISTS{?e ?tr ?vp}}
              NOT EXISTS{?tr a :ThematicRole. ?en ?tr ?vn. ?e ?tr ?vp.
                         FILTER(?vn!=?vp)}
              NOT EXISTS{?enr :is-in-conflict-with ?te. ?te rdf:type :true,:hold;
                         rdf:subject ?e; rdf:predicate rdf:type;
                         rdf:object :Permitted}}
        """),
    # --- modal ----------------------------------------------------------------
    RuleCatalogEntry(
        "necessary-materialize", "modal",
        "materializes the triple reified by every statement that is necessary",
        """
        CONSTRUCT{?s ?p ?o}
        WHERE{?r a :necessary, :hold; rdf:subject ?s;
              rdf:predicate ?p; rdf:object ?o}
        """),
    RuleCatalogEntry(
        "necessarily-violated", "modal",
        "a prohibition is necessarily violated when context makes the "
        "prohibited role value necessary on a matching eventuality",
        """
        CONSTRUCT{?rep :is-necessarily-violated-by ?ren}
        WHERE{?trn a :ThematicRole. ?en ?trn ?vn. ?ren a :necessary,:hold;
              rdf:subject ?en; rdf:predicate ?trn; rdf:object ?vn.
              ?rep a :false,:hold; rdf:subject ?ep; rdf:predicate rdf:type;
              rdf:object :Permitted. ?en a ?c. ?ep a ?c. ?c a :Eventuality.
              NOT EXISTS{?tr a :ThematicRole. ?en ?tr ?vn. NOT EXISTS{?ep ?tr ?vp}}
              NOT EXISTS{?tr a :ThematicRole. ?en ?tr ?vn. ?ep ?tr ?vp.
                         FILTER(?vn!=?vp)}}
        """),
)


def catalog_entries(layer: str | None = None) -> list[RuleCatalogEntry]:
    if layer is not None and layer not in LAYER_NAMES:
        raise UnknownLayer(f"unknown layer {layer!r}; expected one of {', '.join(LAYER_NAMES)}")
    return [e for e in CATALOG if layer is None or e.layer == layer]


def builtin_ruleset(layers: set[str] | frozenset[str] | None = None) -> RuleSet:
    """The union of the requested layers' rules, in catalog order."""
    wanted = set(LAYER_NAMES if layers is None else layers)
    unknown = wanted - set(LAYER_NAMES)
    if unknown:
        raise UnknownLayer(
            f"unknown layer(s) {sorted(unknown)}; expected subset of {list(LAYER_NAMES)}")
    return RuleSet(rule_entry(e.rule_id, e.text, frozenset(), e.layer)
                   for e in CATALOG if e.layer in wanted)


# --- Fixture corpus ----------------------------------------------------------


@dataclass(frozen=True)
class FixtureInfo:
    name: str
    layers: tuple[str, ...]
    expects_error: bool = False


FIXTURES: dict[str, FixtureInfo] = {f.name: f for f in (
    FixtureInfo("john-leaves-contradiction", ("core",)),
    FixtureInfo("cash-card-contradiction", ("core", "pragmatics")),
    FixtureInfo("or-and-ds", ("core",)),
    FixtureInfo("prohibited-not-pay-compliance", ("dts", "compliance")),
    FixtureInfo("optional-vs-prohibited-conflict", ("dts", "compliance")),
    FixtureInfo("partial-conflict-obligations", ("pragmatics", "dts", "compliance")),
    FixtureInfo("building-norms", ("dts", "compliance")),
    FixtureInfo("parking-norms", ("dts", "compliance")),
    FixtureInfo("cash-card-norms", ("pragmatics", "dts", "compliance")),
    FixtureInfo("smith", ("core", "deontic-bool")),
    FixtureInfo("permitted-smith-non-inference", ("core", "dts", "deontic-bool")),
    FixtureInfo("jones", ("deontic-bool",)),
    FixtureInfo("roberts", ("core", "dts")),
    FixtureInfo("thomas", ("dts", "deontic-bool", "compliance")),
    FixtureInfo("deontic-bool-closure", ("deontic-bool",)),
    FixtureInfo("sketty-necessity", ("dts", "compliance", "modal")),
    FixtureInfo("sketty-card-contradiction", ("core", "modal")),
    FixtureInfo("sketty-lie-or-error", ("core", "modal")),
    FixtureInfo("wife-guard", ()),
    FixtureInfo("wife-guard-unguarded", (), expects_error=True),
)}


def _fixture_file(name: str, filename: str) -> str | None:
    root = importlib.resources.files("normgraph") / "fixtures" / name / filename
    if not root.is_file():
        return None
    return root.read_text(encoding="utf-8")


def fixture(name: str) -> tuple[Graph, Graph, Graph | None]:
    """Returns (data, user rule graph, expected inferred triples or None).

    Expected graphs are meant to be checked by containment up to blank-node
    isomorphism, since runs also derive auxiliary triples.
    """
    if name not in FIXTURES:
        raise UnknownFixture(f"unknown fixture {name!r}")
    data = parse_turtle(_fixture_file(name, "data.ttl") or "", scope="data")
    rules_text = _fixture_file(name, "rules.ttl")
    user_rules = parse_turtle(rules_text, scope="rules") if rules_text else Graph()
    expected_text = _fixture_file(name, "expected.ttl")
    expected = parse_turtle(expected_text) if expected_text else None
    return data, user_rules, expected


def fixture_names() -> list[str]:
    return sorted(FIXTURES)

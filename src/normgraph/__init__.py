"""Conflict-tolerant deontic reasoning over RDF-style triple graphs."""

from .engine import (
    EngineConfig, MaxIterationsExceeded, MissingRuleBody, RuleEntry, RuleSet,
    RunResult, diff_inferred, load_rules, run_fixpoint, strip_rules,
)
from .model import (
    BlankNode, Graph, Iri, Literal, Triple, contains_isomorphic,
    graph_difference, graph_union, isomorphic,
)
from .ontology import (
    CATALOG, FIXTURES, LAYER_NAMES, UnknownFixture, UnknownLayer,
    builtin_ruleset, catalog_entries, fixture, fixture_names, vocabulary,
)
from .report import Finding, Report, StatementView, extract_findings, render
from .rules import (
    BindConflict, RuleQuery, RuleSyntaxError, UnboundTemplateVariable,
    evaluate_where, instantiate, parse_rule,
)
from .turtle import TurtleSyntaxError, parse_turtle, serialize_turtle

__version__ = "0.1.0"

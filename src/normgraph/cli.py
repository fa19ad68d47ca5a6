"""Command-line entry point: parse inputs, run the fixpoint, report findings.

Exit codes: 0 clean, 1 error (usage, syntax, missing rule body, no
fixpoint), 2 findings of a --fail-on kind present (check only). Reports go
to stdout, diagnostics to stderr. A stdout whose reader has closed it ends
the output: the command exits 0 and writes nothing to stderr. A user rule's
type and body are read from one input file, with that file's prefixes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .engine import (
    EngineConfig, MaxIterationsExceeded, MissingRuleBody, RunResult,
    diff_inferred, load_rules, run_fixpoint, strip_rules,
)
from .model import Graph, graph_union
from .ontology import (
    LAYER_NAMES, UnknownLayer, builtin_ruleset, catalog_entries, vocabulary,
)
from .report import KIND_LABEL, KIND_ORDER, extract_findings, render
from .rules import RuleSyntaxError, UnboundTemplateVariable
from .turtle import TurtleSyntaxError, parse_turtle, serialize_turtle

# Every kind but compliance can fail a check; --fail-on names a kind by its
# label in lower case.
_FAIL_ON_KINDS = {KIND_LABEL[kind].lower(): kind for kind in KIND_ORDER if kind != "Compliance"}

_USER_ERRORS = (TurtleSyntaxError, RuleSyntaxError, UnboundTemplateVariable,
                MissingRuleBody, MaxIterationsExceeded, UnknownLayer, ValueError, OSError)


@dataclass
class PipelineResult:
    data: Graph
    result: RunResult


def run_pipeline(inputs: list[Graph], layers: set[str] | None = None,
                 max_iterations: int = 100) -> PipelineResult:
    """Split each input into its rules and its data, union the data with the
    built-in vocabulary, add the requested built-in layers, and run to
    fixpoint. Each input's rules are read under its own prefixes, in input
    order, and a rule's type and body count only in the same input."""
    rules = builtin_ruleset(layers)
    for graph in inputs:
        rules += load_rules(graph)
    data = graph_union(vocabulary(), *map(strip_rules, inputs))
    result = run_fixpoint(data, rules, EngineConfig(max_iterations=max_iterations))
    return PipelineResult(data, result)


def _read_inputs(paths: list[str]) -> list[Graph]:
    graphs = []
    for index, path in enumerate(paths):
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
                text = handle.read()
            # one scope per file, so `[ ... ]` nodes never collide across inputs
            graphs.append(parse_turtle(text, scope=f"in{index}"))
        except TurtleSyntaxError as err:
            raise TurtleSyntaxError(f"{path}: {err.message}", err.line, err.column) from err
        except ValueError as err:  # not UTF-8
            raise ValueError(f"{path}: {err}") from err
    return graphs


def _items(value: str) -> list[str]:
    """The non-empty items of a comma-separated option."""
    return [part.strip() for part in value.split(",") if part.strip()]


def _run(args) -> PipelineResult:
    """The pipeline over the inputs, --layers and --max-iterations of `args`."""
    layers = None if args.layers is None else set(_items(args.layers))
    return run_pipeline(_read_inputs(args.input), layers, args.max_iterations)


def _write_output(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_reason(args) -> int:
    pipeline = _run(args)
    out = diff_inferred(pipeline.result, pipeline.data) if args.diff_only \
        else pipeline.result.graph
    _write_output(serialize_turtle(out), args.output)
    return 0


def cmd_check(args) -> int:
    kinds = set()
    for name in _FAIL_ON_KINDS if args.fail_on is None else _items(args.fail_on):
        if name not in _FAIL_ON_KINDS:
            raise ValueError(f"unknown --fail-on kind {name!r}")
        kinds.add(_FAIL_ON_KINDS[name])
    pipeline = _run(args)
    report = extract_findings(pipeline.result.graph, pipeline.result.provenance)
    sys.stdout.write(render(report, args.format, pipeline.result.graph))
    if any(f.kind in kinds for f in report.findings):
        return 2
    return 0


def cmd_findings(args) -> int:
    merged = graph_union(*_read_inputs(args.input))
    report = extract_findings(merged)
    sys.stdout.write(render(report, args.format, merged))
    return 0


def cmd_rules(args) -> int:
    entries = catalog_entries(args.layer)
    for e in entries:
        sys.stdout.write(f"{e.layer:13s} {e.rule_id:28s} {e.description}\n")
    sys.stdout.write(f"{len(entries)} rule(s)\n")
    return 0


def cmd_trace(args) -> int:
    pipeline = _run(args)
    for record in pipeline.result.trace:
        sys.stdout.write(json.dumps({
            "iteration": record.iteration,
            "rule": record.rule_id,
            "solutions": record.solutions,
            "added": record.added,
        }, separators=(",", ":")) + "\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors end as every other error does: one
    `error:` line and exit 1, since exit 2 means findings. Its subparsers
    are of its class (`parser_class` defaults to it)."""

    def error(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("-i", "--input", action="append",
                        required=True, default=[],
                        help="input Turtle file (repeatable; rules and data may mix)")
    parser.add_argument("--layers", default=None,
                        help=f"comma-separated built-in layers (default: all of "
                             f"{','.join(LAYER_NAMES)})")
    parser.add_argument("--max-iterations", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="normgraph",
        description="Conflict-tolerant deontic reasoning over RDF-style graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    reason = sub.add_parser("reason", help="run the rules to fixpoint, write Turtle")
    _add_common(reason)
    reason.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    reason.add_argument("--diff-only", action="store_true",
                        help="write only the inferred triples")
    reason.set_defaults(func=cmd_reason)

    check = sub.add_parser("check", help="run the rules and report findings")
    _add_common(check)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--fail-on", default=None,
                       help="comma-separated finding kinds that cause exit 2, "
                            "none if empty "
                            f"(default: {','.join(_FAIL_ON_KINDS)})")
    check.set_defaults(func=cmd_check)

    findings = sub.add_parser("findings", help="re-extract findings from an inferred graph")
    findings.add_argument("-i", "--input", action="append", required=True, default=[])
    findings.add_argument("--format", choices=("text", "json"), default="text")
    findings.set_defaults(func=cmd_findings)

    rules = sub.add_parser("rules", help="list the built-in rule catalog")
    rules.add_argument("--layer", default=None, choices=LAYER_NAMES)
    rules.set_defaults(func=cmd_rules)

    trace = sub.add_parser("trace", help="run the rules and emit per-iteration firings")
    _add_common(trace)
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _USER_ERRORS as err:
        sys.stderr.write(f"error: {err.__class__.__name__}: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

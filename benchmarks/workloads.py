"""Seeded workload generators and the references their outputs are checked against.

Every input is plain Turtle text plus the built-in layer set the CLI would be
given with `--layers`; the engine never sees anything else. The same seed gives
byte-identical texts. A different seed renames the agents and reorders the
inputs (and the copies inside an input) but leaves every reference count as it
is, because the references are written down here, not computed by the engine.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from normgraph.ontology import FIXTURES

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "normgraph" / "fixtures"

# Exact finding counts per fixture, run with its declared layers. Where the
# acceptance suite asserts a count (john-leaves, cash-card-contradiction,
# prohibited-not-pay, optional-vs-prohibited, partial-conflict,
# sketty-necessity) these are those counts, and cash-card-norms has the 2 per
# agent of its expected.ttl. The rest were recorded when the benchmark was
# written and are frozen here, so a later engine is checked against them.
FIXTURE_COUNTS: dict[str, dict[str, int]] = {
    "john-leaves-contradiction": {"Contradiction": 1},
    "cash-card-contradiction": {"Contradiction": 2},
    "or-and-ds": {},
    "prohibited-not-pay-compliance": {"Compliance": 1},
    "optional-vs-prohibited-conflict": {"Conflict": 1},
    "partial-conflict-obligations": {"Conflict": 2},
    "building-norms": {"Conflict": 1},
    "parking-norms": {"Conflict": 1},
    "cash-card-norms": {"Conflict": 2},
    "smith": {},
    "permitted-smith-non-inference": {},
    "jones": {},
    "roberts": {},
    "thomas": {"Conflict": 2},
    "deontic-bool-closure": {},
    "sketty-necessity": {"Violation": 1, "NecessaryViolation": 1},
    "sketty-card-contradiction": {"Contradiction": 2},
    "sketty-lie-or-error": {"Contradiction": 2},
    "wife-guard": {},
    "wife-guard-unguarded": {},
}

# The family-mix families and, for each, the individuals a copy renames.
# Classes, properties and the constants the family's rules name stay shared,
# and so do the parking spots and meters: renaming those would let the
# prohibition in parking-norms pair every agent with every meter. With these
# lists k copies give exactly k times the single-fixture findings (and
# inferred triples). sketty-necessity is left out: its necessity rule pairs
# every prohibition with every necessary payment, so k copies give k^2
# NecessaryViolation findings.
FAMILIES: dict[str, tuple[str, ...]] = {
    "thomas": ("eta", "ete", "etd", "ente", "Thomas"),
    "roberts": ("erp", "enrp", "Roberts"),
    "or-and-ds": ("eo", "elj", "ea", "eej", "edj", "enlj", "John"),
    "sketty-lie-or-error": ("epscj", "John"),
    "building-norms": ("ebj", "John"),
    "parking-norms": ("epkj", "John"),
    "deontic-bool-closure": ("pea", "pe1", "pe2", "opa", "op1", "op2",
                             "peo", "px", "py", "opo", "ox", "oy"),
    "john-leaves-contradiction": ("elj", "enlj", "John"),
    "prohibited-not-pay-compliance": ("enpj", "epj", "epj3", "John"),
}

CASH_CARD_AGENTS = 10
FAMILY_COPIES = 4
CASH_CARD_LAYERS = ("pragmatics", "dts", "compliance")


@dataclass(frozen=True)
class Input:
    """One `check` invocation: its input files' texts and its reference."""

    name: str
    texts: tuple[str, ...]
    layers: tuple[str, ...]
    counts: dict[str, int] = field(default_factory=dict)
    # (Turtle, soa: individuals) pairs: each Turtle text must embed into the
    # part of the inferred graph around its individuals (all of it if none)
    expected: tuple[tuple[str, tuple[str, ...]], ...] = ()
    expects_error: str = ""     # exception class name the run must end in


def fixture_text(name: str, filename: str) -> str:
    path = FIXTURE_DIR / name / filename
    return path.read_text(encoding="utf-8") if path.is_file() else ""


def _fixture_texts(name: str) -> tuple[str, ...]:
    rules = fixture_text(name, "rules.ttl")
    return (fixture_text(name, "data.ttl"),) + ((rules,) if rules else ())


def rename(text: str, individuals: tuple[str, ...], suffix: str) -> str:
    """Append `suffix` to every `soa:` name in `individuals`, so that copies
    of one text share no individual."""
    names = "|".join(map(re.escape, individuals))
    return re.sub(rf"soa:({names})(?![A-Za-z0-9_\-])", lambda m: f"soa:{m.group(1)}{suffix}", text)


def _suffixes(rng: random.Random, count: int) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        out.add(f"_{rng.getrandbits(32):08x}")
    return sorted(out)


def _scaled(counts: dict[str, int], factor: int) -> dict[str, int]:
    return {kind: n * factor for kind, n in counts.items()}


def corpus(seed: int) -> list[Input]:
    """Every fixture once, with its declared layers, in a seeded order."""
    inputs = [Input(name, _fixture_texts(name), FIXTURES[name].layers,
                    FIXTURE_COUNTS[name],
                    ((fixture_text(name, "expected.ttl"), ()),) if fixture_text(name, "expected.ttl") else (),
                    "MaxIterationsExceeded" if FIXTURES[name].expects_error else "")
              for name in sorted(FIXTURES)]
    random.Random(seed).shuffle(inputs)
    return inputs


def cash_card_scale(seed: int, agents: int = CASH_CARD_AGENTS) -> list[Input]:
    """cash-card-norms plus `agents` seeded soa:Human agents: one input."""
    rng = random.Random(seed)
    suffixes = _suffixes(rng, agents)
    rng.shuffle(suffixes)
    data = fixture_text("cash-card-norms", "data.ttl") + "".join(
        f"soa:John{s} a soa:Human.\n" for s in suffixes)
    # the fixture's own agent is soa:John; each added one is a renamed John
    expected = tuple((rename(fixture_text("cash-card-norms", "expected.ttl"), ("John",), s),
                      (f"John{s}",)) for s in ["", *suffixes])
    texts = (data, fixture_text("cash-card-norms", "rules.ttl"))
    return [Input(f"cash-card-norms+{agents}", texts, CASH_CARD_LAYERS,
                  _scaled(FIXTURE_COUNTS["cash-card-norms"], agents + 1), expected)]


def family_mix(seed: int, copies: int = FAMILY_COPIES) -> list[Input]:
    """One input per family, each holding `copies` renamed copies of the
    family's data next to its rules, in a seeded order."""
    rng = random.Random(seed)
    inputs = []
    for name, individuals in FAMILIES.items():
        suffixes = _suffixes(rng, copies)
        rng.shuffle(suffixes)
        data = "\n".join(rename(fixture_text(name, "data.ttl"), individuals, s)
                         for s in suffixes)
        expected = tuple((rename(fixture_text(name, "expected.ttl"), individuals, s),
                          tuple(i + s for i in individuals)) for s in suffixes)
        texts = (data,) + _fixture_texts(name)[1:]
        inputs.append(Input(f"{name}x{copies}", texts, FIXTURES[name].layers,
                            _scaled(FIXTURE_COUNTS[name], copies), expected))
    rng.shuffle(inputs)
    return inputs


WORKLOADS = {
    "corpus": corpus,
    "cash-card-scale": cash_card_scale,
    "family-mix": family_mix,
}

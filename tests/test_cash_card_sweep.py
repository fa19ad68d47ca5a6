"""Smoke test of tools/cash_card_sweep.py at its smallest agent count."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from normgraph import rules
from normgraph.turtle import serialize_turtle


def _load_sweep():
    path = Path(__file__).resolve().parents[1] / "tools" / "cash_card_sweep.py"
    spec = importlib.util.spec_from_file_location("_cash_card_sweep", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_sweep_at_five_agents_gives_the_reference_graph_and_restores_extend():
    sweep = _load_sweep()
    workloads = sweep._load_workloads()
    _, result = sweep._run(workloads, 1, 5)
    assert hashlib.sha256(serialize_turtle(result.graph).encode()).hexdigest() == \
        "dd9f0865b86e5d67421db3253f5a4184872c278cbfb91697df730e130dd066c3"
    extend = rules._extend
    assert sweep._extend_calls(workloads, 1, 5) > 0
    assert rules._extend is extend

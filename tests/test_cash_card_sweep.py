"""Smoke tests of tools/cash_card_sweep.py at its smallest agent count."""

import argparse
import hashlib
import importlib.util
import json
import math
import signal
import sys
from pathlib import Path

import pytest

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
        "21bd246f2ec5c7819bf09ee412a0a82ad1a022f92055ee6095a64c5ee1c7ebc4"
    extend = rules._extend
    # the run above compiled the catalog rules' steps; the wrapper still sees
    # every pattern extension they make
    assert sweep._extend_calls(workloads, 1, 5) == 3924
    assert rules._extend is extend


def test_pattern_extensions_grow_no_faster_than_recorded_at_20_and_40_agents():
    # a gate on work, not seconds, so that it holds on a noisy host: at most
    # 1.1 times the counts of the sweep when it was set (26,139 and 80,397),
    # and less than 3.5 times the work for twice the agents
    sweep = _load_sweep()
    workloads = sweep._load_workloads()
    at20, at40 = (sweep._extend_calls(workloads, 1, agents) for agents in (20, 40))
    assert at20 <= 1.1 * 26139 and at40 <= 1.1 * 80397, (at20, at40)
    assert at40 / at20 < 3.5, (at20, at40)


def test_role_star_candidates_keep_the_work_at_40_agents_under_twice_that_at_20():
    # at most 1.1 times the counts of the sweep when the role-star generator
    # came in (10,308 and 20,006; 25,638 and 79,456 before it)
    sweep = _load_sweep()
    workloads = sweep._load_workloads()
    at20, at40 = (sweep._extend_calls(workloads, 1, agents) for agents in (20, 40))
    assert at40 <= 1.1 * 20006, (at20, at40)
    assert at40 / at20 < 2.5, (at20, at40)


def test_the_sweep_runs_the_agent_counts_it_is_given_and_prints_one_line_each(capsys):
    sweep = _load_sweep()
    handler = signal.getsignal(signal.SIGALRM)
    try:
        assert sweep.main(["--agents", "5,10"]) == 0
    finally:
        signal.signal(signal.SIGALRM, handler)  # main sets its own for --cap
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert first.pop("seconds") > 0
    assert first == {"agents": 5, "extend_calls": 3924, "triples": 528, "iterations": 6,
                     "digest": "21bd246f2ec5c7819bf09ee412a0a82ad1a022f92055ee6095a64c5ee1c7ebc4",
                     "exponent": None, "extend_exponent": None}
    # the seconds' exponent moves with the host; the calls' is exact
    assert isinstance(second["exponent"], float)
    assert second["extend_exponent"] == round(math.log(5594 / 3924) / math.log(2), 2)
    assert sweep._agent_counts("80,160") == (80, 160)
    for bad in ("0", "5,x", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            sweep._agent_counts(bad)

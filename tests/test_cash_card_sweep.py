"""Smoke tests of tools/cash_card_sweep.py at its smallest agent count."""

import argparse
import functools
import hashlib
import json
import math
import signal

import pytest

import cash_card_sweep as sweep
from normgraph.turtle import serialize_turtle


def test_sweep_at_five_agents_gives_the_reference_graph_and_extend_calls():
    _, result = sweep._run(1, 5)
    assert hashlib.sha256(serialize_turtle(result.graph).encode()).hexdigest() == \
        "21bd246f2ec5c7819bf09ee412a0a82ad1a022f92055ee6095a64c5ee1c7ebc4"
    # the run above compiled the catalog rules' steps; the count by code
    # object still sees every pattern extension they make
    assert sweep._extend_calls(sweep._run, 1, 5) == 1638


@functools.cache
def _extend_calls_at_20_and_40():
    # both gates below read the same two counts; each N is swept once
    return tuple(sweep._extend_calls(sweep._run, 1, agents) for agents in (20, 40))


def test_pattern_extensions_grow_no_faster_than_recorded_at_20_and_40_agents():
    # a gate on work, not seconds, so that it holds on a noisy host: at most
    # 1.1 times the counts of the sweep when it was set (26,139 and 80,397),
    # and less than 3.5 times the work for twice the agents
    at20, at40 = _extend_calls_at_20_and_40()
    assert at20 <= 1.1 * 26139 and at40 <= 1.1 * 80397, (at20, at40)
    assert at40 / at20 < 3.5, (at20, at40)


def test_role_star_candidates_keep_the_work_at_40_agents_under_twice_that_at_20():
    # at most 1.1 times the counts of the sweep when the role-star generator
    # came in (10,308 and 20,006; 25,638 and 79,456 before it)
    at20, at40 = _extend_calls_at_20_and_40()
    assert at40 <= 1.1 * 20006, (at20, at40)
    assert at40 / at20 < 2.5, (at20, at40)


def test_the_sweep_runs_the_agent_counts_it_is_given_and_prints_one_line_each(capsys):
    handler = signal.getsignal(signal.SIGALRM)
    try:
        assert sweep.main(["--agents", "5,10"]) == 0
    finally:
        signal.signal(signal.SIGALRM, handler)  # main sets its own for --cap
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert first.pop("seconds") > 0
    assert first == {"agents": 5, "extend_calls": 1638, "triples": 528, "iterations": 6,
                     "digest": "21bd246f2ec5c7819bf09ee412a0a82ad1a022f92055ee6095a64c5ee1c7ebc4",
                     "exponent": None, "extend_exponent": None}
    # the seconds' exponent moves with the host; the calls' is exact
    assert isinstance(second["exponent"], float)
    assert second["extend_exponent"] == round(math.log(2217 / 1638) / math.log(2), 2)
    assert sweep._agent_counts("80,160") == (80, 160)
    for bad in ("0", "5,x", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            sweep._agent_counts(bad)

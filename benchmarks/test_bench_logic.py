"""Tests for the benchmark's own logic: generators, reference checks, spans."""

import checks
import spans
import workloads


def _by_family(inputs):
    return {inp.name: inp for inp in inputs}


def test_same_seed_gives_identical_inputs():
    for make in workloads.WORKLOADS.values():
        assert make(3) == make(3)


def test_other_seed_renames_and_reorders_but_keeps_reference_counts():
    for name, make in workloads.WORKLOADS.items():
        first, second = make(3), make(4)
        if name != "corpus":
            assert [i.texts for i in first] != [i.texts for i in second], name
        assert {i.name: i.counts for i in first} == {i.name: i.counts for i in second}, name
    assert [i.name for i in workloads.corpus(3)] != [i.name for i in workloads.corpus(4)]


def test_cash_card_reference_is_two_conflicts_per_agent():
    (inp,) = workloads.cash_card_scale(5, agents=3)
    assert inp.counts == {"Conflict": 2 * (3 + 1)}
    assert inp.texts[0].count("a soa:Human.") == 3 + 1
    assert len(inp.expected) == 3 + 1


def test_family_copies_scale_the_single_fixture_counts():
    mix = _by_family(workloads.family_mix(5, copies=3))
    assert mix["thomasx3"].counts == {"Conflict": 6}
    assert mix["john-leaves-contradictionx3"].counts == {"Contradiction": 3}
    assert "sketty-necessityx3" not in mix


def _building_norms():
    return _by_family(workloads.corpus(1))["building-norms"]


def test_outputs_match_their_reference():
    inp = _building_norms()
    out = checks.check_op(inp)
    reloaded = checks.reload_op(out.graph)
    assert checks.verify(inp, out, reloaded, checks.digest(reloaded.saved), full=True) == []


def test_dropped_finding_is_caught():
    inp = _building_norms()
    out = checks.check_op(inp)
    reloaded = checks.reload_op(out.graph)
    out.report.findings.pop()
    assert checks.verify(inp, out, reloaded) != []


def test_changed_graph_is_caught_by_digest():
    inp = _building_norms()
    out = checks.check_op(inp)
    reloaded = checks.reload_op(out.graph)
    assert checks.verify(inp, out, reloaded, reference_digest="0" * 64) != []


def test_expected_error_passes_and_unexpected_error_fails():
    inp = _by_family(workloads.corpus(1))["wife-guard-unguarded"]
    out = checks.CheckOutput()
    assert checks.verify(inp, out, None) != []
    out.error = type("MaxIterationsExceeded", (Exception,), {})()
    assert checks.verify(inp, out, None) == []
    assert checks.verify(_building_norms(), out, None) != []


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, trace=0)


def test_self_time_subtracts_children():
    tree = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("b", 50, 90, 0),
        _span("c", 60, 70, 2),
    ]
    assert spans.self_times(tree) == {0: 30, 1: 30, 2: 30, 3: 10}
    # looking through "b" gives its time to the root, minus its kept child
    assert spans.self_times(tree, lambda s: s.name != "b") == {0: 60, 1: 30, 3: 10}


def test_traced_run_passes_results_through_and_restores_functions():
    from normgraph import cli, engine, rules

    inp = _building_norms()
    plain = checks.digest(checks.reload_op(checks.check_op(inp).graph).saved)
    originals = (cli.run_fixpoint, engine.evaluate_where, rules.evaluate_where)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        tracer.begin(0, inp.name, "check")
        out = checks.check_op(inp)
        tracer.begin(0, inp.name, "reload")
        traced = checks.digest(checks.reload_op(out.graph).saved)
    assert traced == plain
    assert (cli.run_fixpoint, engine.evaluate_where, rules.evaluate_where) == originals
    metrics = spans.layer_metrics(tracer)
    assert metrics["report.findings"] == 1
    assert metrics["engine.iterations"] == 4
    assert metrics["rules.layer.user_s"] > 0
    assert metrics["rules.layer.core_s"] == 0       # ran, but no core rule
    assert metrics["engine.fixpoint_s"] > metrics["engine.first_iter_s"]
    assert set(metrics) <= set(spans.PER_LAYER_NAMES)


def test_metrics_of_a_missing_call_path_are_absent():
    tracer = spans.Tracer()
    tracer.begin(0, "x", "check")
    index = tracer.open("engine.fixpoint")
    tracer.close(index)
    metrics = spans.layer_metrics(tracer)
    assert "engine.fixpoint_s" in metrics
    assert not any(name.startswith("rules.") for name in metrics)
    assert "engine.iterations" not in metrics


def test_benchmark_json_lists_every_per_layer_metric():
    import json
    from pathlib import Path

    listed = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in listed["per_layer"]) == sorted(spans.PER_LAYER_NAMES)


def test_median_sum_scales_times_but_not_counts():
    from collections import Counter

    table = {(1, "x"): Counter({"a_s": 1.0, "n": 4}), (2, "x"): Counter({"a_s": 3.0, "n": 4}),
             (3, "x"): Counter({"a_s": 2.0, "n": 4}), (1, "y"): Counter({"a_s": 0.5, "n": 1})}
    assert spans.median_sum(table, ["a_s", "n"]) == {"a_s": 2.5, "n": 5}
    scaled = spans.median_sum(table, ["a_s", "n"], {1: 2.0, 2: 0.5, 3: 1.0})
    assert scaled == {"a_s": 2.0 + 1.0, "n": 5}

"""tools/bench_record.py builds its file from the tools' output, without running them."""

import importlib.util
import json
import sys
from pathlib import Path


def _load_record():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("_bench_record", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_BENCH_STDOUT = "\n".join([
    "End-to-end metrics (corpus, tracing off):",
    "  setup_s   0.15 s  n=15",
    json.dumps({"correct": True, "attempted": 61, "failed": 0, "metrics": {
        "corpus/setup_s": {"value": 0.15, "unit": "s"},
        "corpus/peak_rss_mb": {"value": 30.2, "unit": "MiB"},
        "family-mix/check_s": {"value": 0.087, "unit": "s"},
        "family-mix/inferred_per_s": {"value": 13000.0, "unit": "triples/s"}}}),
]) + "\n"
_SWEEP_STDOUT = "\n".join(json.dumps(line) for line in [
    {"agents": 5, "seconds": 0.016, "extend_calls": 3924, "triples": 528, "iterations": 6,
     "digest": "dd9f", "exponent": None, "extend_exponent": None},
    {"agents": 160, "capped_at_s": 60},
]) + "\n"


def test_the_record_holds_each_workloads_metrics_and_each_sweep_run():
    record = _load_record().record(_BENCH_STDOUT, _SWEEP_STDOUT, "abc123", "3.11.7")
    assert (record["commit"], record["python"]) == ("abc123", "3.11.7")
    bench = record["benchmark"]
    assert bench["command"] == "benchmarks/run.py --seed 1"
    assert (bench["correct"], bench["attempted"], bench["failed"]) == (True, 61, 0)
    assert bench["workloads"] == {"corpus": {"setup_s": 0.15, "peak_rss_mb": 30.2},
                                  "family-mix": {"check_s": 0.087, "inferred_per_s": 13000.0}}
    assert bench["units"]["inferred_per_s"] == "triples/s"
    assert record["cash_card_sweep"] == {
        "command": "tools/cash_card_sweep.py --agents 5,10,20,40,80,160",
        "runs": [{"agents": 5, "seconds": 0.016, "extend_calls": 3924},
                 {"agents": 160, "capped_at_s": 60}]}
    assert set(record["flags"]) == {"peak_rss_mb"}
    json.dumps(record)  # the file is JSON

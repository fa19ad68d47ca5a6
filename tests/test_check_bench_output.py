"""The result-line check of tools/check_bench_output.py, on canned output."""

import json

from check_bench_output import problems

NAMES = ["check_s", "peak_rss_mb"]


def _line(correct=True, failed=0, **values) -> str:
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})


def test_a_good_last_line_passes_after_other_output():
    stdout = "workload corpus, seed 1: 20 input(s)\n  check_s 0.1 s n=3\n" + \
        _line(check_s=0.1, peak_rss_mb=40, other=1) + "\n"
    assert problems(0, stdout, NAMES) == []


def test_each_fault_of_a_result_line_is_named():
    assert problems(0, _line(check_s=0.1), NAMES) == ["metric peak_rss_mb missing"]
    nan = _line(check_s=float("nan"), peak_rss_mb=40)
    assert "NaN" in nan
    assert problems(0, nan, NAMES) == [
        "metric check_s has no finite value: {'value': nan, 'unit': 's'}"]
    assert problems(0, _line(check_s=0.1, peak_rss_mb=40) + "\ndone\n", NAMES) == [
        "last line is not a JSON object: 'done'"]
    assert problems(1, _line(correct=False, failed=2, check_s=0.1, peak_rss_mb=40), NAMES) == [
        "exit code 1", "correct is False", "failed is 2"]
    assert problems(0, "", NAMES) == ["last line is not a JSON object: ''"]

import json
import os

from perfbench.spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_mirrors_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert document["run_seconds"] == RUN_SECONDS
    assert document["workloads"] == [
        {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
    ]
    assert document["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
    ]


def test_setup_has_the_largest_bound():
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

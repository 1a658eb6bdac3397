"""Run context and helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from perfbench import stats
from perfbench.spec import PER_LAYER
from perfbench.tracing import Span, children_of, self_times

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 7

#: The default ``repro loadgen`` mix (weights), fixed here so the
#: benchmark keeps its meaning if the program's default changes.
READ_MIX = (("rel", 4), ("batch", 1), ("neighbors", 2))
BATCH_LINKS = 256
#: Every KEEP_EVERY-th read reply is kept and checked after the window.
KEEP_EVERY = 8


@dataclass
class Context:
    root: str
    workdir: str
    seed: int
    seconds: float
    trace: bool
    #: "full" for the benchmark, "tiny" for the smoke tests.
    scale: str = "full"
    #: Where a traced run writes its spans.
    spans_path: str = ""


@dataclass
class Outcome:
    """What a workload returns to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, Any] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def read_metrics(latencies_ms: Sequence[float], seconds: float) -> Dict[str, float]:
    return {
        "throughput_rps": len(latencies_ms) / seconds,
        "latency_p50_ms": stats.percentile(latencies_ms, 50),
        "latency_p99_ms": stats.percentile(latencies_ms, 99),
    }


def admit_metrics(latencies_ms: Sequence[float], details: Dict[str, Any]) -> Dict[str, float]:
    tail = stats.tail(latencies_ms)
    details["admit_tail"] = tail
    return {
        "admit_p50_ms": stats.percentile(latencies_ms, 50),
        "admit_tail_ms": tail["value"],
    }


def tree_size(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def peak_rss_mb_self() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the value for a bypassed layer."""
    return {name: 0.0 for name, _, _ in PER_LAYER}


def mean_self_time(
    spans: Sequence[Span], name: str, parent_names: Sequence[Any], window
) -> float:
    """Mean self time per call of ``name`` spans under given parents.

    ``parent_names`` may contain ``None`` for top-level spans.
    """
    by_id = {span.id: span for span in spans}
    selected = [
        span for span in spans
        if span.name == name
        and window[0] <= span.start < window[1]
        and (by_id[span.parent].name if span.parent in by_id else None)
        in parent_names
    ]
    if not selected:
        return 0.0
    own = self_times_of(spans, selected)
    return sum(own) / len(own)


def self_times_of(spans: Sequence[Span], selected: Sequence[Span]) -> List[float]:
    children = children_of(spans)
    subset = list(selected) + [c for s in selected for c in children.get(s.id, ())]
    own = self_times(subset)
    return [own[s.id] for s in selected]


def check_finite(metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")

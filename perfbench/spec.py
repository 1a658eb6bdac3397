"""What the benchmark measures, and why.

Two workloads, the end-to-end metrics every untraced run prints, and
the per-layer metrics every traced run prints.  ``BENCHMARK.json`` at
the repository root mirrors these lists (a test keeps them in step).

Every workload prints every metric.  A workload's main operation gives
the metric its name (``build_s`` is the point of ``cold_build``,
``admit_*`` and the reader's ``latency_*`` of ``serve_admit``); the
other workload reports the same quantity for the smaller share of that
operation it also performs, as described under each metric.  Per-layer
metrics of a layer a workload bypasses read 0.

A third workload, ``serve_read`` (two clients reading one pinned
scenario, no admissions), was dropped: on the shared reference box its
reader p99 spread by 0.31 (quartile distance over median, eight seeds)
against a 0.25 bound, and three workloads did not fit the time a
check allows.  ``serve_admit``'s reader still loads the HTTP and query
layers; what it cannot give is a window with no admission work in it.

End-to-end times are in reference-box seconds: each timed phase (or
group of short repeated phases) is bracketed by calibration points and
scaled by the box's speed around it (``perfbench/speed.py``).  Raw times
are in each run's details.  One exception: serve_admit's
``latency_p99_ms`` is raw, because the reader's tail is its wait for the
GIL behind admission work, which the interpreter hands over on a
wall-clock switch interval rather than in proportion to CPU speed
(scaling it by the slice around it widened its run-to-run spread from
0.19 to 0.27).  Per-layer metrics are raw.

Predicted interactions (what a change to one layer should move):

* Collection changes (``bgp.*``, ``corpus.ingest``) move ``build_s`` on
  ``cold_build`` (and the small set-up builds' ``build_s`` on the serve
  workload) and nothing else measured inside the serve window.
* Admission and cache-format changes trade ``build_s`` (``cache.store``)
  against ``admit_p50_ms`` (``cache.load``).
* Moving index work into admission (``query.view``) trades
  ``admit_p50_ms`` against ``latency_p50_ms``.
* Admission work that holds the GIL raises the reader's
  ``latency_p99_ms`` on ``serve_admit``.
"""

from __future__ import annotations

from typing import Dict, List

#: name -> definition.  ``why`` is the one line BENCHMARK.json carries.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "cold_build": {
        "why": (
            "time to paper results: a cold mid-size pipeline run "
            "(1200 ASes, 100 VPs, 2 churn rounds) from config to tables, "
            "bias profiles and case study"
        ),
        "chosen_because": (
            "Collection dominates it as it dominates the paper-scale "
            "build, it covers the cache write path, and at 10-20 s a "
            "build fits several runs per check where paper scale does not."
        ),
        "loads": [
            "topology", "bgp", "corpus", "validation", "inference",
            "analysis", "cache (store, then load on the warm admissions)",
            "query (the warm admissions' views; untimed reads for checks)",
        ],
        "bypasses": ["service", "pool", "cache.resolve"],
        "predicted_no_change": [
            "service-layer and HTTP changes",
            "pool eviction policy changes",
            "config_for_fingerprint changes",
        ],
    },
    "serve_admit": {
        "why": (
            "pool thrash: one client reads a pinned scenario while a second "
            "keeps admitting other cached scenarios by config and reading their tables"
        ),
        "chosen_because": (
            "The pool and cache admit scenarios beside ongoing reads, in an "
            "executor thread that shares the GIL with the event loop, so an "
            "optimisation that helps one job and hurts the other shows."
        ),
        "loads": [
            "service", "query", "pool", "cache (load)",
            "topology (regenerated on every admission)", "inference (loaded)",
            "analysis (tables and bias recomputed after each admission)",
        ],
        "bypasses": [
            "bgp", "corpus ingest", "validation compile", "cache store",
            "id-addressed re-admission (admit_cached; resolution is timed "
            "in-process by the traced run)",
        ],
        "predicted_no_change": [
            "collection changes (propagation, reduction, churn)",
            "validation extraction changes",
        ],
        "left_out": (
            "GET ?scenario=<id> for an evicted scenario (admit_cached, the "
            "multi-worker seam) serves wrong tables and bias profiles today: "
            "it regenerates the topology from the config read back from "
            "meta.json, whose mappings come back in another order (ROADMAP "
            "item 1).  A workload must be one on which no operation fails, "
            "so the window leaves that request out; put it back in "
            "admitter_plan once the defect is fixed."
        ),
    },
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse.
END_TO_END: List[tuple] = [
    # Median of several set-ups in a run: cold_build starts a fresh
    # interpreter and imports the pipeline; the serve workloads start
    # ``repro serve`` and warm-admit the pinned scenario.
    ("setup_s", "s", "lower", 0.25),
    # Median seconds per cold pipeline run: the mid-size build with all
    # four inferences, Tables 1-3, Figures 1/2 and §6.1 on cold_build;
    # the set-up's cold small-preset builds into the cache on serve_admit.
    ("build_s", "s", "lower", 0.25),
    # Client-side, over the reader's requests.  On cold_build a request is
    # one pipeline run, so these restate build_s as a rate and a
    # distribution.
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    # Warm admissions: the admitter's requests on serve_admit, the
    # in-process warm reloads on cold_build.  admit_tail_ms is the highest percentile with at least
    # ten samples beyond it (the maximum when there are fewer).
    ("admit_p50_ms", "ms", "lower", 0.25),
    ("admit_tail_ms", "ms", "lower", 0.25),
    # The benchmark process on cold_build, the server's VmHWM otherwise.
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: (name, unit, better).  Layer times (``*_s``) are inclusive: the time
#: spent in calls to that layer, callees included (compile includes
#: extract, churn includes its rounds' propagate/reduce/ingest, an
#: inference includes its cache store); a traced run's details carry the
#: self-time stage tree, which adds up to the pipeline run.  They are per
#: traced pipeline run on cold_build (cache.load_s and query.view_s per
#: warm admission) and per admission on serve_admit; query.*_s are
#: mean self time per call; cache.resolve_s is the median in-process
#: ``config_for_fingerprint`` call over serve_admit's cache.  Counts and
#: ratios are per pipeline run on cold_build and over the traced window
#: on the serve workloads.
PER_LAYER: List[tuple] = [
    ("topology.generate_s", "s", "lower"),
    ("bgp.propagate_s", "s", "lower"),
    ("bgp.propagate_calls", "count", "lower"),
    ("bgp.reduce_s", "s", "lower"),
    ("bgp.routes_emitted", "count", "lower"),
    ("bgp.churn_s", "s", "lower"),
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.useful_ratio", "ratio", "higher"),
    ("corpus.bytes", "bytes", "lower"),
    ("validation.compile_s", "s", "lower"),
    ("validation.extract_s", "s", "lower"),
    ("validation.clean_s", "s", "lower"),
    ("inference.asrank_s", "s", "lower"),
    ("inference.problink_s", "s", "lower"),
    ("inference.toposcope_s", "s", "lower"),
    ("inference.gao_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("analysis.casestudy_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.store_bytes", "bytes", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.resolve_s", "s", "lower"),
    ("pool.build_s", "s", "lower"),
    ("pool.admissions", "count", "higher"),
    ("pool.warm_ratio", "ratio", "higher"),
    ("pool.evictions", "count", "higher"),
    ("query.view_s", "s", "lower"),
    ("query.link_s", "s", "lower"),
    ("query.batch_s", "s", "lower"),
    ("query.neighbors_s", "s", "lower"),
    ("service.handler_mean_ms", "ms", "lower"),
    ("service.outside_handler_ms", "ms", "lower"),
    ("service.rel_p99_ms", "ms", "lower"),
    ("service.batch_p99_ms", "ms", "lower"),
    ("service.neighbors_p99_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

#: Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "build_s on cold_build": [
        "topology.generate_s", "bgp.propagate_s", "bgp.propagate_calls",
        "bgp.reduce_s", "bgp.routes_emitted", "bgp.churn_s",
        "corpus.ingest_s", "corpus.useful_ratio", "validation.compile_s",
        "validation.extract_s", "validation.clean_s", "inference.*_s",
        "analysis.report_s", "analysis.casestudy_s", "cache.store_s",
        "cache.store_bytes",
    ],
    "peak_rss_mb on cold_build": ["corpus.bytes"],
    "admit_p50_ms on serve_admit": [
        "topology.generate_s", "cache.load_s", "cache.resolve_s",
        "pool.build_s", "query.view_s", "inference.*_s",
        "analysis.report_s", "pool.admissions", "pool.warm_ratio",
        "pool.evictions",
    ],
    "latency_p50_ms and throughput_rps on serve_admit (reader)": [
        "query.link_s", "query.batch_s", "query.neighbors_s",
        "service.handler_mean_ms", "service.outside_handler_ms",
    ],
    "latency_p99_ms on serve_admit (reader)": [
        "service.rel_p99_ms", "service.batch_p99_ms",
        "service.neighbors_p99_ms",
    ],
}

#: Seconds one run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 20

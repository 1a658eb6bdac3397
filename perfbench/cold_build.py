"""``cold_build``: time to paper results, in-process.

Each pipeline run builds the mid-size config the ablation benchmarks
use (``benchmarks/conftest.py::ablation_config``: 1200 ASes, 100 VPs,
2 churn rounds, seed from ``--seed``) into a fresh, empty cache, runs
all four inferences, builds Tables 1-3, the Figure 1/2 bias profiles
and the §6.1 case study.  Runs repeat until ``--seconds`` have passed
(at least two).  After each run the scenario is admitted warm from the
cache fifteen times (``build_scenario`` + ``ScenarioView`` + the ASRank
index, as the pool does) and the warm view answers a fixed batch of reads.

Checks (each failure counts once in ``failed``): the four as-rel files,
the tables, bias profiles and case study are identical across the
run's builds; the warm admission loads the corpus from the cache and
gives the same as-rel bytes, tables and bias profiles; sampled reads of
the warm view equal the cold view's.

With ``--trace 1`` runs alternate untraced and traced; layer metrics
come from the traced runs, ``trace.overhead`` from the pair.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.config import ScenarioConfig
from repro.pipeline.cache import ArtifactCache
from repro.scenario import ALGORITHM_NAMES, build_scenario
from repro.service.query import ScenarioView

from perfbench import checks, layers
from perfbench.common import (
    BATCH_LINKS, KEEP_EVERY, READ_MIX, SETUP_REPEATS, Context, Outcome,
    admit_metrics, median, mean_self_time, peak_rss_mb_self, read_metrics,
    tree_size, zero_layers,
)
from perfbench.speed import Speed
from perfbench.stats import percentile
from perfbench.tracing import (
    Span, Tracer, clock, coverage, inclusive_by_name, stage_tree,
)

MIN_BUILDS = 2
#: Thirty admissions a run put admit_tail_ms at the 67th percentile; with
#: ten it was their maximum, whose run-to-run spread reached 0.24.
ADMITS_PER_BUILD = 15
READS_PER_BUILD = 1000

#: (n_ases, n_vantage_points, n_churn_rounds) per scale.
SCALES = {"full": (1200, 100, 2), "tiny": (150, 15, 1)}


def config_for(seed: int, scale: str) -> ScenarioConfig:
    config = ScenarioConfig.default().replace(seed=seed)
    n_ases, n_vps, n_churn = SCALES[scale]
    config.topology.n_ases = n_ases
    config.measurement.n_vantage_points = n_vps
    config.measurement.n_churn_rounds = n_churn
    return config


def import_seconds(root: str) -> float:
    """A fresh interpreter importing the pipeline, timed from outside."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    started = clock()
    subprocess.run(
        [sys.executable, "-c", "import repro.scenario, repro.service.query"],
        cwd=root, env=env, check=True,
    )
    return clock() - started


def read_ops(view: ScenarioView, seed: int) -> List[Tuple[str, Any]]:
    """A seeded list of in-process reads in the serving mix."""
    rng = random.Random(f"perfbench-cold-reads-{seed}")
    links = sorted(view.links)
    asns = sorted({asn for link in links for asn in link})
    kinds = [kind for kind, weight in READ_MIX for _ in range(weight)]
    ops = []
    for _ in range(READS_PER_BUILD):
        kind = rng.choice(kinds)
        if kind == "rel":
            ops.append((kind, rng.choice(links)))
        elif kind == "batch":
            ops.append((kind, [rng.choice(links) for _ in range(BATCH_LINKS)]))
        else:
            ops.append((kind, rng.choice(asns)))
    return ops


def read(view: ScenarioView, kind: str, arg: Any) -> Any:
    if kind == "rel":
        return view.link_payload("asrank", *arg)
    if kind == "batch":
        return view.batch_payloads("asrank", arg)
    return view.neighbors_payload(arg)


class _Run:
    """State of one ``cold_build`` run."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.config = config_for(ctx.seed, ctx.scale)
        self.reference: Optional[Dict[str, Any]] = None
        self.untraced_s: List[float] = []
        self.traced_s: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.admits_ms: List[float] = []
        self.raw_builds_s: List[float] = []
        self.raw_admits_ms: List[float] = []
        self.admit_windows: List[Tuple[float, float]] = []
        self.reads_ms: List[float] = []
        self.read_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Self seconds per layer of the last traced pipeline run.
        self.stage_tree: Dict[str, float] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def pipeline(
        self, index: int, tracer: Optional[Tracer], speed: Speed, before: int
    ) -> int:
        """One pipeline run, its warm admissions and reads, and checks.

        ``before`` is the calibration point taken just before; returns
        the one taken after.  The run is timed between those two, its
        admissions between points of their own."""
        cache_dir = os.path.join(self.ctx.workdir, f"cache-{index}")
        scratch = os.path.join(self.ctx.workdir, "scratch")
        os.makedirs(scratch, exist_ok=True)
        gc.collect()
        root: Optional[Span] = None
        if tracer is not None:
            layers.install_pipeline(tracer)
            layers.install_query(tracer)
            with tracer.span("pipeline.run") as root_id:
                seconds, scenario, results = self._timed_build(cache_dir)
            root = next(s for s in reversed(tracer.spans) if s.id == root_id)
        else:
            seconds, scenario, results = self._timed_build(cache_dir)
        built = speed.mark()
        self.raw_builds_s.append(seconds)
        seconds *= speed.factor(before, built)
        (self.traced_s if tracer is not None else self.untraced_s).append(seconds)
        results["asrel"] = checks.asrel_digests(scenario, scratch)
        self.attempted += 1
        if self.reference is None:
            self.reference = results
        else:
            for key in checks.differences(self.reference, results):
                self.fail(f"build {index}: {key} differs from build 0")
        cold_view = ScenarioView(scenario)
        cold_view.build_rel_index("asrank")
        view, after = self._admit(index, cache_dir, results, scratch, speed, built)
        reads_window = self._reads(view, cold_view)
        if tracer is not None:
            tracer.uninstall()
            self.layers.append(self._layer_metrics(
                tracer, root, reads_window, cache_dir, scenario
            ))
            self.stage_tree = stage_tree(tracer.spans, root)
            tracer.dump(self.ctx.spans_path, {"stage_tree_s": self.stage_tree})
        return after

    def _timed_build(self, cache_dir: str):
        started = clock()
        scenario = build_scenario(self.config, cache=ArtifactCache(cache_dir))
        for name in ALGORITHM_NAMES:
            scenario.infer(name)
        results = checks.paper_results(scenario)
        return clock() - started, scenario, results

    def _admit(
        self, index: int, cache_dir: str, results, scratch: str,
        speed: Speed, mark: int,
    ) -> Tuple[ScenarioView, int]:
        """Admit the run's scenario warm ADMITS_PER_BUILD times; the first
        admission is checked.  All are scaled by the box's speed between
        ``mark`` and the point taken after the last one."""
        view = None
        raw_ms = []
        for attempt in range(ADMITS_PER_BUILD):
            gc.collect()
            started = clock()
            warm = build_scenario(self.config, cache=ArtifactCache(cache_dir))
            view = ScenarioView(warm)
            view.build_rel_index("asrank")
            ended = clock()
            raw_ms.append((ended - started) * 1000.0)
            self.admit_windows.append((started, ended))
            self.attempted += 1
            if attempt:
                continue
            if not warm.corpus_from_cache:
                self.fail(f"build {index}: warm admission rebuilt the corpus")
            round_trip = checks.paper_results(warm, with_casestudy=False)
            round_trip["asrel"] = checks.asrel_digests(warm, scratch)
            expected = {k: results[k] for k in round_trip}
            for key in checks.differences(expected, round_trip):
                self.fail(f"build {index}: {key} changed through the cache")
        after = speed.mark()
        factor = speed.factor(mark, after)
        self.raw_admits_ms.extend(raw_ms)
        self.admits_ms.extend(ms * factor for ms in raw_ms)
        return view, after

    def _reads(self, view: ScenarioView, cold_view: ScenarioView) -> Tuple[float, float]:
        ops = read_ops(cold_view, self.ctx.seed)
        kept = []
        window_start = clock()
        for position, (kind, arg) in enumerate(ops):
            started = clock()
            out = read(view, kind, arg)
            self.reads_ms.append((clock() - started) * 1000.0)
            if position % KEEP_EVERY == 0:
                kept.append((kind, arg, out))
        window_end = clock()
        self.read_seconds += window_end - window_start
        self.attempted += len(ops)
        for kind, arg, out in kept:
            expected = read(cold_view, kind, arg)
            if checks.canonical(expected) != checks.canonical(out):
                self.fail(f"read {kind} {arg!r:.60} differs from the cold view")
        return window_start, window_end

    def _layer_metrics(
        self, tracer: Tracer, root: Span, reads_window, cache_dir: str, scenario
    ) -> Dict[str, float]:
        spans = tracer.spans
        window = (root.start, root.end)
        inclusive = inclusive_by_name(spans, window)
        counters = tracer.counters
        out = zero_layers()
        for name in (
            "topology.generate", "bgp.propagate", "bgp.reduce", "bgp.churn",
            "corpus.ingest", "validation.compile", "validation.extract",
            "validation.clean", "analysis.report", "analysis.casestudy",
            "cache.store",
        ) + tuple(f"inference.{a}" for a in ALGORITHM_NAMES):
            out[f"{name}_s"] = inclusive.get(name, 0.0)
        out["bgp.propagate_calls"] = sum(
            1 for s in spans if s.name == "bgp.propagate" and window[0] <= s.start < window[1]
        )
        emitted = counters["bgp.routes_emitted"]
        out["bgp.routes_emitted"] = emitted
        out["corpus.useful_ratio"] = counters["corpus.routes_kept"] / emitted if emitted else 0.0
        out["corpus.bytes"] = scenario.corpus.memory_report()["total_bytes"]
        out["cache.store_bytes"] = tree_size(cache_dir)
        # Per warm admission of this pipeline run.
        for name in ("cache.load", "query.view"):
            out[f"{name}_s"] = sum(
                inclusive_by_name(spans, window).get(name, 0.0)
                for window in self.admit_windows[-ADMITS_PER_BUILD:]
            ) / ADMITS_PER_BUILD
        for name in ("link", "batch", "neighbors"):
            out[f"query.{name}_s"] = mean_self_time(
                spans, f"query.{name}", (None,), reads_window
            )
        out["trace.coverage"] = coverage(spans, root)
        return out


def run(ctx: Context) -> Outcome:
    with Speed() as speed:
        return _run(ctx, speed)


def _run(ctx: Context, speed: Speed) -> Outcome:
    before = speed.mark()
    setups = [import_seconds(ctx.root) for _ in range(SETUP_REPEATS)]
    mark = speed.mark()
    setup_factor = speed.factor(before, mark)
    state = _Run(ctx)
    started = clock()
    index = 0
    while index < MIN_BUILDS or clock() - started < ctx.seconds:
        traced = ctx.trace and index % 2 == 1
        mark = state.pipeline(index, Tracer() if traced else None, speed, mark)
        index += 1
    details: Dict[str, Any] = {
        "builds_untraced_s": state.untraced_s,
        "builds_traced_s": state.traced_s,
        "raw_builds_s": state.raw_builds_s,
        "raw_admits_ms": state.raw_admits_ms,
        "admissions": len(state.admits_ms),
        "reads": len(state.reads_ms),
        "reads_in_process": read_metrics(state.reads_ms, state.read_seconds),
        "problems": state.problems,
        "setup_samples_s": setups,
        "speed": speed.details(),
    }
    if ctx.trace:
        details["stage_tree_s"] = state.stage_tree
    fingerprints = {"cold_build": state.config.fingerprint()}
    if ctx.trace:
        metrics = {
            name: median([layer[name] for layer in state.layers])
            for name in state.layers[0]
        }
        metrics["trace.overhead"] = median(state.traced_s) / median(state.untraced_s)
    else:
        # On cold_build one request is one pipeline run.
        runs_ms = [seconds * 1000.0 for seconds in state.untraced_s]
        metrics = {
            "setup_s": median(setups) * setup_factor,
            "build_s": median(state.untraced_s),
            "throughput_rps": len(runs_ms) / sum(state.untraced_s),
            "latency_p50_ms": percentile(runs_ms, 50),
            "latency_p99_ms": percentile(runs_ms, 99),
            **admit_metrics(state.admits_ms, details),
            "peak_rss_mb": peak_rss_mb_self(),
        }
    return Outcome(metrics, state.attempted, state.failed, details, fingerprints)

"""``serve_admit``: a ``repro serve`` process admitting beside reads.

The server is a separate single-worker ``repro serve`` process over an
artifact cache the benchmark filled first, with a pool of two entries.
Load comes from this process: two closed-loop keep-alive clients
(``nproc`` is 2 on the reference box) in one asyncio loop.

* Client 1 reads the pinned scenario with the default loadgen mix (point
  ``rel``, 256-link ``:batch``, ``neighbors``).
* Client 2 cycles through the other five cached scenarios, alternating
  ``POST /v1/scenarios`` (addressed by config), which misses the pool and
  admits the scenario warm from the cache, with a ``GET /v1/table`` or
  ``/v1/bias`` addressed by the id of the scenario it just admitted.  The
  reader keeps the pinned scenario most recently used, so it never
  leaves the pool.

Id-addressed re-admission of an evicted scenario (``admit_cached``) is
not in the window: today it regenerates the topology from a config whose
mappings came back from ``meta.json`` in another order, and serves wrong
tables and bias profiles (the config-order fingerprint defect in
ROADMAP item 1).  A workload has to be one on which no operation fails,
so the window leaves it out; the traced run still times its resolution
step, ``ArtifactCache.config_for_fingerprint``, in-process over the same
cache (``cache.resolve_s``).

All six ``small``-preset scenarios are drawn from ``--seed``.

Set-up, per run:

1. Cold-build the six scenarios into a fresh cache, in-process (the
   ``build_s`` samples).  They are also the references that served
   replies are checked against.
2. ``SETUP_REPEATS`` times: start ``repro serve`` and warm-admit the
   pinned scenario with ``POST /v1/scenarios`` (``setup_s`` is the
   median).  The last server stays up for the window.

The window runs in slices of ``SLICE_S`` seconds with a calibration
point between slices (``perfbench/speed.py``); clients pause there.

With ``--trace 1`` the last set-up server measures an untraced half
window, then a server started under ``serve_traced.py`` measures a
traced half window; span metrics come from the traced half, client and
``/metrics`` figures from the untraced half.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.export import table_dict
from repro.config import ScenarioConfig
from repro.pipeline.cache import ArtifactCache
from repro.scenario import build_scenario
from repro.service.pool import scenario_id
from repro.service.query import ScenarioView

from perfbench import checks, stats
from perfbench.client import Request, Sample, get, post, run_clients
from perfbench.common import (
    BATCH_LINKS, KEEP_EVERY, READ_MIX, SETUP_REPEATS, Context, Outcome,
    admit_metrics, mean_self_time, median, read_metrics, zero_layers,
)
from perfbench.server import Server
from perfbench.speed import Speed
from perfbench.tracing import clock, covered, inclusive_by_name, load_spans

ALGORITHM = "asrank"
#: Seconds of load between two calibration points.
SLICE_S = 2.0
#: Requests precomputed per reader client (then cycled).
PLAN_LENGTH = 4096
#: Rounds of in-process id resolution over all scenarios (traced runs).
RESOLVE_REPEATS = 25
#: Scenarios built per run (build_s is their median): the pinned one
#: and the admitter's cycle.
SCENARIOS = 6
#: Pool capacity: the pinned scenario plus one slot.
POOL_SIZE = 2
#: Overrides of the ``small`` preset per scale.
SCALES: Dict[str, Dict[str, int]] = {"full": {}, "tiny": {"ases": 120, "vps": 12}}


class Target:
    """One ``small``-preset scenario: its request body and references."""

    def __init__(self, seed: int, scale: str, cache_dir: str) -> None:
        self.body = {"preset": "small", "seed": seed, **SCALES[scale]}
        config = ScenarioConfig.small(seed=seed)
        overrides = SCALES[scale]
        if "ases" in overrides:
            config.topology.n_ases = overrides["ases"]
        if "vps" in overrides:
            config.measurement.n_vantage_points = overrides["vps"]
        self.config = config
        self.sid = scenario_id(config)
        # The cold build into the cache, in raw seconds.
        started = clock()
        self.scenario = build_scenario(config, cache=ArtifactCache(cache_dir))
        self.raw_build_s = clock() - started
        self.view = ScenarioView(self.scenario)
        self.view.build_rel_index(ALGORITHM)
        self._expected: Dict[Any, str] = {}

    def expected(self, request: Request) -> Any:
        kind, key = request.kind, request.key
        if kind == "rel":
            return checks.rel_expected(self.view, self.sid, ALGORITHM, *key)
        if kind == "batch":
            return checks.batch_expected(self.view, self.sid, ALGORITHM, list(key))
        if kind == "neighbors":
            return checks.neighbors_expected(self.view, self.sid, key)
        if kind == "post":
            return checks.scenario_expected(self.view, self.sid)
        if kind == "table":
            return {
                "scenario": self.sid,
                "algorithm": ALGORITHM,
                "table": table_dict(self.scenario.validation_table(ALGORITHM)),
            }
        if kind == "bias":
            return {
                "scenario": self.sid,
                "algorithm": ALGORITHM,
                **checks.bias_payload(self.scenario),
            }
        raise ValueError(f"unknown request kind {kind!r}")

    def check(self, request: Request, body: bytes) -> bool:
        """Does ``body`` equal the reference reply to ``request``?"""
        memo = (request.kind, request.key)
        if memo not in self._expected:
            self._expected[memo] = checks.canonical(self.expected(request))
        fields = checks.SCENARIO_FIELDS if request.kind == "post" else None
        return checks.served(body, fields) == self._expected[memo]


def reader_plan(target: Target, seed: int) -> Callable[[int], Request]:
    rng = random.Random(f"perfbench-reader-{seed}")
    links = sorted(target.view.links)
    asns = sorted({asn for link in links for asn in link})
    kinds = [kind for kind, weight in READ_MIX for _ in range(weight)]
    query = f"?scenario={target.sid}"
    requests = []
    for position in range(PLAN_LENGTH):
        keep = position % KEEP_EVERY == 0
        kind = rng.choice(kinds)
        if kind == "rel":
            a, b = rng.choice(links)
            requests.append(get(f"/v1/rel/{ALGORITHM}/{a}/{b}{query}", kind, (a, b), keep))
        elif kind == "batch":
            pairs = tuple(rng.choice(links) for _ in range(BATCH_LINKS))
            requests.append(post(
                f"/v1/rel/{ALGORITHM}:batch{query}",
                {"links": [list(p) for p in pairs]}, kind, pairs, keep,
            ))
        else:
            asn = rng.choice(asns)
            requests.append(get(f"/v1/as/{asn}/neighbors{query}", kind, asn, keep))
    return lambda index: requests[index % PLAN_LENGTH]


def admitter_plan(cycle: List[Target]) -> Callable[[int], Request]:
    """POST cycle[k+1] (evicting cycle[k]), then GET its table or bias, ...

    Before the window the benchmark POSTs ``cycle[0]``.  With two or more
    scenarios and one free pool slot, every POST misses the pool and
    every GET hits the scenario the POST before it admitted.
    """
    n = len(cycle)

    def plan(index: int) -> Request:
        step = index // 2
        target = cycle[(step + 1) % n]
        if index % 2 == 0:
            return post("/v1/scenarios", {**target.body, "algorithms": [ALGORITHM]},
                        "post", target.sid, keep=True)
        kind = "table" if step % 2 == 0 else "bias"
        return get(f"/v1/{kind}/{ALGORITHM}?scenario={target.sid}", kind, target.sid, keep=True)

    return plan


class _Run:
    def __init__(self, ctx: Context, speed: Speed) -> None:
        self.ctx = ctx
        self.speed = speed
        self.cache_dir = os.path.join(ctx.workdir, "cache")
        base = 1000 + SCENARIOS * ctx.seed
        self.scenarios: List[Target] = []
        first = speed.mark()
        for i in range(SCENARIOS):
            if i:
                speed.mark()
            self.scenarios.append(Target(base + i, ctx.scale, self.cache_dir))
        factor = speed.factor(first, speed.mark())
        #: The cold builds in reference-box seconds.
        self.builds_s = [s.raw_build_s * factor for s in self.scenarios]
        self.pinned = self.scenarios[0]
        self.by_sid = {s.sid: s for s in self.scenarios}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.servers = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def server(self, trace_out: Optional[str] = None) -> Server:
        self.servers += 1
        return Server(
            self.ctx.root, self.cache_dir, POOL_SIZE,
            os.path.join(self.ctx.workdir, f"server-{self.servers}.log"),
            trace_out,
        )

    def post_scenario(self, server: Server, target: Target) -> float:
        status, body, elapsed_ms = server.request(
            "POST", "/v1/scenarios", {**target.body, "algorithms": [ALGORITHM]}
        )
        self.attempted += 1
        request = post("/v1/scenarios", target.body, "post", target.sid)
        if status not in (200, 201) or not target.check(request, body):
            self.fail(f"POST {target.sid} answered {status} or differed")
        return elapsed_ms

    def resolve(self) -> float:
        """Median seconds of ``config_for_fingerprint`` per scenario id
        over this run's cache; a config that does not fingerprint back
        to its scenario counts as a failure."""
        cache = ArtifactCache(self.cache_dir)
        seconds = []
        for _ in range(RESOLVE_REPEATS):
            for target in self.scenarios:
                started = clock()
                config = cache.config_for_fingerprint(target.sid)
                seconds.append(clock() - started)
                self.attempted += 1
                if config is None or config.fingerprint() != target.config.fingerprint():
                    self.fail(f"resolve {target.sid} gave another config")
        return median(seconds)

    def set_up(self) -> Tuple[Server, List[float]]:
        """Start a server and admit the pinned scenario, SETUP_REPEATS
        times; returns the last server and the set-up seconds in
        reference-box time, scaled by the box's speed around them all."""
        self.raw_setups_s: List[float] = []
        before = self.speed.mark()
        for repeat in range(SETUP_REPEATS):
            server = self.server()
            try:
                started = clock()
                server.start()
                self.post_scenario(server, self.pinned)
                self.raw_setups_s.append(clock() - started)
            except BaseException:
                server.stop()
                raise
            if repeat < SETUP_REPEATS - 1:
                server.stop()
        try:
            factor = self.speed.factor(before, self.speed.mark())
        except BaseException:
            server.stop()
            raise
        return server, [setup_s * factor for setup_s in self.raw_setups_s]

    def window(self, server: Server, seconds: float, speed: Speed) -> Dict[str, Any]:
        """One measured window in slices between calibration points.

        Returns the samples, each slice's ``(start, end)`` and speed
        factor, and the ``/metrics`` deltas over the window.
        """
        self.post_scenario(server, self.scenarios[1])
        plans = [reader_plan(self.pinned, self.ctx.seed), admitter_plan(self.scenarios[1:])]
        before = server.metrics()
        marks = [speed.mark()]
        clients, windows = run_clients(
            server.host, server.port, plans, seconds,
            slices=max(1, round(seconds / SLICE_S)),
            between=lambda: marks.append(speed.mark()),
        )
        after = server.metrics()
        reads, admitter = clients
        for sample in reads + admitter:
            self._check(sample)
        admits = [s for s in admitter if s.kind == "post"]
        lookups = [s for s in admitter if s.kind != "post"]
        pool = {k: after["pool"][k] - before["pool"][k] for k in (
            "warm_admissions", "cold_admissions", "evictions", "misses", "hits",
        )}
        # The reader's scenario must never leave the pool: each admitter
        # POST is one admission, anything more re-admitted it.
        readmitted = pool["warm_admissions"] + pool["cold_admissions"] - len(admits)
        if readmitted > 0:
            self.fail(f"pinned scenario re-admitted {readmitted} times")
        latency = {k: after["latency_ms"][k] - before["latency_ms"][k]
                   for k in ("count", "sum_ms")}
        factors = [speed.factor(a, b) for a, b in zip(marks, marks[1:])]
        return {
            "reads": reads, "admits": admits, "lookups": lookups, "windows": windows,
            "factors": factors, "pool": pool, "latency": latency,
        }

    def _check(self, sample: Sample) -> None:
        self.attempted += 1
        request = sample.request
        target = self.by_sid.get(request.key) if request.kind in ("post", "table", "bias") else self.pinned
        if sample.status not in (200, 201):
            self.fail(f"{request.kind} answered {sample.status}")
        elif sample.body is not None and not target.check(request, sample.body):
            self.fail(f"{request.kind} {target.sid} differs from the reference")


def _normalised_ms(samples: List[Sample], result: Dict[str, Any]) -> List[float]:
    """Latencies times the speed factor of the slice each started in."""
    starts = [start for start, _ in result["windows"]]
    factors = result["factors"]
    return [
        s.latency_ms * factors[max(0, bisect.bisect_right(starts, s.start) - 1)]
        for s in samples
    ]


def _normalised_seconds(result: Dict[str, Any]) -> float:
    """The window's length in reference-box seconds."""
    return sum(
        (end - start) * factor
        for (start, end), factor in zip(result["windows"], result["factors"])
    )


def _per_route_p99(reads: List[Sample]) -> Dict[str, float]:
    out = {}
    for kind in ("rel", "batch", "neighbors"):
        values = [s.latency_ms for s in reads if s.kind == kind]
        out[f"service.{kind}_p99_ms"] = stats.percentile(values, 99) if values else 0.0
    return out


def _layer_metrics(
    untraced: Dict[str, Any], traced: Dict[str, Any], spans, resolve_s: float
) -> Dict[str, float]:
    out = zero_layers()
    out["cache.resolve_s"] = resolve_s
    windows = traced["windows"]
    window = (windows[0][0], windows[-1][1])
    n_admits = len(traced["admits"])
    if n_admits:
        inclusive = inclusive_by_name(spans, window)
        for name in (
            "topology.generate", "cache.load", "pool.build",
            "query.view", "analysis.report", "inference.asrank",
            "inference.problink", "inference.toposcope", "inference.gao",
        ):
            out[f"{name}_s"] = inclusive.get(name, 0.0) / n_admits
    for name in ("link", "batch", "neighbors"):
        out[f"query.{name}_s"] = mean_self_time(
            spans, f"query.{name}", ("service.request",), window
        )
    pool = untraced["pool"]
    admissions = pool["warm_admissions"] + pool["cold_admissions"]
    out["pool.admissions"] = admissions
    out["pool.evictions"] = pool["evictions"]
    out["pool.warm_ratio"] = pool["warm_admissions"] / admissions if admissions else 0.0
    latency = untraced["latency"]
    handler_ms = latency["sum_ms"] / latency["count"] if latency["count"] else 0.0
    samples = untraced["reads"] + untraced["admits"] + untraced["lookups"]
    client_ms = statistics.fmean(s.latency_ms for s in samples)
    out["service.handler_mean_ms"] = handler_ms
    out["service.outside_handler_ms"] = client_ms - handler_ms
    out.update(_per_route_p99(untraced["reads"]))
    top = [s for s in spans if s.parent is None]
    busy = sum(
        covered(
            (max(s.start, start), min(s.end, end))
            for s in top if s.end > start and s.start < end
        )
        for start, end in windows
    )
    out["trace.coverage"] = busy / sum(end - start for start, end in windows)
    # Median admission, traced over untraced, in reference-box time.
    out["trace.overhead"] = (
        stats.percentile(_normalised_ms(traced["admits"], traced), 50)
        / stats.percentile(_normalised_ms(untraced["admits"], untraced), 50)
    )
    return out


def run(ctx: Context) -> Outcome:
    with Speed() as speed:
        return _run(ctx, speed)


def _run(ctx: Context, speed: Speed) -> Outcome:
    state = _Run(ctx, speed)
    server, setups = state.set_up()
    try:
        if not ctx.trace:
            result = state.window(server, ctx.seconds, speed)
            peak_rss = server.peak_rss_mb()
        else:
            untraced = state.window(server, ctx.seconds / 2, speed)
            server.stop()
            server = state.server(ctx.spans_path)
            server.start()
            state.post_scenario(server, state.pinned)
            traced = state.window(server, ctx.seconds / 2, speed)
    finally:
        server.stop()
    fingerprints = {s.sid: s.config.fingerprint() for s in state.scenarios}
    details: Dict[str, Any] = {
        "problems": state.problems,
        "setup_samples_s": setups,
        "build_samples_s": state.builds_s,
        "raw_setups_s": state.raw_setups_s,
        "raw_builds_s": [s.raw_build_s for s in state.scenarios],
        "speed": speed.details(),
    }
    if ctx.trace:
        spans, _ = load_spans(ctx.spans_path)
        metrics = _layer_metrics(untraced, traced, spans, state.resolve())
        return Outcome(metrics, state.attempted, state.failed, details, fingerprints)
    reads = _normalised_ms(result["reads"], result)
    admits = _normalised_ms(result["admits"], result)
    details.update({
        "reads": len(reads),
        "admissions": len(admits),
        "lookups": len(result["lookups"]),
        "pool": result["pool"],
        "slice_factors": result["factors"],
        "raw": {
            **read_metrics([s.latency_ms for s in result["reads"]],
                           sum(end - start for start, end in result["windows"])),
            "admit_p50_ms": stats.percentile([s.latency_ms for s in result["admits"]], 50),
        },
    })
    metrics = {
        "setup_s": median(setups),
        "build_s": median(state.builds_s),
        "throughput_rps": len(reads) / _normalised_seconds(result),
        "latency_p50_ms": stats.percentile(reads, 50),
        # Not scaled: the reader's tail is its wait for the GIL behind
        # admission work, handed over every sys.getswitchinterval()
        # seconds of wall-clock time however fast the box runs.
        "latency_p99_ms": stats.percentile([s.latency_ms for s in result["reads"]], 99),
        **admit_metrics(admits, details),
        "peak_rss_mb": peak_rss,
    }
    return Outcome(metrics, state.attempted, state.failed, details, fingerprints)

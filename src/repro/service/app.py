"""The routed HTTP application: ``ReproService``.

Endpoint map (all JSON in, JSON out)::

    GET  /healthz                      liveness + pool summary
    GET  /metrics                      counters, latency histogram, pool stats
    GET  /v1/scenarios                 pooled scenarios (LRU order)
    POST /v1/scenarios                 build/admit a scenario from a config
    GET  /v1/rel/{algo}/{as1}/{as2}    one link's inferred relationship
    POST /v1/rel/{algo}:batch          many links per request
    GET  /v1/as/{asn}/neighbors        visible adjacency of one AS
    GET  /v1/bias/{algo}               Figure 1/2 bias profiles
    GET  /v1/table/{algo}              Tables 1-3 per-group validation table
    GET  /v1/casestudy                 the §6.1 investigation summary

Every ``/v1`` query endpoint accepts ``?scenario=<id>``; without it the
most recently admitted/used scenario answers.  Scenario builds and
anything that may run an inference (first index for an algorithm, first
bias/table/casestudy request) execute in the pool's thread executor, so
the event loop — and therefore ``/healthz`` — stays responsive during
even a paper-scale build.  Malformed requests always produce structured
``{"error": {"code", "message"}}`` bodies, never a traceback.

Note on ``/v1/bias``: the profiles are identical across algorithms by
construction — the topological Stub/Transit split is pinned to ASRank
exactly as in the paper (see :mod:`repro.scenario`) — the algorithm
segment is kept for URL symmetry and validated like everywhere else.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Pattern, Tuple

from repro.analysis.export import profile_rows, table_dict
from repro.config import AdversarialConfig, ConfigError, ScenarioConfig
from repro.pipeline.cache import resolve_cache
from repro.scenario import ALGORITHM_NAMES
from repro.service.http import (
    ApiError,
    ProtocolError,
    Request,
    json_response,
    read_request,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import PoolEntry, ScenarioPool, scenario_id
from repro.service.query import casestudy_payload

#: Most links accepted by one ``:batch`` request.
MAX_BATCH_LINKS = 10_000

#: Fields accepted by ``POST /v1/scenarios``.
_SCENARIO_FIELDS = {
    "preset", "seed", "ases", "vps", "churn_rounds", "algorithms",
    "adversarial",
}

Handler = Callable[..., Any]


@dataclass(frozen=True)
class Route:
    method: str
    template: str
    pattern: Pattern[str]
    handler: Handler


class ReproService:
    """The asyncio HTTP/1.1 query service over a :class:`ScenarioPool`."""

    def __init__(
        self,
        pool_size: int = 4,
        workers: int = 0,
        cache: Any = None,
        builder: Optional[Callable[..., Any]] = None,
        view_factory: Optional[Callable[..., Any]] = None,
    ) -> None:
        pool_kwargs: Dict[str, Any] = {
            "capacity": pool_size,
            "workers": workers,
            "cache": resolve_cache(cache),
        }
        if builder is not None:
            pool_kwargs["builder"] = builder
        if view_factory is not None:
            pool_kwargs["view_factory"] = view_factory
        self.pool = ScenarioPool(**pool_kwargs)
        self.metrics = ServiceMetrics()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._routes: List[Route] = self._build_routes()

    def _build_routes(self) -> List[Route]:
        return [
            Route("GET", "/healthz", re.compile(r"/healthz"), self._h_healthz),
            Route("GET", "/metrics", re.compile(r"/metrics"), self._h_metrics),
            Route("GET", "/v1/scenarios", re.compile(r"/v1/scenarios"),
                  self._h_scenarios_list),
            Route("POST", "/v1/scenarios", re.compile(r"/v1/scenarios"),
                  self._h_scenarios_build),
            Route("GET", "/v1/rel/{algorithm}/{as1}/{as2}",
                  re.compile(r"/v1/rel/(?P<algorithm>[A-Za-z0-9_-]+)"
                             r"/(?P<as1>\d+)/(?P<as2>\d+)"),
                  self._h_rel_point),
            Route("POST", "/v1/rel/{algorithm}:batch",
                  re.compile(r"/v1/rel/(?P<algorithm>[A-Za-z0-9_-]+):batch"),
                  self._h_rel_batch),
            Route("GET", "/v1/as/{asn}/neighbors",
                  re.compile(r"/v1/as/(?P<asn>\d+)/neighbors"),
                  self._h_neighbors),
            Route("GET", "/v1/bias/{algorithm}",
                  re.compile(r"/v1/bias/(?P<algorithm>[A-Za-z0-9_-]+)"),
                  self._h_bias),
            Route("GET", "/v1/table/{algorithm}",
                  re.compile(r"/v1/table/(?P<algorithm>[A-Za-z0-9_-]+)"),
                  self._h_table),
            Route("GET", "/v1/casestudy", re.compile(r"/v1/casestudy"),
                  self._h_casestudy),
            Route("GET", "/v1/adversarial/policies",
                  re.compile(r"/v1/adversarial/policies"),
                  self._h_adversarial_policies),
            Route("POST", "/v1/adversarial/impact",
                  re.compile(r"/v1/adversarial/impact"),
                  self._h_adversarial_impact),
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        sock: Any = None,
    ) -> None:
        """Bind and start serving; ``port=0`` picks a free port.

        ``sock`` serves on an already-bound listening socket instead —
        the supervisor's pre-fork path, where the parent (or the
        SO_REUSEPORT kernel machinery) owns port selection.
        """
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # aclose (not close): cancel in-flight builds and reap them so
        # shutdown leaves no pending task or orphaned executor thread.
        await self.pool.aclose()

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        sock: Any = None,
        announce: bool = True,
    ) -> None:
        """Serve until SIGINT/SIGTERM, then shut down cleanly.

        Supervisor workers pass ``announce=False`` (the parent prints
        the single canonical banner) and their pre-bound ``sock``.
        """
        await self.start(host, port, sock=sock)
        if announce:
            print(
                f"repro service listening on http://{self.host}:{self.port}",
                flush=True,
            )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-Unix event loops: Ctrl-C still unwinds asyncio.run
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(json_response(
                        400,
                        {"error": {"code": "bad_request", "message": str(exc)}},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                keep = request.keep_alive
                writer.write(json_response(status, payload, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> Tuple[int, Any]:
        self.metrics.in_flight += 1
        started = time.monotonic()
        label = f"{request.method} <unmatched>"
        status = 500
        payload: Any = None
        try:
            try:
                route, params = self._match(request)
                label = f"{route.method} {route.template}"
                status, payload = await route.handler(request, **params)
            except ApiError as exc:
                status, payload = exc.status, exc.payload()
            except Exception as exc:  # never leak a traceback to the wire
                traceback.print_exc(file=sys.stderr)
                status = 500
                payload = {"error": {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }}
            return status, payload
        finally:
            self.metrics.in_flight -= 1
            elapsed_ms = (time.monotonic() - started) * 1000.0
            self.metrics.observe(label, status, elapsed_ms)

    def _match(self, request: Request) -> Tuple[Route, Dict[str, str]]:
        path_matched = False
        for route in self._routes:
            match = route.pattern.fullmatch(request.path)
            if match is None:
                continue
            path_matched = True
            if route.method == request.method:
                return route, match.groupdict()
        if path_matched:
            raise ApiError(
                405, "method_not_allowed",
                f"{request.method} is not allowed on {request.path}",
            )
        raise ApiError(404, "not_found", f"no such endpoint: {request.path}")

    # ------------------------------------------------------------------
    # shared handler plumbing
    # ------------------------------------------------------------------
    async def _resolve_entry(self, request: Request) -> PoolEntry:
        sid = request.query.get("scenario")
        if sid is None:
            entry = self.pool.latest()
            if entry is None:
                raise ApiError(
                    404, "no_scenario",
                    "no scenario admitted yet; POST /v1/scenarios first",
                )
            return entry
        entry = self.pool.get(sid)
        if entry is None:
            # Multi-worker seam: a sibling process may have admitted
            # this scenario — the shared artifact-cache entry its id
            # names lets this worker warm-admit the same artifacts, so
            # answers are invariant to which worker a client lands on.
            entry = await self.pool.admit_cached(sid)
        if entry is None:
            raise ApiError(
                404, "unknown_scenario",
                f"scenario {sid!r} is not in the pool",
                pooled=self.pool.ids(),
            )
        return entry

    @staticmethod
    def _check_algorithm(algorithm: str) -> str:
        if algorithm not in ALGORITHM_NAMES:
            raise ApiError(
                404, "unknown_algorithm",
                f"unknown algorithm {algorithm!r}",
                algorithms=list(ALGORITHM_NAMES),
            )
        return algorithm

    async def _ensure_rel_index(self, entry: PoolEntry, algorithm: str) -> None:
        """Build an algorithm's link index at most once, off the loop."""
        if entry.view.has_rel_index(algorithm):
            return
        async with entry.lock:
            if entry.view.has_rel_index(algorithm):
                return
            await asyncio.get_running_loop().run_in_executor(
                self.pool.executor, entry.view.build_rel_index, algorithm
            )
            self.metrics.indexes_built += 1

    async def _cached_report(
        self, entry: PoolEntry, key: str, compute: Callable[[], Any]
    ) -> Any:
        """Entry-scoped memo for bias/table/casestudy payloads.

        The computation runs in the executor under the entry's lock, so
        repeated or concurrent requests cost one computation total.
        """
        if key in entry.reports:
            return entry.reports[key]
        async with entry.lock:
            if key in entry.reports:
                return entry.reports[key]
            value = await asyncio.get_running_loop().run_in_executor(
                self.pool.executor, compute
            )
            entry.reports[key] = value
            self.metrics.indexes_built += 1
            return value

    def _config_from_body(self, body: Dict[str, Any]) -> ScenarioConfig:
        unknown = sorted(set(body) - _SCENARIO_FIELDS)
        if unknown:
            raise ApiError(
                400, "unknown_field",
                f"unknown config field(s): {', '.join(unknown)}",
                accepted=sorted(_SCENARIO_FIELDS),
            )

        def integer(name: str, default: Optional[int]) -> Optional[int]:
            value = body.get(name, default)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, int):
                raise ApiError(
                    400, "invalid_config", f"{name!r} must be an integer"
                )
            return value

        preset = body.get("preset", "small")
        if preset == "small":
            config = ScenarioConfig.small(seed=integer("seed", 7))
        elif preset == "default":
            config = ScenarioConfig.default().replace(
                seed=integer("seed", 2018)
            )
        else:
            raise ApiError(
                400, "invalid_preset",
                f"unknown preset {preset!r} (use 'small' or 'default')",
            )
        ases = integer("ases", None)
        if ases is not None:
            config.topology.n_ases = ases
        vps = integer("vps", None)
        if vps is not None:
            config.measurement.n_vantage_points = vps
        churn = integer("churn_rounds", None)
        if churn is not None:
            config.measurement.n_churn_rounds = churn
        adversarial = body.get("adversarial")
        if adversarial is not None:
            if not isinstance(adversarial, dict):
                raise ApiError(
                    400, "invalid_config",
                    "'adversarial' must be a JSON object",
                )
            try:
                config = config.replace(
                    adversarial=AdversarialConfig.from_dict(adversarial)
                )
            except ConfigError as exc:
                raise ApiError(400, "invalid_config", str(exc)) from exc
        try:
            config.validate()
        except ValueError as exc:
            raise ApiError(400, "invalid_config", str(exc)) from exc
        return config

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _h_healthz(self, request: Request) -> Tuple[int, Any]:
        return 200, {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.metrics.started, 3),
            "pool_size": len(self.pool),
            "builds_in_progress": self.pool.builds_in_progress,
        }

    async def _h_metrics(self, request: Request) -> Tuple[int, Any]:
        return 200, self.metrics.snapshot(self.pool)

    async def _h_scenarios_list(self, request: Request) -> Tuple[int, Any]:
        latest = self.pool.latest()
        scenarios = [
            entry.view.scenario_payload(entry.scenario_id)
            for entry in self.pool.entries()
        ]
        return 200, {
            "capacity": self.pool.capacity,
            "default": latest.scenario_id if latest else None,
            "scenarios": scenarios,
        }

    async def _h_scenarios_build(self, request: Request) -> Tuple[int, Any]:
        body = request.json()
        if not isinstance(body, dict):
            raise ApiError(
                400, "invalid_body", "request body must be a JSON object"
            )
        algorithms = body.get("algorithms", ["asrank"])
        if not isinstance(algorithms, list) or not all(
            isinstance(name, str) for name in algorithms
        ):
            raise ApiError(
                400, "invalid_config",
                "'algorithms' must be a list of algorithm names",
            )
        for name in algorithms:
            self._check_algorithm(name)
        config = self._config_from_body(body)
        was_pooled = scenario_id(config) in self.pool
        entry = await self.pool.get_or_build(config)
        for name in algorithms:
            await self._ensure_rel_index(entry, name)
        payload = {
            **entry.view.scenario_payload(entry.scenario_id),
            "built": not was_pooled,
            "build_seconds": round(entry.build_seconds, 3),
            "sample_links": [list(key) for key in entry.view.links[:5]],
            "pool": self.pool.stats(),
        }
        return (200 if was_pooled else 201), payload

    async def _h_rel_point(
        self, request: Request, algorithm: str, as1: str, as2: str
    ) -> Tuple[int, Any]:
        self._check_algorithm(algorithm)
        entry = await self._resolve_entry(request)
        await self._ensure_rel_index(entry, algorithm)
        payload = entry.view.link_payload(algorithm, int(as1), int(as2))
        if payload is None:
            raise ApiError(
                404, "unknown_link",
                f"link {as1}-{as2} is not visible in scenario "
                f"{entry.scenario_id}",
                as1=int(as1), as2=int(as2), scenario=entry.scenario_id,
            )
        payload["scenario"] = entry.scenario_id
        return 200, payload

    async def _h_rel_batch(
        self, request: Request, algorithm: str
    ) -> Tuple[int, Any]:
        self._check_algorithm(algorithm)
        body = request.json()
        if not isinstance(body, dict) or "links" not in body:
            raise ApiError(
                400, "invalid_body",
                "request body must be a JSON object with a 'links' array",
            )
        links = body["links"]
        if not isinstance(links, list):
            raise ApiError(400, "invalid_body", "'links' must be an array")
        if len(links) > MAX_BATCH_LINKS:
            raise ApiError(
                413, "batch_too_large",
                f"at most {MAX_BATCH_LINKS} links per batch "
                f"(got {len(links)})",
            )
        pairs: List[Tuple[int, int]] = []
        for position, item in enumerate(links):
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(
                    isinstance(asn, int) and not isinstance(asn, bool)
                    for asn in item
                )
            ):
                raise ApiError(
                    400, "invalid_body",
                    f"links[{position}] must be a [as1, as2] integer pair",
                )
            pairs.append((item[0], item[1]))
        entry = await self._resolve_entry(request)
        await self._ensure_rel_index(entry, algorithm)
        # One vectorized pass (pack → searchsorted) instead of a
        # per-key dict walk; see ScenarioView.batch_payloads.
        results, n_unknown = entry.view.batch_payloads(algorithm, pairs)
        return 200, {
            "scenario": entry.scenario_id,
            "algorithm": algorithm,
            "count": len(results),
            "n_unknown": n_unknown,
            "results": results,
        }

    async def _h_neighbors(
        self, request: Request, asn: str
    ) -> Tuple[int, Any]:
        entry = await self._resolve_entry(request)
        payload = entry.view.neighbors_payload(int(asn))
        if payload is None:
            raise ApiError(
                404, "unknown_asn",
                f"AS{asn} is not visible in scenario {entry.scenario_id}",
                asn=int(asn), scenario=entry.scenario_id,
            )
        payload["scenario"] = entry.scenario_id
        return 200, payload

    async def _h_bias(
        self, request: Request, algorithm: str
    ) -> Tuple[int, Any]:
        self._check_algorithm(algorithm)
        entry = await self._resolve_entry(request)
        scenario = entry.scenario

        def compute() -> Dict[str, Any]:
            regional = scenario.regional_bias()
            topological = scenario.topological_bias()
            return {
                "regional": profile_rows(regional),
                "topological": profile_rows(topological),
                "coverage_spread": {
                    "regional": round(regional.coverage_spread(), 6),
                    "topological": round(topological.coverage_spread(), 6),
                },
                "mismatch_classes": {
                    "regional": [
                        c.class_name for c in regional.mismatch_classes()
                    ],
                    "topological": [
                        c.class_name for c in topological.mismatch_classes()
                    ],
                },
            }

        # The profiles are algorithm-independent (see the module
        # docstring), so one cache slot serves every /v1/bias/{algo}.
        payload = await self._cached_report(entry, "bias", compute)
        return 200, {
            "scenario": entry.scenario_id,
            "algorithm": algorithm,
            **payload,
        }

    async def _h_table(
        self, request: Request, algorithm: str
    ) -> Tuple[int, Any]:
        self._check_algorithm(algorithm)
        entry = await self._resolve_entry(request)
        scenario = entry.scenario
        payload = await self._cached_report(
            entry,
            f"table:{algorithm}",
            lambda: table_dict(scenario.validation_table(algorithm)),
        )
        return 200, {
            "scenario": entry.scenario_id,
            "algorithm": algorithm,
            "table": payload,
        }

    async def _h_casestudy(self, request: Request) -> Tuple[int, Any]:
        algorithm = request.query.get("algorithm", "asrank")
        self._check_algorithm(algorithm)
        class_name = request.query.get("class", "T1-TR")
        entry = await self._resolve_entry(request)
        scenario = entry.scenario
        payload = await self._cached_report(
            entry,
            f"casestudy:{algorithm}:{class_name}",
            lambda: casestudy_payload(
                scenario.case_study(algorithm, class_name)
            ),
        )
        return 200, {
            "scenario": entry.scenario_id,
            "algorithm": algorithm,
            "class": class_name,
            **payload,
        }

    async def _h_adversarial_policies(
        self, request: Request
    ) -> Tuple[int, Any]:
        from repro.adversarial.policies import registered_policies

        return 200, {
            "policies": [
                {
                    "name": policy.name,
                    "blocks": sorted(policy.blocks),
                    "description": policy.description,
                }
                for policy in registered_policies()
            ],
        }

    async def _h_adversarial_impact(
        self, request: Request
    ) -> Tuple[int, Any]:
        """Clean-vs-polluted inference panel over pooled scenarios.

        Builds (or reuses) both twins through the scenario pool, so
        the heavy artifacts are shared with ordinary queries and
        served by the artifact cache; the report itself is memoised on
        the polluted entry.
        """
        from repro.adversarial.impact import compare_scenarios

        body = request.json()
        if not isinstance(body, dict):
            raise ApiError(
                400, "invalid_body", "request body must be a JSON object"
            )
        algorithms = body.get("algorithms", ["asrank", "problink",
                                             "toposcope"])
        if not isinstance(algorithms, list) or not all(
            isinstance(name, str) for name in algorithms
        ):
            raise ApiError(
                400, "invalid_config",
                "'algorithms' must be a list of algorithm names",
            )
        for name in algorithms:
            self._check_algorithm(name)
        config = self._config_from_body(body)
        adv = config.adversarial
        if adv is None or adv.attack.total_events() == 0:
            raise ApiError(
                400, "invalid_config",
                "'adversarial' with at least one attack event is "
                "required for impact analysis",
            )
        clean_entry = await self.pool.get_or_build(
            config.replace(adversarial=None)
        )
        entry = await self.pool.get_or_build(config)
        clean_scenario = clean_entry.scenario
        polluted_scenario = entry.scenario
        report = await self._cached_report(
            entry,
            f"impact:{','.join(algorithms)}",
            lambda: compare_scenarios(
                clean_scenario, polluted_scenario, algorithms
            ).to_dict(),
        )
        return 200, {
            "scenario": entry.scenario_id,
            "clean_scenario": clean_entry.scenario_id,
            **report,
        }


@contextlib.contextmanager
def serve_in_thread(
    service: ReproService, host: str = "127.0.0.1", port: int = 0
) -> Iterator[ReproService]:
    """Run ``service`` on a background event-loop thread.

    The embedding idiom for tests, examples, and notebooks: the caller's
    thread stays free to use the blocking
    :class:`~repro.service.client.ServiceClient` against
    ``service.port``.  Shuts the server down on exit.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-service", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(
            service.start(host, port), loop
        ).result(timeout=60)
        yield service
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()

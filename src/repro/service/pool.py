"""The scenario pool: LRU-bounded, single-flight, executor-built.

A :class:`ScenarioPool` owns up to ``capacity`` built
:class:`~repro.scenario.Scenario` objects, keyed by the canonical
fingerprint of their :class:`~repro.config.ScenarioConfig`, truncated
for URLs: the prefix that also starts their artifact-cache entry name.  Three
properties make it safe to put behind a server:

* **Single-flight builds** — concurrent requests for the same config
  await one build task instead of duplicating the work; the build task
  is owned by the pool (not the first requester), so a disconnecting
  client cannot orphan the waiters.
* **Executor builds** — ``build_scenario`` plus the
  :class:`~repro.service.query.ScenarioView` indexing run in a small
  thread pool, so the event loop keeps answering ``/healthz`` and point
  queries while propagation crunches.
* **Warm starts** — an attached
  :class:`~repro.pipeline.cache.ArtifactCache` is passed straight into
  ``build_scenario``, so a scenario the pipeline has ever built loads
  its corpus/validation/inference artifacts instead of recomputing.

Counters (``hits``/``misses``/``builds``/``coalesced``/``evictions``)
feed the ``/metrics`` document.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from collections import OrderedDict

from repro.config import ScenarioConfig
from repro.scenario import Scenario, build_scenario
from repro.service.query import ScenarioView

#: Characters of the config fingerprint used as the public scenario id.
SCENARIO_ID_LENGTH = 12


def scenario_id(config: ScenarioConfig) -> str:
    """The URL-safe pool key of a config (canonical-fingerprint prefix)."""
    return config.fingerprint()[:SCENARIO_ID_LENGTH]


@dataclass
class PoolEntry:
    """One admitted scenario plus everything derived from it."""

    scenario_id: str
    config: ScenarioConfig
    scenario: Scenario
    view: ScenarioView
    build_seconds: float
    #: Endpoint-level memo (bias/table/casestudy payloads, rel indexes
    #: in flight); guarded by ``lock`` so heavy recomputation is
    #: serialised per scenario.
    reports: Dict[str, Any] = field(default_factory=dict)
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ScenarioPool:
    """LRU pool of built scenarios with single-flight admission."""

    def __init__(
        self,
        capacity: int = 4,
        workers: int = 0,
        cache: Any = None,
        builder: Callable[..., Scenario] = build_scenario,
        view_factory: Callable[[Scenario], ScenarioView] = ScenarioView,
        max_build_threads: int = 2,
    ) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be at least 1")
        self.capacity = capacity
        self.workers = workers
        self.cache = cache
        self._builder = builder
        self._view_factory = view_factory
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self._building: Dict[str, asyncio.Task] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max_build_threads, thread_name_prefix="repro-build"
        )
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.coalesced = 0
        self.evictions = 0
        #: Builds whose corpus came warm (mmap) out of the artifact
        #: cache vs. recomputed by propagation.
        self.warm_admissions = 0
        self.cold_admissions = 0
        #: Scenario ids resolved through the shared cache entry they name
        #: (a sibling process admitted them first).
        self.cache_resolutions = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def executor(self) -> ThreadPoolExecutor:
        """The build thread pool (shared with lazy index/report work)."""
        return self._executor

    def get(self, key: str) -> Optional[PoolEntry]:
        """Entry by scenario id; touches LRU recency on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def latest(self) -> Optional[PoolEntry]:
        """The most recently admitted/used entry (the default scenario)."""
        if not self._entries:
            return None
        return next(reversed(self._entries.values()))

    def ids(self) -> list:
        """Scenario ids, least recently used first."""
        return list(self._entries)

    def entries(self) -> list:
        """Pool entries, least recently used first (no LRU touch)."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def get_or_build(self, config: ScenarioConfig) -> PoolEntry:
        """The pool entry for ``config``, building it at most once.

        Concurrent calls with an equal config all await the same build
        task; only the first one counts as a build.
        """
        key = scenario_id(config)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        task = self._building.get(key)
        if task is None:
            self.misses += 1
            task = asyncio.get_running_loop().create_task(
                self._build(key, config)
            )
            self._building[key] = task
            task.add_done_callback(lambda t: self._reap(key, t))
        else:
            self.coalesced += 1
        # Shielded so one cancelled requester does not cancel the build
        # the other waiters (and the pool) are counting on.
        return await asyncio.shield(task)

    async def _build(self, key: str, config: ScenarioConfig) -> PoolEntry:
        self.builds += 1
        loop = asyncio.get_running_loop()
        started = time.monotonic()

        def job() -> PoolEntry:
            scenario = self._builder(
                config, workers=self.workers, cache=self.cache
            )
            view = self._view_factory(scenario)
            return PoolEntry(
                scenario_id=key,
                config=config,
                scenario=scenario,
                view=view,
                build_seconds=time.monotonic() - started,
            )

        entry = await loop.run_in_executor(self._executor, job)
        # Injected test builders may return non-Scenario stand-ins, so
        # read the warm flag defensively.
        if getattr(entry.scenario, "corpus_from_cache", False):
            self.warm_admissions += 1
        else:
            self.cold_admissions += 1
        self._admit(key, entry)
        return entry

    async def admit_cached(self, sid: str) -> Optional[PoolEntry]:
        """Admit a scenario by id through the shared artifact cache.

        Covers the multi-worker seam: a scenario built (and cached) by a
        sibling process is unknown to this pool, but the shared cache
        entry its id names records the full canonical config.  Resolve
        the id there, verify it round-trips to the same fingerprint, and
        run the normal (warm, mmap-backed) admission.  Returns ``None``
        when no cache is attached or nothing matches.
        """
        if self.cache is None:
            return None
        loop = asyncio.get_running_loop()
        config = await loop.run_in_executor(
            self._executor, self.cache.config_for_fingerprint, sid
        )
        if config is None or scenario_id(config) != sid:
            return None
        self.cache_resolutions += 1
        return await self.get_or_build(config)

    def _reap(self, key: str, task: asyncio.Task) -> None:
        self._building.pop(key, None)
        if not task.cancelled():
            # Retrieve (and drop) the exception so a failed build with
            # no remaining waiters does not warn at shutdown; waiters
            # that are still around receive it through the shield.
            task.exception()

    def _admit(self, key: str, entry: PoolEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    @property
    def builds_in_progress(self) -> int:
        return len(self._building)

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "warm_admissions": self.warm_admissions,
            "cold_admissions": self.cold_admissions,
            "cache_resolutions": self.cache_resolutions,
            "builds_in_progress": self.builds_in_progress,
        }

    def close(self) -> None:
        """Synchronous shutdown: cancel in-flight builds, stop the executor.

        Safe to call with no running loop (the tasks are then already
        dead with their loop).  From async code prefer
        :meth:`aclose`, which additionally *awaits* the cancelled
        builds so none is garbage-collected while pending ("Task was
        destroyed but it is pending") and no executor job outlives
        shutdown unobserved.
        """
        for task in list(self._building.values()):
            task.cancel()
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def aclose(self) -> None:
        """Cancel and reap in-flight builds, then stop the executor.

        Waiters blocked in :meth:`get_or_build` receive
        ``CancelledError`` through their shield; cancelled build tasks
        are awaited (so none is destroyed pending) and the executor is
        joined off-loop — queued jobs are cancelled, already-running
        ones finish with their results discarded, and no build thread
        outlives this coroutine.
        """
        tasks = [task for task in self._building.values() if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._building.clear()
        await asyncio.get_running_loop().run_in_executor(
            None, self._shutdown_executor
        )

    def _shutdown_executor(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

"""Process-parallel per-origin propagation.

Every origin's route tree is an independent function of the (read-only)
:class:`~repro.bgp.policy.AdjacencyIndex`, so the per-origin fan-out —
the hot path of scenario building — shards cleanly across worker
processes.  :class:`ParallelPropagator` does exactly that while keeping
the output stream *indistinguishable* from the serial code:

* origins are split into contiguous chunks and submitted in order;
* results are yielded strictly in submission order (origin-major), so
  consumers observe the same sequence the serial loop produces;
* inside a worker the same
  :func:`~repro.bgp.propagation.compute_origin_routes` /
  :func:`~repro.bgp.collectors.routes_for_origin` code runs, so each
  element is identical, not merely equivalent — the differential tests
  in ``tests/pipeline/`` assert byte-identical serialisations.

``workers=0`` falls back to plain in-process iteration (no executor,
no pickling), which is also the default everywhere; ``workers=None`` or
a negative count auto-sizes to the machine's CPU count.

The heavy, shared inputs (adjacency index, vantage points, community
registry, stripper set) travel to each worker exactly once via the pool
initializer instead of once per task, which keeps the per-chunk payload
down to a list of origin ASNs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.bgp.policy import AdjacencyIndex
from repro.bgp.propagation import compute_origin_routes, plane_of

#: Per-process worker state, populated by the pool initializer.  Plain
#: module globals are the standard multiprocessing idiom: the dict is
#: filled once per worker process and read by every chunk it executes.
_WORKER_STATE: Dict[str, Any] = {}


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``0`` means serial, positive counts are taken literally, and
    ``None`` or negative values auto-size to the CPU count.
    """
    if workers is None or workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


def _chunk(origins: Sequence[int], workers: int, chunk_size: Optional[int]) -> List[Sequence[int]]:
    """Contiguous origin chunks, sized for ~4 chunks per worker.

    Chunking amortises task-submission overhead while staying fine
    grained enough that an unlucky slow chunk cannot serialise the pool.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-len(origins) // (workers * 4)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [origins[i : i + chunk_size] for i in range(0, len(origins), chunk_size)]


# ---------------------------------------------------------------------------
# worker functions (module-level so they pickle under every start method)
# ---------------------------------------------------------------------------

def _init_collect_worker(
    adjacency: AdjacencyIndex,
    vantage_points: Sequence[Any],
    communities: Any,
    strippers: Any,
) -> None:
    _WORKER_STATE["adjacency"] = adjacency
    _WORKER_STATE["vantage_points"] = list(vantage_points)
    _WORKER_STATE["communities"] = communities
    _WORKER_STATE["strippers"] = strippers
    # Build the propagation plane once per worker process: the CSR
    # compilation is the only super-per-origin cost, and doing it here
    # keeps every chunk a pure array pass.
    plane_of(adjacency)


def _collect_chunk(origins: Sequence[int]) -> Any:
    # Imported here (not at module top) so that worker processes under
    # the ``spawn`` start method import the minimal closure they need.
    from repro.bgp.collectors import routes_for_origin
    from repro.pipeline.columnar import pack_route_slab

    adjacency = _WORKER_STATE["adjacency"]
    vantage_points = _WORKER_STATE["vantage_points"]
    communities = _WORKER_STATE["communities"]
    strippers = _WORKER_STATE["strippers"]
    routes: List[Any] = []
    for origin in origins:
        origin_routes = compute_origin_routes(adjacency, origin)
        routes.extend(
            routes_for_origin(
                origin_routes, vantage_points, communities, strippers
            )
        )
    # Ship the chunk as an array slab: five contiguous buffers pickle in
    # O(bytes) instead of one object graph per route, and the parent
    # unpacks into routes identical to what the serial loop builds.
    return pack_route_slab(routes)


class ParallelPropagator:
    """Sharded route propagation behind the serial iteration API.

    Parameters
    ----------
    adjacency:
        The read-only adjacency index routes are computed over.
    workers:
        ``0`` (default) for the serial fallback, a positive count for
        that many worker processes, ``None``/negative for CPU count.
    chunk_size:
        Origins per submitted task; defaults to ~4 chunks per worker.
    """

    def __init__(
        self,
        adjacency: AdjacencyIndex,
        workers: Optional[int] = 0,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.adjacency = adjacency
        self.workers = 0 if workers == 0 else resolve_workers(workers)
        self.chunk_size = chunk_size

    def collect_routes(
        self,
        vantage_points: Sequence[Any],
        communities: Any,
        strippers: Any,
        origins: Optional[Iterable[int]] = None,
    ) -> Iterator[Any]:
        """Yield the collector-visible routes of every origin, in the
        exact order the serial :class:`~repro.bgp.collectors.RouteCollector`
        records them (origin-major, vantage-point order within).

        The per-origin tree is built *and reduced to VP paths inside
        the worker*, and each chunk's routes cross the process boundary
        as one packed :class:`~repro.pipeline.columnar.RouteSlab` (flat
        numpy buffers) instead of a list of per-route tuple graphs —
        route trees never travel at all.
        """
        from repro.bgp.collectors import routes_for_origin
        from repro.pipeline.columnar import unpack_route_slab

        origin_list = list(origins) if origins is not None else list(self.adjacency.asns)
        if self.workers == 0 or len(origin_list) <= 1:
            for origin in origin_list:
                origin_routes = compute_origin_routes(self.adjacency, origin)
                yield from routes_for_origin(
                    origin_routes, vantage_points, communities, strippers
                )
            return
        # Futures are drained in submission order, which gives the
        # deterministic origin-major merge the differential tests rely
        # on — whatever order the workers *finish* in is invisible here.
        chunks = _chunk(origin_list, self.workers, self.chunk_size)
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_collect_worker,
            initargs=(
                self.adjacency, list(vantage_points), communities, strippers,
            ),
        ) as pool:
            futures = [pool.submit(_collect_chunk, chunk) for chunk in chunks]
            for future in futures:
                yield from unpack_route_slab(future.result())

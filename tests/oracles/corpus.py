"""Dict corpus oracle: the original eager per-route indices.

:class:`OraclePathCorpus` is a :class:`~repro.datasets.paths.PathCorpus`
that indexes every route into :class:`_LegacyIndex` as it is added and
answers every derived view (links, visibility, triplets, degrees,
left/right/origin sets, stats and the inference hot-loop accessors)
from those dicts instead of the columnar index.  Route storage and the
CSR columns (what the cache serialises) are inherited unchanged.
:func:`oracle_filter_by_vps` keeps TopoScope's per-group sub-corpora on
the oracle too.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.datasets import paths as runtime_paths
from repro.datasets.paths import CollectedRoute, Path, PathCorpus
from repro.topology.graph import LinkKey, link_key


class _LegacyIndex:
    """The original eager per-route dict/set indices.

    Kept verbatim as the differential baseline for the columnar engine:
    every derived view of an :class:`OraclePathCorpus` is computed from
    these structures exactly as the pre-columnar code did.
    """

    def __init__(self) -> None:
        #: link -> set of VPs that saw it (ProbLink's "observed by k VPs").
        self.link_vps: Dict[LinkKey, Set[int]] = {}
        #: x -> set of neighbours seen adjacent to x while x was in the
        #: middle of a path (the CAIDA transit-degree definition).
        self.transit_neighbors: Dict[int, Set[int]] = {}
        #: x -> all neighbours of x seen in any path (visible node degree).
        self.neighbors: Dict[int, Set[int]] = {}
        #: directed triplets (a, x, b) as observed left-to-right, i.e.
        #: the collector-side AS first.
        self.triplets: Set[Tuple[int, int, int]] = set()
        #: link -> ASes observed to the left (collector side) of it.
        self.left_of_link: Dict[LinkKey, Set[int]] = {}
        #: link -> ASes observed to the right (origin side) of it.
        self.right_of_link: Dict[LinkKey, Set[int]] = {}
        #: origins observed announcing through each link.
        self.link_origins: Dict[LinkKey, Set[int]] = {}

    def index(self, path: Path, vp: int, origin: int) -> None:
        for position in range(len(path) - 1):
            a, b = path[position], path[position + 1]
            key = link_key(a, b)
            self.link_vps.setdefault(key, set()).add(vp)
            self.neighbors.setdefault(a, set()).add(b)
            self.neighbors.setdefault(b, set()).add(a)
            if position > 0:
                left = path[:position]
                self.left_of_link.setdefault(key, set()).update(left)
            if position + 2 < len(path):
                right = path[position + 2 :]
                self.right_of_link.setdefault(key, set()).update(right)
            self.link_origins.setdefault(key, set()).add(origin)
        for position in range(1, len(path) - 1):
            a, x, b = path[position - 1], path[position], path[position + 1]
            self.triplets.add((a, x, b))
            transit = self.transit_neighbors.setdefault(x, set())
            transit.add(a)
            transit.add(b)


class OraclePathCorpus(PathCorpus):
    """A corpus whose derived views all come from :class:`_LegacyIndex`."""

    def __init__(self) -> None:
        super().__init__()
        self._legacy = _LegacyIndex()

    def add_route(self, route: CollectedRoute) -> bool:
        if not super().add_route(route):
            return False
        self._legacy.index(route.path, route.vp, route.origin)
        return True

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def visible_links(self) -> List[LinkKey]:
        return sorted(self._legacy.link_vps.keys())

    def link_visibility(self, key: LinkKey) -> int:
        return len(self._legacy.link_vps.get(key, ()))

    def vps_seeing(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self._legacy.link_vps.get(key, ()))

    def triplets(self) -> FrozenSet[Tuple[int, int, int]]:
        return frozenset(self._legacy.triplets)

    def has_triplet(self, left: int, middle: int, right: int) -> bool:
        return (left, middle, right) in self._legacy.triplets

    def transit_degree(self, asn: int) -> int:
        return len(self._legacy.transit_neighbors.get(asn, ()))

    def transit_degrees(self) -> Dict[int, int]:
        degrees = {asn: 0 for asn in self._legacy.neighbors}
        for asn, neighbors in self._legacy.transit_neighbors.items():
            degrees[asn] = len(neighbors)
        return degrees

    def node_degree(self, asn: int) -> int:
        return len(self._legacy.neighbors.get(asn, ()))

    def node_degrees(self) -> Dict[int, int]:
        return {
            asn: len(neigh)
            for asn, neigh in self._legacy.neighbors.items()
        }

    def visible_ases(self) -> List[int]:
        return sorted(self._legacy.neighbors.keys())

    def ases_left_of(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self._legacy.left_of_link.get(key, ()))

    def ases_right_of(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self._legacy.right_of_link.get(key, ()))

    def origins_via(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self._legacy.link_origins.get(key, ()))

    def stats(self) -> Dict[str, int]:
        return {
            "n_routes": len(self._paths),
            "n_vps": len(self._vp_set),
            "n_visible_links": len(self._legacy.link_vps),
            "n_visible_ases": len(self._legacy.neighbors),
            "n_triplets": len(self._legacy.triplets),
            "n_routes_with_communities": len(self._communities),
        }

    # ------------------------------------------------------------------
    # inference hot-loop accessors
    # ------------------------------------------------------------------
    def triplet_continuations(self) -> Dict[Tuple[int, int], List[int]]:
        continuations: Dict[Tuple[int, int], List[int]] = {}
        for a, x, b in sorted(self._legacy.triplets):
            continuations.setdefault((a, x), []).append(b)
        return continuations

    def descending_seed_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        clique_set = set(clique)
        seeds: Set[Tuple[int, int]] = set()
        for path in self._paths:
            for i in range(len(path) - 1):
                if path[i] in clique_set and path[i + 1] in clique_set:
                    for j in range(i + 1, len(path) - 1):
                        seeds.add((path[j], path[j + 1]))
                    break
        return sorted(seeds)

    def apparent_providers(
        self, clique: Iterable[int]
    ) -> Dict[int, Set[int]]:
        clique_set = set(clique)
        providers: Dict[int, Set[int]] = {asn: set() for asn in clique_set}
        for path in self._paths:
            apex_crossed_at = None
            for i in range(len(path) - 1):
                if path[i] in clique_set and path[i + 1] in clique_set:
                    apex_crossed_at = i
                    break
            if apex_crossed_at is None:
                continue
            for j in range(apex_crossed_at + 2, len(path)):
                asn = path[j]
                if asn in clique_set:
                    upstream = path[j - 1]
                    if upstream not in clique_set:
                        providers[asn].add(upstream)
        return providers


def oracle_filter_by_vps(corpus: PathCorpus, vps: Set[int]) -> PathCorpus:
    """:func:`repro.datasets.paths.filter_by_vps` that keeps an oracle
    corpus on the oracle: the sub-corpus is re-indexed route by route."""
    if not isinstance(corpus, OraclePathCorpus):
        return runtime_paths.filter_by_vps(corpus, vps)
    sub = OraclePathCorpus()
    for route in corpus.routes():
        if route.vp in vps:
            sub.add_route(route)
    return sub

"""The collected AS-path corpus and its derived indices.

A :class:`PathCorpus` is the simulator's analogue of "a month of
RouteViews/RIS table dumps": every AS path exported by a vantage point
to a route collector, with whatever BGP communities survived
propagation.  All downstream consumers work from this corpus only:

* the inference algorithms (visible links, triplets, transit degrees);
* the validation compiler (decodable relationship communities);
* the feature extractor (Appendix C metrics).

Routes live in numpy CSR columns (:mod:`repro.pipeline.columnar`) and
every index is derived lazily with vectorized array passes — the same
storage the artifact cache memory-maps on warm reads.  The original
eager dict/set indices survive as a test oracle (``tests/oracles``);
the byte-equality matrix in ``tests/pipeline/test_columnar_equivalence.py``
runs every algorithm against both, including dict iteration orders
where observable (see the contract notes in
:mod:`repro.pipeline.columnar`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.bgp.communities import Community
from repro.topology.graph import LinkKey, link_key

if TYPE_CHECKING:
    from repro.pipeline.columnar import ColumnarIndices, CorpusColumns

#: An AS path as collected: vantage point first, origin last.
Path = Tuple[int, ...]


@dataclass(frozen=True)
class CollectedRoute:
    """One route as recorded by a collector."""

    vp: int
    origin: int
    path: Path
    communities: Tuple[Community, ...] = ()

    def links(self) -> Iterator[LinkKey]:
        """Undirected link keys along the path."""
        for a, b in zip(self.path, self.path[1:]):
            yield link_key(a, b)


class PathCorpus:
    """All collected routes plus the indices the paper's pipeline needs."""

    def __init__(self) -> None:
        self._paths: Optional[List[Path]] = []
        self._seen_paths: Optional[Set[Path]] = set()
        self._communities: Optional[Dict[int, Tuple[Community, ...]]] = {}
        self._vp_set: Optional[Set[int]] = set()
        #: Columnar backing (set when loaded from a cache artifact, or
        #: built lazily from the accumulated paths).
        self._columns: Optional["CorpusColumns"] = None
        self._index: Optional["ColumnarIndices"] = None
        self._memo: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, columns: "CorpusColumns") -> "PathCorpus":
        """Wrap pre-built (possibly memory-mapped) corpus columns.

        Paths, communities and the dedup set materialise lazily, only
        when a consumer actually iterates routes — the inference hot
        path never does, so a warm cache load stays near-zero-copy.
        """
        corpus = cls()
        corpus._columns = columns
        corpus._paths = None
        corpus._seen_paths = None
        corpus._communities = None
        corpus._vp_set = None
        return corpus

    def add_route(self, route: CollectedRoute) -> bool:
        """Index one collected route.

        Identical paths (same VP, origin, and hops — and therefore the
        same communities, which are deterministic per path) are stored
        once; re-adding returns ``False``.  This keeps multi-round
        (churn) collection linear in the number of *distinct* routes.
        """
        path = route.path
        if len(path) < 1:
            raise ValueError("empty AS path")
        if path[0] != route.vp or path[-1] != route.origin:
            raise ValueError("path endpoints disagree with vp/origin")
        self._materialise()
        if path in self._seen_paths:
            return False
        self._seen_paths.add(path)
        index = len(self._paths)
        self._paths.append(path)
        if route.communities:
            self._communities[index] = route.communities
        self._vp_set.add(route.vp)
        self._invalidate()
        return True

    def add_routes(self, routes: Iterable[CollectedRoute]) -> int:
        """Bulk :meth:`add_route`; returns the number actually added."""
        added = 0
        for route in routes:
            if self.add_route(route):
                added += 1
        return added

    def _invalidate(self) -> None:
        self._columns = None
        self._index = None
        if self._memo:
            self._memo = {}

    def _materialise(self) -> None:
        """Rebuild the Python-side route storage from the columns."""
        if self._paths is not None:
            return
        cols = self._columns
        hops = cols.hops.tolist()
        offsets = cols.offsets.tolist()
        self._paths = [
            tuple(hops[offsets[i] : offsets[i + 1]])
            for i in range(len(offsets) - 1)
        ]
        self._seen_paths = set(self._paths)
        if self._communities is None:
            self._communities = cols.communities_dict()
        if self._vp_set is None:
            self._vp_set = {path[0] for path in self._paths}

    def _ensure_communities(self) -> Dict[int, Tuple[Community, ...]]:
        if self._communities is None:
            self._communities = self._columns.communities_dict()
        return self._communities

    # ------------------------------------------------------------------
    # columnar machinery
    # ------------------------------------------------------------------
    def columns(self) -> "CorpusColumns":
        """The corpus as CSR columns (built once, reused by the cache)."""
        if self._columns is None:
            from repro.pipeline.columnar import CorpusColumns

            self._columns = CorpusColumns.from_paths(
                self._paths, self._communities
            )
        return self._columns

    def columnar_index(self) -> "ColumnarIndices":
        """The vectorized index (built once, memoised until ingest)."""
        if self._index is None:
            from repro.pipeline.columnar import ColumnarIndices

            self._index = ColumnarIndices(self.columns())
        return self._index

    def _memoised(self, name: str, builder: Callable[[], Any]) -> Any:
        try:
            return self._memo[name]
        except KeyError:
            value = builder()
            self._memo[name] = value
            return value

    def _degree_maps(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """(transit degrees, node degrees) in legacy first-seen order."""
        if "transit" not in self._memo:
            ases, transit, node = self.columnar_index().degrees_first_seen()
            self._memo["transit"] = dict(zip(ases, transit))
            self._memo["node"] = dict(zip(ases, node))
        return self._memo["transit"], self._memo["node"]

    def memory_report(self) -> Dict[str, Any]:
        """Column and index byte counts (``repro corpus stats``)."""
        report = self.columnar_index().memory_report()
        report["layout"] = "columnar"
        report["backing"] = self.columns().backing()
        return report

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._paths is not None:
            return len(self._paths)
        return self._columns.n_routes

    def paths(self) -> Iterator[Path]:
        self._materialise()
        return iter(self._paths)

    def routes(self) -> Iterator[CollectedRoute]:
        """Re-materialise :class:`CollectedRoute` objects."""
        self._materialise()
        for index, path in enumerate(self._paths):
            yield CollectedRoute(
                vp=path[0],
                origin=path[-1],
                path=path,
                communities=self._communities.get(index, ()),
            )

    @property
    def vantage_points(self) -> FrozenSet[int]:
        if self._vp_set is None:
            self._vp_set = set(self._columns.vp_column().tolist())
        return frozenset(self._vp_set)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def visible_links(self) -> List[LinkKey]:
        """Every link that appears in at least one collected path —
        the paper's "inferred links" universe."""
        return list(
            self._memoised(
                "links", lambda: self.columnar_index().link_keys_list()
            )
        )

    def link_visibility(self, key: LinkKey) -> int:
        """Number of distinct VPs that observed the link."""
        def build() -> Dict[LinkKey, int]:
            index = self.columnar_index()
            return dict(
                zip(
                    index.link_keys_list(),
                    index.link_visibility_counts().tolist(),
                )
            )

        return self._memoised("link_visibility", build).get(key, 0)

    def vps_seeing(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self.columnar_index().link_vps(key))

    def triplets(self) -> FrozenSet[Tuple[int, int, int]]:
        """All directed (left, middle, right) triplets."""
        return self._memoised(
            "triplets",
            lambda: frozenset(self.columnar_index().triplet_tuples()),
        )

    def has_triplet(self, left: int, middle: int, right: int) -> bool:
        return self.columnar_index().has_triplet(left, middle, right)

    def transit_degree(self, asn: int) -> int:
        """CAIDA transit degree: unique neighbours adjacent to ``asn``
        in paths where ``asn`` appears in transit position."""
        return self._degree_maps()[0].get(asn, 0)

    def transit_degrees(self) -> Dict[int, int]:
        return dict(self._degree_maps()[0])

    def node_degree(self, asn: int) -> int:
        """Visible node degree (distinct neighbours in any path)."""
        return self._degree_maps()[1].get(asn, 0)

    def node_degrees(self) -> Dict[int, int]:
        return dict(self._degree_maps()[1])

    def visible_ases(self) -> List[int]:
        return list(
            self._memoised(
                "ases", lambda: self.columnar_index().visible_ases_sorted()
            )
        )

    def ases_left_of(self, key: LinkKey) -> FrozenSet[int]:
        """ASes that can observe the link (occur left of it) —
        Appendix C feature #6."""
        return frozenset(self.columnar_index().left_of(key))

    def ases_right_of(self, key: LinkKey) -> FrozenSet[int]:
        """ASes that may receive traffic via the link (occur right of
        it) — Appendix C feature #7."""
        return frozenset(self.columnar_index().right_of(key))

    def origins_via(self, key: LinkKey) -> FrozenSet[int]:
        """Origins whose routes were seen crossing the link —
        Appendix C features #4/#5 build on this."""
        return frozenset(self.columnar_index().origins_via(key))

    def communities_of_route(self, index: int) -> Tuple[Community, ...]:
        return self._ensure_communities().get(index, ())

    def routes_with_communities(self) -> Iterator[CollectedRoute]:
        """Only the routes that still carry at least one community."""
        self._materialise()
        for index in sorted(self._communities):
            path = self._paths[index]
            yield CollectedRoute(
                vp=path[0],
                origin=path[-1],
                path=path,
                communities=self._communities[index],
            )

    def stats(self) -> Dict[str, int]:
        index = self.columnar_index()
        if self._communities is not None:
            n_with_communities = len(self._communities)
        else:
            n_with_communities = self._columns.n_community_routes()
        return {
            "n_routes": len(self),
            "n_vps": len(self.vantage_points),
            "n_visible_links": index.n_links,
            "n_visible_ases": index.n_ases,
            "n_triplets": index.n_triplets,
            "n_routes_with_communities": n_with_communities,
        }

    # ------------------------------------------------------------------
    # inference hot-loop accessors
    # ------------------------------------------------------------------
    def triplet_continuations(self) -> Dict[Tuple[int, int], List[int]]:
        """Triplets grouped by their leading directed pair:
        ``(a, x) -> [b, ...]`` with each continuation list ascending."""
        return self.columnar_index().triplet_continuations()

    def descending_seed_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Distinct directed pairs on the suffix of every path after its
        first consecutive clique pair (ASRank's P2C seed evidence),
        sorted ascending."""
        return self.columnar_index().descending_seed_pairs(clique)

    def apparent_providers(
        self, clique: Iterable[int]
    ) -> Dict[int, Set[int]]:
        """For each tentative clique member: ASes observed as its
        provider (the transit-free refinement's evidence — see
        :func:`repro.inference.base.infer_clique`)."""
        clique_set = set(clique)
        providers: Dict[int, Set[int]] = {asn: set() for asn in clique_set}
        for member, upstream in self.columnar_index().apparent_provider_pairs(
            clique_set
        ):
            providers[member].add(upstream)
        return providers


def filter_by_vps(corpus: PathCorpus, vps: Set[int]) -> PathCorpus:
    """Sub-corpus containing only routes from the given vantage points.

    TopoScope's bootstrapping partitions the VP set into groups and runs
    the base inference per group; this helper materialises each group's
    view of the world.  The sub-corpus is sliced directly out of the
    CSR columns — no per-route Python loop.
    """
    from repro.pipeline.columnar import CorpusColumns

    cols = corpus.columns()
    vp_list = sorted(v for v in vps if 0 <= v <= 0xFFFFFFFF)
    vp_arr = np.fromiter(vp_list, dtype=np.uint32, count=len(vp_list))
    keep = np.isin(cols.vp_column(), vp_arr)
    keep_routes = np.flatnonzero(keep)
    lengths = cols.lengths()
    new_lengths = lengths[keep_routes]
    new_offsets = np.zeros(len(keep_routes) + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=new_offsets[1:])
    new_hops = np.ascontiguousarray(cols.hops[np.repeat(keep, lengths)])
    if len(cols.comm_route):
        comm_keep = np.isin(cols.comm_route, keep_routes)
        new_comm_route = np.searchsorted(
            keep_routes, cols.comm_route[comm_keep]
        ).astype(np.int64)
        new_comm_owner = np.ascontiguousarray(cols.comm_owner[comm_keep])
        new_comm_value = np.ascontiguousarray(cols.comm_value[comm_keep])
    else:
        new_comm_route = np.empty(0, dtype=np.int64)
        new_comm_owner = np.empty(0, dtype=np.uint32)
        new_comm_value = np.empty(0, dtype=np.int64)
    return PathCorpus.from_columns(
        CorpusColumns(
            hops=new_hops,
            offsets=new_offsets,
            comm_route=new_comm_route,
            comm_owner=new_comm_owner,
            comm_value=new_comm_value,
        )
    )

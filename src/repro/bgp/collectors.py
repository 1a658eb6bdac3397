"""Route collectors and vantage-point placement.

A **vantage point** (VP) is an AS that feeds its routes to a public
route collector.  Real collector ecosystems (RouteViews, RIPE RIS) are
heavily skewed — most feeds come from transit networks in the RIPE and
ARIN regions — and that skew is one of the bias mechanisms the paper
investigates.  Placement here follows configurable region and role
weights, defaulting to the realistic skew.

Feed types follow operational reality:

* a **full feeder** treats the collector like a customer and exports
  its complete best-route table;
* a **partial feeder** treats the collector like a peer and exports
  only its own and customer-learned routes.

Community propagation is modelled at collection time: every AS on the
path tagged the route at ingress with its informational relationship
community; a tag survives to the collector iff no AS between the tagger
and the collector strips foreign communities.  Partial-transit action
communities never reach collectors (the provider strips them towards
customers and never exports the route to peers), matching footnote 11
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bgp.communities import (
    Community,
    CommunityRegistry,
    Meaning,
)
from repro.bgp.policy import AdjacencyIndex, RouteClass
from repro.bgp.propagation import compute_origin_routes
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.topology.generator import Topology
from repro.topology.graph import Role
from repro.utils.rng import child_rng

if TYPE_CHECKING:
    from repro.config import ScenarioConfig

#: RouteClass -> the informational meaning an AS tags at ingress.
_CLASS_TO_MEANING = {
    RouteClass.CUSTOMER: Meaning.LEARNED_FROM_CUSTOMER,
    RouteClass.PEER: Meaning.LEARNED_FROM_PEER,
    RouteClass.PROVIDER: Meaning.LEARNED_FROM_PROVIDER,
}


@dataclass(frozen=True)
class VantagePoint:
    """One collector feed."""

    asn: int
    full_feed: bool


def select_vantage_points(
    topology: Topology, config: "ScenarioConfig"
) -> List[VantagePoint]:
    """Pick the collector feeds with the configured region/role skew."""
    meas = config.measurement
    rng = child_rng(config.seed, "measurement.vps")
    nodes = list(topology.graph.nodes())
    weights = np.array(
        [
            meas.vp_region_weights[n.region] * meas.vp_role_weights[n.role.value]
            for n in nodes
        ],
        dtype=float,
    )
    if weights.sum() <= 0:
        raise ValueError("vantage point weights sum to zero")
    n_vps = min(meas.n_vantage_points, len(nodes))
    chosen = rng.choice(
        len(nodes), size=n_vps, replace=False, p=weights / weights.sum()
    )
    vps = []
    for idx in sorted(int(i) for i in chosen):
        asn = nodes[idx].asn
        full = bool(rng.random() < meas.full_feed_prob)
        vps.append(VantagePoint(asn=asn, full_feed=full))
    return vps


def assign_community_strippers(
    topology: Topology, config: "ScenarioConfig"
) -> Set[int]:
    """The set of ASes that strip foreign communities on export."""
    rng = child_rng(config.seed, "measurement.strippers")
    strip_prob = config.measurement.community_strip_prob
    return {
        node.asn
        for node in topology.graph.nodes()
        if rng.random() < strip_prob
    }


def surviving_communities(
    path: Tuple[int, ...],
    tree,
    communities: CommunityRegistry,
    strippers: Set[int],
) -> Tuple[Community, ...]:
    """Informational tags still on the route when it reaches the
    collector.

    Walking from the collector side: the tag applied by ``path[i]``
    survives iff none of ``path[0..i-1]`` strips foreign communities.
    The VP's own tag (i = 0) always survives.
    """
    surviving: List[Community] = []
    upstream_keeps = True
    for i in range(len(path) - 1):
        tagger = path[i]
        if i > 0:
            upstream_keeps = upstream_keeps and path[i - 1] not in strippers
            if not upstream_keeps:
                break
        tagger_class = tree.pref[tagger]
        meaning = _CLASS_TO_MEANING.get(tagger_class)
        if meaning is None:
            continue
        codebook = communities.codebook(tagger)
        surviving.append(codebook.encode(meaning))
    return tuple(surviving)


def routes_for_origin(
    tree,
    vantage_points: Iterable[VantagePoint],
    communities: CommunityRegistry,
    strippers: Set[int],
) -> List[CollectedRoute]:
    """Reduce one origin's route tree to the routes collectors record.

    The single source of truth for the feed-type filter and community
    survival — the serial collector and the parallel workers both call
    this, so the two paths cannot drift apart.  Vantage points are
    visited in list order, which fixes the route order within an origin.
    """
    routes: List[CollectedRoute] = []
    for vp in vantage_points:
        if not tree.has_route(vp.asn):
            continue
        if not vp.full_feed and tree.pref[vp.asn] not in (
            RouteClass.SELF,
            RouteClass.CUSTOMER,
        ):
            continue
        path = tree.path_from(vp.asn)
        assert path is not None
        routes.append(
            CollectedRoute(
                vp=vp.asn,
                # The AS the collector *believes* originated the route is
                # whoever sits at the path tail.  For honest trees that is
                # tree.origin; under an origin hijack the forged path ends
                # at the attacker instead.
                origin=path[-1],
                path=path,
                communities=surviving_communities(
                    path, tree, communities, strippers
                ),
            )
        )
    return routes


class RouteCollector:
    """Streams the routes of every (vantage point, origin) pair into a
    :class:`PathCorpus`."""

    def __init__(
        self,
        topology: Topology,
        vantage_points: Iterable[VantagePoint],
        communities: CommunityRegistry,
        strippers: Set[int],
        workers: int = 0,
    ) -> None:
        self.topology = topology
        self.vantage_points = list(vantage_points)
        self.communities = communities
        self.strippers = strippers
        self.adjacency = AdjacencyIndex(topology.graph)
        self.workers = workers

    def collect(
        self,
        origins: Optional[Iterable[int]] = None,
        corpus: Optional[PathCorpus] = None,
        adjacency: Optional[AdjacencyIndex] = None,
        workers: Optional[int] = None,
    ) -> PathCorpus:
        """Propagate every origin and record what the collector hears.

        Per-origin routes are computed lazily and discarded, so the
        memory footprint stays linear in the corpus, not quadratic in
        the AS count.  Each origin yields flat
        :class:`~repro.bgp.propagation.RouteArrays` columns straight off
        the shared propagation plane.  Passing an existing ``corpus``
        merges this round into it (duplicate paths are dropped by the
        corpus); passing an
        ``adjacency`` overrides the topology view, which is how churn
        rounds inject link failures.

        With ``workers`` (falling back to the collector-level setting),
        the per-origin work — route tree *and* its reduction to VP
        paths — runs in worker processes; routes cross the process
        boundary as packed array slabs
        (:class:`~repro.pipeline.columnar.RouteSlab`) and arrive in the
        exact order the serial loop would produce them, so the corpus
        is identical.
        """
        if corpus is None:
            corpus = PathCorpus()
        if adjacency is None:
            adjacency = self.adjacency
        if origins is None:
            origins = adjacency.asns
        if workers is None:
            workers = self.workers
        if workers:
            from repro.pipeline.parallel import ParallelPropagator

            propagator = ParallelPropagator(adjacency, workers=workers)
            corpus.add_routes(
                propagator.collect_routes(
                    self.vantage_points, self.communities, self.strippers,
                    origins,
                )
            )
            return corpus
        for origin in origins:
            routes = compute_origin_routes(adjacency, origin)
            corpus.add_routes(
                routes_for_origin(
                    routes, self.vantage_points, self.communities,
                    self.strippers,
                )
            )
        return corpus


def measurement_setup(
    topology: Topology,
    config: "ScenarioConfig",
    communities: Optional[CommunityRegistry] = None,
) -> Tuple[List[VantagePoint], CommunityRegistry, Set[int]]:
    """The cheap, deterministic measurement artefacts of a scenario.

    Vantage points, community codebooks and the stripper set all come
    from labelled child RNG streams of the seed, so they can be rebuilt
    identically whether or not the (expensive) corpus is served from the
    artifact cache.
    """
    if communities is None:
        communities = CommunityRegistry.build(
            topology.graph.asns(),
            child_rng(config.seed, "measurement.codebooks"),
            # Layout 0 is the classic scheme whose no-export value is
            # 990 — so the Cogent-like AS tags exactly 174:990.
            pinned_layouts={topology.cogent_asn: 0},
        )
    vps = select_vantage_points(topology, config)
    strippers = assign_community_strippers(topology, config)
    return vps, communities, strippers


def collect_rounds(
    topology: Topology,
    config: "ScenarioConfig",
    vps: List[VantagePoint],
    communities: CommunityRegistry,
    strippers: Set[int],
    workers: int = 0,
) -> PathCorpus:
    """The converged collection round plus the configured churn rounds.

    Churn rounds fail a small random subset of links and re-collect.
    The merged corpus then contains paths from several routing states,
    like a real month of table dumps — in particular, backup transit
    links show up with full triplet context.

    When the scenario carries an adversarial layer with attack events,
    a final attack round re-propagates each victim prefix jointly with
    its attacker and merges the polluted routes into the corpus (see
    :mod:`repro.adversarial.attacks`).  Without attack events this
    function is byte-identical to its honest predecessor.
    """
    collector = RouteCollector(
        topology, vps, communities, strippers, workers=workers
    )
    corpus = collector.collect()
    meas = config.measurement
    if meas.n_churn_rounds > 0:
        rng = child_rng(config.seed, "measurement.churn")
        all_links = [link.key for link in topology.graph.links()]
        for _ in range(meas.n_churn_rounds):
            failed = {
                key
                for key in all_links
                if rng.random() < meas.churn_link_failure_prob
            }
            if not failed:
                continue
            churned = AdjacencyIndex(topology.graph, exclude=failed)
            collector.collect(corpus=corpus, adjacency=churned)
    adv = config.adversarial
    if adv is not None and adv.attack.total_events() > 0:
        # Imported lazily: repro.adversarial sits above the BGP layer.
        from repro.adversarial.attacks import inject_attacks

        inject_attacks(
            topology, config, vps, communities, strippers, corpus
        )
    return corpus


def collect_corpus(
    topology: Topology,
    config: "ScenarioConfig",
    communities: Optional[CommunityRegistry] = None,
    workers: int = 0,
) -> Tuple[PathCorpus, List[VantagePoint], CommunityRegistry, Set[int]]:
    """One-call measurement layer: choose VPs, build codebooks, collect.

    Returns the corpus plus the measurement artefacts downstream layers
    need (the VP list, the community registry, and the stripper set).
    """
    vps, communities, strippers = measurement_setup(
        topology, config, communities
    )
    corpus = collect_rounds(
        topology, config, vps, communities, strippers, workers=workers
    )
    return corpus, vps, communities, strippers

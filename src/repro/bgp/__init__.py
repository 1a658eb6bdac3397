"""BGP substrate (system S4 of DESIGN.md): policies, propagation,
communities, route collection, and the looking glass."""

from repro.bgp.communities import (
    Community,
    CommunityCodebook,
    CommunityRegistry,
    Meaning,
    RELATIONSHIP_MEANINGS,
)
from repro.bgp.collectors import (
    RouteCollector,
    VantagePoint,
    assign_community_strippers,
    collect_corpus,
    collect_rounds,
    measurement_setup,
    routes_for_origin,
    select_vantage_points,
    surviving_communities,
)
from repro.bgp.lookingglass import LookingGlass, ReceivedRoute
from repro.bgp.policy import AdjacencyIndex, RouteClass, exports_to_non_customers
from repro.bgp.propagation import RouteArrays, compute_origin_routes
from repro.bgp.routingtable import RibEntry, RoutingTable

__all__ = [
    "Community",
    "CommunityCodebook",
    "CommunityRegistry",
    "Meaning",
    "RELATIONSHIP_MEANINGS",
    "RouteCollector",
    "VantagePoint",
    "assign_community_strippers",
    "collect_corpus",
    "collect_rounds",
    "measurement_setup",
    "routes_for_origin",
    "select_vantage_points",
    "surviving_communities",
    "LookingGlass",
    "ReceivedRoute",
    "AdjacencyIndex",
    "RouteClass",
    "exports_to_non_customers",
    "RouteArrays",
    "compute_origin_routes",
    "RibEntry",
    "RoutingTable",
]

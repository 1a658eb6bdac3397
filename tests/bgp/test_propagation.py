"""Tests for the route propagation (decision process) on the tiny
hand-checkable topology.

Topology reminder (see conftest): clique {10, 20} (P2P); 30 is 10's
customer, 40 is 20's customer, 30-40 peer; 35 is 10's *partial-transit*
customer with its own customer 350; 50 buys from 40; stubs 100 (from
30), 200 (from 40), 300 (from 30 and 40); siblings 60-61; special stub
70 peers with 10 and buys from 30.
"""

import pytest

from repro.bgp.policy import AdjacencyIndex, RouteClass
from tests.oracles import compute_route_tree


@pytest.fixture
def adjacency(tiny_graph):
    return AdjacencyIndex(tiny_graph)


class TestBasicRouting:
    def test_origin_has_self_route(self, adjacency):
        tree = compute_route_tree(adjacency, 100)
        assert tree.pref[100] is RouteClass.SELF
        assert tree.dist[100] == 0
        assert tree.path_from(100) == (100,)

    def test_customer_route_preferred(self, adjacency):
        # 30's route to 100: direct customer.
        tree = compute_route_tree(adjacency, 100)
        assert tree.pref[30] is RouteClass.CUSTOMER
        assert tree.path_from(30) == (30, 100)

    def test_peer_route(self, adjacency):
        # 40 reaches 100 via its peer 30 (not via provider 20).
        tree = compute_route_tree(adjacency, 100)
        assert tree.pref[40] is RouteClass.PEER
        assert tree.path_from(40) == (40, 30, 100)

    def test_provider_route(self, adjacency):
        # 200 reaches 100 via its provider 40.
        tree = compute_route_tree(adjacency, 100)
        assert tree.pref[200] is RouteClass.PROVIDER
        assert tree.path_from(200) == (200, 40, 30, 100)

    def test_clique_propagation(self, adjacency):
        # 20 hears 100 from its peer 10 (which heard it from customer 30).
        tree = compute_route_tree(adjacency, 100)
        assert tree.pref[20] is RouteClass.PEER
        assert tree.path_from(20) == (20, 10, 30, 100)

    def test_everyone_reaches_ordinary_origin(self, adjacency, tiny_graph):
        tree = compute_route_tree(adjacency, 100)
        for asn in tiny_graph.asns():
            assert tree.has_route(asn), f"AS{asn} has no route to 100"


class TestValleyFree:
    def _class_sequence(self, tiny_graph, path):
        """Relationship classes along a path, origin side first."""
        sequence = []
        for left, right in zip(path, path[1:]):
            link = tiny_graph.link(left, right)
            if link.rel.name == "P2C":
                sequence.append("down" if link.provider == left else "up")
            else:
                sequence.append("flat")
        return sequence

    def test_all_paths_valley_free(self, adjacency, tiny_graph):
        for origin in adjacency.asns:
            tree = compute_route_tree(adjacency, origin)
            for asn in tiny_graph.asns():
                path = tree.path_from(asn)
                if path is None or len(path) < 2:
                    continue
                # Read from the VP side: downs may only follow the apex;
                # once we go "down", no "up" or second "flat" may follow.
                seq = self._class_sequence(tiny_graph, path)
                state = "ascending"
                for step in seq:
                    if state == "ascending":
                        if step == "flat":
                            state = "peaked"
                        elif step == "down":
                            state = "descending"
                    elif state == "peaked":
                        assert step == "down", f"valley in {path}: {seq}"
                        state = "descending"
                    else:
                        assert step == "down", f"valley in {path}: {seq}"

    def test_no_route_through_two_peer_links(self, adjacency, tiny_graph):
        for origin in tiny_graph.asns():
            tree = compute_route_tree(adjacency, origin)
            for asn in tiny_graph.asns():
                path = tree.path_from(asn)
                if path is None:
                    continue
                flats = sum(
                    1
                    for left, right in zip(path, path[1:])
                    if tiny_graph.link(left, right).rel.name != "P2C"
                )
                assert flats <= 1


class TestPartialTransit:
    def test_provider_keeps_customer_preference(self, adjacency):
        # 10's route to 350 is a customer route, learned via 35.
        tree = compute_route_tree(adjacency, 350)
        assert tree.pref[10] is RouteClass.CUSTOMER
        assert tree.restricted[10] is True

    def test_not_exported_to_peers(self, adjacency):
        # 20 peers with 10 but must not hear 35/350 routes from it, and
        # has no other path: no route at all.
        tree = compute_route_tree(adjacency, 350)
        assert not tree.has_route(20)
        assert not tree.has_route(40)  # 40 is below 20 only
        assert not tree.has_route(200)

    def test_exported_to_customers(self, adjacency):
        # 30 is 10's customer: it receives the partial-transit route.
        tree = compute_route_tree(adjacency, 350)
        assert tree.has_route(30)
        assert tree.path_from(30) == (30, 10, 35, 350)
        # and 30's own customers get it too.
        assert tree.path_from(100) == (100, 30, 10, 35, 350)

    def test_origin_of_partial_customer_itself(self, adjacency):
        tree = compute_route_tree(adjacency, 35)
        assert not tree.has_route(20)
        assert tree.has_route(30)


class TestPathFromEdgeCases:
    """Contract of :meth:`RouteTree.path_from`, which the columnar
    corpus builder (and the collectors feeding it) relies on."""

    def test_origin_itself_is_singleton_path(self, adjacency, tiny_graph):
        # Holds for every origin, not just the stub of the basic tests.
        for origin in tiny_graph.asns():
            tree = compute_route_tree(adjacency, origin)
            assert tree.path_from(origin) == (origin,)
            assert tree.restricted[origin] is False

    def test_unrouted_as_returns_none(self, adjacency):
        # The partial-transit origin 350 never reaches 10's peer side.
        tree = compute_route_tree(adjacency, 350)
        for unrouted in (20, 40, 200):
            assert not tree.has_route(unrouted)
            assert tree.path_from(unrouted) is None

    def test_unknown_asn_returns_none(self, adjacency):
        tree = compute_route_tree(adjacency, 100)
        assert tree.path_from(999999) is None

    def test_restricted_partial_transit_paths(self, adjacency):
        # 10 holds the 350 route as restricted (partial transit): its
        # customers still get full paths through it, while the path
        # ends (None) everywhere the restricted route may not travel.
        tree = compute_route_tree(adjacency, 350)
        assert tree.restricted[10] is True
        assert tree.path_from(10) == (10, 35, 350)
        assert tree.path_from(30) == (30, 10, 35, 350)
        assert tree.path_from(100) == (100, 30, 10, 35, 350)
        assert tree.path_from(20) is None
        # Downstream holders of the re-exported route are themselves
        # unrestricted: from 30 on, it is an ordinary customer route.
        assert tree.restricted[30] is False

    def test_path_consistent_with_parent_pointers(self, adjacency, tiny_graph):
        tree = compute_route_tree(adjacency, 300)
        for asn in tiny_graph.asns():
            path = tree.path_from(asn)
            if path is None:
                continue
            # Walking parent pointers reproduces the returned tuple.
            walked = [asn]
            while tree.parent[walked[-1]] is not None:
                walked.append(tree.parent[walked[-1]])
            assert tuple(walked) == path
            assert path[-1] == 300


class TestTieBreaking:
    def test_multihomed_stub_shortest_then_lowest(self, adjacency):
        # 300 buys from 30 and 40; from 100's perspective the route via
        # 30 is shorter (100-30-300).
        tree = compute_route_tree(adjacency, 300)
        assert tree.path_from(100) == (100, 30, 300)

    def test_deterministic(self, adjacency):
        t1 = compute_route_tree(adjacency, 300)
        t2 = compute_route_tree(adjacency, 300)
        assert t1.parent == t2.parent

    def test_dist_counts_hops(self, adjacency):
        tree = compute_route_tree(adjacency, 100)
        for asn, path_len in ((30, 1), (10, 2), (20, 3), (200, 3)):
            assert tree.dist[asn] == path_len


class TestExclusions:
    def test_failed_link_reroutes(self, tiny_graph):
        adjacency = AdjacencyIndex(tiny_graph, exclude={(30, 300)})
        tree = compute_route_tree(adjacency, 300)
        # With 30-300 down, 100 must reach 300 via its provider chain.
        path = tree.path_from(100)
        assert path is not None
        assert (100, 30) == path[:2]
        assert 300 == path[-1]
        assert (30, 300) not in zip(path, path[1:])

    def test_isolated_origin_unreachable(self, tiny_graph):
        adjacency = AdjacencyIndex(tiny_graph, exclude={(30, 100)})
        tree = compute_route_tree(adjacency, 100)
        assert not tree.has_route(30)
        assert not tree.has_route(10)

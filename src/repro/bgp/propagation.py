"""Per-origin best-route computation (the BGP decision process).

For every origin AS the simulator computes the best route of *every*
other AS under Gao-Rexford policies with the classic three-stage
algorithm (customer routes first, then peer routes, then provider
routes).  The result is a shortest-path-within-preference-class tree
whose parent pointers reconstruct the exact AS path any vantage point
would export to a route collector.

Stage structure
---------------
1. **Customer routes** (export-all): breadth-first search from the
   origin along customer-to-provider edges.  Routes crossing a
   partial-transit link stop propagating upwards — the provider keeps a
   customer-*preferred* route but exports it to customers only
   (``restricted`` in the tree), reproducing the Cogent mechanism.
2. **Peer routes**: every AS holding an export-all route offers it
   across each of its peering links; the receiver adopts the best offer
   unless it already holds a customer route.
3. **Provider routes**: every routed AS exports down to its customers;
   a bucket queue by path length keeps the within-class
   shortest-path/lowest-ASN tie-break exact.

All ties are broken deterministically: shorter path first, then lower
neighbour ASN — the same convention real implementations approximate
with router IDs, and the one ASRank-style inference assumes.

Engine
------
:class:`PropagationPlane` compiles the
:class:`~repro.bgp.policy.AdjacencyIndex` once into CSR adjacency
arrays (provider/customer/peer neighbour lists plus a partial-transit
edge mask) and runs the three stages as numpy frontier passes; each
stage's tie-break is a ``lexsort`` + first-occurrence reduce instead of
a per-candidate dict race.  The result is a :class:`RouteArrays` (flat
int32 ``pref``/``dist``/``parent`` plus a ``restricted`` mask) that
collectors, the routing table and the looking glass consume directly.
The original per-origin dict BFS lives on as a test oracle
(``tests/oracles``); the differential suite in
``tests/bgp/test_propagation_differential.py`` proves the two agree
AS-for-AS on randomized topologies and byte-for-byte on full scenario
artifacts.

Adversarial (joint two-source) propagation
------------------------------------------
:func:`compute_attack_routes` runs the same three stages for a
*contested* prefix: the legitimate origin is seeded normally while an
attack source pre-claims a route of forged length ``claim_dist`` and
exports it like a customer route (the behaviour of both hijacks and
RFC 7908 route leaks).  Every adopted route carries a provenance bit
(``src``: 0 = legitimate, 1 = attack) propagated along parent
pointers, and a per-AS ``blocked`` mask — security-policy deployments
plus AS-path loop detection — drops attack-source offers in all three
stages while leaving legitimate offers untouched.  The dict oracle
implements the same joint pass; the adversarial differential suite
(``tests/adversarial/``) proves the two agree byte-for-byte on polluted
corpora.  With no attack the passes are bit-identical to the honest
code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bgp.policy import AdjacencyIndex, RouteClass

#: Sentinel distance for "no route".
_NO_ROUTE = -1

_SELF = np.int32(int(RouteClass.SELF))
_CUSTOMER = np.int32(int(RouteClass.CUSTOMER))
_PEER = np.int32(int(RouteClass.PEER))
_PROVIDER = np.int32(int(RouteClass.PROVIDER))


# ---------------------------------------------------------------------------
# propagation plane
# ---------------------------------------------------------------------------

def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) ...])`` without the Python
    loop (the vectorized range-concatenation trick)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return base + np.arange(total, dtype=np.int64) - resets


def _first_occurrence(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal keys."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


class PropagationPlane:
    """CSR compilation of an :class:`AdjacencyIndex` for array passes.

    AS ids are dense int32 indices into ``self.asns`` (ASNs sorted
    ascending), so *minimising over ids minimises over ASNs* — the
    lower-ASN tie-break of the decision process becomes a plain
    ``lexsort``/first-occurrence reduce.  Three CSR tables hold the
    directed neighbour lists (providers of, customers of, peers of);
    ``partial_up[j]`` flags the customer→provider edge
    ``prov_indices[j]`` whose P2C link is partial transit.

    Build once per adjacency (see :func:`plane_of`), propagate per
    origin with :meth:`propagate`.
    """

    def __init__(self, adj: AdjacencyIndex) -> None:
        asns = np.sort(np.asarray(adj.asns, dtype=np.int64))
        self.asns = asns
        self.n = len(asns)
        self.prov_indptr, self.prov_indices = self._csr(adj.providers, asns)
        self.cust_indptr, self.cust_indices = self._csr(adj.customers, asns)
        self.peer_indptr, self.peer_indices = self._csr(adj.peers, asns)
        partial_up = np.zeros(len(self.prov_indices), dtype=bool)
        for provider, customer in sorted(adj.partial):
            ci = self._id(customer)
            pi = self._id(provider)
            lo, hi = int(self.prov_indptr[ci]), int(self.prov_indptr[ci + 1])
            pos = lo + int(np.searchsorted(self.prov_indices[lo:hi], pi))
            if pos >= hi or int(self.prov_indices[pos]) != pi:
                raise ValueError(
                    f"partial-transit link ({provider}, {customer}) not in "
                    "the adjacency index"
                )
            partial_up[pos] = True
        self.partial_up = partial_up

    @staticmethod
    def _csr(
        table: Dict[int, List[int]], asns: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(asns)
        asn_list = asns.tolist()
        counts = np.fromiter(
            (len(table[a]) for a in asn_list), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        flat = np.fromiter(
            (x for a in asn_list for x in table[a]),
            dtype=np.int64,
            count=total,
        )
        # Neighbour lists are ASN-sorted, so the id lists stay sorted.
        indices = np.searchsorted(asns, flat).astype(np.int32)
        return indptr, indices

    # ------------------------------------------------------------------
    def _id(self, asn: int) -> int:
        """Dense id of ``asn`` (raises ``KeyError`` when unknown)."""
        pos = int(np.searchsorted(self.asns, asn))
        if pos >= self.n or int(self.asns[pos]) != asn:
            raise KeyError(f"AS{asn} not in plane")
        return pos

    def id_or_none(self, asn: int) -> Optional[int]:
        pos = int(np.searchsorted(self.asns, asn))
        if pos >= self.n or int(self.asns[pos]) != asn:
            return None
        return pos

    @staticmethod
    def _out_edges(
        indptr: np.ndarray, frontier: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(edge positions, repeated senders) for a frontier id array."""
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        positions = _concat_ranges(starts, counts)
        senders = np.repeat(frontier, counts)
        return positions, senders

    # ------------------------------------------------------------------
    def propagate(
        self,
        origin: int,
        attack: Optional[Tuple[int, int, np.ndarray]] = None,
    ) -> "RouteArrays":
        """Run the three-stage decision process for one origin.

        Pure array passes; the returned :class:`RouteArrays` holds the
        full per-AS ``pref``/``dist``/``parent``/``restricted`` columns.

        ``attack`` switches to the joint two-source pass for a contested
        prefix: ``(attacker_asn, claim_dist, blocked)`` pre-claims the
        attack source with an export-all route of forged length
        ``claim_dist`` and drops attack-source offers at every AS whose
        ``blocked`` flag (a bool column over plane ids) is set.  The
        ``src_arr`` provenance column of the result marks which source
        each route descends from.  With ``attack=None`` every pass is
        bit-identical to the honest single-source computation.
        """
        n = self.n
        o = self._id(origin)
        pref = np.full(n, _NO_ROUTE, dtype=np.int32)
        dist = np.zeros(n, dtype=np.int32)
        parent = np.full(n, -1, dtype=np.int32)
        restricted = np.zeros(n, dtype=bool)
        src: Optional[np.ndarray] = None
        blocked: Optional[np.ndarray] = None
        a = -1
        if attack is not None:
            attacker, claim_dist, blocked = attack
            a = self._id(attacker)
            if a == o:
                raise ValueError("attack source cannot be the origin")
            src = np.zeros(n, dtype=np.int8)
            src[a] = 1
            pref[a] = _SELF
            dist[a] = np.int32(claim_dist)
        pref[o] = _SELF

        # ---- stage 1: customer routes (frontier BFS upward) ----------
        # Level-bucketed BFS: ``pending[d]`` holds export-all holders
        # whose route length is ``d``.  The honest case degenerates to
        # the contiguous frontier walk; an attack source with a forged
        # claim length simply enters its bucket late.
        pending: Dict[int, List[np.ndarray]] = {
            0: [np.array([o], dtype=np.int32)]
        }
        if src is not None:
            pending.setdefault(int(dist[a]), []).append(
                np.array([a], dtype=np.int32)
            )
        level = 0
        while pending:
            if level not in pending:
                level = min(pending)
            frontier = np.concatenate(pending.pop(level))
            positions, senders = self._out_edges(self.prov_indptr, frontier)
            targets = self.prov_indices[positions]
            partial = self.partial_up[positions]
            keep = pref[targets] == _NO_ROUTE
            if src is not None:
                keep &= ~(blocked[targets] & (src[senders] == 1))
            targets, senders, partial = (
                targets[keep], senders[keep], partial[keep],
            )
            if targets.size:
                # Lowest child ASN wins each provider: sort by (target,
                # sender id) and take each target's first row — ids are
                # ASN-ordered, so min id is min ASN.
                order = np.lexsort((senders, targets))
                targets, senders, partial = (
                    targets[order], senders[order], partial[order],
                )
                first = _first_occurrence(targets)
                targets, senders, partial = (
                    targets[first], senders[first], partial[first],
                )
                pref[targets] = _CUSTOMER
                dist[targets] = level + 1
                parent[targets] = senders
                restricted[targets] = partial
                if src is not None:
                    src[targets] = src[senders]
                # Restricted holders keep the route but stop exporting
                # up.
                nxt = targets[~partial]
                if nxt.size:
                    pending.setdefault(level + 1, []).append(nxt)
            level += 1

        # ---- stage 2: peer routes (one offer pass) -------------------
        exporters = np.flatnonzero(
            (pref == _SELF) | ((pref == _CUSTOMER) & ~restricted)
        ).astype(np.int32)
        positions, senders = self._out_edges(self.peer_indptr, exporters)
        receivers = self.peer_indices[positions]
        keep = pref[receivers] == _NO_ROUTE
        if src is not None:
            keep &= ~(blocked[receivers] & (src[senders] == 1))
        receivers, senders = receivers[keep], senders[keep]
        if receivers.size:
            sender_dist = dist[senders]
            # Best offer per receiver: shortest sender path, then lowest
            # sender ASN.
            order = np.lexsort((senders, sender_dist, receivers))
            receivers, senders, sender_dist = (
                receivers[order], senders[order], sender_dist[order],
            )
            first = _first_occurrence(receivers)
            receivers, senders, sender_dist = (
                receivers[first], senders[first], sender_dist[first],
            )
            pref[receivers] = _PEER
            dist[receivers] = sender_dist + 1
            parent[receivers] = senders
            if src is not None:
                src[receivers] = src[senders]

        # ---- stage 3: provider routes (bucket-queue descent) ---------
        routed = np.flatnonzero(pref != _NO_ROUTE).astype(np.int32)
        if routed.size:
            order = np.argsort(dist[routed], kind="stable")
            routed = routed[order]
            routed_dist = dist[routed]
            max_level = int(routed_dist[-1])
            added: Dict[int, np.ndarray] = {}
            level = 0
            while level <= max_level:
                lo = int(np.searchsorted(routed_dist, level, side="left"))
                hi = int(np.searchsorted(routed_dist, level, side="right"))
                extra = added.pop(level, None)
                if hi > lo and extra is not None:
                    senders_now = np.concatenate((routed[lo:hi], extra))
                elif hi > lo:
                    senders_now = routed[lo:hi]
                else:
                    senders_now = extra
                if senders_now is not None and senders_now.size:
                    positions, senders = self._out_edges(
                        self.cust_indptr, senders_now
                    )
                    customers = self.cust_indices[positions]
                    keep = pref[customers] == _NO_ROUTE
                    if src is not None:
                        keep &= ~(blocked[customers] & (src[senders] == 1))
                    customers, senders = customers[keep], senders[keep]
                    if customers.size:
                        order = np.lexsort((senders, customers))
                        customers, senders = customers[order], senders[order]
                        first = _first_occurrence(customers)
                        customers, senders = customers[first], senders[first]
                        pref[customers] = _PROVIDER
                        dist[customers] = level + 1
                        parent[customers] = senders
                        if src is not None:
                            src[customers] = src[senders]
                        added[level + 1] = customers
                        if level + 1 > max_level:
                            max_level = level + 1
                level += 1

        return RouteArrays(
            origin=origin,
            plane=self,
            pref_arr=pref,
            dist_arr=dist,
            parent_arr=parent,
            restricted_arr=restricted,
            src_arr=src,
        )


class _ClassView:
    """Read-only ``pref[asn] -> RouteClass`` view over the pref column.

    Mapping protocol where consumers use it: ``[]`` raises ``KeyError``
    for unrouted or unknown ASes, ``in`` tests route existence.
    """

    __slots__ = ("_routes",)

    def __init__(self, routes: "RouteArrays") -> None:
        self._routes = routes

    def __getitem__(self, asn: int) -> RouteClass:
        routes = self._routes
        i = routes.plane.id_or_none(asn)
        if i is None or routes.pref_arr[i] == _NO_ROUTE:
            raise KeyError(asn)
        return RouteClass(int(routes.pref_arr[i]))

    def __contains__(self, asn: int) -> bool:
        return self._routes.has_route(asn)


@dataclass
class RouteArrays:
    """Vectorized best routes of every AS towards one origin.

    ``pref_arr`` / ``dist_arr`` / ``parent_arr`` are int32 columns
    indexed by dense plane id (``pref_arr == -1`` means no route;
    ``parent_arr`` holds plane ids, ``-1`` at the origin),
    ``restricted_arr`` is the partial-transit mask.  Collectors read it
    through ``has_route`` / ``path_from`` / ``pref[asn]`` / ``origin``.
    """

    origin: int
    plane: PropagationPlane
    pref_arr: np.ndarray
    dist_arr: np.ndarray
    parent_arr: np.ndarray
    restricted_arr: np.ndarray
    #: Provenance column for joint two-source (attack) propagation:
    #: 0 = legitimate origin, 1 = attack source.  ``None`` on honest
    #: single-source results.
    src_arr: Optional[np.ndarray] = None

    @property
    def pref(self) -> _ClassView:
        return _ClassView(self)

    def has_route(self, asn: int) -> bool:
        i = self.plane.id_or_none(asn)
        return i is not None and self.pref_arr[i] != _NO_ROUTE

    def routed_ids(self) -> np.ndarray:
        """Dense ids of every AS holding a route (ascending)."""
        return np.flatnonzero(self.pref_arr != _NO_ROUTE)

    def path_from(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the origin (inclusive), or ``None``."""
        i = self.plane.id_or_none(asn)
        if i is None or self.pref_arr[i] == _NO_ROUTE:
            return None
        asns = self.plane.asns
        parent = self.parent_arr
        path: List[int] = [int(asns[i])]
        current = i
        while True:
            current = int(parent[current])
            if current < 0:
                break
            path.append(int(asns[current]))
            if len(path) > self.plane.n + 1:
                raise RuntimeError("parent-pointer loop in route arrays")
        return tuple(path)


def plane_of(adj: AdjacencyIndex) -> PropagationPlane:
    """The (cached) propagation plane of an adjacency index.

    The plane is derived once and memoised on the adjacency object —
    the same idiom as the index's neighbour-set caches — so per-origin
    sweeps, `RoutingTable.compute`, and the parallel workers all share
    one build per adjacency.
    """
    plane = getattr(adj, "_plane_cache", None)
    if plane is None:
        plane = PropagationPlane(adj)
        adj._plane_cache = plane
    return plane


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def compute_origin_routes(adj: AdjacencyIndex, origin: int) -> RouteArrays:
    """One origin's routes as :class:`RouteArrays` off the shared plane."""
    return plane_of(adj).propagate(origin)


def compute_attack_routes(
    adj: AdjacencyIndex,
    origin: int,
    attacker: int,
    claim_dist: int,
    blocked: Iterable[int] = (),
) -> RouteArrays:
    """Joint two-source routes for a prefix contested by an attacker.

    The legitimate ``origin`` is seeded normally; ``attacker``
    pre-claims a route whose announced AS path has ``claim_dist``
    additional hops (0 for an origin hijack, 1 for a forged-origin
    hijack, the leaked route's real length for a route leak) and
    exports it to every neighbour like a customer route.  ``blocked``
    ASes — security-policy deployers that detect this event class plus
    the ASes already on the forged path suffix (BGP loop detection) —
    never adopt attack-source routes but keep participating in
    legitimate propagation.
    """
    if origin == attacker:
        raise ValueError("attack source cannot be the origin AS")
    if claim_dist < 0:
        raise ValueError(f"claim_dist must be >= 0, got {claim_dist}")
    plane = plane_of(adj)
    blocked_arr = np.zeros(plane.n, dtype=bool)
    for asn in sorted(blocked):
        i = plane.id_or_none(asn)
        if i is not None:
            blocked_arr[i] = True
    return plane.propagate(origin, attack=(attacker, claim_dist, blocked_arr))

"""Reference implementations that exist only to check the fast paths.

``src/`` has one runtime path per layer.  The slow, obviously-correct
implementations it replaced live here, and the differential gates
inject them into the pipeline instead of selecting them at run time.

* ``propagation._compute_route_tree_legacy`` — the per-origin dict
  BFS.  Checks ``PropagationPlane.propagate`` behind
  ``compute_origin_routes``.  Gates: the 24-topology AS-for-AS matrix
  and the seeds 3/5/11 scenario byte identity in
  ``tests/bgp/test_propagation_differential.py``, plus
  ``tests/bgp/test_routingtable.py``.
* ``propagation._compute_attack_tree_legacy`` — the joint two-source
  dict BFS.  Checks the attack pass behind ``compute_attack_routes``.
  Gates: the 8-seed x 4-variant polluted-corpus matrix in
  ``tests/adversarial/test_engine_differential.py``, plus the joint
  propagation unit tests in ``tests/adversarial/test_attacks.py``.
* ``propagation.RouteTree`` / ``to_route_tree`` — the dict view of a
  ``RouteArrays`` result, for value-level comparisons in the gates
  above and in the propagation unit tests.
* ``corpus.OraclePathCorpus`` — the eager dict/set corpus indices
  (``_LegacyIndex``).  Checks every ``PathCorpus`` derived view served
  from ``ColumnarIndices``.  Gate: the as-rel and cache-artifact sha256
  matrix on seeds 3/5/11 in
  ``tests/pipeline/test_columnar_equivalence.py``.

Injection.  :func:`dict_propagation` patches the propagation entry
points at the attributes the pipeline looks them up by
(:data:`ORIGIN_ROUTE_SITES`, :data:`ATTACK_ROUTE_SITES`) with the dict
oracle, packed into :class:`~repro.bgp.propagation.RouteArrays` on the
same plane, so the collectors, routing table and attack injection see
the one representation they always see.  :func:`dict_corpus_filter`
does the same for TopoScope's per-group sub-corpora.  Both yield a call
counter: a gate asserts it is non-zero, so it can never silently
compare the runtime engine with itself.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import pytest

from tests.oracles.corpus import OraclePathCorpus, oracle_filter_by_vps
from tests.oracles.propagation import (
    RouteTree,
    compute_route_tree,
    oracle_attack_routes,
    oracle_origin_routes,
    to_route_tree,
)

#: Modules whose ``compute_origin_routes`` attribute the pipeline calls.
ORIGIN_ROUTE_SITES = (
    "repro.bgp.collectors",
    "repro.bgp.routingtable",
    "repro.adversarial.attacks",
)

#: Modules whose ``compute_attack_routes`` attribute the pipeline calls.
ATTACK_ROUTE_SITES = ("repro.adversarial.attacks",)


@contextmanager
def dict_propagation() -> Iterator[Counter]:
    """Run every propagation inside the block on the dict oracle.

    Yields a :class:`~collections.Counter` of oracle calls keyed
    ``"origin"`` and ``"attack"``.
    """
    calls: Counter = Counter()

    def origin_routes(adj, origin):
        calls["origin"] += 1
        return oracle_origin_routes(adj, origin)

    def attack_routes(*args, **kwargs):
        calls["attack"] += 1
        return oracle_attack_routes(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in ORIGIN_ROUTE_SITES:
            patch.setattr(f"{module}.compute_origin_routes", origin_routes)
        for module in ATTACK_ROUTE_SITES:
            patch.setattr(f"{module}.compute_attack_routes", attack_routes)
        yield calls


@contextmanager
def dict_corpus_filter() -> Iterator[Counter]:
    """Keep TopoScope's per-group sub-corpora on the corpus oracle.

    Yields a :class:`~collections.Counter` of ``"filter"`` calls.
    """
    calls: Counter = Counter()

    def filter_by_vps(corpus, vps):
        calls["filter"] += 1
        return oracle_filter_by_vps(corpus, vps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.inference.toposcope.filter_by_vps", filter_by_vps)
        yield calls


__all__ = [
    "ATTACK_ROUTE_SITES",
    "ORIGIN_ROUTE_SITES",
    "OraclePathCorpus",
    "RouteTree",
    "compute_route_tree",
    "dict_corpus_filter",
    "dict_propagation",
    "oracle_attack_routes",
    "oracle_filter_by_vps",
    "oracle_origin_routes",
    "to_route_tree",
]

"""Equal fingerprints must build equal scenarios.

``ScenarioConfig.fingerprint()`` ignores the insertion order of mapping
fields, and ``config_from_canonical`` rebuilds them in sorted-key order
(the path by which a service worker admits a scenario a sibling built).
Every consumer must therefore read those mappings order-independently,
or two configs with one fingerprint draw different topologies and a
warm-admitted corpus gets paired with the wrong one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.collectors import collect_corpus
from repro.config import ScenarioConfig, config_from_canonical
from repro.topology.generator import generate_topology
from repro.topology.regions import Region


def _link_list(topology):
    return [
        (link.provider, link.customer, link.rel, link.partial_transit)
        for link in topology.graph.links()
    ]


def _corpus_digest(topology, config) -> str:
    corpus, _, _, _ = collect_corpus(topology, config)
    cols = corpus.columns()
    digest = hashlib.sha256()
    for column in (cols.hops, cols.offsets, cols.comm_route,
                   cols.comm_owner, cols.comm_value):
        digest.update(column.tobytes())
    return digest.hexdigest()


def _permuted(value, rng: random.Random):
    """``value`` with every (nested) mapping rebuilt in a shuffled
    insertion order; dataclasses are copied field by field."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: _permuted(getattr(value, f.name), rng)
            for f in dataclasses.fields(value)
        })
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _permuted(value[key], rng) for key in keys}
    return value


_REGION_COUNTS = st.fixed_dictionaries({
    Region.ARIN: st.integers(1, 4),
    Region.RIPE: st.integers(0, 3),
    Region.APNIC: st.integers(0, 2),
    Region.LACNIC: st.integers(0, 1),
    Region.AFRINIC: st.integers(0, 1),
})


@st.composite
def small_configs(draw) -> ScenarioConfig:
    """Random valid few-hundred-AS configs with random special-AS mixes."""
    config = ScenarioConfig.small(seed=draw(st.integers(0, 10_000)))
    config.topology.n_ases = 150
    config.topology.clique_per_region = {
        region: count
        for region, count in draw(_REGION_COUNTS).items() if count
    }
    config.topology.hypergiants_per_region = {
        region: count
        for region, count in draw(_REGION_COUNTS).items() if count
    }
    config.measurement.n_vantage_points = 15
    config.measurement.n_churn_rounds = 0
    config.validate()
    return config


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs(), st.integers(0, 2**32 - 1))
def test_mapping_insertion_order_never_changes_the_scenario(config, seed):
    permuted = _permuted(config, random.Random(seed))
    permuted.validate()
    assert permuted.fingerprint() == config.fingerprint()
    topology = generate_topology(config)
    topology_again = generate_topology(permuted)
    assert _link_list(topology_again) == _link_list(topology)
    assert _corpus_digest(topology_again, permuted) == _corpus_digest(
        topology, config
    )


def test_round_tripped_small_config_builds_the_same_topology():
    """``config_from_canonical`` reorders ``clique_per_region`` to
    ``{APNIC, ARIN, RIPE}``; the topology must not notice."""
    config = ScenarioConfig.small(seed=7)
    again = config_from_canonical(config.canonical_dict())
    assert list(again.topology.clique_per_region) != list(
        config.topology.clique_per_region
    )
    assert again.fingerprint() == config.fingerprint()
    assert _link_list(generate_topology(again)) == _link_list(
        generate_topology(config)
    )

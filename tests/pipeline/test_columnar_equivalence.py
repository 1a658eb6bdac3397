"""Columnar vs dict-oracle byte-equality matrix.

The columnar engine's hard invariant is that it changes *nothing* about
the science: over several seeds, every inference algorithm must emit a
byte-identical as-rel serialisation whether the corpus answers from the
columnar index (the runtime path) or from the eager dict indices of
:class:`tests.oracles.OraclePathCorpus`, and the cache artifact written
for either must be the same file, bit for bit.
"""

import hashlib

import pytest

from repro.bgp.collectors import collect_corpus
from repro.config import ScenarioConfig
from repro.datasets.asrel import write_asrel
from repro.inference.asrank import ASRank
from repro.inference.base import infer_clique
from repro.inference.features import LinkFeatureExtractor
from repro.inference.problink import ProbLink
from repro.inference.toposcope import TopoScope
from repro.pipeline.cache import ArtifactCache
from repro.topology.generator import generate_topology
from tests.oracles import OraclePathCorpus, dict_corpus_filter

SEEDS = (3, 5, 11)

_ALGORITHMS = {
    "asrank": ASRank,
    "problink": ProbLink,
    "toposcope": TopoScope,
}


def _config(seed: int) -> ScenarioConfig:
    config = ScenarioConfig.default().replace(seed=seed)
    config.topology.n_ases = 150
    config.measurement.n_vantage_points = 20
    config.measurement.n_churn_rounds = 1
    return config


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def corpora(request):
    """(config, columnar corpus, oracle corpus) with identical routes."""
    config = _config(request.param)
    topology = generate_topology(config)
    columnar, _, _, _ = collect_corpus(topology, config)
    legacy = OraclePathCorpus()
    legacy.add_routes(columnar.routes())
    assert len(legacy) == len(columnar)
    return config, columnar, legacy


def _asrel_bytes(rels, path) -> bytes:
    write_asrel(rels, path)
    return path.read_bytes()


@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
def test_identical_relationships(corpora, algorithm, tmp_path):
    _, columnar, legacy = corpora
    factory = _ALGORITHMS[algorithm]
    from_columnar = _asrel_bytes(
        factory().infer(columnar), tmp_path / "columnar.asrel"
    )
    with dict_corpus_filter() as oracle_calls:
        from_legacy = _asrel_bytes(
            factory().infer(legacy), tmp_path / "legacy.asrel"
        )
    if algorithm == "toposcope":
        # TopoScope's per-group sub-corpora stayed on the oracle.
        assert oracle_calls["filter"] > 0
    assert from_columnar == from_legacy


def test_discrete_features_match_per_link_oracle(corpora):
    """The array-pass ``discrete_all`` on the columnar corpus equals the
    per-link ``discrete`` read off the oracle's dict views (the
    comparison ProbLink's features rest on)."""
    _, columnar, legacy = corpora
    clique = infer_clique(columnar)
    batch = LinkFeatureExtractor(columnar, clique).discrete_all()
    oracle = LinkFeatureExtractor(legacy, clique)
    assert list(batch) == legacy.visible_links()
    assert batch == {key: oracle.discrete(key) for key in batch}


def test_identical_cache_artifact_fingerprints(corpora, tmp_path):
    config, columnar, legacy = corpora
    cache_a = ArtifactCache(root=tmp_path / "a")
    cache_b = ArtifactCache(root=tmp_path / "b")
    key = cache_a.scenario_key(config)
    assert cache_b.scenario_key(config) == key
    artifact_a = cache_a.store_corpus(key, columnar, config)
    artifact_b = cache_b.store_corpus(key, legacy, config)
    digest_a = hashlib.sha256(artifact_a.read_bytes()).hexdigest()
    digest_b = hashlib.sha256(artifact_b.read_bytes()).hexdigest()
    assert digest_a == digest_b
    # The memory-mapped reload of that artifact serves the same corpus.
    reloaded = cache_a.load_corpus(key)
    assert reloaded is not None
    assert reloaded.stats() == columnar.stats()
    assert sorted(reloaded.visible_links()) == sorted(
        columnar.visible_links()
    )

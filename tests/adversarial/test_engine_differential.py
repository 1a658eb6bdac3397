"""Engine differential matrix for polluted corpora, plus the no-attack
byte regression.

The acceptance bar of the adversarial PR:

* across 8 seeds × {hijack, leak, RPKI-partial, ASPA-partial}, the
  vectorized propagation engine and the injected dict oracle
  (``tests/oracles``) produce **byte-identical** polluted corpus
  artifacts;
* with no ``AttackConfig``, the clean seed-7 small-scenario artifacts
  (fingerprint, cache key, corpus.npc bytes, per-algorithm as-rel
  bytes) are unchanged from the pre-adversarial tree.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ScenarioConfig, small_scenario
from repro.adversarial.attacks import plan_events
from repro.bgp.collectors import collect_rounds, measurement_setup
from repro.config import AdversarialConfig
from repro.pipeline.cache import ArtifactCache
from repro.topology.generator import generate_topology
from tests.oracles import dict_propagation

SEEDS = (3, 5, 7, 11, 13, 17, 19, 23)

#: One adversarial layer per matrix column.
VARIANTS = {
    "hijack": {
        "attack": {"n_origin_hijacks": 2, "n_forged_origin_hijacks": 2},
    },
    "leak": {
        "attack": {"n_route_leaks": 3},
        "deployments": [
            {"policy": "leak_prone", "strategy": "random", "fraction": 0.5},
        ],
    },
    "rpki_partial": {
        "attack": {"n_origin_hijacks": 3},
        "deployments": [
            {"policy": "rpki", "strategy": "top_cone", "top_n": 20},
        ],
    },
    "aspa_partial": {
        "attack": {"n_forged_origin_hijacks": 2, "n_route_leaks": 2},
        "deployments": [
            {"policy": "aspa", "strategy": "random", "fraction": 0.4},
        ],
    },
}

# Clean seed-7 small-scenario artifact digests captured before the
# adversarial subsystem landed (PR 6 tree).  The no-attack regression
# below recomputes them from scratch; any drift means honest scenarios
# are no longer byte-stable.
CLEAN_FINGERPRINT = (
    "4612308419b8c9ca425897c7be9c3c388ff81d13e8794eeca764c8f89a0e7046"
)
# The cache key also hashes the pipeline cache version, so it moves with
# every deliberate version bump (version 3: the region-order fix in the
# topology generator) while the fingerprint and artifact bytes must not.
CLEAN_CACHE_KEY = "8522e4325d05f2e56a7a"
CLEAN_SHA256 = {
    "corpus": "92603a8e8de9c49c12657354de7e22902bfe711cc79c8eb8519d9cfb65d7edf7",
    "asrank": "7c657d28c9e8900a3572caa8f5cc433a6b3c3b021d99b3a81b91b052b0a8a1e3",
    "problink": "1af749ccab5ece9775db63283fef90b8130235e09db6135593b0dc2a385f3997",
    "toposcope": "4dad136af29ab8c322c704ce9130f1bbd7e0dfec1c1658063b92a1b40006c690",
}


def _base_config(seed: int) -> ScenarioConfig:
    """A fast differential scenario: ~140 ASes, no churn."""
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 140
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 0
    return config


def _corpus_digest(topology, config, setup, cache_root) -> str:
    vps, communities, strippers = setup
    corpus = collect_rounds(
        topology, config, vps, communities, strippers
    )
    cache = ArtifactCache(cache_root)
    path = cache.store_corpus(cache.scenario_key(config), corpus, config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_polluted_corpora_byte_identical_across_engines(seed, tmp_path):
    clean_config = _base_config(seed)
    topology = generate_topology(clean_config)
    setup = measurement_setup(topology, clean_config)
    digests = {}
    for variant in sorted(VARIANTS):
        config = clean_config.replace(
            adversarial=AdversarialConfig.from_dict(VARIANTS[variant])
        )
        # The matrix is vacuous unless the plan actually fires events.
        assert plan_events(topology, config), (seed, variant)
        digests[(variant, "vectorized")] = _corpus_digest(
            topology, config, setup, tmp_path / f"{variant}-vectorized"
        )
        with dict_propagation() as oracle_calls:
            digests[(variant, "legacy")] = _corpus_digest(
                topology, config, setup, tmp_path / f"{variant}-legacy"
            )
        # Both passes of the collection ran on the oracle, or the gate
        # would compare the runtime engine with itself.
        assert oracle_calls["origin"] > 0, (seed, variant)
        assert oracle_calls["attack"] > 0, (seed, variant)
        assert (
            digests[(variant, "vectorized")] == digests[(variant, "legacy")]
        ), f"engine mismatch for seed={seed} variant={variant}"
    clean_digest = _corpus_digest(
        topology, clean_config, setup, tmp_path / "clean"
    )
    polluted = {
        digests[(variant, "vectorized")] for variant in VARIANTS
    }
    assert polluted - {clean_digest}, (
        f"no variant changed the corpus at seed={seed} — pollution "
        "never reached a collector"
    )


def test_clean_seed7_artifacts_unchanged_from_pr6(tmp_path):
    """Honest scenarios are byte-identical to the pre-adversarial tree."""
    scenario = small_scenario(seed=7)
    config = scenario.config
    assert config.adversarial is None
    assert config.fingerprint() == CLEAN_FINGERPRINT
    cache = ArtifactCache(tmp_path)
    key = cache.scenario_key(config)
    assert key == CLEAN_CACHE_KEY
    path = cache.store_corpus(key, scenario.corpus, config)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == CLEAN_SHA256["corpus"]
    )
    for algorithm in ("asrank", "problink", "toposcope"):
        rels_path = cache.store_rels(
            key, algorithm, scenario.infer(algorithm), config
        )
        assert (
            hashlib.sha256(rels_path.read_bytes()).hexdigest()
            == CLEAN_SHA256[algorithm]
        ), f"{algorithm} as-rel bytes drifted from the PR 6 baseline"


def test_adversarial_layer_changes_fingerprint_and_cache_key(tmp_path):
    clean = _base_config(3)
    polluted = clean.replace(
        adversarial=AdversarialConfig.from_dict(VARIANTS["hijack"])
    )
    assert clean.fingerprint() != polluted.fingerprint()
    cache = ArtifactCache(tmp_path)
    assert cache.scenario_key(clean) != cache.scenario_key(polluted)
    # Two structurally equal adversarial layers fingerprint identically.
    again = clean.replace(
        adversarial=AdversarialConfig.from_dict(VARIANTS["hijack"])
    )
    assert again.fingerprint() == polluted.fingerprint()

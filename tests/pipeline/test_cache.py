"""Artifact-cache correctness: round-trips, keys, invalidation, recovery.

The cache must be *transparent* — a warm build returns exactly what a
cold build computes — and *safe* — a stale or corrupted cache can only
cost a recompute, never an error or a wrong result.  Both properties
are asserted here directly against :class:`ArtifactCache` and through
``build_scenario``.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

import pytest

import repro.scenario as scenario_module
from repro import ScenarioConfig, build_scenario, cli
from repro.datasets.asrel import RelationshipSet, write_asrel
from repro.datasets.bgpdump import write_path_corpus
from repro.datasets.validationset import read_validation_set, write_validation_set
from repro.pipeline.cache import ArtifactCache, default_cache_root, resolve_cache
from repro.pipeline.fsops import CacheFilesystem
from repro.service.pool import scenario_id
from repro.validation.cleaning import MultiLabelPolicy

SEEDS = (3, 5, 11)


def tiny_config(seed: int = 3) -> ScenarioConfig:
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 180
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 2
    return config


@lru_cache(maxsize=None)
def cold_build(seed: int):
    """Uncached reference builds, shared across the assertions below."""
    return build_scenario(tiny_config(seed))


def corpus_bytes(corpus, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_path_corpus(corpus, path)
    return path.read_bytes()


def rels_bytes(rels, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_asrel(rels, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

class TestScenarioKey:
    def test_same_config_same_key(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        assert cache.scenario_key(tiny_config(3)) == cache.scenario_key(
            tiny_config(3)
        )

    def test_different_configs_different_keys(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        base = cache.scenario_key(tiny_config(3))
        assert cache.scenario_key(tiny_config(5)) != base
        bigger = tiny_config(3)
        bigger.topology.n_ases = 200
        assert cache.scenario_key(bigger) != base
        more_vps = tiny_config(3)
        more_vps.measurement.n_vantage_points = 30
        assert cache.scenario_key(more_vps) != base

    def test_code_version_participates_in_key(self, tmp_path):
        old = ArtifactCache(root=tmp_path, code_version="A")
        new = ArtifactCache(root=tmp_path, code_version="B")
        config = tiny_config(3)
        assert old.scenario_key(config) != new.scenario_key(config)

    def test_key_is_stable_hex(self, tmp_path):
        config = tiny_config(3)
        key = ArtifactCache(root=tmp_path).scenario_key(config)
        fingerprint, tag = key.split("-")
        assert fingerprint == config.fingerprint()[:20]
        assert len(tag) == 8
        int(tag, 16)  # raises if not hex


# ---------------------------------------------------------------------------
# artifact round-trips
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_corpus_round_trip(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path / "cache")
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        loaded = cache.load_corpus(key)
        assert cache.hits == 1 and cache.misses == 0
        assert corpus_bytes(loaded, tmp_path, "a") == corpus_bytes(
            scenario.corpus, tmp_path, "b"
        )

    def test_rels_round_trip(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path / "cache")
        key = cache.scenario_key(scenario.config)
        rels = scenario.infer("asrank")
        cache.store_rels(key, "asrank", rels, scenario.config)
        loaded = cache.load_rels(key, "asrank")
        assert rels_bytes(loaded, tmp_path, "a") == rels_bytes(
            rels, tmp_path, "b"
        )
        # Algorithms are separate artifacts — no cross-talk.
        assert cache.load_rels(key, "gao") is None

    def test_validation_round_trip_per_policy(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path / "cache")
        key = cache.scenario_key(scenario.config)
        cache.store_validation(
            key, MultiLabelPolicy.IGNORE, scenario.validation, scenario.config
        )
        loaded = cache.load_validation(key, MultiLabelPolicy.IGNORE)
        assert loaded.rels == scenario.validation.rels
        assert (
            loaded.report.as_dict() == scenario.validation.report.as_dict()
        )
        # A different cleaning policy is a different artifact.
        assert cache.load_validation(key, MultiLabelPolicy.ALWAYS_P2C) is None

    def test_validationset_serializer_round_trip(self, tmp_path):
        cleaned = cold_build(3).validation
        path = tmp_path / "val.txt"
        write_validation_set(cleaned, path)
        again = read_validation_set(path)
        assert again.rels == cleaned.rels
        assert again.report == cleaned.report


# ---------------------------------------------------------------------------
# invalidation and recovery
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_stale_code_version_is_a_miss(self, tmp_path):
        scenario = cold_build(3)
        writer = ArtifactCache(root=tmp_path, code_version="A")
        reader = ArtifactCache(root=tmp_path, code_version="B")
        # Code versions never share a key, so plant code A's record
        # under code B's key by hand: the meta record disagrees, so the
        # entry is treated as foreign, purged, and reported as a miss.
        key = reader.scenario_key(scenario.config)
        writer.store_corpus(key, scenario.corpus, scenario.config)
        assert reader.load_corpus(key) is None
        assert reader.misses == 1
        assert not (tmp_path / key).exists()

    def test_tampered_meta_purges_entry(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        (tmp_path / key / "meta.json").write_text("{not json", encoding="utf-8")
        assert cache.load_corpus(key) is None
        assert not (tmp_path / key).exists()

    def test_corrupted_artifact_discarded_not_fatal(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        corpus_path = tmp_path / key / "corpus.npc"
        corpus_path.write_text("@@ definitely not a path corpus @@\n",
                               encoding="utf-8")
        assert cache.load_corpus(key) is None
        assert not corpus_path.exists(), "corrupt artifact must be dropped"
        # The entry itself survives (meta is fine) and a rebuild through
        # build_scenario repopulates it.
        rebuilt = build_scenario(scenario.config, cache=cache)
        assert corpus_path.exists()
        assert rebuilt.validation.rels == scenario.validation.rels

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        assert cache.load_corpus("0" * 20) is None
        assert cache.misses == 1 and cache.hits == 0


# ---------------------------------------------------------------------------
# build_scenario integration
# ---------------------------------------------------------------------------

class TestBuildScenarioCaching:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cached_build_identical_to_uncached(self, seed, tmp_path):
        cold_ref = cold_build(seed)
        cache = ArtifactCache(root=tmp_path / "cache")
        first = build_scenario(tiny_config(seed), cache=cache)
        warm = build_scenario(tiny_config(seed), cache=cache)
        for scenario in (first, warm):
            assert corpus_bytes(
                scenario.corpus, tmp_path, "got"
            ) == corpus_bytes(cold_ref.corpus, tmp_path, "ref")
            assert scenario.validation.rels == cold_ref.validation.rels
            assert rels_bytes(
                scenario.infer("asrank"), tmp_path, "got"
            ) == rels_bytes(cold_ref.infer("asrank"), tmp_path, "ref")
        # first build: corpus miss + store; warm build: corpus +
        # validation + asrank inference all served from cache.
        assert cache.hits >= 3

    def test_warm_build_skips_propagation(self, tmp_path, monkeypatch):
        config = tiny_config(3)
        cache = ArtifactCache(root=tmp_path)
        build_scenario(config, cache=cache)

        def boom(*args, **kwargs):
            raise AssertionError("propagation ran on a warm cache")

        monkeypatch.setattr(scenario_module, "collect_rounds", boom)
        warm = build_scenario(config, cache=cache)
        assert warm.validation.rels == cold_build(3).validation.rels

    def test_cached_inference_round_trip(self, tmp_path):
        config = tiny_config(3)
        cache = ArtifactCache(root=tmp_path)
        build_scenario(config, cache=cache).infer("gao")
        warm = build_scenario(config, cache=cache)
        hits_before = cache.hits
        rels = warm.infer("gao")
        assert cache.hits == hits_before + 1
        assert rels_bytes(rels, tmp_path, "got") == rels_bytes(
            cold_build(3).infer("gao"), tmp_path, "ref"
        )

    def test_lazy_raw_validation_on_cache_hit(self, tmp_path):
        config = tiny_config(3)
        cache = ArtifactCache(root=tmp_path)
        build_scenario(config, cache=cache)
        warm = build_scenario(config, cache=cache)
        assert warm._raw_validation is None, "cached build must not compile"
        lazy, reference = warm.raw_validation, cold_build(3).raw_validation
        assert list(lazy.data.links()) == list(reference.data.links())
        assert lazy.n_direct_reports == reference.n_direct_reports
        assert lazy.n_rpsl_records == reference.n_rpsl_records


# ---------------------------------------------------------------------------
# maintenance and plumbing
# ---------------------------------------------------------------------------

class TestMaintenance:
    def test_entries_clear_total_size(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        records = cache.entries()
        assert [r["key"] for r in records] == [key]
        assert records[0]["seed"] == scenario.config.seed
        assert records[0]["n_ases"] == scenario.config.topology.n_ases
        assert "corpus.npc" in records[0]["files"]
        assert cache.total_size() > 0
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_resolve_cache_coercion(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        passthrough = ArtifactCache(root=tmp_path)
        assert resolve_cache(passthrough) is passthrough
        from_path = resolve_cache(tmp_path / "elsewhere")
        assert from_path.root == tmp_path / "elsewhere"
        assert resolve_cache(True).root == default_cache_root()

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        assert default_cache_root() == tmp_path / "envroot"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root().name == "repro"


# ---------------------------------------------------------------------------
# crash-safety regressions
# ---------------------------------------------------------------------------

class TestCrashSafetyRegressions:
    def test_store_refreshes_stale_meta(self, tmp_path):
        """A key dir with outdated ``meta.json`` must be re-stamped on store.

        Regression: ``_write_meta`` used to early-return whenever a meta
        file existed, so a store into an entry left by an older code
        version kept the stale version stamp and the key recomputed on
        every subsequent run, forever.
        """
        scenario = cold_build(3)
        config = scenario.config
        stale = ArtifactCache(root=tmp_path, code_version="ancient")
        current = ArtifactCache(root=tmp_path)
        # Code versions never share a key: plant the stale record under
        # the current key by hand.
        key = current.scenario_key(config)
        stale.store_corpus(key, scenario.corpus, config)

        assert current.load_corpus(key) is None, "stale code must miss"
        current.store_corpus(key, scenario.corpus, config)
        meta = json.loads((tmp_path / key / "meta.json").read_text())
        assert meta["code"] == current.code_version
        assert current.load_corpus(key) is not None, (
            "the refreshed entry must hit for the current code version"
        )

    def test_entries_survives_concurrent_deletion(self, tmp_path):
        """``entries()`` must not crash when a clearer races the listing."""
        from repro.testing.faults import Fault, FaultyFilesystem

        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        racing = ArtifactCache(
            root=tmp_path,
            fs=FaultyFilesystem([Fault(op="stat_size", kind="vanish")]),
        )
        records = racing.entries()  # must not raise FileNotFoundError
        assert isinstance(records, list)

    def test_entries_reports_locks_and_stragglers(self, tmp_path):
        scenario = cold_build(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(scenario.config)
        cache.store_corpus(key, scenario.corpus, scenario.config)
        (tmp_path / key / "corpus.npc.9999.0.tmp").write_text("torn")
        with cache.entry_lock(key):
            (record,) = cache.entries()
            assert record["locked"] is True
            assert record["stragglers"] == 1
            assert all(not f.endswith(".tmp") for f in record["files"])
        (record,) = cache.entries()
        assert record["locked"] is False


# ---------------------------------------------------------------------------
# fingerprint addressing: scenario ids name their entries
# ---------------------------------------------------------------------------

class CountingFilesystem(CacheFilesystem):
    """Counts every ``meta.json`` read (and every other read)."""

    def __init__(self) -> None:
        self.meta_reads = 0
        self.reads = 0

    def read_text(self, path: Path) -> str:
        self.reads += 1
        if path.name == "meta.json":
            self.meta_reads += 1
        return super().read_text(path)

    def run_reader(self, reader, path: Path):
        self.reads += 1
        return super().run_reader(reader, path)

    def stat_size(self, path: Path) -> int:
        self.reads += 1
        return super().stat_size(path)


def store_stub(cache: ArtifactCache, config: ScenarioConfig) -> str:
    """A cheap entry for ``config``: its meta record plus a tiny as-rel."""
    rels = RelationshipSet()
    rels.set_p2c(10, 20)
    key = cache.scenario_key(config)
    cache.store_rels(key, "asrank", rels, config)
    return key


def write_meta(cache: ArtifactCache, key: str, text: str) -> None:
    (cache.root / key).mkdir(parents=True, exist_ok=True)
    (cache.root / key / "meta.json").write_text(text, encoding="utf-8")


class TestFingerprintAddressing:
    def test_resolution_reads_at_most_one_meta(self, tmp_path):
        writer = ArtifactCache(root=tmp_path)
        configs = [ScenarioConfig.small(seed=seed) for seed in range(60)]
        for config in configs:
            store_stub(writer, config)
        fs = CountingFilesystem()
        cache = ArtifactCache(root=tmp_path, fs=fs)
        for config in (configs[0], configs[37], configs[-1]):
            before = fs.meta_reads
            resolved = cache.config_for_fingerprint(scenario_id(config))
            assert fs.meta_reads - before <= 1
            assert resolved.fingerprint() == config.fingerprint()
        before = fs.meta_reads
        assert cache.config_for_fingerprint("f" * 12) is None
        assert fs.meta_reads - before <= 1

    @pytest.mark.parametrize(
        "sid", ["", "../x", "*", "[a]", "AB12", "a" * 65, "ab\n", "a b"]
    )
    def test_hostile_ids_touch_nothing(self, tmp_path, monkeypatch, sid):
        store_stub(ArtifactCache(root=tmp_path), tiny_config(3))
        fs = CountingFilesystem()
        cache = ArtifactCache(root=tmp_path, fs=fs)
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda *a: listings.append(a) or real_listdir(*a)
        )
        assert cache.config_for_fingerprint(sid) is None
        assert fs.reads == 0 and listings == []

    def test_full_fingerprint_must_match_beyond_the_name(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        config = tiny_config(3)
        store_stub(cache, config)
        fingerprint = config.fingerprint()
        resolved = cache.config_for_fingerprint(fingerprint)
        assert resolved.fingerprint() == fingerprint
        # Same 20-character entry name, different tail: not this config.
        other = fingerprint[:20] + ("0" if fingerprint[20] != "0" else "1")
        assert cache.config_for_fingerprint(other) is None

    def test_other_code_versions_are_not_resolved(self, tmp_path):
        config = tiny_config(3)
        store_stub(ArtifactCache(root=tmp_path, code_version="A"), config)
        reader = ArtifactCache(root=tmp_path, code_version="B")
        assert reader.config_for_fingerprint(scenario_id(config)) is None
        store_stub(reader, config)
        assert reader.config_for_fingerprint(scenario_id(config)) == config


# ---------------------------------------------------------------------------
# a meta.json that parses to a non-object is a broken record, not a crash
# ---------------------------------------------------------------------------

class TestNonObjectMeta:
    def test_build_scenario_records_a_miss_and_rebuilds(self, tmp_path):
        config = tiny_config(3)
        cache = ArtifactCache(root=tmp_path)
        key = cache.scenario_key(config)
        build_scenario(config, cache=cache)
        write_meta(cache, key, "[1]")
        misses = cache.misses
        rebuilt = build_scenario(config, cache=cache)
        assert not rebuilt.corpus_from_cache
        assert cache.misses > misses
        assert corpus_bytes(rebuilt.corpus, tmp_path, "got") == corpus_bytes(
            cold_build(3).corpus, tmp_path, "ref"
        )
        meta = json.loads((tmp_path / key / "meta.json").read_text())
        assert meta["code"] == cache.code_version
        assert build_scenario(config, cache=cache).corpus_from_cache

    @pytest.mark.parametrize("text", ["[1]", "7", '"x"', "null"])
    def test_cache_list_lists_the_record(self, tmp_path, capsys, text):
        cache = ArtifactCache(root=tmp_path)
        good = store_stub(cache, tiny_config(3))
        write_meta(cache, "0" * 20, text)
        assert cli.main(
            ["cache", "list", "--json", "--cache-dir", str(tmp_path)]
        ) == 0
        records = json.loads(capsys.readouterr().out)["entries"]
        assert [r["key"] for r in records] == ["0" * 20, good]
        assert records[0]["code"] is None and records[0]["seed"] is None
        assert cli.main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "seed=? ases=?" in capsys.readouterr().out

    def test_other_entries_still_resolve(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        config = tiny_config(3)
        store_stub(cache, config)
        sid = scenario_id(config)
        write_meta(cache, "0" * 20, "[1]")  # sorts before every entry
        assert cache.config_for_fingerprint(sid) == config
        # A broken entry whose name the id also matches, sorting after.
        tag = cache.scenario_key(config).split("-")[1]
        write_meta(cache, f"{sid}ffffffff-{tag}", '{"a": 1}')
        assert cache.config_for_fingerprint(sid) == config
        assert cache.load_rels(cache.scenario_key(config), "asrank")


# ---------------------------------------------------------------------------
# only scenario entries are entries: the lint summary cache is not one
# ---------------------------------------------------------------------------

def test_entries_and_clear_skip_the_lint_summary_cache(tmp_path, monkeypatch):
    from repro.devtools.analysis.cache import SummaryCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ArtifactCache()
    key = store_stub(cache, tiny_config(3))
    legacy = "0123456789abcdef0123"  # a bare key of the older layout
    write_meta(cache, legacy, '{"code": "old"}')
    lint_cache = SummaryCache()  # $REPRO_CACHE_DIR/analysis
    lint_cache.put("ab" * 32, {"analysis_version": "x"})
    assert lint_cache.stores == 1
    assert [r["key"] for r in cache.entries()] == [legacy, key]
    assert cache.clear() == 2
    assert cache.entries() == []
    assert [p.name for p in lint_cache.root.rglob("*.json")] == [
        f"{'ab' * 32}.json"
    ]

"""Zero-copy warm admission through the shared artifact cache.

Three contracts:

* a pool whose cache already holds a scenario admits it **warm**
  (``warm_admissions``/``cold_admissions`` counters, the scenario's
  ``corpus_from_cache`` flag, mmap-backed corpus sections);
* a warm-admitted scenario answers every query endpoint byte-identically
  to a cold-built one;
* loading a columnar corpus via mmap costs ~zero resident memory, while
  the deserialising path pays the full artifact size (the RSS-delta
  proof for "N workers share one page-cache-resident corpus").
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.columnar import (
    CorpusColumns,
    read_corpus_columns,
    write_corpus_columns,
)
from repro.scenario import build_scenario
from repro.service import ReproService, ServiceClient, serve_in_thread
from repro.service.pool import ScenarioPool, scenario_id

CONFIG = ScenarioConfig.small(seed=7)


@pytest.fixture(scope="module")
def primed_cache(tmp_path_factory):
    """A cache already holding seed-7's corpus/validation artifacts."""
    root = tmp_path_factory.mktemp("warm-cache")
    cache = ArtifactCache(root)
    scenario = build_scenario(CONFIG, cache=cache)
    assert not scenario.corpus_from_cache  # the priming build was cold
    return ArtifactCache(root)  # fresh instance, clean counters


def test_second_build_is_warm_and_mmapped(primed_cache):
    scenario = build_scenario(CONFIG, cache=primed_cache)
    assert scenario.corpus_from_cache
    backing = scenario.corpus.memory_report()["backing"]
    # Every non-empty section must be a file mapping, not a heap copy.
    assert backing["hops"] == "mmap"
    assert backing["offsets"] == "mmap"


def test_pool_counts_warm_vs_cold_admissions(primed_cache):
    async def admit(cache):
        pool = ScenarioPool(capacity=2, cache=cache)
        try:
            await pool.get_or_build(CONFIG)
            return pool.stats()
        finally:
            await pool.aclose()

    warm_stats = asyncio.run(admit(primed_cache))
    assert warm_stats["builds"] == 1
    assert warm_stats["warm_admissions"] == 1
    assert warm_stats["cold_admissions"] == 0

    cold_stats = asyncio.run(admit(None))
    assert cold_stats["warm_admissions"] == 0
    assert cold_stats["cold_admissions"] == 1


def test_cache_resolution_admits_foreign_scenario(primed_cache):
    """A scenario id this pool never saw resolves via cache meta."""
    sid = scenario_id(CONFIG)

    async def resolve():
        pool = ScenarioPool(capacity=2, cache=primed_cache)
        try:
            entry = await pool.admit_cached(sid)
            assert entry is not None
            assert entry.scenario_id == sid
            assert await pool.admit_cached("ffffffffffff") is None
            return pool.stats()
        finally:
            await pool.aclose()

    stats = asyncio.run(resolve())
    assert stats["cache_resolutions"] == 1
    assert stats["warm_admissions"] == 1


def test_warm_responses_byte_identical_to_cold(primed_cache):
    """Every endpoint answers the same bytes warm as cold."""
    cold = ReproService(pool_size=1)
    warm = ReproService(pool_size=1, cache=primed_cache)
    with serve_in_thread(cold) as cold_live, serve_in_thread(warm) as warm_live:
        responses = {}
        for label, live in (("cold", cold_live), ("warm", warm_live)):
            client = ServiceClient(port=live.port, timeout=300.0)
            built = client.build_scenario(
                preset="small", seed=7,
                algorithms=["asrank", "gao"],
            )
            sid = built["scenario"]
            a1, a2 = built["sample_links"][0]
            asn = a1
            paths = [
                ("GET", f"/v1/rel/asrank/{a1}/{a2}?scenario={sid}", None),
                ("GET", f"/v1/rel/gao/{a1}/{a2}?scenario={sid}", None),
                ("POST", f"/v1/rel/asrank:batch?scenario={sid}",
                 {"links": [[a1, a2], [a2, a1], [999_999, 1]]}),
                ("GET", f"/v1/as/{asn}/neighbors?scenario={sid}", None),
                ("GET", f"/v1/bias/asrank?scenario={sid}", None),
                ("GET", f"/v1/table/asrank?scenario={sid}", None),
                ("GET", f"/v1/casestudy?scenario={sid}", None),
                ("GET", "/v1/scenarios", None),
            ]
            responses[label] = [
                client.request_bytes(method, path, body)
                for method, path, body in paths
            ]
            client.close()
        # The warm pool really did come from the cache.
        assert warm.pool.warm_admissions == 1
        assert warm.pool.cold_admissions == 0
        assert cold.pool.cold_admissions == 1
    assert responses["cold"] == responses["warm"]


_RSS_PROBE = """
import gc, sys
from repro.pipeline.columnar import read_corpus_columns
import numpy as np

def rss_bytes():
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise SystemExit("VmRSS not found")

path, use_mmap = sys.argv[1], sys.argv[2] == "mmap"
gc.collect()
before = rss_bytes()
columns = read_corpus_columns(path, use_mmap=use_mmap)
delta = rss_bytes() - before
assert isinstance(columns.hops, np.memmap) == use_mmap
assert columns.backing()["hops"] == ("mmap" if use_mmap else "ram")
print(delta)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="RSS accounting needs /proc",
)
def test_mmap_load_is_zero_copy_by_rss(tmp_path):
    """Loading ``corpus.npc`` via mmap must not grow RSS by the file
    size; the deserialising path must.

    Each load runs in a fresh subprocess: in-process measurement is
    confounded by the allocator recycling already-resident pages.
    """
    import subprocess
    import sys

    n = 8_000_000  # ~32 MB of uint32 hops
    columns = CorpusColumns(
        hops=np.arange(n, dtype=np.uint32) % 65_536,
        offsets=np.arange(0, n + 1, 100, dtype=np.int64),
        comm_route=np.empty(0, dtype=np.int64),
        comm_owner=np.empty(0, dtype=np.uint32),
        comm_value=np.empty(0, dtype=np.int64),
    )
    path = tmp_path / "corpus.npc"
    write_corpus_columns(columns, path)
    size = columns.hops.nbytes
    del columns

    def probe(mode: str) -> int:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{existing}" if existing else src
        )
        result = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, str(path), mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout.strip())

    mmap_delta = probe("mmap")
    copy_delta = probe("copy")
    # Untouched mappings are address space, not resident memory; the
    # deserialising path pays for every byte.
    assert mmap_delta < size * 0.25, (mmap_delta, size)
    assert copy_delta > size * 0.5, (copy_delta, size)


def test_foreign_admission_survives_a_corrupt_sibling_entry(tmp_path):
    """A non-object ``meta.json`` in another entry must not turn id
    resolution into a 500, and hostile ids are plain unknown scenarios."""
    config = ScenarioConfig.small(seed=7)
    config.topology.n_ases = 150
    config.measurement.n_vantage_points = 15
    build_scenario(config, cache=ArtifactCache(tmp_path))
    corrupt = tmp_path / ("0" * 20)  # sorts before the real entry
    corrupt.mkdir()
    (corrupt / "meta.json").write_text("[1]", encoding="utf-8")
    sid = scenario_id(config)

    service = ReproService(pool_size=1, cache=ArtifactCache(tmp_path))
    with serve_in_thread(service) as live:
        with ServiceClient(port=live.port, timeout=300.0) as client:
            status, table = client.request_bytes(
                "GET", f"/v1/table/asrank?scenario={sid}"
            )
            hostile, error = client.request_bytes(
                "GET", "/v1/bias/asrank?scenario=../x"
            )
    assert status == 200, table
    assert json.loads(table)["scenario"] == sid
    assert hostile == 404
    assert json.loads(error)["error"]["code"] == "unknown_scenario"
    assert service.pool.cache_resolutions == 1
    assert service.pool.warm_admissions == 1

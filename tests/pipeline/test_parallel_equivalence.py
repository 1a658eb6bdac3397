"""Differential tests: parallel execution must be invisible.

The property under test is strict — not "statistically equivalent" but
*byte-identical*: collected routes, serialised path corpora, and
inference outputs produced with worker processes must match the serial pipeline
exactly, across seeds and worker counts.  Anything weaker would let a
perf refactor silently move the paper's numbers.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import ParallelPropagator, ScenarioConfig, build_scenario
from repro.bgp.collectors import (
    RouteCollector,
    collect_corpus,
    measurement_setup,
    routes_for_origin,
)
from repro.bgp.policy import AdjacencyIndex
from repro.bgp.propagation import compute_origin_routes
from repro.datasets.asrel import write_asrel
from repro.datasets.bgpdump import write_path_corpus
from repro.topology.generator import generate_topology

#: Three seeds, per the acceptance criteria; kept small so the whole
#: differential layer stays in the seconds range on one core.
SEEDS = (3, 5, 11)


def tiny_config(seed: int) -> ScenarioConfig:
    """A reduced scenario sized for fast serial-vs-parallel rebuilds."""
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 180
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 2
    return config


@lru_cache(maxsize=None)
def built(seed: int, workers: int):
    """Scenario builds shared across the differential assertions."""
    return build_scenario(tiny_config(seed), workers=workers)


def corpus_bytes(corpus, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_path_corpus(corpus, path)
    return path.read_bytes()


def rels_bytes(rels, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_asrel(rels, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def measurement():
    """(topology, adjacency, (vps, communities, strippers)) of one seed."""
    config = tiny_config(seed=SEEDS[0])
    topology = generate_topology(config)
    setup = measurement_setup(topology, config)
    return topology, AdjacencyIndex(topology.graph), setup


class TestRouteTrees:
    """Per-origin route trees reduced to collector routes inside the
    workers must arrive exactly as the serial loop produces them."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_trees_identical_for_every_worker_count(
        self, measurement, workers
    ):
        _, adjacency, setup = measurement
        origins = adjacency.asns[:60]
        serial = list(
            ParallelPropagator(adjacency).collect_routes(*setup, origins)
        )
        parallel = list(
            ParallelPropagator(adjacency, workers=workers).collect_routes(
                *setup, origins
            )
        )
        assert serial
        # Dataclass equality covers vp/origin/path/communities; list
        # equality demands the origin-major, VP-order sequence too.
        assert parallel == serial

    def test_collect_workers_argument(self, measurement):
        topology, adjacency, setup = measurement
        origins = adjacency.asns[:30]
        collector = RouteCollector(topology, *setup)
        serial = collector.collect(origins)
        parallel = collector.collect(origins, workers=2)
        assert list(parallel.routes()) == list(serial.routes())

    def test_single_origin_stays_in_process(self, measurement, monkeypatch):
        _, adjacency, setup = measurement
        origin = adjacency.asns[0]

        def no_pool(*args, **kwargs):
            raise AssertionError("a single origin must not start a pool")

        # len(origins) <= 1 short-circuits the pool entirely.
        monkeypatch.setattr(
            "repro.pipeline.parallel.ProcessPoolExecutor", no_pool
        )
        routes = list(
            ParallelPropagator(adjacency, workers=4).collect_routes(
                *setup, [origin]
            )
        )
        assert routes == routes_for_origin(
            compute_origin_routes(adjacency, origin), *setup
        )


class TestCorpusEquivalence:
    def test_collect_corpus_workers_argument(self, tmp_path):
        config = tiny_config(SEEDS[0])
        topology = generate_topology(config)
        serial, _, _, _ = collect_corpus(topology, config)
        parallel, _, _, _ = collect_corpus(topology, config, workers=2)
        assert corpus_bytes(parallel, tmp_path, "par") == corpus_bytes(
            serial, tmp_path, "ser"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corpus_byte_identical(self, seed, tmp_path):
        serial, parallel = built(seed, 0), built(seed, 2)
        assert corpus_bytes(
            parallel.corpus, tmp_path, "par"
        ) == corpus_bytes(serial.corpus, tmp_path, "ser")


class TestScenarioEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_validation_identical(self, seed):
        serial, parallel = built(seed, 0), built(seed, 2)
        assert parallel.validation.rels == serial.validation.rels
        assert (
            parallel.validation.report.as_dict()
            == serial.validation.report.as_dict()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inference_byte_identical(self, seed, tmp_path):
        serial, parallel = built(seed, 0), built(seed, 2)
        for algorithm in ("asrank", "gao"):
            assert rels_bytes(
                parallel.infer(algorithm), tmp_path, f"par-{algorithm}"
            ) == rels_bytes(
                serial.infer(algorithm), tmp_path, f"ser-{algorithm}"
            )

    def test_validation_table_identical(self):
        serial, parallel = built(SEEDS[0], 0), built(SEEDS[0], 2)
        table_s = serial.validation_table("asrank")
        table_p = parallel.validation_table("asrank")
        assert table_p.total == table_s.total
        assert table_p.rows == table_s.rows
        assert (
            parallel.regional_bias().classes == serial.regional_bias().classes
        )

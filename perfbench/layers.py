"""Where each layer is timed: the attributes the tracer wraps.

Each entry names the attribute a caller looks up (``module:attribute``
for a module global, ``module:Class.method`` for a class attribute) and
the span it records.  Layer names are the program's modules:
``topology``, ``bgp``, ``corpus`` (``datasets.paths`` +
``pipeline.columnar``), ``validation``, ``inference``, ``analysis``,
``cache`` (``pipeline.cache``), ``pool``, ``query`` and ``service``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from perfbench.tracing import Tracer


def _emitted(counters: Counter, result: Any, args: tuple, kwargs: dict) -> None:
    counters["bgp.routes_emitted"] += len(result)


def _kept(counters: Counter, result: Any, args: tuple, kwargs: dict) -> None:
    counters["corpus.routes_kept"] += result


def _round_name(args: tuple, kwargs: dict) -> str:
    # collect_rounds passes an adjacency only for churn rounds.
    return "bgp.churn" if kwargs.get("adjacency") is not None else "bgp.round"


def _infer_name(args: tuple, kwargs: dict) -> str:
    name = kwargs["name"] if "name" in kwargs else args[1]
    return f"inference.{name}"


#: The pipeline, as ``build_scenario`` and ``Scenario`` call into it.
PIPELINE = (
    ("repro.scenario:generate_topology", "topology.generate"),
    ("repro.scenario:measurement_setup", "bgp.setup"),
    ("repro.scenario:collect_rounds", "bgp.collect"),
    ("repro.bgp.collectors:RouteCollector.collect", _round_name),
    ("repro.bgp.collectors:compute_origin_routes", "bgp.propagate"),
    ("repro.bgp.collectors:routes_for_origin", "bgp.reduce", _emitted),
    ("repro.datasets.paths:PathCorpus.add_routes", "corpus.ingest", _kept),
    ("repro.scenario:compile_validation", "validation.compile"),
    ("repro.validation.compiler:extract_community_labels",
     "validation.extract"),
    ("repro.scenario:clean_validation", "validation.clean"),
    ("repro.scenario:Scenario.infer", _infer_name),
    ("repro.scenario:Scenario.validation_table", "analysis.report"),
    ("repro.scenario:Scenario.regional_bias", "analysis.report"),
    ("repro.scenario:Scenario.topological_bias", "analysis.report"),
    ("repro.scenario:Scenario.case_study", "analysis.casestudy"),
    ("repro.pipeline.cache:ArtifactCache.load_corpus", "cache.load"),
    ("repro.pipeline.cache:ArtifactCache.load_validation", "cache.load"),
    ("repro.pipeline.cache:ArtifactCache.load_rels", "cache.load"),
    ("repro.pipeline.cache:ArtifactCache.store_corpus", "cache.store"),
    ("repro.pipeline.cache:ArtifactCache.store_validation", "cache.store"),
    ("repro.pipeline.cache:ArtifactCache.store_rels", "cache.store"),
    ("repro.pipeline.cache:ArtifactCache.config_for_fingerprint",
     "cache.resolve"),
)

#: The query layer, as the service handlers (or a caller) use it.
QUERY = (
    ("repro.service.query:ScenarioView.__init__", "query.view"),
    ("repro.service.query:ScenarioView.build_rel_index", "query.view"),
    ("repro.service.query:ScenarioView.link_payload", "query.link"),
    ("repro.service.query:ScenarioView.batch_payloads", "query.batch"),
    ("repro.service.query:ScenarioView.neighbors_payload", "query.neighbors"),
)


def install_pipeline(tracer: Tracer) -> None:
    for target, name, *count in PIPELINE:
        tracer.wrap_path(target, name, *count)


def install_query(tracer: Tracer) -> None:
    for target, name in QUERY:
        tracer.wrap_path(target, name)


def install_service(tracer: Tracer) -> None:
    """Every layer a ``repro serve`` process runs.

    The pool keeps its builder as an instance attribute (bound when the
    pool is created), so that is wrapped on each new pool.
    """
    from repro.service.pool import ScenarioPool

    install_pipeline(tracer)
    install_query(tracer)
    tracer.wrap_path("repro.service.app:ReproService._dispatch", "service.request")
    original_init = ScenarioPool.__init__

    def init(pool: ScenarioPool, *args: Any, **kwargs: Any) -> None:
        original_init(pool, *args, **kwargs)
        tracer.wrap(pool, "_builder", "pool.build")

    tracer.replace(ScenarioPool, "__init__", init)

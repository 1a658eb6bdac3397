"""Reference outputs and the comparisons that feed ``failed``.

Every expected payload is built from an in-process
:class:`~repro.scenario.Scenario` / :class:`~repro.service.query.ScenarioView`
with the program's own public serialisers, and compared with what the
system under test produced after a JSON round trip (the service encodes
with ``json.dumps(..., sort_keys=True)``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.export import profile_rows, table_dict
from repro.datasets.asrel import write_asrel
from repro.scenario import ALGORITHM_NAMES, Scenario
from repro.service.query import ScenarioView, casestudy_payload

#: Tables 1-3.
TABLE_ALGORITHMS = ("asrank", "problink", "toposcope")


def canonical(payload: Any) -> str:
    """Sorted-key JSON after a JSON round trip (tuples become lists)."""
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def served(body: bytes, fields: Optional[Sequence[str]] = None) -> Optional[str]:
    """Canonical form of a served JSON body; ``None`` if it is not JSON.

    With ``fields``, only those keys of a JSON object are kept.
    """
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if fields is not None:
        if not isinstance(payload, dict):
            return None
        payload = {key: payload.get(key) for key in fields}
    return canonical(payload)


def asrel_digest(scenario: Scenario, algorithm: str, scratch: str) -> str:
    """sha256 of the algorithm's as-rel file, as the program writes it."""
    path = os.path.join(scratch, f"{algorithm}.asrel")
    write_asrel(scenario.infer(algorithm), path)
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    os.unlink(path)
    return digest


def bias_payload(scenario: Scenario) -> Dict[str, Any]:
    """Figures 1 and 2, shaped as ``GET /v1/bias/{algorithm}`` serves them."""
    regional = scenario.regional_bias()
    topological = scenario.topological_bias()
    return {
        "regional": profile_rows(regional),
        "topological": profile_rows(topological),
        "coverage_spread": {
            "regional": round(regional.coverage_spread(), 6),
            "topological": round(topological.coverage_spread(), 6),
        },
        "mismatch_classes": {
            "regional": [c.class_name for c in regional.mismatch_classes()],
            "topological": [
                c.class_name for c in topological.mismatch_classes()
            ],
        },
    }


def paper_results(scenario: Scenario, with_casestudy: bool = True) -> Dict[str, Any]:
    """Tables 1-3, the Figure 1/2 bias profiles and the §6.1 summary."""
    results: Dict[str, Any] = {
        "tables": {
            name: table_dict(scenario.validation_table(name))
            for name in TABLE_ALGORITHMS
        },
        "bias": bias_payload(scenario),
    }
    if with_casestudy:
        results["casestudy"] = casestudy_payload(scenario.case_study())
    return results


def asrel_digests(scenario: Scenario, scratch: str) -> Dict[str, str]:
    return {name: asrel_digest(scenario, name, scratch) for name in ALGORITHM_NAMES}


def differences(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Top-level keys whose values differ (missing keys included)."""
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if canonical(expected.get(k)) != canonical(actual.get(k))]


# ----------------------------------------------------------------------
# served responses
# ----------------------------------------------------------------------
def rel_expected(view: ScenarioView, sid: str, algorithm: str, a: int, b: int) -> Dict[str, Any]:
    return {**view.link_payload(algorithm, a, b), "scenario": sid}


def batch_expected(
    view: ScenarioView, sid: str, algorithm: str, pairs: List[Tuple[int, int]]
) -> Dict[str, Any]:
    results, n_unknown = view.batch_payloads(algorithm, pairs)
    return {
        "scenario": sid,
        "algorithm": algorithm,
        "count": len(results),
        "n_unknown": n_unknown,
        "results": results,
    }


def neighbors_expected(view: ScenarioView, sid: str, asn: int) -> Dict[str, Any]:
    return {**view.neighbors_payload(asn), "scenario": sid}


#: ``POST /v1/scenarios`` fields that depend only on the config (the
#: rest report timing and pool state).
SCENARIO_FIELDS = ("scenario", "seed", "n_ases", "snapshot", "stats", "sample_links")


def scenario_expected(view: ScenarioView, sid: str) -> Dict[str, Any]:
    payload = view.scenario_payload(sid)
    payload["sample_links"] = [list(key) for key in view.links[:5]]
    return {key: payload[key] for key in SCENARIO_FIELDS}


import copy
import json

import pytest

from perfbench import checks
from perfbench.client import get, post
from perfbench.serve import ALGORITHM, Target


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return Target(5, "tiny", str(tmp_path_factory.mktemp("cache")))


def body(payload):
    return json.dumps(payload, sort_keys=True).encode()


def test_rel_reply_is_checked(target):
    a, b = target.view.links[0]
    request = get(f"/v1/rel/{ALGORITHM}/{a}/{b}", "rel", (a, b))
    expected = target.expected(request)
    assert target.check(request, body(expected))
    wrong = dict(expected, relationship="p2p" if expected["relationship"] != "p2p" else "p2c")
    assert not target.check(request, body(wrong))
    assert not target.check(request, b"not json")


def test_batch_reply_is_checked(target):
    pairs = tuple(target.view.links[:8])
    request = post(f"/v1/rel/{ALGORITHM}:batch", {"links": [list(p) for p in pairs]}, "batch", pairs)
    expected = target.expected(request)
    assert target.check(request, body(expected))
    wrong = copy.deepcopy(expected)
    wrong["results"][3]["visibility"] += 1
    assert not target.check(request, body(wrong))


def test_table_bias_and_scenario_replies_are_checked(target):
    for kind in ("table", "bias"):
        request = get(f"/v1/{kind}/{ALGORITHM}?scenario={target.sid}", kind, target.sid)
        expected = target.expected(request)
        assert target.check(request, body(expected))
        wrong = copy.deepcopy(expected)
        if kind == "table":
            wrong["table"]["total"]["mcc"] += 0.001
        else:
            wrong["regional"][0]["n_links"] += 1
        assert not target.check(request, body(wrong))

    request = post("/v1/scenarios", target.body, "post", target.sid)
    expected = dict(target.expected(request), built=True, build_seconds=0.1, pool={})
    assert target.check(request, body(expected))
    expected["stats"] = dict(expected["stats"], n_inferred_links=expected["stats"]["n_inferred_links"] + 3)
    assert not target.check(request, body(expected))


def test_paper_result_differences_name_the_changed_part():
    reference = {"tables": {"asrank": 1}, "bias": [1, 2], "asrel": {"gao": "ab"}}
    changed = copy.deepcopy(reference)
    changed["asrel"]["gao"] = "ac"
    assert checks.differences(reference, changed) == ["asrel"]
    assert checks.differences(reference, reference) == []

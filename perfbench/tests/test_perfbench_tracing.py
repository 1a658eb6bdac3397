import asyncio
import types

import pytest

from perfbench.tracing import (
    Span, Tracer, coverage, covered, inclusive_by_name, self_times,
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a: union 1..6
        Span(4, 2, "leaf", 1.5, 2.0),
        Span(5, 1, "c", 9.0, 12.0),  # clipped to the root at 10
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert sum(own[i] for i in (1, 2, 3, 4)) + 2.0 == pytest.approx(12.0)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_coverage_counts_direct_children_only():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 0.0, 6.0),
        Span(3, 2, "deep", 6.5, 9.0),  # a grandchild does not count
        Span(4, 1, "b", 8.0, 9.5),
    ]
    assert coverage(spans, spans[0]) == pytest.approx(0.75)


def test_inclusive_by_name_skips_same_name_nesting_and_filters_by_window():
    spans = [
        Span(1, None, "x", 0.0, 4.0),
        Span(2, 1, "x", 1.0, 2.0),
        Span(3, 1, "y", 2.0, 3.0),
        Span(4, None, "x", 10.0, 11.0),
    ]
    assert inclusive_by_name(spans) == {"x": 5.0, "y": 1.0}
    assert inclusive_by_name(spans, (0.0, 5.0)) == {"x": 4.0, "y": 1.0}


def test_wrappers_record_nested_spans_and_uninstall():
    module = types.SimpleNamespace()

    def inner(n):
        return [0] * n

    def outer(n):
        return module.inner(n)

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "layer.inner",
                count=lambda c, result, a, k: c.update(items=len(result)))
    tracer.wrap(module, "outer", lambda args, kwargs: f"layer.outer{args[0]}")
    assert module.outer(3) == [0, 0, 0]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer3"].id
    assert by_name["layer.outer3"].parent is None
    assert tracer.counters["items"] == 3
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer


def test_class_attributes_keep_their_kind():
    class Owner:
        def method(self):
            return self

        @staticmethod
        def static(value):
            return value

    tracer = Tracer()
    tracer.wrap(Owner, "method", "m")
    tracer.wrap(Owner, "static", "s")
    owner = Owner()
    assert owner.method() is owner
    assert Owner.static(4) == 4
    assert [span.name for span in tracer.spans] == ["m", "s"]
    tracer.uninstall()
    assert "static" in Owner.__dict__ and isinstance(Owner.__dict__["static"], staticmethod)


def test_async_tasks_keep_separate_parents():
    module = types.SimpleNamespace()

    def leaf():
        return 1

    async def handler(delay):
        await asyncio.sleep(delay)
        return module.leaf()

    module.leaf, module.handler = leaf, handler
    tracer = Tracer()
    tracer.wrap(module, "leaf", "leaf")
    tracer.wrap(module, "handler", "handler")

    async def main():
        return await asyncio.gather(module.handler(0.02), module.handler(0.01))

    assert asyncio.run(main()) == [1, 1]
    handlers = {s.id for s in tracer.spans if s.name == "handler"}
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(handlers) == 2 and {s.parent for s in leaves} == handlers


def test_stage_tree_adds_up_to_the_root():
    from perfbench.tracing import stage_tree

    spans = [
        Span(1, None, "run", 0.0, 10.0),
        Span(2, 1, "build", 0.0, 6.0),
        Span(3, 2, "collect", 1.0, 5.0),
        Span(4, 1, "report", 7.0, 9.0),
        Span(5, None, "elsewhere", 20.0, 21.0),
    ]
    tree = stage_tree(spans, spans[0])
    assert tree == {"build": 2.0, "collect": 4.0, "report": 2.0, "(untraced)": 2.0}
    assert sum(tree.values()) == pytest.approx(10.0)

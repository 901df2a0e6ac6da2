import types

import pytest

from tracing import Span, Tracer, self_time_by_name, self_times


def test_self_time_subtracts_children():
    spans = [
        Span(0, -1, 0, "outer", 0.0, 10.0),
        Span(1, 0, 0, "child", 1.0, 3.0),
        Span(2, 0, 0, "child", 5.0, 6.5),
        Span(3, 1, 0, "grandchild", 1.5, 2.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 2.0 - 1.5)
    assert got[1] == pytest.approx(2.0 - 0.5)
    assert got[2] == pytest.approx(1.5)
    assert got[3] == pytest.approx(0.5)
    assert self_time_by_name(spans) == pytest.approx(
        {"outer": 6.5, "child": 3.0, "grandchild": 0.5})


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = [
        Span(0, -1, 0, "p", 0.0, 4.0),
        Span(1, 0, 0, "c", -1.0, 1.0),  # starts before the parent
        Span(2, 0, 0, "c", 0.5, 2.0),  # overlaps the first child
        Span(3, 0, 0, "c", 3.5, 5.0),  # ends after the parent
    ]
    # covered: [0, 2] and [3.5, 4] -> 2.5 of 4.0
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_wraps_counts_and_restores():
    ticks = iter(range(100))
    module = types.SimpleNamespace()

    def leaf(x):
        return x * 2

    def root(x):
        return module.leaf(x) + module.leaf(x + 1)

    module.leaf, module.root = leaf, root
    with Tracer(lambda: float(next(ticks))) as tracer:
        tracer.wrap(module, "leaf", "m.leaf",
                    lambda args, kwargs, result, counts: counts.__setitem__(
                        "m.sum", counts["m.sum"] + result))
        tracer.wrap(module, "root", "m.root")
        assert module.root(3) == 14
    assert module.leaf is leaf and module.root is root
    assert tracer.counts["m.leaf.calls"] == 2
    assert tracer.counts["m.root.calls"] == 1
    assert tracer.counts["m.sum"] == 14
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["m.root"].parent == -1
    assert all(s.parent == by_name["m.root"].span_id
               for s in tracer.spans if s.name == "m.leaf")


def test_tracer_counts_lru_hits_and_keeps_cache_controls():
    import functools

    module = types.SimpleNamespace()
    module.cached = functools.lru_cache(maxsize=None)(lambda x: x + 1)
    with Tracer(lambda: 0.0) as tracer:
        tracer.wrap(module, "cached", "m.cached")
        module.cached(1)
        module.cached(1)
        module.cached(2)
        module.cached.cache_clear()
        module.cached(1)
    assert tracer.counts["m.cached.hits"] == 1
    assert tracer.counts["m.cached.misses"] == 3

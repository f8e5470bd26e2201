"""Span recording, self time and the wrappers the traced run installs."""

import pytest

import spans


def synthetic_recorder():
    """root [0,10] > a [1,4], b [5,9] > c [6,7]; d [11,12] is a second root."""
    rec = spans.SpanRecorder()
    rows = [
        ("x.root", 0.0, 10.0, -1),
        ("y.a", 1.0, 4.0, 0),
        ("y.b", 5.0, 9.0, 0),
        ("z.c", 6.0, 7.0, 2),
        ("x.root", 11.0, 12.0, -1),
    ]
    for name, start, end, parent in rows:
        rec.name_ids.append(rec.name_id(name))
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.rids.append(-1)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = synthetic_recorder()
    assert rec.self_times().tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    by_name = rec.by_name()
    assert by_name["x.root"]["self_s"] == 4.0
    assert by_name["x.root"]["total_s"] == 11.0
    assert by_name["x.root"]["spans"] == 2
    layers = rec.by_layer()
    assert {k: v["self_s"] for k, v in layers.items()} == {"x": 4.0, "y": 6.0, "z": 1.0}
    # Self times partition the root spans' wall time exactly.
    assert sum(v["self_s"] for v in layers.values()) == 11.0


def test_call_wrapper_nests_and_inherits_request_id():
    rec = spans.SpanRecorder()
    inner = spans.wrap_call(rec, "b.inner", lambda x: x + 1)
    outer = spans.wrap_call(rec, "a.outer", lambda x: inner(x) * 2, rid_fn=lambda x: 40 + x)
    assert outer(1) == 4
    arrays = rec.arrays()
    assert [rec.names[i] for i in arrays["name"]] == ["a.outer", "b.inner"]
    assert arrays["parent"].tolist() == [-1, 0]
    assert arrays["rid"].tolist() == [41, 41]
    assert rec.calls == [1, 1]
    assert (arrays["end"] >= arrays["start"]).all()


def test_generator_wrapper_is_transparent_and_spans_each_resumption():
    rec = spans.SpanRecorder()
    leaf = spans.wrap_call(rec, "b.leaf", lambda: None)

    def worker(n):
        got = []
        for i in range(n):
            leaf()
            try:
                got.append((yield i))
            except KeyError as exc:
                got.append(str(exc))
        return got

    wrapped = spans.wrap_generator(rec, "a.worker", worker)

    def caller():
        result = yield from wrapped(3)
        return result

    gen = caller()
    assert next(gen) == 0
    assert gen.send("x") == 1
    assert gen.throw(KeyError("k")) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send("z")
    assert stop.value.value == ["x", "'k'", "z"]
    names = [rec.names[i] for i in rec.arrays()["name"]]
    # Four resumptions of the worker, three leaf calls nested in them.
    assert names.count("a.worker") == 4 and names.count("b.leaf") == 3
    assert rec.calls[rec.name_id("a.worker")] == 1
    parents = rec.arrays()["parent"].tolist()
    for index, name in enumerate(names):
        if name == "b.leaf":
            assert names[parents[index]] == "a.worker"


def test_generator_wrapper_propagates_errors_and_closes_the_stack():
    rec = spans.SpanRecorder()

    def failing():
        yield 1
        raise ValueError("boom")

    gen = spans.wrap_generator(rec, "a.fail", failing)()
    next(gen)
    with pytest.raises(ValueError):
        next(gen)
    assert rec._stack == []


def test_patches_restore_originals():
    class Owner:
        def method(self):
            return "original"

    original = Owner.__dict__["method"]
    rec = spans.SpanRecorder()
    with spans.Patches() as patches:
        spans.install(rec, patches, [(Owner, "method", "t.method", "call", None)])
        assert Owner().method() == "original"
        assert len(rec) == 1
    assert Owner.__dict__["method"] is original

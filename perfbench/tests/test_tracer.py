"""Self-time arithmetic and patching of the span recorder."""
import types

import pytest

from perfbench.tracer import Span, Tracer


def _tracer(spans):
    tr = Tracer()
    tr.spans = [Span(name, a, b, parent) for name, a, b, parent in spans]
    return tr


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has a child [5, 6]
    tr = _tracer(
        [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 4.0, 8.0, 0),
            ("c", 5.0, 6.0, 2),
        ]
    )
    assert tr.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0])
    agg = tr.summary()
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}
    assert tr.parent_names() == [None, "root", "root", "b"]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    tr = _tracer(
        [
            ("root", 0.0, 10.0, -1),
            ("a", 2.0, 5.0, 0),
            ("b", 4.0, 7.0, 0),  # overlaps a: union is [2, 7]
            ("c", 9.0, 12.0, 0),  # runs past the parent: only [9, 10] counts
        ]
    )
    assert tr.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_same_name_spans_aggregate():
    tr = _tracer([("f", 0.0, 1.0, -1), ("f", 2.0, 4.0, -1), ("g", 2.5, 3.0, 1)])
    agg = tr.summary()
    assert agg["f"]["calls"] == 2
    assert agg["f"]["self_s"] == pytest.approx(2.5)


def test_wrap_records_nesting_and_restore_undoes_it():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer

    class K:
        def method(self):
            return mod.outer(1)

    tr = Tracer()
    tr.wrap(mod, "inner", "inner")
    tr.wrap(mod, "outer", "outer")
    tr.wrap(K, "method", "K.method")
    assert K().method() == 4
    assert [s.name for s in tr.spans] == ["K.method", "outer", "inner"]
    assert tr.parent_names() == [None, "K.method", "outer"]
    tr.restore()
    assert mod.inner is inner and mod.outer is outer
    assert "method" in vars(K) and K().method() == 4
    assert len(tr.spans) == 3


def test_wrap_of_inherited_method_is_removed_on_restore():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tr = Tracer()
    tr.wrap(Child, "f", "f")
    assert Child().f() == 1 and len(tr.spans) == 1
    tr.restore()
    assert "f" not in vars(Child)


def test_span_is_closed_when_the_call_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = Tracer()
    tr.wrap(mod, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    with tr.span("after"):
        pass
    assert tr.parent_names() == [None, None]
    assert tr.spans[0].end >= tr.spans[0].start

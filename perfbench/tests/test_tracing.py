"""Self-time arithmetic and attribute rebinding of the span tracer."""

import types

import pytest

from tracing import Span, Tracer, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),      # child of root
        Span("a.x", 1.5, 2.0, 1, 0),    # grandchild: not subtracted from root
        Span("b", 3.0, 6.0, 0, 0),      # overlaps a: the union 1..6 counts once
        Span("c", 8.0, 9.0, 0, 0),
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 0.5, 0.5, 3.0, 1.0, 1.0])


def test_wrapped_calls_nest_and_hooks_count():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def hook(tracer, idx, args, kwargs, result, error):
        tracer.count("inner.sum", result)

    w_inner = tr.wrap("inner", inner, hook)
    w_outer = tr.wrap("outer", lambda: w_inner(1) + w_inner(2))
    tr.case = 7
    assert w_outer() == 5
    names = [s.name for s in tr.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    assert all(s.case == 7 for s in tr.spans)
    assert tr.counters["inner.sum"] == 5
    totals = tr.layer_totals()
    # clock ticks: outer 0..5, inner 1..2 and 3..4 -> outer self 5 - 2 = 3
    assert totals["outer"] == {"calls": 1, "self_s": 3.0}
    assert totals["inner"] == {"calls": 2, "self_s": 2.0}
    assert tr.ancestor(2, "outer") == 0 and tr.ancestor(0, "outer") == -1


def test_install_rebinds_every_home_and_restore_puts_originals_back(monkeypatch):
    def f():
        return "f"

    class K:
        @staticmethod
        def s():
            return "s"

        def m(self):
            return "m"

    home = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")
    home.f, user.f, user.alias = f, f, f
    monkeypatch.setitem(__import__("sys").modules, "fakepkg", home)
    monkeypatch.setitem(__import__("sys").modules, "fakepkg.user", user)
    raw_s, raw_m = K.__dict__["s"], K.__dict__["m"]

    tr = Tracer()
    tr.install([("f", home, "f", None), ("K.s", K, "s", None), ("K.m", K, "m", None)],
               package="fakepkg")
    assert home.f is not f and user.f is home.f and user.alias is home.f
    assert user.f() == "f" and K.s() == "s" and K().m() == "m"
    assert [s.name for s in tr.spans] == ["f", "K.s", "K.m"]
    tr.restore()
    assert home.f is f and user.f is f and user.alias is f
    assert K.__dict__["s"] is raw_s and K.__dict__["m"] is raw_m

"""Tests for the benchmark's own helpers: python3 -m pytest perfbench/test_perfbench.py"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
from tracer import Layer, Tracer, bind, unbind  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(99) == 50
    assert run.highest_percentile(100) == 90
    assert run.highest_percentile(999) == 90
    assert run.highest_percentile(1000) == 99
    assert run.highest_percentile(10_000) == 99.9
    assert run.highest_percentile(19) is None


def test_percentile_of_a_uniform_sample():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == pytest.approx(90.1)
    assert run.percentile(values, 50) == pytest.approx(50.5)


def test_calibrated_pass_scales_each_segment_by_the_kernel_around_it(monkeypatch):
    kernels = iter([0.001, 0.002, 0.0005])
    monkeypatch.setattr(run, "kernel_s", lambda: next(kernels))
    monkeypatch.setattr(run, "call", lambda argv: (0.2, 0, "", None))
    ops = [types.SimpleNamespace(argv=[]) for _ in range(3)]
    records, scales = run.calibrated_pass(ops, range(3))
    assert [r[0] for r in records] == [0, 1, 2]
    # 0.4 s of work closes the first segment; the last operation closes the second
    assert scales == pytest.approx([2 / 3, 2 / 3, 0.8])


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = tr.enter("outer")
    clock.t = 1.0
    mid = tr.enter("mid")
    clock.t = 2.0
    inner = tr.enter("inner")
    clock.t = 4.0
    tr.exit(inner)
    clock.t = 4.5
    tr.leaf("leaf", 0.5)  # a hot leaf charged to its parent span
    tr.exit(mid)
    clock.t = 7.0
    again = tr.enter("mid")
    clock.t = 8.0
    tr.exit(again)
    clock.t = 10.0
    tr.exit(outer)
    assert tr.stat("inner").self_s == 2.0
    assert tr.stat("mid").calls == 2
    assert tr.stat("mid").self_s == pytest.approx(1.0 + 1.0)  # 3.5 - 2.0 - 0.5, then 1.0
    assert tr.stat("mid").incl_s == pytest.approx(3.5 + 1.0)
    assert tr.stat("outer").self_s == pytest.approx(10.0 - 3.5 - 1.0)
    assert tr.stat("leaf").calls == 1


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = Tracer(clock)
    a = tr.enter("f")
    clock.t = 1.0
    b = tr.enter("f")
    clock.t = 3.0
    tr.exit(b)
    clock.t = 4.0
    tr.exit(a)
    assert tr.stat("f").calls == 2
    assert tr.stat("f").incl_s == 4.0
    assert tr.stat("f").self_s == 4.0


def _package():
    """A throwaway package whose second module imported `work` by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Thing:
        def mul(self, other):
            return other * 2

        rmul = mul

    core.work, core.Thing = work, Thing
    user.work = work  # what `from .core import work` leaves behind
    user.run = lambda x: user.work(x)
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        sys.modules[name] = mod
    return core, user


def test_bind_rebinds_every_import_site_and_unbinds():
    core, user = _package()
    try:
        tr = Tracer()
        undo = bind(tr, [Layer("core.work", core, "work"), Layer("core.Thing.mul", core.Thing, "mul")], "fakepkg")
        assert user.run(1) == 2
        assert core.work(1) == 2
        thing = core.Thing()
        assert thing.mul(3) == 6 and thing.rmul(3) == 6
        assert tr.stat("core.work").calls == 2
        assert tr.stat("core.Thing.mul").calls == 2
        unbind(undo)
        user.run(1)
        assert tr.stat("core.work").calls == 2
        assert user.work is core.work
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)


def test_binding_only_the_defining_module_would_read_zero_calls():
    core, user = _package()
    try:
        tr = Tracer()
        undo = bind(tr, [Layer("core.work", core, "work")], "fakepkg.core")  # misses fakepkg.user
        user.run(1)
        assert tr.stat("core.work").calls == 0
        unbind(undo)
        with pytest.raises(RuntimeError, match="bound at no site"):
            bind(tr, [Layer("core.work", core, "work")], "nosuchpkg")
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)


def test_span_hook_sees_result_and_error():
    core, _ = _package()
    seen = []

    def after(tr, frame, args, kwargs, result, exc):
        seen.append((frame.name, result, type(exc).__name__ if exc else None))

    try:
        tr = Tracer()
        undo = bind(tr, [Layer("core.work", core, "work", after=after)], "fakepkg")
        core.work(1)
        with pytest.raises(TypeError):
            core.work(None)
        unbind(undo)
        assert seen == [("core.work", 2, None), ("core.work", None, "TypeError")]
        assert tr.stat("core.work").calls == 2
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)

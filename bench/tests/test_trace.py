"""Span self time and wrapper install/uninstall."""

import pytest

from bench.trace import Target, Tracer, targets, tracing


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class Model:
    def __init__(self, clock):
        self.clock = clock

    def inner(self):
        self.clock.t += 2.0

    def outer(self):
        self.clock.t += 1.0
        self.inner()
        self.inner()


def _toy_targets():
    return [
        Target("core", Model, "outer", "core.Model.outer"),
        Target("core", Model, "inner", "core.Model.inner"),
    ]


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    found = _toy_targets()
    model = Model(clock)
    with tracing(tracer, found):
        with tracer.root(7, "predict"):
            model.outer()
            clock.t += 0.5  # harness work no layer accounts for
    metrics = tracer.layer_metrics(found)
    assert metrics["core.Model.outer.calls"] == (1, "count")
    assert metrics["core.Model.outer.self_s"][0] == pytest.approx(1.0)
    assert metrics["core.Model.inner.calls"] == (2, "count")
    assert metrics["core.Model.inner.self_s"][0] == pytest.approx(4.0)
    assert tracer.root_s == pytest.approx(5.5)
    assert tracer.root_self_s == pytest.approx(0.5)
    assert {e[3] for e in tracer.events} == {7}


def test_paused_tracer_records_nothing():
    tracer = Tracer(clock=FakeClock())
    found = _toy_targets()
    with tracing(tracer, found), tracer.paused():
        Model(FakeClock()).outer()
    assert tracer.totals == {}


def _snapshot(found):
    owners = {id(t.owner): t.owner for t in found}
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def test_uninstall_restores_every_patched_attribute():
    from repro.core.estimator import BaseRegHDEstimator
    from repro.core.multi import MultiModelRegHD

    found = targets()
    before = _snapshot(found)
    with tracing(Tracer(), found):
        assert MultiModelRegHD.predict is not BaseRegHDEstimator.predict
    after = _snapshot(found)
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        for name, value in attrs.items():
            assert after[key][name] is value, name
    # Inherited methods are looked up on the base class again.
    assert "predict" not in vars(MultiModelRegHD)
    assert MultiModelRegHD.predict is BaseRegHDEstimator.predict

"""The benchmark's layer trace still finds every binding it patches.

``python3 -m bench --trace 1`` wraps ``repro`` functions at the binding
their callers look up (``bench.layers._targets``).  The trace is
installed outside the guarded unit of work, so a renamed or deleted
binding makes every traced run exit 1 instead of failing one operation.
These checks catch that in the test suite.
"""

from bench.layers import LayerTrace, _targets


def test_every_target_resolves_to_a_function():
    for layer, target, _ in _targets():
        assert callable(target.get()), layer


def test_installing_the_trace_wraps_and_restores_every_binding():
    before = [target.get() for _, target, _ in _targets()]
    with LayerTrace().installed():
        during = [target.get() for _, target, _ in _targets()]
    after = [target.get() for _, target, _ in _targets()]
    assert all(wrapped is not original for wrapped, original in zip(during, before))
    assert all(restored is original for restored, original in zip(after, before))

"""Self-time arithmetic, the memo bound, and wrapper install/restore."""

import sys

import pytest

from run import import_program
from spans import MODULES, Tracer, repeat_ratio, self_times


def test_self_times_of_nested_spans():
    # a: [0, 100) holds b: [10, 60), which holds c: [20, 30); d: [70, 90) in a.
    # a is module 0, b and d module 1, c module 0 again.
    modules = ["outer", "inner"]
    span_modules = [0, 1, 0, 1]
    starts = [0, 10, 20, 70]
    ends = [100, 60, 30, 90]
    parents = [-1, 0, 1, 0]
    got = self_times(span_modules, starts, ends, parents, modules)
    assert got == {"outer": (100 - 50 - 20) + 10, "inner": (50 - 10) + 20}
    assert sum(got.values()) == 100


def test_self_times_sum_to_top_level_time():
    # Two top-level spans with a gap: self times cover only span time.
    got = self_times([0, 0, 0], [0, 5, 40], [30, 25, 50], [-1, 0, -1], ["m"])
    assert got == {"m": 30 + 10}


def test_self_times_reject_a_child_longer_than_its_parent():
    with pytest.raises(ValueError):
        self_times([0, 0], [0, 0], [10, 20], [-1, 0], ["m"])


def test_repeat_ratio_on_a_hand_built_call_list():
    calls = [b"x", b"y", b"x", b"x", b"z", b"y"]
    assert repeat_ratio(calls) == pytest.approx(1 - 3 / 6)
    assert repeat_ratio([b"x"] * 4) == pytest.approx(0.75)
    assert repeat_ratio([b"a", b"b"]) == 0.0
    assert repeat_ratio([]) == 0.0


def _bindings():
    import_program()
    pkg = [m for k, m in sys.modules.items() if k.split(".")[0] == "siftfree_qkd"]
    snapshot = {}
    for mod in pkg:
        for attr, value in vars(mod).items():
            snapshot[(mod.__name__, attr)] = value
            if isinstance(value, type):
                for a, v in vars(value).items():
                    snapshot[(mod.__name__, attr, a)] = v
    return snapshot


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    sessions = sys.modules["siftfree_qkd.sessions"]
    states = sys.modules["siftfree_qkd.states"]
    bases = sys.modules["siftfree_qkd.bases"]
    tracer = Tracer()
    tracer.install()
    try:
        # Names imported into another module are wrapped too, with one wrapper.
        assert sessions.measure is states.measure
        assert sessions.measure is not before[("siftfree_qkd.states", "measure")]
        assert sessions.bell_pair is bases.bell_pair
        assert sessions.bell_pair is not before[("siftfree_qkd.bases", "bell_pair")]
        pair = sessions.bell_pair(2)
        assert isinstance(pair, states.StateVector)
        assert tracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # bell_pair -> bell_basis -> BellBasis, and bell_pair -> StateVector.
    assert tracer.calls("bases.bell_pair") == 1
    assert tracer.calls("bases.bell_basis") == 1
    assert tracer.calls("states.StateVector") == 1
    assert tracer.peak_amplitudes == 4
    self_ns = tracer.module_self_ns()
    assert set(MODULES) <= set(self_ns)
    assert sum(self_ns.values()) == tracer.top_level_ns()

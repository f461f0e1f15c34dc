"""The dispatch-class helpers under both of NumPy's target namings.

NumPy 2.4 names its x86-64 levels ``X86_V*``; NumPy 1.x to 2.2 name the
features inside them and build for SSE3.  The host here runs one NumPy,
so the other naming is fed in through ``_cpu_targets``.
"""

import pytest

from tests import dispatch

#: NumPy 2.2's build baseline and the targets it finds on an AVX-512
#: (Skylake-SP) host, in its order.
LEGACY_BASELINE = {"SSE", "SSE2", "SSE3"}
LEGACY_FOUND = [
    "SSSE3", "SSE41", "POPCNT", "SSE42",
    "AVX", "F16C", "FMA3", "AVX2",
    "AVX512F", "AVX512CD", "AVX512_SKX",
]


def _targets(monkeypatch, baseline, found):
    monkeypatch.setattr(dispatch, "_cpu_targets", lambda: (baseline, found))


@pytest.mark.parametrize(
    "baseline, found, level",
    [
        (LEGACY_BASELINE, LEGACY_FOUND, "X86_V4"),
        (LEGACY_BASELINE, LEGACY_FOUND[:8], "X86_V3"),
        (LEGACY_BASELINE, LEGACY_FOUND[:4], "X86_V2"),
        ({"X86_V2"}, ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"], "X86_V4"),
        ({"X86_V2"}, ["X86_V3"], "X86_V3"),
        ({"X86_V2"}, [], "X86_V2"),
    ],
)
def test_both_namings_map_to_the_same_levels(monkeypatch, baseline, found, level):
    _targets(monkeypatch, baseline, found)
    assert dispatch.simd_level() == level


@pytest.mark.parametrize(
    "baseline, found",
    [
        (LEGACY_BASELINE, LEGACY_FOUND),
        ({"X86_V2"}, ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]),
    ],
)
def test_switching_off_the_targets_above_x86_v2_lands_there(monkeypatch, baseline, found):
    _targets(monkeypatch, baseline, found)
    above = dispatch.targets_above_x86_v2()
    _targets(monkeypatch, baseline, [t for t in found if t not in above])
    assert dispatch.simd_level() == "X86_V2"


def test_a_level_below_x86_v2_is_named_by_its_targets(monkeypatch):
    _targets(monkeypatch, LEGACY_BASELINE, ["SSSE3"])
    assert dispatch.simd_level() == "SSE SSE2 SSE3 SSSE3"


def test_an_unrecorded_class_fails_naming_itself():
    assert dispatch.pinned({"X86_V4/SkylakeX": 1}, "X86_V4/SkylakeX") == 1
    with pytest.raises(pytest.fail.Exception, match="'X86_V3/Katmai'"):
        dispatch.pinned({"X86_V4/SkylakeX": 1}, "X86_V3/Katmai")

"""Which SIMD and BLAS kernels this host's NumPy runs, for pinned bits.

NumPy dispatches its loops to the widest x86-64 level the CPU has, and
OpenBLAS picks a kernel set per CPU; each may round a sum, a product or
an elementwise function differently from the others.  So the last
bits of a channel realization or an engine outcome, and through them a
hash of it, depend on the host.  Tests that pin such a hash keep one
table per dispatch class and read the host's with :func:`pinned`.
"""

from __future__ import annotations

import ctypes

import pytest

#: The x86-64 levels NumPy dispatches to, highest first, each with the
#: target names that mean it: NumPy 2.4 names the levels ``X86_V*``, and
#: NumPy 1.x to 2.2 (the series a Python 3.10 install gets) names the
#: features inside them.
_SIMD_LEVELS = (
    ("X86_V4", {"X86_V4"}, {"AVX512_SKX"}),
    ("X86_V3", {"X86_V3"}, {"AVX2", "FMA3"}),
    ("X86_V2", {"X86_V2"}, {"SSE42", "POPCNT"}),
)

#: Every target name at or below X86_V2, in either naming.
_UP_TO_X86_V2 = {"X86_V2", "SSE", "SSE2", "SSE3", "SSSE3", "SSE41", "POPCNT", "SSE42"}


def _cpu_targets() -> tuple[set[str], list[str]]:
    """NumPy's build baseline and the dispatch targets this CPU has.

    The targets are ``__cpu_dispatch__`` ∩ ``__cpu_features__``, after
    ``NPY_DISABLE_CPU_FEATURES``, in NumPy's order.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return set(umath.__cpu_baseline__), [t for t in umath.__cpu_dispatch__ if features.get(t)]


def targets_above_x86_v2() -> list[str]:
    """The dispatch targets to switch off to run this host at X86_V2.

    NumPy 2.4 builds for X86_V2, so these are all the targets it found;
    NumPy 2.2 builds for SSE3 and dispatches to the X86_V2 features, so
    those stay on and the host lands in the level a table is recorded for.
    """
    return [t for t in _cpu_targets()[1] if t not in _UP_TO_X86_V2]


#: The OpenBLAS entry points that name the kernel set it picked, NumPy's
#: first: its wheels bundle a 64-bit-integer build (``scipy_openblas64_``
#: from 2.0, ``openblas64_`` before), SciPy's bundles a 32-bit one with
#: other names, and a system OpenBLAS has no suffix.
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def simd_level() -> str:
    """The x86-64 SIMD level NumPy's loops run at on this host.

    It is the highest level among NumPy's build baseline and the
    dispatch targets this CPU has (:func:`_cpu_targets`).  The
    AVX512_ICL and AVX512_SPR targets above X86_V4 change no pinned
    hash, so they do not split a level.  A build below X86_V2 is named
    by its full target list.
    """
    baseline, found = _cpu_targets()
    targets = baseline | set(found)
    for level, names, legacy in _SIMD_LEVELS:
        if names <= targets or legacy <= targets:
            return level
    return " ".join(sorted(targets)) or "none"


def blas_core() -> str:
    """The kernel set OpenBLAS picked on this host, as it names it.

    Matrix products go through OpenBLAS, whose kernels (chosen per CPU,
    or forced with ``OPENBLAS_CORETYPE``) round differently: the same
    engine code gives other outcomes under its Haswell kernels than
    under its SkylakeX ones.  The library is found among this process's
    mapped files, so a host without ``/proc`` or without OpenBLAS is
    named as such.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return "unknown BLAS"
    libraries = [ctypes.CDLL(path) for path in paths]
    for symbol in _CORENAME_SYMBOLS:
        for library in libraries:
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "no OpenBLAS"


def pinned(tables: dict, key: str):
    """``tables[key]``, the values pinned for dispatch class ``key``.

    A class with no table fails, naming itself: a skip would let a host
    pass unchecked.
    """
    if key not in tables:
        pytest.fail(
            f"no table recorded for dispatch class {key!r}; record one by "
            f"running the pinned cases under it (recorded: {sorted(tables)})"
        )
    return tables[key]

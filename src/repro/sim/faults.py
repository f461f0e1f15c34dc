"""Deterministic fault injection for the experiment runner.

Long seeded sweeps (Table 1 / Fig. 6 reproductions, the coherence and
interference sweeps) only become trustworthy at scale when the runner
provably survives worker failures.  This module provides the *fault side*
of that proof: seedable, picklable fault plans that the chaos suite
(``tests/sim/test_chaos.py``) installs through the public
``fault_plan=`` keyword — no monkeypatching of runner internals.

A :class:`FaultPlan` maps topology indices to :class:`FaultSpec` entries.
Plans travel inside :class:`repro.sim.runner.TopologyTask` specs, so they
work identically in the calling process and in pool workers.  Faults are
**attempt-counted**: a spec with ``trips=1`` fires only while the task's
``attempt`` counter is below 1, so the runner's retry (which re-dispatches
the task with ``attempt + 1``) is a clean replay of the *same* seed — the
retried result is bit-identical to what a fault-free run produces.  No
mutable cross-process state is needed; the attempt number is part of the
task spec itself.

Fault classes
-------------
``CRASH``
    raise :class:`InjectedCrash` (a worker that dies with an exception).
``HANG``
    sleep ``hang_s`` seconds before returning normally (a stuck worker;
    the runner's per-task timeout must catch it).
``CORRUPT``
    return a result whose record index does not match the task (a
    poisoned message; the runner's integrity check must catch it).
``POOL_BREAK``
    raise :class:`SimulatedPoolBreak`, a :class:`BrokenProcessPool`
    subclass — from a pool worker it reaches the parent exactly like a
    real pool breakage and must trigger graceful serial degradation.
``EXIT``
    end the whole process at once with status :data:`EXIT_STATUS`
    (``os._exit``: no exception, no cleanup) — a stand-in for ``kill -9``
    that leaves exactly the on-disk state a killed worker leaves (a
    shard service worker's stale lease and partial journal).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "EXIT_STATUS",
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "SimulatedPoolBreak",
]


class FaultKind(str, Enum):
    """The fault classes the chaos suite exercises."""

    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"
    POOL_BREAK = "pool_break"
    EXIT = "exit"


#: The status an ``EXIT`` fault ends its process with.
EXIT_STATUS = 86


class InjectedFault(RuntimeError):
    """Base class for every deliberately injected failure."""


class InjectedCrash(InjectedFault):
    """An injected worker crash (module-level, so it pickles across pools)."""


class SimulatedPoolBreak(BrokenProcessPool):
    """An injected pool breakage.

    Subclasses :class:`BrokenProcessPool` so the parent process cannot
    (and must not) distinguish it from a genuinely broken pool — the
    runner's degradation path is exercised for real.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault at one topology index.

    ``trips`` bounds how many attempts the fault fires on: the fault is
    active while ``attempt < trips``, so the default of 1 fails the first
    attempt and lets the first retry succeed.  ``when`` places crashes
    either before any work happens or after the engine ran (a worker that
    dies *after* emitting spans — the partial-observation case).
    """

    kind: FaultKind
    trips: int = 1
    #: How long a HANG sleeps before completing normally.
    hang_s: float = 4.0
    #: "before" fires before evaluation, "after" fires once the outcome
    #: exists (CORRUPT is always applied after, by nature).
    when: str = "before"

    def __post_init__(self):
        if self.trips < 1:
            raise ValueError(f"trips must be >= 1, got {self.trips}")
        if self.when not in ("before", "after"):
            raise ValueError(f"when must be 'before' or 'after', got {self.when!r}")
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")


@dataclass(frozen=True)
class FaultPlan:
    """Index → fault mapping, installed on tasks via ``fault_plan=``."""

    faults: Mapping[int, FaultSpec]

    @classmethod
    def at(cls, indices: Iterable[int], kind: FaultKind, **spec_kwargs) -> "FaultPlan":
        """One identical fault at each explicit index."""
        spec = FaultSpec(kind=FaultKind(kind), **spec_kwargs)
        return cls(faults={int(index): spec for index in indices})

    @classmethod
    def random(
        cls,
        seed: int,
        n_tasks: int,
        kind: FaultKind,
        n_faults: int = 1,
        **spec_kwargs,
    ) -> "FaultPlan":
        """Faults at seeded random indices (what the chaos suite uses).

        The indices depend only on ``seed``/``n_tasks``/``n_faults`` —
        never on timing — so every chaos run is replayable.
        """
        if not 0 <= n_faults <= n_tasks:
            raise ValueError(f"n_faults must be within [0, {n_tasks}], got {n_faults}")
        rng = np.random.default_rng(seed)
        indices = rng.choice(n_tasks, size=n_faults, replace=False)
        return cls.at((int(i) for i in indices), kind, **spec_kwargs)

    def active(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to apply for this (index, attempt), if any."""
        spec = self.faults.get(index)
        if spec is None or attempt >= spec.trips:
            return None
        return spec

    def indices(self) -> Dict[int, FaultKind]:
        """Index → kind view (handy for test assertions)."""
        return {index: spec.kind for index, spec in sorted(self.faults.items())}

    # -- hook points called by repro.sim.runner.evaluate_topology ---------

    def fire_before(self, index: int, attempt: int) -> None:
        """Apply a ``when='before'`` fault: crash, hang, break the pool or exit."""
        spec = self.active(index, attempt)
        if spec is None or spec.when != "before":
            return
        self._fire(spec, index, attempt)

    def fire_after(self, index: int, attempt: int, result):
        """Apply a ``when='after'`` fault; may return a corrupted result."""
        spec = self.active(index, attempt)
        if spec is None or (spec.when != "after" and spec.kind is not FaultKind.CORRUPT):
            return result
        if spec.kind is FaultKind.CORRUPT:
            # A poisoned message: the record claims the wrong index.  The
            # runner's integrity check must reject and replay it.
            corrupt_record = dataclasses.replace(result.record, index=-(index + 1))
            return dataclasses.replace(result, record=corrupt_record)
        self._fire(spec, index, attempt)
        return result

    @staticmethod
    def _fire(spec: FaultSpec, index: int, attempt: int) -> None:
        if spec.kind is FaultKind.CRASH:
            raise InjectedCrash(f"injected crash at topology {index} (attempt {attempt})")
        if spec.kind is FaultKind.HANG:
            time.sleep(spec.hang_s)
            return
        if spec.kind is FaultKind.POOL_BREAK:
            raise SimulatedPoolBreak(
                f"injected pool breakage at topology {index} (attempt {attempt})"
            )
        if spec.kind is FaultKind.EXIT:
            os._exit(EXIT_STATUS)
        raise ValueError(f"unhandled fault kind {spec.kind!r}")  # pragma: no cover

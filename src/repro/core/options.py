"""Typed strategy-engine configuration: :class:`EngineOptions`.

This replaces the untyped ``engine_kwargs: Optional[dict]`` that used to
be threaded through ``run_experiment`` → ``build_tasks`` → the worker
processes.  An :class:`EngineOptions` is

* **validated once**, at construction, instead of failing deep inside a
  worker process;
* **frozen**, so a task spec can share one instance across topologies;
* **picklable by construction** for every supported field — the only way
  to break pickling is to pass a non-module-level callable, which the
  runner still detects and degrades to the serial path.

Every field defaults to ``None``, meaning "use the engine's default", so
``EngineOptions()`` is behaviourally identical to passing no options at
all.  The legacy ``engine_kwargs`` dict spelling is gone: entry points
normalize their ``options`` argument with :meth:`resolve`, which accepts
an :class:`EngineOptions` or ``None`` and raises a :class:`TypeError`
for anything else (see the migration note in EXPERIMENTS.md).

Every field is a physics or dispatch choice; none selects an execution
substrate.  The strategy engine (:mod:`repro.core.batch`) runs on plain
NumPy only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Optional

__all__ = ["EngineOptions"]

#: Fields never forwarded to the strategy engine as keyword arguments:
#: they configure cluster formation (:func:`repro.core.batch.run_batch`
#: turns each cluster into an engine row) instead, and *are*
#: result-determining — ``repro.sim.fingerprint`` hashes them whenever
#: they are set.
_CLUSTER_FIELDS = ("cluster_policy", "cluster_threshold_db")


@dataclass(frozen=True)
class EngineOptions:
    """Keyword overrides for :class:`repro.core.strategy.StrategyEngine`.

    Parameters
    ----------
    allocator:
        Per-stream power allocator (e.g. ``repro.core.mercury
        .mercury_allocate`` for COPA+, or an ablation allocator).
    rate_selector:
        Rate-selection model (e.g. ``repro.core.multi_decoder
        .per_subcarrier_rates`` for the §4.6 hardware).
    max_iterations:
        Cap on the Figure-6 concurrent allocation iteration.
    tx_power_dbm:
        Per-AP transmit power budget.
    oracle_check:
        Shadow-validate sequential power allocations against the
        optimization oracle (:mod:`repro.core.oracle`) while the engine
        runs.  Mismatches are *recorded* (``oracle.mismatch`` counter on
        the engine's collector), never raised — an oracle bug must not be
        able to fail an experiment.  Off by default: each check costs an
        extra oracle solve per stream.
    cluster_policy:
        Cluster-formation policy for N-AP topologies (``"fixed"``,
        ``"threshold"`` or ``"greedy"``, see
        :mod:`repro.core.clustering`).  ``None`` means ``"fixed"``: one
        cluster of all APs, batched at k = N like any other task.
        ``"threshold"`` and ``"greedy"`` may split the topology; each
        cluster is then one row of the batched engine, and the task still
        batches with its peers.  Result-determining: fingerprinted
        whenever set.
    cluster_threshold_db:
        Cross-gain threshold for the ``threshold``/``greedy`` policies,
        in dB (``None`` → the documented default).  Result-determining:
        fingerprinted whenever set.
    """

    allocator: Optional[Callable] = None
    rate_selector: Optional[Callable] = None
    max_iterations: Optional[int] = None
    tx_power_dbm: Optional[float] = None
    oracle_check: Optional[bool] = None
    cluster_policy: Optional[str] = None
    cluster_threshold_db: Optional[float] = None

    def __post_init__(self):
        if self.allocator is not None and not callable(self.allocator):
            raise TypeError(f"allocator must be callable, got {type(self.allocator).__name__}")
        if self.rate_selector is not None and not callable(self.rate_selector):
            raise TypeError(
                f"rate_selector must be callable, got {type(self.rate_selector).__name__}"
            )
        if self.max_iterations is not None:
            if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, int):
                raise TypeError("max_iterations must be an int")
            if self.max_iterations < 1:
                raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tx_power_dbm is not None:
            if isinstance(self.tx_power_dbm, bool) or not isinstance(self.tx_power_dbm, (int, float)):
                raise TypeError("tx_power_dbm must be a number")
            if not math.isfinite(self.tx_power_dbm):
                raise ValueError("tx_power_dbm must be finite")
        if self.oracle_check is not None and not isinstance(self.oracle_check, bool):
            raise TypeError(
                f"oracle_check must be a bool, got {type(self.oracle_check).__name__}"
            )
        if self.cluster_policy is not None:
            from .clustering import CLUSTER_POLICIES

            if self.cluster_policy not in CLUSTER_POLICIES:
                raise ValueError(
                    f"unknown cluster policy {self.cluster_policy!r}; "
                    f"expected one of {CLUSTER_POLICIES}"
                )
        if self.cluster_threshold_db is not None:
            if isinstance(self.cluster_threshold_db, bool) or not isinstance(
                self.cluster_threshold_db, (int, float)
            ):
                raise TypeError("cluster_threshold_db must be a number")
            if not math.isfinite(self.cluster_threshold_db):
                raise ValueError("cluster_threshold_db must be finite")

    def engine_kwargs(self) -> Dict[str, Any]:
        """The non-default engine fields, as keyword arguments.

        The cluster fields are excluded — the strategy engine does not
        take them.
        """
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name not in _CLUSTER_FIELDS and getattr(self, field.name) is not None
        }

    def replace(self, **overrides: Any) -> "EngineOptions":
        """A copy with ``overrides`` applied (and re-validated).

        The frozen-dataclass analogue of ``dict.update``::

            options = EngineOptions(max_iterations=4).replace(oracle_check=True)
        """
        return dataclasses.replace(self, **overrides)

    @classmethod
    def resolve(cls, value: Optional["EngineOptions"]) -> "EngineOptions":
        """Normalize a caller-supplied options value.

        ``None`` → all defaults; an :class:`EngineOptions` passes
        through.  Anything else — including the long-retired
        ``engine_kwargs`` dict spelling — raises a :class:`TypeError`
        with the migration hint.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"options must be an EngineOptions or None, got {type(value).__name__};"
            " the engine_kwargs dict form was removed — construct a"
            " repro.core.options.EngineOptions (e.g. EngineOptions(max_iterations=4))"
        )

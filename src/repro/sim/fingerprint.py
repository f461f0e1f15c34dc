"""Config fingerprinting shared by checkpoints and the result cache.

Both the ``repro.ckpt/v1`` journal (:mod:`repro.sim.checkpoint`) and the
content-addressed result cache (:mod:`repro.cache`) need the same answer
to the same question: *which inputs decide a task's result?*  Keeping the
answer in one module means the two subsystems cannot drift — a field that
invalidates a cache entry also invalidates a journal, and vice versa.

Determinism contract
--------------------
Every fingerprint here is a SHA-256 over **result-determining state
only**:

* per-task: index, seed, coherence time, the COPA+ flag, every
  result-determining :class:`~repro.core.options.EngineOptions` field,
  the imperfection model, and the raw channel bytes (dict order is
  canonicalized by sorting, so insertion order never matters);
* execution-only task fields (``attempt``, ``observe``, ``fault_plan``)
  and observation-only options (:data:`RESULT_IRRELEVANT_OPTION_FIELDS`)
  are deliberately **excluded** — a retried, observed, chaos-injected or
  oracle-shadowed run produces the same bytes, so it must share keys
  with a clean run;
* callables are described by ``module.qualname``, never by ``repr`` (a
  memory address would change every process restart).

The resulting hex digests are stable across processes, machines and
Python versions for a given repo state; ``tests/sim/test_fingerprint.py``
pins golden values to catch accidental drift.

Everything here is duck-typed (tasks, channel sets, scenario specs and
sim configs are only touched through their public attributes), so this
module imports nothing from the rest of the package and sits below both
:mod:`repro.sim.checkpoint` and :mod:`repro.cache` in the layering.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "describe_value",
    "update_digest_with_channels",
    "fingerprint_channels",
    "fingerprint_task",
    "fingerprint_tasks",
    "fingerprint_channel_config",
    "quantize_channels",
    "fingerprint_quantized",
]

#: Salt for per-task fingerprints; bump when the hashed fields change.
TASK_SALT = "repro.task/v1"
#: Salt for channel-realization config fingerprints.
CHANNELS_SALT = "repro.channels/v1"
#: Salt for quantized channel-cell fingerprints (the allocation service's
#: lookup keys); bump when the quantization scheme changes.
QUANTIZED_SALT = "repro.quant/v1"

#: :class:`repro.sim.config.SimConfig` fields that do **not** influence
#: :func:`repro.sim.experiment.generate_channel_sets`.  Everything not
#: listed here is hashed, so a *new* config field conservatively changes
#: the channel key until it is proven irrelevant and added to this set.
CHANNEL_IRRELEVANT_CONFIG_FIELDS = frozenset(
    {"coherence_s", "csi_error_db", "tx_evm_db", "carrier_leakage_db"}
)

#: :class:`repro.sim.experiment.ScenarioSpec` fields that do not influence
#: channel realization (``name`` is presentational; ``include_copa_plus``
#: only selects which engines run over the same channels).
CHANNEL_IRRELEVANT_SPEC_FIELDS = frozenset({"name", "include_copa_plus"})

#: :class:`repro.core.options.EngineOptions` fields that do **not**
#: influence results, like the execution-only task fields.
#: ``oracle_check`` shadow-validates allocations and records counters but
#: never alters what the engine returns, so a checked run must share keys
#: with an unchecked one.  Everything not listed here is hashed, so a new
#: option field conservatively changes the key until proven irrelevant.
RESULT_IRRELEVANT_OPTION_FIELDS = frozenset({"oracle_check"})

#: Option fields added after the ``repro.task/v1`` salt whose *unset*
#: (``None``) value is skipped so every pre-existing cache key stays
#: valid.  This is safe because an unset field means what its absence
#: meant (one cluster of all APs; the default threshold); any explicit
#: value is hashed and therefore invalidates the key.
_DEFAULT_SKIPPED_OPTION_FIELDS = frozenset({"cluster_policy", "cluster_threshold_db"})

#: ``ScenarioSpec`` fields added after the ``repro.channels/v1`` salt,
#: skipped at their historical default for the same reason: a 2-AP spec
#: must keep its pre-N-cell channel key, while any other AP count is
#: hashed (it changes both topology sampling and every engine result).
_DEFAULT_SKIPPED_SPEC_FIELDS = {"n_aps": 2}


def describe_value(value) -> str:
    """A stable, address-free description of one option value."""
    if value is None:
        return "None"
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", getattr(value, "__name__", repr(value)))
        return f"callable:{module}.{name}"
    return repr(value)


def update_digest_with_channels(digest, channels) -> None:
    """Feed one :class:`~repro.phy.channel.ChannelSet` into ``digest``.

    Channel matrices are hashed in sorted key order with their dtype and
    shape, so two sets holding bit-identical arrays fingerprint equal no
    matter how their dicts were built.
    """
    digest.update(f"noise={channels.noise_floor_mw!r};nsc={channels.n_subcarriers}".encode())
    for key in sorted(channels.channels):
        array = np.ascontiguousarray(channels.channels[key])
        digest.update(f"H|{key[0]}|{key[1]}|{array.dtype.str}|{array.shape}".encode())
        digest.update(array.tobytes())
    topology = channels.topology
    for (a, b), gain in sorted(topology.link_gain_db.items()):
        digest.update(f"gain|{a}|{b}|{gain!r}".encode())


def fingerprint_channels(channels) -> str:
    """SHA-256 over one realized channel set's content."""
    digest = hashlib.sha256()
    update_digest_with_channels(digest, channels)
    return digest.hexdigest()


def _update_digest_with_task(digest, task) -> None:
    digest.update(
        f"task|{task.index}|seed={task.seed}|coh={task.coherence_s!r}"
        f"|plus={int(task.include_copa_plus)}".encode()
    )
    for field in dataclasses.fields(task.options):
        if field.name in RESULT_IRRELEVANT_OPTION_FIELDS:
            continue
        value = getattr(task.options, field.name)
        if field.name in _DEFAULT_SKIPPED_OPTION_FIELDS and value is None:
            continue
        digest.update(f"opt|{field.name}={describe_value(value)}".encode())
    digest.update(repr(task.imperfections).encode())
    update_digest_with_channels(digest, task.channels)


def fingerprint_task(task) -> str:
    """SHA-256 over everything that determines one task's result.

    This is the result cache's content address for the task's
    :class:`~repro.sim.runner.TaskResult`: two tasks share a key exactly
    when a correct engine must produce bit-identical records for them.
    """
    digest = hashlib.sha256()
    digest.update(TASK_SALT.encode())
    _update_digest_with_task(digest, task)
    return digest.hexdigest()


def fingerprint_tasks(tasks: Sequence) -> str:
    """SHA-256 over everything that determines the tasks' results.

    Execution-only fields (``attempt``, ``observe``, ``fault_plan``) are
    excluded on purpose: retried, observed or chaos-injected runs of the
    same experiment must resume each other's journals.
    """
    digest = hashlib.sha256()
    digest.update(f"repro.ckpt/v1;tasks={len(tasks)}".encode())
    for task in tasks:
        _update_digest_with_task(digest, task)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Quantized channel fingerprints (the allocation service's lookup keys).
# ---------------------------------------------------------------------------

#: Magnitude bin for an exactly-zero channel entry (|h| = 0 has no dB
#: representation; any finite gain, however small, lands elsewhere).
_ZERO_BIN = np.iinfo(np.int64).min


def _phase_step_rad(grid_db: float) -> float:
    """Phase bin width matching ``grid_db``'s relative resolution.

    A magnitude step of ``grid_db`` dB multiplies ``|h|`` by
    ``10^(grid_db/20)``, i.e. moves ``ln|h|`` by ``grid_db·ln10/20``.
    Using the same numeric step (in radians) for ``arg(h)`` quantizes the
    complex logarithm ``ln h = ln|h| + i·arg(h)`` on a square grid — one
    parameter controls both axes at equal resolution.
    """
    return grid_db * math.log(10.0) / 20.0


def quantize_channels(channels, grid_db: float) -> Tuple:
    """The grid cell one :class:`~repro.phy.channel.ChannelSet` lands in.

    Every complex channel entry is quantized in log-polar form: the
    magnitude in dB is rounded to the nearest multiple of ``grid_db`` and
    the phase to the matching step (:func:`_phase_step_rad`); exact zeros
    get a reserved bin.  The noise floor and topology link gains are
    rounded on the same dB grid.  The result is a nested tuple of plain
    ints/strings — hashable and comparable — such that two channel sets
    share a cell **iff** this function returns equal tuples for them
    (which is exactly when :func:`fingerprint_quantized` collides).
    """
    if not grid_db > 0:
        raise ValueError(f"grid_db must be > 0, got {grid_db!r}")
    phase_step = _phase_step_rad(grid_db)
    entries = []
    for key in sorted(channels.channels):
        array = np.ascontiguousarray(channels.channels[key])
        magnitude = np.abs(array)
        nonzero = magnitude > 0
        safe = np.where(nonzero, magnitude, 1.0)
        mag_bins = np.where(
            nonzero,
            np.round(20.0 * np.log10(safe) / grid_db),
            float(_ZERO_BIN),
        ).astype(np.int64)
        phase_bins = np.where(
            nonzero, np.round(np.angle(array) / phase_step), 0.0
        ).astype(np.int64)
        entries.append(
            (
                str(key[0]),
                str(key[1]),
                array.shape,
                tuple(mag_bins.ravel().tolist()),
                tuple(phase_bins.ravel().tolist()),
            )
        )
    links = tuple(
        (str(a), str(b), int(round(gain / grid_db)))
        for (a, b), gain in sorted(channels.topology.link_gain_db.items())
    )
    noise_bin = int(round(10.0 * math.log10(channels.noise_floor_mw) / grid_db))
    return (int(channels.n_subcarriers), noise_bin, tuple(entries), links)


def fingerprint_quantized(channels, grid_db: float) -> str:
    """SHA-256 over the quantized cell of one channel set.

    This is the allocation service's lookup key ingredient: channel sets
    that quantize to the same ``grid_db`` cell share the key (and may
    share a cached strategy answer); any set in a different cell — or the
    same set under a different grid — gets a different key.  The grid
    itself is folded in, so answers computed at one tolerance are never
    served at another.
    """
    cell = quantize_channels(channels, grid_db)
    digest = hashlib.sha256()
    digest.update(QUANTIZED_SALT.encode())
    digest.update(f"|grid={grid_db!r}|".encode())
    digest.update(repr(cell).encode())
    return digest.hexdigest()


def fingerprint_channel_config(spec, config) -> str:
    """SHA-256 key for a scenario's full list of channel realizations.

    Hashes every :class:`ScenarioSpec` and :class:`SimConfig` field
    *except* the explicitly channel-irrelevant ones, so e.g. two configs
    differing only in ``coherence_s`` or ``csi_error_db`` share one set
    of realized channels while any seed/geometry/fading change gets a
    fresh key.  Unknown future fields are hashed by default — stale
    reuse is the one failure mode this must never have.
    """
    digest = hashlib.sha256()
    digest.update(CHANNELS_SALT.encode())
    for field in dataclasses.fields(spec):
        if field.name in CHANNEL_IRRELEVANT_SPEC_FIELDS:
            continue
        value = getattr(spec, field.name)
        if field.name in _DEFAULT_SKIPPED_SPEC_FIELDS and value == _DEFAULT_SKIPPED_SPEC_FIELDS[field.name]:
            continue
        digest.update(f"spec|{field.name}={describe_value(value)}".encode())
    for field in dataclasses.fields(config):
        if field.name in CHANNEL_IRRELEVANT_CONFIG_FIELDS:
            continue
        digest.update(f"config|{field.name}={describe_value(getattr(config, field.name))}".encode())
    return digest.hexdigest()

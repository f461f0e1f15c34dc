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

The allocation service's lookup keys (:func:`fingerprint_quantized`)
hash a channel set's grid cell instead of its bytes.  Every query pays
for one, so it is built in one vectorized pass: all links are binned by
one set of ufunc calls and the bins' decimal text is written by NumPy,
byte for byte the ``repr`` of the :func:`quantize_channels` tuple that
defines the cell.  Non-finite entries and grids raise ``ValueError``.

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
    "check_grid_db",
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

#: Bins must round to less than this to be cast to ``int64`` exactly.
_BIN_LIMIT = 2.0**63

#: The divisor that peels one decimal digit off a ``uint64`` magnitude.
_TEN = np.uint64(10)


def check_grid_db(grid_db: float) -> float:
    """``grid_db`` as a float, or ``ValueError`` unless finite and > 0.

    An infinite grid would round every nonzero entry to bin 0, so every
    cell without exact zeros would share one key.
    """
    if not (grid_db > 0 and math.isfinite(grid_db)):
        raise ValueError(f"grid_db must be a finite number > 0, got {grid_db!r}")
    return float(grid_db)


def _phase_step_rad(grid_db: float) -> float:
    """Phase bin width matching ``grid_db``'s relative resolution.

    A magnitude step of ``grid_db`` dB multiplies ``|h|`` by
    ``10^(grid_db/20)``, i.e. moves ``ln|h|`` by ``grid_db·ln10/20``.
    Using the same numeric step (in radians) for ``arg(h)`` quantizes the
    complex logarithm ``ln h = ln|h| + i·arg(h)`` on a square grid — one
    parameter controls both axes at equal resolution.
    """
    return grid_db * math.log(10.0) / 20.0


def _quantize(channels, grid_db: float):
    """Every link's bins, computed in one pass over all channel entries.

    Returns ``(keys, shapes, bounds, bins, links, noise_bin)``: the sorted
    link keys and their array shapes, the ``len(keys) + 1`` offsets of
    each link's entries in the flat entry order, ``bins``, a
    ``(2, n_entries)`` ``int64`` array of magnitude (row 0) and phase
    (row 1) bins, and the link-gain and noise-floor bins.  The ufuncs see
    the same contiguous operands, element by element, as they would one
    link at a time, so no bin depends on how the links are grouped (the
    links share one dtype, ``complex128`` from every realization path, so
    concatenating them casts nothing).
    """
    grid_db = check_grid_db(grid_db)
    keys = sorted(channels.channels)
    arrays = [np.ascontiguousarray(channels.channels[key]) for key in keys]
    bounds = np.cumsum([0] + [array.size for array in arrays])
    entries = (
        np.concatenate([array.ravel() for array in arrays])
        if arrays
        else np.empty(0, dtype=complex)
    )
    magnitude = np.abs(entries)
    nonzero = magnitude > 0
    safe = np.where(nonzero, magnitude, 1.0)
    rounded = np.empty((2, entries.size))
    rounded[0] = 20.0 * np.log10(safe) / grid_db
    rounded[1] = np.angle(entries) / _phase_step_rad(grid_db)
    np.round(rounded, out=rounded)
    # A non-finite entry is caught here, before it can cast into the zero
    # bin: an infinite part makes |h| and its dB bin infinite, and a NaN
    # part without one makes the phase bin NaN.
    if not np.abs(rounded).max(initial=0.0) < _BIN_LIMIT:
        index = int(np.argmin((np.abs(rounded) < _BIN_LIMIT).all(axis=0)))
        key = keys[int(np.searchsorted(bounds, index, side="right")) - 1]
        entry = entries[index]
        if not np.isfinite(entry):
            raise ValueError(f"channel link {key!r} has a non-finite entry {entry!r}")
        raise ValueError(
            f"channel entry {entry!r} of link {key!r} has a bin beyond int64 "
            f"at grid_db={grid_db!r}"
        )
    bins = rounded.astype(np.int64)
    if not nonzero.all():
        zero = ~nonzero
        bins[0, zero] = _ZERO_BIN
        bins[1, zero] = 0
    links = tuple(
        (str(a), str(b), int(round(gain / grid_db)))
        for (a, b), gain in sorted(channels.topology.link_gain_db.items())
    )
    noise_bin = int(round(10.0 * math.log10(channels.noise_floor_mw) / grid_db))
    shapes = [array.shape for array in arrays]
    return keys, shapes, bounds, bins, links, noise_bin


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
    Non-finite entries and non-finite or non-positive grids raise
    ``ValueError``.
    """
    keys, shapes, bounds, bins, links, noise_bin = _quantize(channels, grid_db)
    mags, phases = bins.tolist()
    entries = tuple(
        (str(key[0]), str(key[1]), shape, tuple(mags[start:stop]), tuple(phases[start:stop]))
        for key, shape, start, stop in zip(keys, shapes, bounds[:-1], bounds[1:])
    )
    return (int(channels.n_subcarriers), noise_bin, entries, links)


def _decimal_rows(values: np.ndarray) -> np.ndarray:
    """Each ``int64`` of ``values`` as one fixed-width ASCII row.

    A row is a sign byte, the value's digits right-aligned in as many
    columns as the longest value needs, and ``", "``; the sign and the
    leading-zero columns a value does not use are NUL.  So the rows of a
    1-D ``values``, read with ``rows.tobytes().translate(None, b"\\0")``,
    are ``", ".join(map(str, values)) + ", "``.  Magnitudes are read as
    ``uint64``: ``np.abs`` of the zero bin, ``int64`` min, wraps to
    itself, and that bit pattern is its true magnitude ``2**63`` there.
    """
    magnitude = np.abs(values).view(np.uint64)
    width = len(str(magnitude.max(initial=0)))
    rows = np.zeros(values.shape + (width + 3,), dtype=np.uint8)
    rows[..., 0] = (values < 0) * np.uint8(ord("-"))
    rows[..., width + 1] = ord(",")
    rows[..., width + 2] = ord(" ")
    remaining = magnitude
    for column in range(width, 0, -1):
        quotient = remaining // _TEN
        digit = remaining - quotient * _TEN + ord("0")
        if column < width:
            # Past the value's leading digit: a pad, not a "0".
            digit *= remaining > 0
        rows[..., column] = digit
        remaining = quotient
    return rows


def _tuple_text(rows: np.ndarray) -> bytes:
    """``repr`` of the tuple of the values written in ``rows``."""
    text = rows.tobytes().translate(None, b"\0")
    # Each value's text ends in ", ": a lone value keeps its comma, as in
    # ``(x,)``, and more than one drop the whole last separator.
    return b"(" + text[: -1 if len(rows) == 1 else -2] + b")"


def fingerprint_quantized(channels, grid_db: float) -> str:
    """SHA-256 over the quantized cell of one channel set.

    This is the allocation service's lookup key ingredient: channel sets
    that quantize to the same ``grid_db`` cell share the key (and may
    share a cached strategy answer); any set in a different cell — or the
    same set under a different grid — gets a different key.  The grid
    itself is folded in, so answers computed at one tolerance are never
    served at another.

    The hashed text is ``repr(quantize_channels(channels, grid_db))``,
    byte for byte, written in one pass: every link's bins come from one
    set of ufunc calls (:func:`_quantize`) and their decimal text from
    NumPy digit columns (:func:`_decimal_rows`), so no tuple of Python
    ints is built.  Non-finite entries and grids raise ``ValueError``.
    """
    keys, shapes, bounds, bins, links, noise_bin = _quantize(channels, grid_db)
    mags, phases = _decimal_rows(bins)
    parts = [
        b"%s, %s, %s)"
        % (
            repr((str(key[0]), str(key[1]), shape))[:-1].encode(),
            _tuple_text(mags[start:stop]),
            _tuple_text(phases[start:stop]),
        )
        for key, shape, start, stop in zip(keys, shapes, bounds[:-1], bounds[1:])
    ]
    entries = b"(" + b", ".join(parts) + (b",)" if len(parts) == 1 else b")")
    digest = hashlib.sha256()
    digest.update(QUANTIZED_SALT.encode())
    digest.update(f"|grid={grid_db!r}|".encode())
    digest.update(
        b"(%d, %d, %s, %s)"
        % (int(channels.n_subcarriers), noise_bin, entries, repr(links).encode())
    )
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

"""Fingerprint stability: the cache/checkpoint keys and what moves them.

The contract pinned here is the one both ``repro.ckpt/v1`` journals and
the ``repro.cache/v1`` store build on: a fingerprint is a pure function
of **result-determining state only**.  Execution detail (retry attempt,
observation, fault plans, dict insertion order, freshly constructed but
equal-valued options) must not move a key; anything that changes the
computed numbers (seed, coherence, engine options, channel bytes) must.

Golden values at the bottom pin the exact hex digests so accidental
hashing changes are caught even when they are internally consistent.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import repro.sim.checkpoint as checkpoint
import repro.sim.fingerprint as fingerprint_module
from repro.core import mercury
from repro.core.options import EngineOptions
from repro.phy.channel import ChannelModel, ChannelSet
from repro.phy.topology import TopologyGenerator
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets
from repro.sim.faults import FaultKind, FaultPlan
from repro.sim.fingerprint import (
    CHANNEL_IRRELEVANT_CONFIG_FIELDS,
    CHANNEL_IRRELEVANT_SPEC_FIELDS,
    QUANTIZED_SALT,
    RESULT_IRRELEVANT_OPTION_FIELDS,
    _ZERO_BIN,
    _decimal_rows,
    _phase_step_rad,
    _tuple_text,
    check_grid_db,
    describe_value,
    fingerprint_channel_config,
    fingerprint_channels,
    fingerprint_quantized,
    fingerprint_task,
    fingerprint_tasks,
    quantize_channels,
)
from repro.sim.runner import build_tasks
from repro.sim.service import AllocationService
from tests.dispatch import pinned, simd_level

CONFIG = SimConfig(n_topologies=2)
SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(
        generate_channel_sets(SPEC, CONFIG),
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
    )


class TestHoisting:
    """The checkpoint module re-exports the shared fingerprint machinery."""

    def test_checkpoint_reexports_the_same_function(self):
        assert checkpoint.fingerprint_tasks is fingerprint_module.fingerprint_tasks

    def test_fingerprints_are_in_the_sim_namespace(self):
        import repro.sim as sim

        assert sim.fingerprint_task is fingerprint_task
        assert sim.fingerprint_channels is fingerprint_channels
        assert sim.fingerprint_channel_config is fingerprint_channel_config


class TestDescribeValue:
    def test_callables_described_by_qualname_not_address(self):
        from repro.core.mercury import mercury_allocate

        described = describe_value(mercury_allocate)
        assert described == "callable:repro.core.mercury.mercury_allocate"
        assert "0x" not in described

    def test_none_and_scalars(self):
        assert describe_value(None) == "None"
        assert describe_value(3.5) == "3.5"


class TestTaskKeyStability:
    def test_repeated_calls_agree(self, tasks):
        assert fingerprint_task(tasks[0]) == fingerprint_task(tasks[0])
        assert fingerprint_tasks(tasks) == fingerprint_tasks(tasks)

    def test_rebuilt_tasks_agree(self, tasks):
        rebuilt = build_tasks(
            generate_channel_sets(SPEC, CONFIG),
            base_seed=CONFIG.seed,
            coherence_s=CONFIG.coherence_s,
            imperfections=CONFIG.imperfections(),
        )
        assert [fingerprint_task(t) for t in rebuilt] == [fingerprint_task(t) for t in tasks]

    def test_keys_are_distinct_per_topology(self, tasks):
        keys = {fingerprint_task(task) for task in tasks}
        assert len(keys) == len(tasks)

    def test_channel_dict_order_is_canonicalized(self, tasks):
        channels = tasks[0].channels
        shuffled = ChannelSet(
            topology=channels.topology,
            channels=dict(reversed(list(channels.channels.items()))),
            noise_floor_mw=channels.noise_floor_mw,
            n_subcarriers=channels.n_subcarriers,
        )
        assert fingerprint_channels(shuffled) == fingerprint_channels(channels)
        assert fingerprint_task(dataclasses.replace(tasks[0], channels=shuffled)) == (
            fingerprint_task(tasks[0])
        )

    def test_fresh_equal_valued_options_do_not_move_the_key(self, tasks):
        same = dataclasses.replace(tasks[0], options=EngineOptions())
        assert fingerprint_task(same) == fingerprint_task(tasks[0])


class TestExecutionOnlyFieldsExcluded:
    """Retried, observed or chaos-injected runs must share keys."""

    @pytest.mark.parametrize(
        "override",
        [
            {"attempt": 3},
            {"observe": True},
            {"fault_plan": FaultPlan.at([0], FaultKind.CRASH)},
        ],
        ids=["attempt", "observe", "fault_plan"],
    )
    def test_field_does_not_move_task_key(self, tasks, override):
        changed = dataclasses.replace(tasks[0], **override)
        assert fingerprint_task(changed) == fingerprint_task(tasks[0])
        assert fingerprint_tasks([changed, tasks[1]]) == fingerprint_tasks(tasks)

    def test_oracle_check_option_does_not_move_the_key(self, tasks):
        """Shadow validation observes, never alters — keys must not move."""
        checked = dataclasses.replace(tasks[0], options=EngineOptions(oracle_check=True))
        assert fingerprint_task(checked) == fingerprint_task(tasks[0])


class TestResultDeterminingFieldsIncluded:
    """Anything that changes the computed numbers must change the key."""

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1},
            {"coherence_s": 0.120},
            {"include_copa_plus": True},
            {"options": EngineOptions(max_iterations=3)},
            {"options": EngineOptions(tx_power_dbm=10.0)},
        ],
        ids=["seed", "coherence", "plus", "max_iterations", "tx_power"],
    )
    def test_field_moves_task_key(self, tasks, override):
        changed = dataclasses.replace(tasks[0], **override)
        assert fingerprint_task(changed) != fingerprint_task(tasks[0])

    def test_channel_bytes_move_the_key(self, tasks):
        channels = tasks[0].channels
        (key, h), *rest = channels.channels.items()
        perturbed = dict(channels.channels)
        perturbed[key] = h + 1e-12
        changed = ChannelSet(
            topology=channels.topology,
            channels=perturbed,
            noise_floor_mw=channels.noise_floor_mw,
            n_subcarriers=channels.n_subcarriers,
        )
        assert fingerprint_channels(changed) != fingerprint_channels(channels)
        assert fingerprint_task(dataclasses.replace(tasks[0], channels=changed)) != (
            fingerprint_task(tasks[0])
        )


class TestNCellSensitivity:
    """N-cell knobs (PR-10) are result-determining — and only when set.

    Cluster policy and AP count change which engine runs and what it
    computes, so setting them must invalidate cache keys.  Their *unset*
    defaults (``None`` options fields, ``n_aps=2``) must hash exactly as
    before the fields existed, or every artifact cached by earlier
    revisions would be silently orphaned — the pinned digests in
    :class:`TestGoldenKeys` below enforce that half of the contract.
    """

    def test_cluster_policy_moves_the_task_key(self, tasks):
        clustered = dataclasses.replace(
            tasks[0], options=EngineOptions(cluster_policy="threshold")
        )
        assert fingerprint_task(clustered) != fingerprint_task(tasks[0])

    def test_distinct_cluster_policies_get_distinct_keys(self, tasks):
        keys = {
            fingerprint_task(
                dataclasses.replace(tasks[0], options=EngineOptions(cluster_policy=p))
            )
            for p in ("fixed", "threshold", "greedy")
        }
        assert len(keys) == 3

    def test_cluster_threshold_moves_the_task_key(self, tasks):
        base = dataclasses.replace(
            tasks[0], options=EngineOptions(cluster_policy="threshold")
        )
        tightened = dataclasses.replace(
            tasks[0],
            options=EngineOptions(cluster_policy="threshold", cluster_threshold_db=-60.0),
        )
        assert fingerprint_task(tightened) != fingerprint_task(base)

    def test_unset_cluster_fields_do_not_move_the_task_key(self, tasks):
        explicit_none = dataclasses.replace(
            tasks[0],
            options=EngineOptions(cluster_policy=None, cluster_threshold_db=None),
        )
        assert fingerprint_task(explicit_none) == fingerprint_task(tasks[0])

    def test_n_aps_moves_the_channel_config_key(self):
        base = fingerprint_channel_config(SPEC, CONFIG)
        four = dataclasses.replace(SPEC, n_aps=4)
        assert fingerprint_channel_config(four, CONFIG) != base
        six = dataclasses.replace(SPEC, n_aps=6)
        assert fingerprint_channel_config(six, CONFIG) != fingerprint_channel_config(
            four, CONFIG
        )

    def test_default_n_aps_does_not_move_the_channel_config_key(self):
        explicit_default = dataclasses.replace(SPEC, n_aps=2)
        assert fingerprint_channel_config(explicit_default, CONFIG) == (
            fingerprint_channel_config(SPEC, CONFIG)
        )


class TestChannelConfigKey:
    """generate_channel_sets' cache key: realization inputs only."""

    def test_engine_side_fields_do_not_move_the_key(self):
        base = fingerprint_channel_config(SPEC, CONFIG)
        for field_name, value in [
            ("coherence_s", 1.0),
            ("csi_error_db", -10.0),
            ("tx_evm_db", -20.0),
            ("carrier_leakage_db", -50.0),
        ]:
            assert fingerprint_channel_config(SPEC, CONFIG.with_(**{field_name: value})) == base

    def test_spec_presentation_fields_do_not_move_the_key(self):
        base = fingerprint_channel_config(SPEC, CONFIG)
        renamed = dataclasses.replace(SPEC, name="renamed")
        with_plus = dataclasses.replace(SPEC, include_copa_plus=True)
        assert fingerprint_channel_config(renamed, CONFIG) == base
        assert fingerprint_channel_config(with_plus, CONFIG) == base

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 7},
            {"n_topologies": 3},
            {"rms_delay_spread_s": 100e-9},
            {"antenna_correlation": 0.3},
        ],
        ids=["seed", "n_topologies", "delay_spread", "correlation"],
    )
    def test_realization_fields_move_the_key(self, override):
        base = fingerprint_channel_config(SPEC, CONFIG)
        assert fingerprint_channel_config(SPEC, CONFIG.with_(**override)) != base

    @pytest.mark.parametrize(
        "override",
        [
            {"ap_antennas": 4},
            {"client_antennas": 2},
            {"interference_offset_db": -10.0},
        ],
        ids=["ap_antennas", "client_antennas", "interference"],
    )
    def test_spec_geometry_fields_move_the_key(self, override):
        base = fingerprint_channel_config(SPEC, CONFIG)
        assert fingerprint_channel_config(dataclasses.replace(SPEC, **override), CONFIG) != base

    def test_exclusion_lists_name_real_fields(self):
        config_fields = {f.name for f in dataclasses.fields(SimConfig)}
        spec_fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
        option_fields = {f.name for f in dataclasses.fields(EngineOptions)}
        assert CHANNEL_IRRELEVANT_CONFIG_FIELDS <= config_fields
        assert CHANNEL_IRRELEVANT_SPEC_FIELDS <= spec_fields
        assert RESULT_IRRELEVANT_OPTION_FIELDS <= option_fields


class TestGoldenKeys:
    """Pinned hex digests for ``SimConfig(n_topologies=2)`` / 1×1.

    These catch hashing changes that are internally consistent (both
    store and lookup move together) but would silently orphan every
    artifact in existing cache directories and checkpoint journals.
    Update policy: if a change to the hashed fields is *intentional*,
    bump the relevant salt (``TASK_SALT`` / ``CHANNELS_SALT`` /
    ``repro.ckpt/v1``) and regenerate these constants; never update the
    constants without a salt bump.
    """

    #: Keyed by SIMD level (:func:`tests.dispatch.simd_level`): the
    #: second realization's channel bytes, and so the task keys, differ
    #: between X86_V4 and the levels below it, though not with OpenBLAS's
    #: kernels.  The X86_V3 and X86_V2 values were recorded at commit
    #: f8b8bf6 with NumPy's targets above them switched off.  The channel
    #: config key hashes no channel bytes and is the same everywhere.
    GOLDEN_TASK_KEYS = {
        "X86_V4": [
            "39e1b78d1a50010e961d31a81965313aef9883de80e96b3951d66fcfaf34ded8",
            "1c14ca28d183b598c3be39841c8064809fb669a79281d52325e82ade00b1c532",
        ],
        **dict.fromkeys(
            ("X86_V3", "X86_V2"),
            [
                "39e1b78d1a50010e961d31a81965313aef9883de80e96b3951d66fcfaf34ded8",
                "c86c350bc1195dac1bb48000c31e76feab26d5304fe6e44239d87ee98aaab312",
            ],
        ),
    }
    GOLDEN_TASKS_KEY = {
        "X86_V4": "c886fbae786c3ea3f1425621af6fe4cc6c39c633dff8b9b7856b360081cf8a3d",
        **dict.fromkeys(
            ("X86_V3", "X86_V2"),
            "3429ead7f4b6233e4042b25bf49f95e53badf04ba6b75e2bb7415ce89452e11f",
        ),
    }
    GOLDEN_CHANNELS_KEY = "0cf68c3b6cf4194bdce22e4b984dc5f082e2d4079b42df6cfa2785783f9a38e3"

    def test_task_keys(self, tasks):
        golden = pinned(self.GOLDEN_TASK_KEYS, simd_level())
        assert [fingerprint_task(task) for task in tasks] == golden

    def test_tasks_key(self, tasks):
        assert fingerprint_tasks(tasks) == pinned(self.GOLDEN_TASKS_KEY, simd_level())

    def test_channel_config_key(self):
        assert fingerprint_channel_config(SPEC, CONFIG) == self.GOLDEN_CHANNELS_KEY

    def test_keys_are_hex_sha256(self, tasks):
        for key in [fingerprint_task(tasks[0]), fingerprint_channel_config(SPEC, CONFIG)]:
            assert len(key) == 64
            int(key, 16)


# ---------------------------------------------------------------------------
# Quantized fingerprints (the allocation service's lookup keys).
# ---------------------------------------------------------------------------


def _with_channels(channels, arrays):
    return ChannelSet(
        topology=channels.topology,
        channels=arrays,
        noise_floor_mw=channels.noise_floor_mw,
        n_subcarriers=channels.n_subcarriers,
    )


def snap_to_grid(channels, grid_db):
    """A copy of ``channels`` reconstructed at its grid-cell center.

    Cell centers are the one place where same-cell membership is robust:
    any perturbation strictly smaller than half a bin provably stays in
    the cell, and anything past half a bin provably leaves it — so the
    tests below never depend on how close an arbitrary realization sits
    to a rounding boundary.  Phase bins are clamped one step short of ±π
    so a sub-half-step perturbation can never wrap around the branch cut.
    """
    import math

    step = _phase_step_rad(grid_db)
    bin_max = int((math.pi - step) / step)
    snapped = {}
    for key, array in channels.channels.items():
        array = np.ascontiguousarray(array)
        magnitude = np.abs(array)
        nonzero = magnitude > 0
        safe = np.where(nonzero, magnitude, 1.0)
        mag_bins = np.round(20.0 * np.log10(safe) / grid_db)
        phase_bins = np.clip(np.round(np.angle(array) / step), -bin_max, bin_max)
        snapped[key] = np.where(
            nonzero,
            10.0 ** (mag_bins * grid_db / 20.0) * np.exp(1j * phase_bins * step),
            0.0,
        )
    gains = {
        key: round(gain / grid_db) * grid_db
        for key, gain in channels.topology.link_gain_db.items()
    }
    return ChannelSet(
        topology=dataclasses.replace(channels.topology, link_gain_db=gains),
        channels=snapped,
        noise_floor_mw=10.0
        ** (round(10.0 * math.log10(channels.noise_floor_mw) / grid_db) * grid_db / 10.0),
        n_subcarriers=channels.n_subcarriers,
    )


def _mag_scaled(channels, offset_db):
    """Every channel entry's magnitude moved by ``offset_db`` dB."""
    factor = 10.0 ** (offset_db / 20.0)
    return _with_channels(
        channels, {key: value * factor for key, value in channels.channels.items()}
    )


class TestQuantizedCell:
    """The service's hit condition: same ``grid_db`` cell ⇔ same key."""

    GRIDS = [0.0625, 0.25, 1.0, 4.0]

    @pytest.fixture(scope="class")
    def channels(self):
        return generate_channel_sets(SPEC, CONFIG)[0]

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_snapping_is_idempotent(self, channels, grid_db):
        snapped = snap_to_grid(channels, grid_db)
        assert quantize_channels(snap_to_grid(snapped, grid_db), grid_db) == (
            quantize_channels(snapped, grid_db)
        )

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_hit_iff_same_cell(self, channels, grid_db):
        """The iff-form of the contract, across every pair we can build.

        A pair of channel sets shares a quantized fingerprint exactly when
        it shares a cell tuple — never just one of the two.
        """
        snapped = snap_to_grid(channels, grid_db)
        pairs = [
            (snapped, snap_to_grid(channels, grid_db)),  # rebuilt copy
            (snapped, _mag_scaled(snapped, 0.4 * grid_db)),  # within the cell
            (snapped, _mag_scaled(snapped, 0.6 * grid_db)),  # across the edge
            (snapped, _mag_scaled(snapped, 2.0 * grid_db)),  # far away
            (channels, snapped),  # arbitrary point vs its cell center
        ]
        for left, right in pairs:
            same_cell = quantize_channels(left, grid_db) == quantize_channels(right, grid_db)
            same_key = fingerprint_quantized(left, grid_db) == (
                fingerprint_quantized(right, grid_db)
            )
            assert same_key == same_cell

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_sub_half_bin_perturbations_hit(self, channels, grid_db):
        snapped = snap_to_grid(channels, grid_db)
        key = fingerprint_quantized(snapped, grid_db)
        assert fingerprint_quantized(_mag_scaled(snapped, 0.4 * grid_db), grid_db) == key
        assert fingerprint_quantized(_mag_scaled(snapped, -0.4 * grid_db), grid_db) == key

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_past_half_bin_perturbations_miss(self, channels, grid_db):
        snapped = snap_to_grid(channels, grid_db)
        key = fingerprint_quantized(snapped, grid_db)
        assert fingerprint_quantized(_mag_scaled(snapped, 0.6 * grid_db), grid_db) != key
        assert fingerprint_quantized(_mag_scaled(snapped, -0.6 * grid_db), grid_db) != key

    def test_phase_moves_the_cell_at_matching_resolution(self, channels):
        grid_db = 0.25
        step = _phase_step_rad(grid_db)
        snapped = snap_to_grid(channels, grid_db)
        rotated = _with_channels(
            snapped,
            {
                key: value * np.exp(1j * 0.6 * step)
                for key, value in snapped.channels.items()
            },
        )
        assert quantize_channels(rotated, grid_db) != quantize_channels(snapped, grid_db)
        within = _with_channels(
            snapped,
            {
                key: value * np.exp(1j * 0.4 * step)
                for key, value in snapped.channels.items()
            },
        )
        assert quantize_channels(within, grid_db) == quantize_channels(snapped, grid_db)

    def test_exact_zero_gets_the_reserved_bin(self, channels):
        grid_db = 0.25
        snapped = snap_to_grid(channels, grid_db)
        (key, value), *_ = sorted(snapped.channels.items())
        zeroed_entry = value.copy()
        zeroed_entry.flat[0] = 0.0
        zeroed = _with_channels(snapped, {**snapped.channels, key: zeroed_entry})
        cell = quantize_channels(zeroed, grid_db)
        assert cell != quantize_channels(snapped, grid_db)
        # The zero bin is the sentinel, not a deep-fade magnitude bin.
        assert cell[2][0][3][0] == _ZERO_BIN
        tiny_entry = value.copy()
        tiny_entry.flat[0] = 1e-30
        tiny = _with_channels(snapped, {**snapped.channels, key: tiny_entry})
        assert quantize_channels(tiny, grid_db) != cell

    def test_grid_is_folded_into_the_key(self, channels):
        assert fingerprint_quantized(channels, 0.25) != fingerprint_quantized(channels, 0.5)

    def test_invalid_grid_rejected(self, channels):
        for bad in (0.0, -0.25):
            with pytest.raises(ValueError):
                quantize_channels(channels, bad)


class TestQuantizedGoldenKeys:
    """Pinned quantized keys for the module fixture's first realization.

    Same update policy as :class:`TestGoldenKeys`: if a change to the
    quantization scheme (bins, phase step, tuple layout) is *intentional*,
    bump ``QUANTIZED_SALT`` and regenerate these constants; never update
    the constants without a salt bump — silent drift here invalidates
    every allocation-service cache entry in the field.
    """

    GOLDEN_QUARTER_DB = "b27575fa169ad43c14064aadddebae90a7e90359d0b07d64504dc7d7abc66e2c"
    GOLDEN_ONE_DB = "69675c823cde3518e6babeff9f52c9336dd796fac0660e7c49832660a55ee309"

    @pytest.fixture(scope="class")
    def channels(self):
        return generate_channel_sets(SPEC, CONFIG)[0]

    def test_quarter_db_key(self, channels):
        assert fingerprint_quantized(channels, 0.25) == self.GOLDEN_QUARTER_DB

    def test_one_db_key(self, channels):
        assert fingerprint_quantized(channels, 1.0) == self.GOLDEN_ONE_DB

    def test_keys_are_hex_sha256(self, channels):
        key = fingerprint_quantized(channels, 0.25)
        assert len(key) == 64
        int(key, 16)


def _repr_key(channels, grid_db):
    """The quantized key as ``repr`` of the cell tuple would hash it."""
    digest = hashlib.sha256()
    digest.update(QUANTIZED_SALT.encode())
    digest.update(f"|grid={grid_db!r}|".encode())
    digest.update(repr(quantize_channels(channels, grid_db)).encode())
    return digest.hexdigest()


def _reference_cell(channels, grid_db):
    """:func:`quantize_channels` computed one link at a time."""
    phase_step = _phase_step_rad(grid_db)
    entries = []
    for key in sorted(channels.channels):
        array = np.ascontiguousarray(channels.channels[key])
        magnitude = np.abs(array)
        nonzero = magnitude > 0
        safe = np.where(nonzero, magnitude, 1.0)
        mag_bins = np.where(
            nonzero, np.round(20.0 * np.log10(safe) / grid_db), float(_ZERO_BIN)
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


def _first_link_with(channels, index, value):
    """``channels`` with entry ``index`` of its first sorted link set."""
    key = sorted(channels.channels)[0]
    array = channels.channels[key].astype(complex)
    array[index] = value
    return _with_channels(channels, {**channels.channels, key: array})


class TestQuantizedKeyText:
    """The one-pass key hashes exactly the bytes of ``repr`` of the cell.

    :func:`fingerprint_quantized` writes the cell's text from NumPy digit
    columns instead of building the tuple; every input here checks those
    bytes against ``repr(quantize_channels(...))``, and the cell itself
    against :func:`_reference_cell`, the binning done link by link.
    """

    GRIDS = [1e-4, 0.0625, 0.25, 1.0, 4.0, 8.0]

    @pytest.fixture(scope="class")
    def realizations(self):
        """The module fixture's 1x1 sets and one 4x2 set, the service's shape."""
        rng = np.random.default_rng(2015)
        topology = TopologyGenerator().sample(rng, ap_antennas=4, client_antennas=2)
        return generate_channel_sets(SPEC, CONFIG) + [ChannelModel().realize(topology, rng)]

    def assert_repr_bytes(self, channels, grid_db):
        assert quantize_channels(channels, grid_db) == _reference_cell(channels, grid_db)
        assert fingerprint_quantized(channels, grid_db) == _repr_key(channels, grid_db)

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_realizations(self, realizations, grid_db):
        for channels in realizations:
            self.assert_repr_bytes(channels, grid_db)

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_exact_zero_entry(self, realizations, grid_db):
        zeroed = _first_link_with(realizations[0], (0, 0, 0), 0.0)
        assert quantize_channels(zeroed, grid_db)[2][0][3][0] == _ZERO_BIN
        self.assert_repr_bytes(zeroed, grid_db)

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_one_element_and_zero_size_links(self, realizations, grid_db):
        channels = realizations[-1]
        first, second, *_ = sorted(channels.channels)
        cut = _with_channels(
            channels,
            {
                **channels.channels,
                first: channels.channels[first][:1, :1, :1],
                second: channels.channels[second][:0],
            },
        )
        self.assert_repr_bytes(cut, grid_db)
        only = _with_channels(channels, {first: channels.channels[first][:1, :1, :1]})
        self.assert_repr_bytes(only, grid_db)

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_empty_channels(self, realizations, grid_db):
        self.assert_repr_bytes(_with_channels(realizations[0], {}), grid_db)

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_gains_above_one(self, realizations, grid_db):
        channels = realizations[-1]
        scale = 2.0 / min(np.abs(value).min() for value in channels.channels.values())
        loud = _with_channels(
            channels, {key: scale * value for key, value in channels.channels.items()}
        )
        assert all(min(link[3]) > 0 for link in quantize_channels(loud, grid_db)[2])
        self.assert_repr_bytes(loud, grid_db)


class TestDecimalText:
    """The NumPy decimal writer under the one-pass key."""

    INT64 = np.iinfo(np.int64)
    VALUES = sorted(
        {0, INT64.max, INT64.min}
        | {sign * v for sign in (1, -1) for v in [1, 9, 10, 99, 100]}
        | {sign * 10**k + d for sign in (1, -1) for k in range(19) for d in (-1, 0, 1)}
    )

    def test_matches_str_join(self):
        values = np.array(self.VALUES, dtype=np.int64)
        text = _decimal_rows(values).tobytes().translate(None, b"\0")
        assert text == (", ".join(map(str, self.VALUES)) + ", ").encode()

    @pytest.mark.parametrize("value", VALUES)
    def test_each_value_alone(self, value):
        rows = _decimal_rows(np.array([value], dtype=np.int64))
        assert rows.tobytes().translate(None, b"\0") == f"{value}, ".encode()

    def test_rows_of_a_2d_array(self):
        values = np.array([[-5, 12, 0], [7, -300, 4]], dtype=np.int64)
        mags, phases = _decimal_rows(values)
        assert _tuple_text(mags) == b"(-5, 12, 0)"
        assert _tuple_text(phases) == b"(7, -300, 4)"

    @pytest.mark.parametrize("values", [(), (3,), (-3, 4), (0, _ZERO_BIN, 1)])
    def test_tuple_text_is_tuple_repr(self, values):
        rows = _decimal_rows(np.array(values, dtype=np.int64))
        assert _tuple_text(rows) == repr(values).encode()


class TestQuantizedRejections:
    """Non-finite entries and grids raise instead of sharing a cell."""

    @pytest.fixture(scope="class")
    def channels(self):
        return generate_channel_sets(SPEC, CONFIG)[0]

    BAD_ENTRIES = [
        np.nan,
        np.inf,
        -np.inf,
        complex(0.0, np.nan),
        complex(np.inf, 0.0),
        complex(0.5, -np.inf),
    ]

    @pytest.mark.parametrize("value", BAD_ENTRIES)
    def test_non_finite_entry_names_its_link(self, channels, value):
        bad = _first_link_with(channels, (0, 0, 0), value)
        key = sorted(channels.channels)[0]
        for quantize in (quantize_channels, fingerprint_quantized):
            with pytest.raises(ValueError, match="non-finite") as excinfo:
                quantize(bad, 0.25)
            assert repr(key) in str(excinfo.value)

    @pytest.mark.parametrize("grid_db", [np.inf, -np.inf, np.nan])
    def test_non_finite_grid_rejected(self, channels, grid_db):
        with pytest.raises(ValueError, match="grid_db"):
            check_grid_db(grid_db)
        for quantize in (quantize_channels, fingerprint_quantized):
            with pytest.raises(ValueError, match="grid_db"):
                quantize(channels, grid_db)

    def test_grid_finer_than_int64_bins_rejected(self, channels):
        with pytest.raises(ValueError, match="beyond int64"):
            fingerprint_quantized(channels, 1e-300)


class TestServiceGoldenKeys:
    """Pinned :meth:`AllocationService.query_key` digests for the module
    fixture's first realization.

    Same update policy as :class:`TestGoldenKeys`: bump ``SERVICE_SALT``
    and regenerate these constants if a change to the key layout is
    intentional; never update them without a salt bump — silent drift
    here orphans every allocation-service cache entry in the field.
    """

    GOLDEN_DEFAULT = "9797e3e0d1d0dafc7da69ac119a7245e7e7687168efdf5a3bcca281782dfaa2d"
    GOLDEN_MERCURY_PLUS = "3849fe4f33f8c10a57433f7c58fa6a3b00e51c41869e5d70180e0f1d3227801f"

    @pytest.fixture(scope="class")
    def channels(self):
        return generate_channel_sets(SPEC, CONFIG)[0]

    def test_default_options_key(self, channels):
        service = AllocationService(cache=None, config=CONFIG)
        assert service.query_key(channels) == self.GOLDEN_DEFAULT

    def test_mercury_copa_plus_key(self, channels):
        service = AllocationService(
            cache=None,
            config=CONFIG,
            options=EngineOptions(allocator=mercury.mercury_allocate),
            include_copa_plus=True,
        )
        assert service.query_key(channels) == self.GOLDEN_MERCURY_PLUS


class TestOptionGoldenKeys:
    """Pinned keys with each :class:`EngineOptions` field set on its own.

    Every field that can reach a key is covered, so a change to how
    options are described or filtered cannot move an existing cache,
    checkpoint or service key unnoticed.  ``oracle_check`` is
    result-irrelevant: its keys are the all-defaults ones.  Same update
    policy as :class:`TestGoldenKeys`: never update these constants
    without a salt bump.
    """

    #: field → ``AllocationService.query_key`` of the first realization;
    #: the key hashes quantized channels, so it is the same at every SIMD
    #: level.
    GOLDEN = {
        "allocator": "e8cf29e4411ce8681fcfd3c6885b36642d6cabc23913eb03fa6e2a8c4ce051e5",
        "rate_selector": "b818c2f36dbe72161595a365506c2a5779c04a7e819b24909ddc9de53869c3ad",
        "max_iterations": "0f17c62a03c7ca3be6bc9d3e0c8699fa0559d49431541f7a7af6ed436e232824",
        "tx_power_dbm": "ebe41eca3b3fb7fecbf1f65b901ca256c781be46fda2708899ad3aa0df4821ec",
        "oracle_check": TestServiceGoldenKeys.GOLDEN_DEFAULT,
        "cluster_policy": "902572e05cf600bd6df0a1d173145cfbc3d0be6afc3a2ee40c30af29ec57ae3b",
        "cluster_threshold_db": "602c0ac081b88e25297d67009bcf878ed003c5098fd2ff03b8c4bb972ea4fb6e",
    }

    #: SIMD level → field → ``fingerprint_tasks`` of the module fixture's
    #: channel sets (see :attr:`TestGoldenKeys.GOLDEN_TASK_KEYS`).
    GOLDEN_TASKS = {
        "X86_V4": {
            "allocator": "b7b9de61eb0aba5f8a666787ad475b045e094ee7cc80afe5812ddb4a33a1f06a",
            "rate_selector": "f3223f22869008931b4a1edfa1f1adb9911e85d65c5d78bd568303666e5117b9",
            "max_iterations": "22c9ff27e8527e2aff819d6d0f3c3e11c30e6cb3ce966f845b65a5b337767021",
            "tx_power_dbm": "532355e2c58e0fb44e3f1854364a303baddbba2b3e84c92a4f9a0377e06d0c51",
            "oracle_check": TestGoldenKeys.GOLDEN_TASKS_KEY["X86_V4"],
            "cluster_policy": "163a0f0807eebab367e4327e4793960ddedc677a8843a3e77d9d67dd7481c1ab",
            "cluster_threshold_db": "5195536f46ecf20aeb0429ef8f307840ecc54bed6e07a2ad1685c8ef7753ed89",
        },
        **dict.fromkeys(
            ("X86_V3", "X86_V2"),
            {
                "allocator": "b7b90b158b3347d7e2189c37ec3d84bca280a60d6407022347873d2d934481a1",
                "rate_selector": "ba0c8f7bebcc2610ffa9fdfba4d54b3137f6e52cd115f359bc2373cc7069ffab",
                "max_iterations": "72fe5888a7ba42f082253350da38d11c122b38e9eb8a1a5ca1db544ea1986de6",
                "tx_power_dbm": "b91872b59d189a86d65506b0bb6356f9415275422ef867b1c85d58ad99d8495a",
                "oracle_check": TestGoldenKeys.GOLDEN_TASKS_KEY["X86_V3"],
                "cluster_policy": "aeb3a96fc320478d9ad8ca979c39fca0fddab0159c22cd86e7ceab2717a96410",
                "cluster_threshold_db": "8caed6da42ae86ad81dea187c36c1f40822bb40574e3409d1d9502ef7cff48ca",
            },
        ),
    }

    @staticmethod
    def _options(field_name):
        from repro.core import multi_decoder

        value = {
            "allocator": mercury.mercury_allocate,
            "rate_selector": multi_decoder.per_subcarrier_rates,
            "max_iterations": 4,
            "tx_power_dbm": 20.0,
            "oracle_check": True,
            "cluster_policy": "threshold",
            "cluster_threshold_db": -70.0,
        }[field_name]
        return EngineOptions(**{field_name: value})

    @pytest.fixture(scope="class")
    def channel_sets(self):
        return generate_channel_sets(SPEC, CONFIG)

    def test_every_field_is_pinned(self):
        fields = {f.name for f in dataclasses.fields(EngineOptions)}
        assert set(self.GOLDEN) == fields
        for table in self.GOLDEN_TASKS.values():
            assert set(table) == fields

    @pytest.mark.parametrize("field_name", sorted(GOLDEN))
    def test_service_key(self, channel_sets, field_name):
        service = AllocationService(
            cache=None, config=CONFIG, options=self._options(field_name)
        )
        assert service.query_key(channel_sets[0]) == self.GOLDEN[field_name]

    @pytest.mark.parametrize("field_name", sorted(GOLDEN))
    def test_tasks_key(self, channel_sets, field_name):
        tasks = build_tasks(
            channel_sets,
            base_seed=CONFIG.seed,
            coherence_s=CONFIG.coherence_s,
            imperfections=CONFIG.imperfections(),
            options=self._options(field_name),
        )
        assert fingerprint_tasks(tasks) == pinned(self.GOLDEN_TASKS, simd_level())[field_name]


class TestQuantizationSensitivity:
    """What tolerance costs: allocation divergence vs ``grid_db``.

    The allocation service answers any channel set in a cell with the
    cell's first computed answer, so the operative question is how far a
    cell-center answer can drift from the exact one.  For this fixture
    the answer is *zero* through every practical grid: the discrete rate
    table absorbs sub-half-bin SNR error, so snapping to cell centers at
    0.0625–4 dB grids reproduces the exact COPA aggregate bit for bit.
    The control rows prove the probe isn't vacuous — the same metric
    responds once the channel moves far enough (−8/−12 dB) to cross rate
    boundaries.  If engine changes ever make these rows drift, the pinned
    matrix forces an explicit re-evaluation of the default grid.
    """

    GRIDS = [0.0625, 0.25, 1.0, 4.0]

    @pytest.fixture(scope="class")
    def channels(self):
        return generate_channel_sets(SPEC, CONFIG)[0]

    @staticmethod
    def _copa_bps(channels):
        from repro.core.options import EngineOptions
        from repro.sim.runner import TopologyTask, evaluate_topology

        task = TopologyTask(
            index=0,
            channels=channels,
            imperfections=CONFIG.imperfections(),
            seed=CONFIG.seed,
            coherence_s=CONFIG.coherence_s,
            include_copa_plus=False,
            options=EngineOptions(),
        )
        return evaluate_topology(task).record.outcome.copa.aggregate_bps

    @pytest.mark.parametrize("grid_db", GRIDS)
    def test_cell_center_answers_are_exact_at_every_grid(self, channels, grid_db):
        exact = self._copa_bps(channels)
        snapped = self._copa_bps(snap_to_grid(channels, grid_db))
        assert snapped == exact

    def test_probe_responds_past_the_rate_table_granularity(self, channels):
        exact = self._copa_bps(channels)
        divergence = {
            offset_db: abs(self._copa_bps(_mag_scaled(channels, offset_db)) - exact) / exact
            for offset_db in (-4.0, -8.0, -12.0)
        }
        # −4 dB stays inside the rate table: only float-level residue from
        # the overhead arithmetic, no rate boundary crossed.
        assert divergence[-4.0] < 1e-6
        assert 0.005 < divergence[-8.0] < 0.05
        assert divergence[-12.0] > divergence[-8.0]

"""End-to-end observability wiring: engine → runner → experiment surfaces.

The acceptance contract: an enabled ``run_experiment(..., collector=...)``
yields a trace covering every scheme the engine evaluated for every
topology, plus the runner dispatch span — and turning observability on
never changes the numbers (it must not touch any RNG).  Traces are
batch-granular: one engine span covers the B rows of its dispatch unit
and says so in its ``rows`` attribute, so the shape invariants here
count spans weighted by their rows.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.schemes import Scheme
from repro.core.strategy import StrategyEngine
from repro.obs import Collector, collector_payload, validate_payload
from repro.phy.constants import MCS_TABLE
from repro.phy.fading import TappedDelayLine, exponential_pdp
from repro.phy.mimo import svd_beamformer
from repro.phy.mimo_transceiver import MimoTransceiver
from repro.phy.constants import N_FFT
from repro.phy.ofdm import data_subcarrier_bins
from repro.sim.config import SimConfig
from repro.sim.emulation import run_emulated_experiment
from repro.sim.experiment import ScenarioSpec, run_experiment
from repro.sim.sweep import sweep_coherence_time
from tests.core.test_batch import assert_same_outcome


def row_weighted(spans):
    """Span-name counts with each span weighted by the rows it covers."""
    counts = Counter()
    for span in spans:
        counts[span.name] += span.attrs.get("rows", 1)
    return counts


@pytest.fixture(scope="module")
def observed_4x2():
    spec = ScenarioSpec("4x2", 4, 2, include_copa_plus=False)
    config = SimConfig(n_topologies=2)
    collector = Collector()
    result = run_experiment(spec, config, collector=collector)
    return spec, config, collector, result


class TestExperimentTrace:
    def test_every_scheme_has_a_span_per_topology(self, observed_4x2):
        _, config, collector, result = observed_4x2
        evaluated = set(result.records[0].outcome.schemes)
        assert evaluated  # sanity: the engine measured something
        counts = row_weighted(collector.spans)
        for scheme in evaluated:
            assert counts[f"scheme:{scheme}"] == config.n_topologies
        # One batched unit ran both topologies.
        assert [s.attrs["rows"] for s in collector.spans if s.name == "engine.run"] == [
            config.n_topologies
        ]

    def test_runner_dispatch_and_stage_spans_present(self, observed_4x2):
        _, config, collector, _ = observed_4x2
        names = {span.name for span in collector.spans}
        assert {"experiment", "generate_channel_sets", "runner.run_tasks"} <= names
        for index in range(config.n_topologies):
            assert f"topology[{index}]" in names

    def test_engine_metrics_populated(self, observed_4x2):
        _, config, collector, _ = observed_4x2
        counters = collector.metrics.counters
        assert counters["engine.runs"] == config.n_topologies
        assert counters["runner.tasks"] == config.n_topologies
        assert counters["alloc.streams"] > 0
        assert collector.metrics.histograms["alloc.concurrent_iterations"].count > 0

    def test_payload_validates(self, observed_4x2):
        _, _, collector, _ = observed_4x2
        validate_payload(collector_payload(collector, meta={"suite": "wiring"}))

    def test_observability_does_not_change_results(self, observed_4x2):
        spec, config, _, observed = observed_4x2
        plain = run_experiment(spec, config)
        for key in plain.available_series():
            np.testing.assert_array_equal(
                plain.series_mbps(key), observed.series_mbps(key)
            )


class TestEngineTrace:
    """One engine run, traced and plain, on each antenna configuration."""

    @pytest.mark.parametrize("channels", ["channels_1x1", "channels_3x2", "channels_4x2"])
    def test_tracing_leaves_the_outcome_unchanged(self, channels, request):
        channels = request.getfixturevalue(channels)
        collector = Collector()
        observed = StrategyEngine(
            channels, rng=np.random.default_rng(2015), collector=collector
        ).run()
        plain = StrategyEngine(channels, rng=np.random.default_rng(2015)).run()
        assert_same_outcome(observed, plain)

        names = [span.name for span in collector.spans]
        assert names.count("engine.run") == 1
        # Every evaluated scheme is traced, and nothing else is (the SDA
        # search of an overconstrained topology re-enters some per role).
        assert {name for name in names if name.startswith("scheme:")} == {
            f"scheme:{scheme}" for scheme in observed.schemes
        }


class TestClusterDynamicsTelemetry:
    def test_four_ap_rows_record_the_figure6_telemetry(self):
        """Every concurrent-allocation row records its iteration count and
        convergence, whatever the cluster size: here one 4-AP cluster per
        topology, where nulling is infeasible and only conc_bf iterates."""
        collector = Collector()
        run_experiment(
            ScenarioSpec("4x2-n4", 4, 2, include_copa_plus=False, n_aps=4),
            SimConfig(n_topologies=2),
            collector=collector,
        )
        counts = row_weighted(collector.spans)
        rows = sum(
            counts[f"scheme:{scheme}"]
            for scheme in (Scheme.CONC_BF, Scheme.CONC_NULL, Scheme.CONC_SDA)
        )
        assert rows == 2
        metrics = collector.metrics
        assert metrics.histograms["alloc.concurrent_iterations"].count == rows
        assert metrics.counters.get("alloc.converged", 0) + metrics.counters.get(
            "alloc.unconverged", 0
        ) == rows
        assert "alloc.concurrent_dropped_subcarriers" in metrics.counters


class TestSdaCoverage:
    def test_overconstrained_scenario_traces_sda(self):
        """3×2 is overconstrained, so the engine walks the §3.4 SDA search."""
        collector = Collector()
        result = run_experiment(
            ScenarioSpec("3x2", 3, 2, include_copa_plus=False),
            SimConfig(n_topologies=1),
            collector=collector,
        )
        names = [span.name for span in collector.spans]
        assert f"scheme:{Scheme.CONC_SDA}" in names
        assert "sda.role" in names
        assert Scheme.CONC_SDA in result.records[0].outcome.schemes


def _waveform_frame(trx, rng, n_streams=2):
    pdp = exponential_pdp(60e-9, n_taps=10, tap_spacing_s=50e-9)
    taps = TappedDelayLine.sample(2, 4, pdp, rng).taps
    h = np.fft.fft(taps, N_FFT, axis=0)[data_subcarrier_bins(52)]
    powers = np.ones((52, n_streams))
    frame = trx.transmit(svd_beamformer(h, n_streams), powers, rng)
    rx = trx.propagate(frame, taps)
    noise_variance = float(np.mean(np.abs(rx) ** 2)) / 10 ** (28.0 / 10)
    rx = rx + np.sqrt(noise_variance / 2) * (
        rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape)
    )
    return frame, powers, rx, noise_variance


class TestPhyKernelWiring:
    """The waveform receiver reports where PHY time goes (ISSUE 3)."""

    def test_receive_records_kernel_spans_and_timing_histograms(self):
        collector = Collector()
        trx = MimoTransceiver(mcs=MCS_TABLE[3], n_ofdm_symbols=4, collector=collector)
        frame, powers, rx, noise_variance = _waveform_frame(
            trx, np.random.default_rng(42), n_streams=2
        )
        trx.receive(rx, frame, powers, noise_variance)

        names = [span.name for span in collector.spans]
        assert names.count("phy.mmse") == 1
        assert names.count("phy.viterbi") == 2  # one per stream

        histograms = collector.metrics.histograms
        assert histograms["phy.mmse.frame_us"].count == 1
        assert histograms["phy.mmse.frame_us"].minimum > 0.0
        assert histograms["phy.viterbi.decode_us"].count == 2
        assert histograms["phy.viterbi.decode_us"].minimum > 0.0

    def test_observability_does_not_change_the_decode(self):
        rng_args = dict(mcs=MCS_TABLE[3], n_ofdm_symbols=4)
        plain = MimoTransceiver(**rng_args)
        observed = MimoTransceiver(**rng_args, collector=Collector())
        frame, powers, rx, noise_variance = _waveform_frame(
            plain, np.random.default_rng(43), n_streams=2
        )
        a = plain.receive(rx, frame, powers, noise_variance)
        b = observed.receive(rx, frame, powers, noise_variance)
        assert a.bit_errors == b.bit_errors
        for x, y in zip(a.stream_bits, b.stream_bits):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.post_mmse_sinr, b.post_mmse_sinr)

    def test_payload_with_phy_metrics_validates(self):
        collector = Collector()
        trx = MimoTransceiver(mcs=MCS_TABLE[1], n_ofdm_symbols=4, collector=collector)
        frame, powers, rx, noise_variance = _waveform_frame(
            trx, np.random.default_rng(44), n_streams=1
        )
        trx.receive(rx, frame, powers, noise_variance)
        validate_payload(collector_payload(collector, meta={"suite": "phy-wiring"}))


class TestPartialFailureMerge:
    """A worker that dies *after* emitting spans must not pollute the trace.

    Only the single accepted result per topology may graft its spans and
    metrics; the crashed attempt's partial observations are discarded with
    the attempt.  The armed fault takes its topology out of the batch, so
    the units differ from a fault-free run's, but the row-weighted span
    names, the counters and the histogram counts are equal, apart from
    the explicit ``runner.*`` fault telemetry.
    """

    SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
    CONFIG = SimConfig(n_topologies=3)

    @staticmethod
    def _non_runner_counters(collector):
        return {
            key: value
            for key, value in collector.metrics.counters.items()
            if not key.startswith("runner.") or key == "runner.tasks"
        }

    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_crashed_attempt_spans_are_not_grafted(self, workers):
        from repro.sim.faults import FaultKind, FaultPlan
        from repro.sim.runner import RetryPolicy

        policy = RetryPolicy(max_retries=2, sleep=lambda s: None)
        plan = FaultPlan.at([1], FaultKind.CRASH, when="after")

        clean, faulted = Collector(), Collector()
        reference = run_experiment(
            self.SPEC, self.CONFIG, workers=workers, policy=policy, collector=clean
        )
        result = run_experiment(
            self.SPEC,
            self.CONFIG,
            workers=workers,
            policy=policy,
            fault_plan=plan,
            collector=faulted,
        )

        # The crash was invisible in the data...
        for key in reference.available_series():
            np.testing.assert_array_equal(
                result.series_mbps(key), reference.series_mbps(key)
            )
        # ...and in the trace: row-weighted span names match except
        # runner.* telemetry,
        def engine_counts(collector):
            return {
                name: count
                for name, count in row_weighted(collector.spans).items()
                if not name.startswith("runner.")
            }

        assert engine_counts(faulted) == engine_counts(clean)
        # no topology grafted twice,
        all_names = [s.name for s in faulted.spans]
        for index in range(self.CONFIG.n_topologies):
            assert all_names.count(f"topology[{index}]") == 1
        # engine metrics count one accepted evaluation per topology,
        assert self._non_runner_counters(faulted) == self._non_runner_counters(clean)
        assert (
            faulted.metrics.histograms.keys() == clean.metrics.histograms.keys()
        )
        for key, histogram in faulted.metrics.histograms.items():
            assert histogram.count == clean.metrics.histograms[key].count
        # and the retry is reported where it belongs: explicit telemetry.
        assert faulted.metrics.counters["runner.retry"] == 1
        assert [s.name for s in faulted.spans].count("runner.retry") == 1


class TestOtherSurfaces:
    def test_sweep_forwards_collector(self):
        collector = Collector()
        sweep_coherence_time(
            coherence_values_s=(0.030,),
            spec=ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            config=SimConfig(n_topologies=1),
            collector=collector,
        )
        names = [span.name for span in collector.spans]
        assert "sweep" in names and "sweep.point" in names
        assert "experiment" in names and "engine.run" in names
        assert collector.metrics.counters["sweep.points"] == 1

    def test_emulation_forwards_collector(self):
        collector = Collector()
        run_emulated_experiment(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            interference_offset_db=-10.0,
            config=SimConfig(n_topologies=1),
            collector=collector,
        )
        names = [span.name for span in collector.spans]
        assert "emulation" in names and "transform_traces" in names
        assert "experiment" in names

    def test_parallel_experiment_trace_matches_serial_shape(self):
        """Serially one unit of 3 rows, on the pool three units of one."""
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=3)
        serial, parallel = Collector(), Collector()
        run_experiment(spec, config, workers=1, collector=serial)
        run_experiment(spec, config, workers=3, collector=parallel)
        units = lambda c: [s.attrs["tasks"] for s in c.spans if s.name == "runner.unit"]
        assert units(serial) == [3] and units(parallel) == [1, 1, 1]
        serial_counts, parallel_counts = row_weighted(serial.spans), row_weighted(parallel.spans)
        del serial_counts["runner.unit"], parallel_counts["runner.unit"]
        assert serial_counts == parallel_counts
        assert serial.metrics.as_payload() == parallel.metrics.as_payload()

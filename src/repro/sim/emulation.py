"""Trace-driven emulation: record channel realizations, transform, replay.

The paper's §4.4 takes the CSI traces of all 4×2 topologies, reduces the
interference strength by 10 dB while leaving the signal of interest
unchanged, and replays the experiment — producing Figure 12.  The same
mechanism serves COPA+ ("these curves are trace-driven emulation based on
real CSI measurements").

Traces can also be persisted to ``.npz`` files so experiments are exactly
replayable across processes.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

from ..core.options import EngineOptions
from ..obs.collector import Collector, active
from ..phy.channel import ChannelSet
from ..phy.topology import Node, Topology
from .config import DEFAULT_CONFIG, SimConfig
from .faults import FaultPlan
from .runner import RetryPolicy
from .experiment import (
    ExperimentResult,
    ScenarioSpec,
    generate_channel_sets,
    run_experiment,
)

__all__ = [
    "scaled_traces",
    "run_emulated_experiment",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
]


def scaled_traces(traces: Sequence[ChannelSet], interference_offset_db: float) -> List[ChannelSet]:
    """Copies of the traces with every cross link scaled by the offset."""
    return [trace.scaled_interference(interference_offset_db) for trace in traces]


def run_emulated_experiment(
    spec: ScenarioSpec,
    interference_offset_db: float,
    config: SimConfig = DEFAULT_CONFIG,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    options: Optional[EngineOptions] = None,
    collector: Optional[Collector] = None,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    cache=None,
) -> ExperimentResult:
    """Record the scenario's traces, weaken interference, replay (§4.4).

    The replay fans out to a process pool when ``workers`` asks for one;
    emulated traces are plain :class:`ChannelSet` data, so the parallel
    path is bit-identical to the serial one (see :mod:`repro.sim.runner`).
    The execution/observability/fault-tolerance keywords (``workers``,
    ``chunk_size``, ``options``, ``collector``, ``policy``,
    ``checkpoint``, ``resume``, ``fault_plan``, ``cache``) match
    :func:`repro.sim.experiment.run_experiment`; with a cache, the base
    (unscaled) traces are memoized once and every offset's scaled replay
    is derived from — and cached under — its own content address.
    """
    # Resolve here so a bad options value fails in the caller's frame.
    options = EngineOptions.resolve(options)
    col = active(collector)
    with col.span("emulation", scenario=spec.name, offset_db=interference_offset_db):
        with col.span("record_traces"):
            traces = generate_channel_sets(spec, config, cache=cache, collector=collector)
        with col.span("transform_traces"):
            emulated = scaled_traces(traces, interference_offset_db)
        emulated_spec = ScenarioSpec(
            name=f"{spec.name}{interference_offset_db:+g}dB",
            ap_antennas=spec.ap_antennas,
            client_antennas=spec.client_antennas,
            interference_offset_db=interference_offset_db,
            include_copa_plus=spec.include_copa_plus,
            n_aps=spec.n_aps,
        )
        return run_experiment(
            emulated_spec,
            config,
            channel_sets=emulated,
            workers=workers,
            chunk_size=chunk_size,
            options=options,
            collector=collector,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            fault_plan=fault_plan,
            cache=cache,
        )


# ---------------------------------------------------------------------------
# Trace persistence.
# ---------------------------------------------------------------------------


def save_trace(channels: ChannelSet, path: str) -> None:
    """Persist one channel realization (topology + channels) as ``.npz``."""
    topology = channels.topology
    payload = {
        "noise_floor_mw": np.array(channels.noise_floor_mw),
        "n_subcarriers": np.array(channels.n_subcarriers),
        "node_names": np.array(
            [node.name for node in topology.aps + topology.clients], dtype=object
        ),
        "node_kinds": np.array(
            ["ap"] * len(topology.aps) + ["client"] * len(topology.clients), dtype=object
        ),
        "node_positions": np.array(
            [node.position_m for node in topology.aps + topology.clients]
        ),
        "node_antennas": np.array(
            [node.n_antennas for node in topology.aps + topology.clients]
        ),
        "gain_keys": np.array(
            ["|".join(pair) for pair in topology.link_gain_db], dtype=object
        ),
        "gain_values": np.array(list(topology.link_gain_db.values())),
    }
    for (tx, rx), h in channels.channels.items():
        payload[f"H|{tx}|{rx}"] = h
    np.savez_compressed(path, **payload, allow_pickle=True)


def load_trace(path: str) -> ChannelSet:
    """Load a channel realization saved by :func:`save_trace`."""
    with np.load(path, allow_pickle=True) as data:
        names = list(data["node_names"])
        kinds = list(data["node_kinds"])
        positions = data["node_positions"]
        antennas = data["node_antennas"]
        nodes = [
            Node(str(name), (float(pos[0]), float(pos[1])), int(n_ant))
            for name, pos, n_ant in zip(names, positions, antennas)
        ]
        aps = [node for node, kind in zip(nodes, kinds) if kind == "ap"]
        clients = [node for node, kind in zip(nodes, kinds) if kind == "client"]
        gains = {
            tuple(key.split("|")): float(value)
            for key, value in zip(data["gain_keys"], data["gain_values"])
        }
        topology = Topology(aps=aps, clients=clients, link_gain_db=gains)
        channels = {}
        for key in data.files:
            if key.startswith("H|"):
                _, tx, rx = key.split("|")
                channels[(tx, rx)] = data[key]
        return ChannelSet(
            topology=topology,
            channels=channels,
            noise_floor_mw=float(data["noise_floor_mw"]),
            n_subcarriers=int(data["n_subcarriers"]),
        )


def save_traces(traces: Sequence[ChannelSet], directory: str) -> List[str]:
    """Persist a whole scenario's traces; returns the file paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, trace in enumerate(traces):
        path = os.path.join(directory, f"trace_{index:03d}.npz")
        save_trace(trace, path)
        paths.append(path)
    return paths


def load_traces(directory: str) -> List[ChannelSet]:
    """Load every trace in a directory, in index order."""
    names = sorted(
        name for name in os.listdir(directory) if name.startswith("trace_") and name.endswith(".npz")
    )
    if not names:
        raise FileNotFoundError(f"no trace_*.npz files in {directory!r}")
    return [load_trace(os.path.join(directory, name)) for name in names]

"""Trace persistence: record channel realizations to ``.npz`` and replay them.

The paper's §4.4 takes the CSI traces of all 4×2 topologies, reduces the
interference strength by 10 dB while leaving the signal of interest
unchanged, and replays the experiment — producing Figure 12.  That
transform is a scenario field: run
:func:`~repro.sim.experiment.run_experiment` on a spec with
``interference_offset_db=-10``.  This module persists traces so an
experiment is exactly replayable across processes: pass the loaded list
as ``run_experiment(..., channel_sets=...)``.
"""

from __future__ import annotations

import os
from typing import List, Sequence

import numpy as np

from ..phy.channel import ChannelSet
from ..phy.topology import Node, Topology

__all__ = [
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
]


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

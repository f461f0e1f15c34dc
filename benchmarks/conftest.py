"""Shared experiment fixtures for the figure/table benchmarks.

Each of the paper's evaluation scenarios is run once per pytest session
(30 topologies, COPA+ included where the paper shows it) and shared by the
benchmark files.  Every benchmark writes its reproduced rows/series to
``benchmarks/results/`` so the numbers are inspectable after a run, and
also prints them to the terminal report.

Scenario fixtures fan their topologies out through the parallel runner
(``repro.sim.runner``); the per-topology seeding makes the results
bit-identical to a serial run, so benchmark numbers do not depend on the
worker count.  Set ``REPRO_WORKERS=1`` to force the serial path (it is read
as the CLI reads it: ``0`` or unset is one worker per CPU).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sim.config import DEFAULT_CONFIG
from repro.sim.experiment import ScenarioSpec, run_experiment
from repro.sim.runner import workers_from_env

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> None:
    """Persist one benchmark's reproduced table and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text)
    print(f"\n[{name}]\n{text}")


@pytest.fixture(scope="session")
def config():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def result_1x1(config):
    """§4.2: two single-antenna AP/client pairs (Figure 10)."""
    return run_experiment(ScenarioSpec("1x1", 1, 1), config, workers=workers_from_env())


@pytest.fixture(scope="session")
def result_4x2(config):
    """§4.3: the constrained nulling scenario (Figure 11)."""
    return run_experiment(ScenarioSpec("4x2", 4, 2), config, workers=workers_from_env())


@pytest.fixture(scope="session")
def result_4x2_weak(config):
    """§4.4: trace-driven emulation with interference −10 dB (Figure 12)."""
    return run_experiment(
        ScenarioSpec("4x2-10dB", 4, 2, interference_offset_db=-10.0),
        config,
        workers=workers_from_env(),
    )


@pytest.fixture(scope="session")
def result_3x2(config):
    """§4.5: the overconstrained scenario with SDA (Figure 13)."""
    return run_experiment(ScenarioSpec("3x2", 3, 2), config, workers=workers_from_env())


def cdf_table(result, keys, paper_means):
    """Format a figure's mean-throughput legend: paper vs measured."""
    lines = [f"{'scheme':<16}{'paper Mbps':>12}{'measured Mbps':>15}"]
    for key in keys:
        measured = result.series_mbps(key).mean()
        paper = paper_means.get(key)
        paper_text = f"{paper:.1f}" if paper is not None else "-"
        lines.append(f"{key:<16}{paper_text:>12}{measured:>15.1f}")
    return "\n".join(lines) + "\n"

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
asserts its shape properties, and writes the regenerated artifact to
``benchmarks/results/`` so the paper-vs-measured comparison survives the
run (see "Regenerating the paper figures" in README.md for the
figure-to-benchmark map).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import paper_platform
from repro.nn import modified_alexnet_spec
from repro.perf import LayerCostModel
from repro.rl import config_by_name

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting regenerated figures/tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def spec():
    """Paper-scale modified AlexNet."""
    return modified_alexnet_spec()


@pytest.fixture(scope="session")
def platform():
    """The paper's platform (30 MB SRAM design point)."""
    return paper_platform()


@pytest.fixture(scope="session")
def cost_models(spec):
    """Layer cost models for all four topologies."""
    return {
        name: LayerCostModel(spec, config_by_name(name))
        for name in ("L2", "L3", "L4", "E2E")
    }


def save_artifact(results_dir: Path, name: str, content: str) -> None:
    """Persist one regenerated table/figure as text."""
    (results_dir / name).write_text(content + "\n")

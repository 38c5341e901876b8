import os

import pytest

from oehnn.data import GenerationProtocol, generate
from oehnn.dynamics import coupled_system, duffing_system
from oehnn.signals import NoiseSpec


# Small protocol for fast contract tests: short pre-roll, few realizations.
TINY_PROTOCOL = GenerationProtocol(
    n_realizations=6,
    n_samples=40,
    ts=0.01,
    t_start=0.5,
    split=(3, 2, 1),
    amplitude=0.15,
)


@pytest.fixture(scope="session")
def tiny_duffing_dataset():
    return generate(duffing_system(), TINY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=42)


@pytest.fixture(scope="session")
def standard_duffing_dataset():
    """The full default single-mass recording protocol."""
    return generate(duffing_system(), GenerationProtocol(), NoiseSpec(variance=0.1), master_seed=0)


@pytest.fixture(scope="session")
def standard_coupled_dataset():
    """The full default two-mass recording protocol."""
    return generate(coupled_system(), GenerationProtocol(), NoiseSpec(variance=0.05), master_seed=0)


@pytest.fixture
def process_budget(monkeypatch):
    """`process_budget(n)` pins the process budget to n: the affinity mask
    then holds n cores, here and in every process forked from here."""

    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin

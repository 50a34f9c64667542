import pytest

from slpos import harness
from slpos.signal import default_config, make_pilots


@pytest.fixture(scope="session")
def ofdm():
    return default_config()


@pytest.fixture(scope="session")
def pilots(ofdm):
    return make_pilots(ofdm, "all_ones")


@pytest.fixture(autouse=True)
def at_most_two_processes(monkeypatch):
    """A sweep in a test splits across two processes at most, however many
    CPUs the host has."""
    usable_cpus = harness._usable_cpus
    monkeypatch.setattr(harness, "_usable_cpus", lambda: min(2, usable_cpus()))

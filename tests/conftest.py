import os

import pytest
from hypothesis import settings

from slpos import harness
from slpos.signal import default_config, make_pilots


# Where CI is set, as GitHub Actions sets it, every property test draws the
# same examples on every run, so a CI failure reproduces locally with
# CI=true, and a failure prints the blob that replays it.  No deadline, as
# in Hypothesis's own profile of that name, which this one replaces.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


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

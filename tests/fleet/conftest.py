"""Shared fixtures for the fleet test package.

The autouse leak guard asserts that no parent-owned shared-memory
segment outlives the test that created it — the regression it pins is
the fleet facade (or a test fixture) leaking ``/dev/shm`` segments when
teardown is skipped or a supervisor dies before ``close()``.
"""

import pytest

from repro.fleet import shm


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave the owned-segment registry empty."""
    before = set(shm._OWNED)
    yield
    leaked = sorted(shm._OWNED - before)
    assert not leaked, f"test leaked shared-memory segments: {leaked}"

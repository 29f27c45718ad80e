"""Shared fixtures for the test suite."""

import asyncio

import numpy as np
import pytest

from repro.utils.linalg import random_unitary


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def unitary4():
    """A fixed Haar-random 4x4 unitary."""
    return random_unitary(4, rng=42)


@pytest.fixture
def unitary6():
    """A fixed Haar-random 6x6 unitary."""
    return random_unitary(6, rng=43)


@pytest.fixture
def small_weights(rng):
    """A small random real weight matrix (5 x 7)."""
    return rng.normal(size=(5, 7))


class OffsetTimeLoop(asyncio.SelectorEventLoop):
    """Event loop whose ``time()`` reads ``offset`` seconds past the default.

    asyncio's default loop returns ``time.monotonic()``.  Under this loop a
    timestamp read from anything but the running loop stands out.  Tests
    may move ``offset`` while the loop runs.
    """

    offset = 1e6

    def time(self):
        return super().time() + self.offset


@pytest.fixture
def run_offset_loop():
    """Run a coroutine to completion on a fresh :class:`OffsetTimeLoop`."""

    def run(coroutine):
        loop = OffsetTimeLoop()
        try:
            return loop.run_until_complete(coroutine)
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    return run

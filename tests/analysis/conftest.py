"""Shared fixtures for the analysis-layer tests."""

import pytest

from repro.analysis import sanitize


@pytest.fixture
def sanitized_runtime():
    """Arm the runtime sanitizers for one test.

    Segments and rings created inside the test carry live checkers;
    at teardown every sanitized segment is verified leak-free.
    """
    with sanitize.sanitized():
        yield


@pytest.fixture
def sanitizers_off():
    """Force the sanitizers off for one test, overriding the armed
    default (tests of the zero-overhead path)."""
    previous = sanitize.enable(False)
    yield
    sanitize.enable(previous)


@pytest.fixture(autouse=True)
def sanitizers_on():
    """Arm the sanitizers for every analysis test, without the leak
    check at exit (some tests deliberately leave allocations behind)."""
    previous = sanitize.enable(True)
    yield
    sanitize.enable(previous)

"""Hypothesis settings for continuous integration, a check that no test
leaves the cyclic garbage collector paused, and a recorder of the calls
of a library routine.

When the ``CI`` variable is set, as hosted runners set it, property tests
print the blob that reproduces a failure (``@reproduce_failure``) and keep
no example database, which a fresh runner discards anyway.  Everything
else is the default profile's, so example counts, deadlines and random
generation stay as they are locally.  The profile replaces the ``ci``
profile that recent hypothesis versions load on their own, which would
also derandomize the examples and drop every deadline.
"""

import gc
import os

import pytest
from hypothesis import settings

settings.register_profile(
    "ci", settings.get_profile("default"), print_blob=True, database=None
)
if "CI" in os.environ:
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that ends with the cyclic collector disabled, and
    enable it again, so that no code path keeps it paused for the tests
    after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic garbage collector was left disabled")


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(owner, name, keep)`` replaces ``owner.name`` for the
    test by a wrapper that appends ``keep(*args)`` to the list it returns,
    then calls the routine."""

    def record(owner, name, keep):
        routine, kept = getattr(owner, name), []

        def recording(*args):
            kept.append(keep(*args))
            return routine(*args)

        monkeypatch.setattr(owner, name, recording)
        return kept

    return record

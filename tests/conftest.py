"""Test-session settings and shared fixtures.  Every ``hypothesis`` test
draws the same examples on every run, from no example database, so two
runs of one commit pass and fail alike; each test keeps its own
``max_examples``."""

import pytest
from hypothesis import settings

from latref import diffcore as dc

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def decline(monkeypatch):
    """``decline(*ops)`` switches the recipe rule off for exactly those
    ops: ``diffcore._remake`` then notes no recipe for their outputs, and
    every other op's as before.  ``decline()`` switches it back on."""
    remake = dc._remake

    def decline(*ops):
        monkeypatch.setattr(dc, "_remake", lambda out, op, *args:
                            out if op in ops else remake(out, op, *args))

    return decline

"""Test-session settings.  Every ``hypothesis`` test draws the same
examples on every run, from no example database, so two runs of one
commit pass and fail alike; each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

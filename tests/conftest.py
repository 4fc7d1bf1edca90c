"""Every Hypothesis test draws the same examples on every run, so that the
suite is repeatable: one derandomized profile, loaded before any test module
is imported.  Each test's own ``@settings`` still set its example count."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

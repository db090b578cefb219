"""Suite-wide hypothesis profile: examples are derived from each test's
name rather than drawn at random, and no example has a deadline, so the
property tests pick the same inputs on every run and cannot fail on a
slow machine."""

from hypothesis import settings

settings.register_profile("tfcolor", derandomize=True, deadline=None)
settings.load_profile("tfcolor")

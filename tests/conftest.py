"""Test settings shared by the tier-1 suite.

Property tests draw their examples from a fixed, derandomized hypothesis
profile, so every run checks the same cases in a bounded time.
"""
try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, max_examples=25, deadline=None,
                              database=None)
    settings.load_profile("tier1")

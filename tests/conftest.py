"""Shared pytest set-up: property tests run derandomized, with no deadline.

A fixed example sequence keeps the suite deterministic, and dropping the
per-example deadline keeps timing noise on small machines from failing it.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

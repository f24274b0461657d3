"""Shared test settings: property tests run under a derandomized hypothesis
profile, so every run draws the same examples and Tier-1 stays
deterministic."""

from hypothesis import settings

settings.register_profile("equifdp", derandomize=True, database=None, deadline=None)
settings.load_profile("equifdp")

"""Shared test settings.

The property tests draw their examples from a fixed derandomized stream and
keep no example database, so every run tries the same examples and a local
`.hypothesis/` directory cannot change what runs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

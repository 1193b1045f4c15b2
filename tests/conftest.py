"""Settings shared by the property-based tests.

The "derandomized" profile draws the same examples on every run and
keeps no example database, so a failure reproduces from the source
alone.  Test modules apply it with ``@settings.get_profile("derandomized")``.
"""

from hypothesis import settings

settings.register_profile(
    "derandomized", max_examples=200, deadline=None, derandomize=True, database=None
)

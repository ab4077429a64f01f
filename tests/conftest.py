"""
Shared test settings.  One hypothesis profile for every test: derandomized,
so each run draws the same examples, and without a deadline, because the
CycNum reference paths can take longer than hypothesis's default 200 ms per
example on a slow or busy host.
"""
from hypothesis import settings

settings.register_profile("duinv", derandomize=True, deadline=None, database=None)
settings.load_profile("duinv")

"""One hypothesis profile for every property suite.

Derandomized, so each run draws the same examples; no example database, so
a run reads and writes no state; no deadline, because wall time on a shared
machine varies.  Each suite sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("molvae", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("molvae")

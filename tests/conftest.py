"""Hypothesis profiles for the suite, chosen by HYPOTHESIS_PROFILE.

`tier1` (the default) draws a fixed set of examples per test, derived
from the test itself, and keeps no example database, so two runs of the
suite test the same inputs. `explore` draws fresh examples on every run,
for a separate, longer search; a failure it finds becomes an `@example`
and a fix, never a changed strategy.

    HYPOTHESIS_PROFILE=explore python -m pytest tests -q
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

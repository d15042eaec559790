"""Shared test set-up: hypothesis profiles and one flight of every fixture.

Hypothesis profiles are chosen by HYPOTHESIS_PROFILE. `tier1` (the
default) draws a fixed set of examples per test, derived from the test
itself, and keeps no example database, so two runs of the suite test the
same inputs. `explore` draws fresh examples on every run, for a separate,
longer search; a failure it finds becomes an `@example` and a fix, never a
changed strategy.

    HYPOTHESIS_PROFILE=explore python -m pytest tests -q

`fixture_outputs` runs `tools/output_digests.compute` once per session:
one `modquad simulate` over every scenario fixture and one
`modquad analyze --format json` per fixture. The digest check, the
acceptance criteria and the CLI's `metrics` test all read its CSVs, so each
bundled scenario is flown once per session.
"""

import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digests  # noqa: E402

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


class FixtureOutputs(NamedTuple):
    digests: dict   # output_digests.compute's {entry: digest}
    csv_dir: Path   # holds <fixture>.csv for every scenario fixture
    wall_s: float   # wall time of the whole compute call


@pytest.fixture(scope="session")
def fixture_outputs(tmp_path_factory):
    csv_dir = tmp_path_factory.mktemp("fixture_outputs")
    start = time.perf_counter()
    digests = output_digests.compute(csv_dir)
    return FixtureOutputs(digests, csv_dir, time.perf_counter() - start)

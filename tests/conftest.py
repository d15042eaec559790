"""Shared test set-up: hypothesis profiles and one flight of every fixture.

Hypothesis profiles are chosen by HYPOTHESIS_PROFILE. `tier1` (the
default) draws a fixed set of examples per test, derived from the test
itself, and keeps no example database, so two runs of the suite test the
same inputs. `explore` draws fresh examples on every run, for a separate,
longer search; a failure it finds becomes an `@example` and a fix, never a
changed strategy.

    HYPOTHESIS_PROFILE=explore python -m pytest tests -q

`forks` records the children that `modquad.telemetry` forks during a test.

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

from modquad import telemetry

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


class Forks:
    """The children that `telemetry` forks while a test runs, in the test's
    process or in any process forked from it, in the order they started."""

    def __init__(self, marks):
        self.marks = marks  # one empty file per child, named <ns>-<parent>-<child>

    def _pairs(self):
        return [tuple(map(int, mark.name.split("-")[1:])) for mark in sorted(self.marks.iterdir())]

    @property
    def parents(self):
        """The id of the process that forked each child."""
        return [parent for parent, _ in self._pairs()]

    def assert_reaped(self):
        """Every child that this process forked has exited and been waited for."""
        for parent, child in self._pairs():
            if parent == os.getpid():
                with pytest.raises(ChildProcessError):
                    os.waitpid(child, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch, tmp_path_factory):
    marks, fork = tmp_path_factory.mktemp("forks"), telemetry._fork_into_file

    def recording_fork(run):
        pid, text = fork(run)
        (marks / f"{time.monotonic_ns():020d}-{os.getpid()}-{pid}").touch()
        return pid, text

    monkeypatch.setattr(telemetry, "_fork_into_file", recording_fork)
    return Forks(marks)

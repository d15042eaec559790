"""Every bundled fixture's outputs match the committed digest manifest.

The manifest (`fixtures/outputs.sha256`) holds the sha256 of each scenario
fixture's `simulate` CSV and of each fixture's `analyze --format json`
output with its exit code. A change that alters an output on purpose
rewrites it with `python3 tools/output_digests.py`. The outputs come from
the session's one run of the fixtures (`fixture_outputs` in conftest.py).
"""

import output_digests


def test_outputs_match_committed_digests(fixture_outputs):
    expected, made_with = output_digests.parse(
        output_digests.MANIFEST.read_text(encoding="utf-8"))
    assert set(made_with) == {"python", "numpy", "openblas", "glibc", "fma3", "avx512_skx"}
    problems = output_digests.mismatches(expected, fixture_outputs.digests)
    assert not problems, "\n".join(
        ["outputs differ from fixtures/outputs.sha256:", *problems,
         output_digests.version_note(made_with)])


def test_manifest_names_the_fixture_that_differs():
    expected = {"simulate/exp1.csv": "a" * 64, "analyze/exp1.json": "b" * 64 + " exit=0"}
    got = dict(expected, **{"analyze/exp1.json": "b" * 64 + " exit=3"})
    assert output_digests.mismatches(expected, got) == [
        f"analyze/exp1.json: manifest {'b' * 64} exit=0, now {'b' * 64} exit=3"]
    text = output_digests.render(expected, {"python": "0.0.1", "numpy": "9.9"})
    assert output_digests.parse(text) == (expected, {"python": "0.0.1", "numpy": "9.9"})
    assert "python 0.0.1 in the manifest" in output_digests.version_note({"python": "0.0.1"})
    # every recorded machine fact that differs is named, and only those
    here = output_digests.machine()
    note = output_digests.version_note(dict(here, openblas="NoSuchCore", fma3="maybe"))
    assert note == (f"openblas NoSuchCore in the manifest, {here['openblas']} here; "
                    f"fma3 maybe in the manifest, {here['fma3']} here")

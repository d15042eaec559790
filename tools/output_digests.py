"""Write the sha256 digests of modquad's outputs on the bundled fixtures.

    python3 tools/output_digests.py    # rewrite fixtures/outputs.sha256

Run from the root of a source checkout. The digests cover the CSV that
`modquad simulate` writes for every fixture with a scenario block, and the
standard output and exit code of `modquad analyze --format json` for every
fixture. The manifest also records the Python and numpy versions it was
made with, because the last bits of a float can differ between them.
`tests/test_output_digests.py` recomputes the digests and compares them
with the manifest; a change that alters an output on purpose runs this
script and commits the rewritten manifest in the same diff.
"""

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from modquad import cli, config  # noqa: E402

FIXTURES = ROOT / "fixtures"
MANIFEST = FIXTURES / "outputs.sha256"


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute(workdir):
    """{entry: "<sha256>" or "<sha256> exit=<code>"} for every fixture output;
    the CSVs are written into `workdir`."""
    paths = sorted(FIXTURES.glob("*.cfg"))
    scenarios = [p for p in paths if config.load_config(p).scenario is not None]
    workdir = Path(workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["simulate", *map(str, scenarios), "-o", str(workdir)])
    if status != cli.EXIT_OK:
        raise RuntimeError(f"simulate exited {status}")
    digests = {f"simulate/{p.stem}.csv":
               hashlib.sha256((workdir / f"{p.stem}.csv").read_bytes()).hexdigest()
               for p in scenarios}
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(["analyze", str(path), "--format", "json"])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        digests[f"analyze/{path.stem}.json"] = f"{digest} exit={status}"
    return digests


def render(digests, made_with):
    lines = ["# sha256 of modquad outputs on the bundled fixtures "
             "(tools/output_digests.py)"]
    lines += [f"# {name} {version}" for name, version in made_with.items()]
    lines += [f"{value}  {entry}" for entry, value in digests.items()]
    return "\n".join(lines) + "\n"


def parse(text):
    """(digests, versions) of a manifest's text."""
    digests, made_with = {}, {}
    for line in text.splitlines():
        if line.startswith("# ") and len(line.split()) == 3:
            _, name, version = line.split()
            made_with[name] = version
        elif line and not line.startswith("#"):
            value, entry = line.split("  ")
            digests[entry] = value
    return digests, made_with


def mismatches(expected, got):
    """One line per entry whose digest or exit code differs or that is missing."""
    return [f"{entry}: manifest {expected.get(entry)}, now {got.get(entry)}"
            for entry in sorted(expected.keys() | got.keys())
            if expected.get(entry) != got.get(entry)]


def version_note(made_with):
    now = versions()
    differ = [f"{name} {made_with.get(name)} in the manifest, {version} here"
              for name, version in now.items() if made_with.get(name) != version]
    return "; ".join(differ) if differ else "same Python and numpy versions as the manifest"


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute(workdir)
    MANIFEST.write_text(render(digests, versions()), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

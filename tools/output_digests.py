"""Write the sha256 digests of modquad's outputs on the bundled fixtures.

    python3 tools/output_digests.py    # rewrite fixtures/outputs.sha256

Run from the root of a source checkout. The digests cover the CSV that
`modquad simulate` writes for every fixture with a scenario block, and the
standard output and exit code of `modquad analyze --format json` for every
fixture. The manifest also records the machine facts that decide the
last bits of a float: the Python and numpy versions, the core that
OpenBLAS picked (its BLAS kernels), the glibc version (its `sin`, `cos`
and `atan2`) and numpy's FMA3 and AVX512_SKX dispatch flags. When the
digests differ, the test names each fact that differs from the machine
that wrote the manifest.
`tests/test_output_digests.py` recomputes the digests and compares them
with the manifest; a change that alters an output on purpose runs this
script and commits the rewritten manifest in the same diff.
"""

import contextlib
import ctypes
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


def machine():
    """{fact: value without spaces} of the machine facts the manifest records."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas_core(), "glibc": platform.libc_ver()[1] or "unknown",
            "fma3": str(__cpu_features__["FMA3"]),
            "avx512_skx": str(__cpu_features__["AVX512_SKX"])}


def openblas_core():
    """The core name that numpy's bundled OpenBLAS picked for this CPU, or
    "unknown" where numpy bundles no `libscipy_openblas64_` that tells it."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*"))
    corename = libs and getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_corename64_", None)
    if not corename:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii")


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
    """The recorded machine facts that differ from this machine's, or that none do."""
    differ = [f"{name} {made_with.get(name)} in the manifest, {value} here"
              for name, value in machine().items() if made_with.get(name) != value]
    return "; ".join(differ) if differ else "same machine facts as the manifest"


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute(workdir)
    MANIFEST.write_text(render(digests, machine()), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""`tools/peak_pss.py` on a command whose process tree holds a known block."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_pss.py"
BLOCK_MB = (40 << 20) / 1e6

# the command fills a 40 MiB block, then forks a child that shares it
FORKED_BLOCK = """
import os, sys, time
block = b"x" * (40 << 20)
pid = os.fork()
time.sleep(0.4)
if pid == 0:
    os._exit(0)
os.waitpid(pid, 0)
sys.exit(3)
"""


@pytest.mark.skipif(not Path("/proc/self/smaps_rollup").exists(),
                    reason="reads /proc/<pid>/smaps_rollup, which only Linux has")
def test_peak_counts_a_shared_block_once_over_the_tree():
    result = subprocess.run([sys.executable, str(TOOL), "--", sys.executable, "-c",
                             FORKED_BLOCK], capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    name, peak, label, samples = result.stdout.splitlines()[-1].split()
    assert (name, label) == ("peak_pss_mb", "samples") and int(samples) >= 10
    # each process alone holds half the block's PSS, so the sum passes the
    # block only with the child in it; resident sizes would count it twice
    assert BLOCK_MB < float(peak) < 1.5 * BLOCK_MB

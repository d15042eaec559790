"""Peak memory of a command and every process it starts, as summed PSS.

    python3 tools/peak_pss.py -- <command> [<argument> ...]

Runs the command, and every 10 ms sums the proportional set size (PSS) of
its process tree: the command and all its descendants, each read from
`/proc/<pid>/smaps_rollup`. PSS shares each page among the processes that
map it, so pages that a fork shares count once in the sum, where summing
resident sizes would count them in every process. When the command ends
it prints the largest sum on its own last line,

    peak_pss_mb <MB> samples <n>

with MB as 10**6 bytes, and exits with the command's exit code. A tree
that lives shorter than one interval can be missed. Linux only.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.01


def tree(pid):
    """`pid` and the ids of all its live descendants."""
    pids, pending = [], [pid]
    while pending:
        pid = pending.pop()
        pids.append(pid)
        for task in Path(f"/proc/{pid}/task").glob("*"):
            try:
                pending.extend(map(int, (task / "children").read_text().split()))
            except OSError:  # the task or process has exited
                pass
    return pids


def pss_kb(pid):
    """The PSS of one process in kB; 0 once it has exited."""
    try:
        rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in rollup.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0  # a zombie's rollup holds no counts


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run a command and print the peak summed PSS of its process tree.")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the command to run after --")
    process = subprocess.Popen(command)
    peak_kb = samples = 0
    while process.poll() is None:
        peak_kb = max(peak_kb, sum(map(pss_kb, tree(process.pid))))
        samples += 1
        time.sleep(INTERVAL_S)
    print(f"peak_pss_mb {peak_kb * 1024 / 1e6:.1f} samples {samples}", flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())

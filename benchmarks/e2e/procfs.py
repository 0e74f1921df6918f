"""CPU time, peak memory and context switches of a process, from /proc."""

from __future__ import annotations

import os
import time

__all__ = ["cpu_seconds", "peak_rss_mb", "ctx_switches"]

_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime.  Own process: the precise clock; another process:
    ``/proc/<pid>/stat`` (clock-tick resolution)."""
    if pid == os.getpid():
        return time.process_time()
    with open(f"/proc/{pid}/stat") as f:
        # the command name may hold spaces; the numbers follow its ")"
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) * _TICK


def _status(pid: int) -> dict[str, str]:
    with open(f"/proc/{pid}/status") as f:
        return dict(line.split(":", 1) for line in f if ":" in line)


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM over ``pids``, in MB."""
    return sum(int(_status(pid)["VmHWM"].split()[0]) for pid in pids) / 1024.0


def ctx_switches(pids) -> int:
    """Voluntary + involuntary context switches, summed over ``pids``."""
    total = 0
    for pid in pids:
        status = _status(pid)
        total += int(status["voluntary_ctxt_switches"])
        total += int(status["nonvoluntary_ctxt_switches"])
    return total

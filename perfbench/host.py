"""Host and source fingerprint recorded with every run (stdlib only)."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _proc_stat_cpu() -> list[int] | None:
    """The aggregate ``cpu`` line of /proc/stat (jiffies by state)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _git_sha(root: Path) -> str | None:
    """HEAD's commit when ``root`` is a git checkout, read without git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, so two runs can tell
    whether they measured the same code even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def speed_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs
    the interpreter right now. Recorded, never used in a metric; it
    tells host drift apart from a change in the program."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = 0
        for i in range(20_000):
            x += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def snapshot() -> dict:
    """Load, CPU-state counters and host speed at one instant."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"loadavg": load, "stat": _proc_stat_cpu(),
            "speed_probe_ms": speed_probe_ms()}


def fingerprint(root: Path, start: dict, end: dict) -> dict:
    """Machine facts plus what the host did over the run: load average
    and host speed at both ends and the share of CPU time stolen by the
    hypervisor."""
    steal_share = None
    if start["stat"] and end["stat"] and len(end["stat"]) > 7:
        spent = [b - a for a, b in zip(start["stat"], end["stat"])]
        total = sum(spent[:8])
        steal_share = spent[7] / total if total else 0.0
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root / "src" / "repro"),
        "loadavg_start": start["loadavg"],
        "loadavg_end": end["loadavg"],
        "speed_probe_ms_start": start["speed_probe_ms"],
        "speed_probe_ms_end": end["speed_probe_ms"],
        "steal_share": steal_share,
    }

"""Samples, percentiles, failure accounting and the host fingerprint."""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any

import yardstick

#: Latency kinds every workload reports, in metric-name order.
KINDS = ("read", "search", "append", "edit", "check")

#: Seconds of run between two host samples (see :mod:`yardstick`).
PACE_S = 0.1

#: Host samples taken before, between and after setups and warm-ups,
#: which last seconds, so that one preempted unit does not decide them.
SETUP_UNITS = 3


def tail(values: "list[float]") -> "tuple[float, float]":
    """``(percentile, value)``: the highest percentile that has at least
    ten samples beyond it (nearest rank), i.e. the eleventh-largest
    sample, at percentile ``100 * (n - 10) / n``.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned at percentile 100, so the run record shows the tail is
    not resolved.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


class Recorder:
    """Latency samples per kind, attempted/failed counts per op, and the
    host samples taken between the ops.

    A latency sample is ``[ms, start, end]`` on the ``perf_counter``
    clock of the process that took it, so that it can be scaled by the
    host samples around it.  Besides the :data:`KINDS`, ``op`` samples
    time the workload's operations (``ops_per_s`` divides their count
    by their scaled sum) and ``setup`` samples its setups.
    """

    def __init__(self) -> None:
        self.samples: "dict[str, list[list[float]]]" = {}
        self.attempted: "dict[str, int]" = {}
        self.failed: "dict[str, int]" = {}
        self.errors: "list[str]" = []
        self.host: "list[list[float]]" = []
        self._paced = float("-inf")

    def sample(self, kind: str, seconds: float, end: "float | None" = None) -> None:
        """A latency of ``seconds`` that ended at ``end`` (default: now)."""
        if end is None:
            end = time.perf_counter()
        self.samples.setdefault(kind, []).append(
            [seconds * 1e3, end - seconds, end]
        )

    def pace(self, force: bool = False, units: int = 1) -> None:
        """Between operations, outside any timed region: take ``units``
        host samples if :data:`PACE_S` has passed since the last one."""
        if force or time.perf_counter() - self._paced >= PACE_S:
            self.host.extend(yardstick.measure() for _ in range(units))
            self._paced = time.perf_counter()

    def attempt(self, op: str) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1

    def fail(self, op: str, error: BaseException) -> None:
        self.failed[op] = self.failed.get(op, 0) + 1
        if len(self.errors) < 10:
            self.errors.append(f"{op}: {error!r}")

    def to_json(self) -> "dict[str, Any]":
        return {
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "host": self.host,
        }

    @classmethod
    def from_json(cls, payload: "dict[str, Any]") -> "Recorder":
        recorder = cls()
        recorder.samples.update(payload["samples"])
        recorder.attempted.update(payload["attempted"])
        recorder.failed.update(payload["failed"])
        recorder.errors.extend(payload["errors"])
        recorder.host.extend(payload["host"])
        return recorder

    def raw(self, kind: str) -> "list[float]":
        return [ms for ms, _, _ in self.samples.get(kind, [])]

    def scaled(self, kind: str) -> "list[float]":
        """The ``kind`` samples in ms at the reference host speed."""
        scale = yardstick.Scale(self.host)
        return [scale(sample) for sample in self.samples.get(kind, [])]

    def ops_per_s(self) -> float:
        """Operations per second of scaled operation time."""
        return len(self.raw("op")) / (sum(self.scaled("op")) / 1e3)

    def latency_metrics(self) -> "tuple[dict[str, float], dict[str, Any]]":
        """``<kind>_p50_ms`` and ``<kind>_tail_ms`` from the scaled
        samples, plus what backs them (the raw figures among it)."""
        metrics: "dict[str, float]" = {}
        backing: "dict[str, Any]" = {}
        for kind in KINDS:
            values = self.scaled(kind)
            if not values:
                raise ValueError(f"no {kind} samples: the plan has none")
            percentile, value = tail(values)
            metrics[f"{kind}_p50_ms"] = statistics.median(values)
            metrics[f"{kind}_tail_ms"] = value
            raw = self.raw(kind)
            backing[kind] = {
                "samples": len(values), "tail_percentile": percentile,
                "raw_p50_ms": statistics.median(raw), "raw_tail_ms": tail(raw)[1],
            }
        return metrics, backing


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = target == point or target.startswith(
                    point.rstrip("/") + "/"
                )
                if inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def host_fingerprint(scratch: Path) -> "dict[str, Any]":
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "scratch_filesystem": filesystem_type(scratch),
        "machine": platform.machine(),
    }


def flush_policy() -> "dict[str, Any]":
    from repro.store import durable

    return {
        "REPRO_STORE_FSYNC": os.environ.get("REPRO_STORE_FSYNC"),
        "durable": durable(),
    }

"""How fast the host runs right now, measured with a fixed unit of work.

The benchmark runs on a core of a shared host whose speed jumps between
a fast and a slow state, about twice as slow, that last from a fraction
of a second to tens of seconds as the neighbours' load comes and goes.
A pure-Python loop timed in 30-second windows over four minutes spread
by 24% (interquartile range over median) on a 2-vCPU host, and a run's
share of slow time, not the program, decided its medians.  So every
workload times :func:`unit` between its operations, outside the timed
regions, on the same pinned core, and :class:`Scale` divides each
timed sample by the host speed measured on either side of it (a setup,
which lasts seconds, by :func:`host_factor` over all the setups).
Figures then read as milliseconds on a core that runs the unit in
:data:`REFERENCE_MS`.  A change to the program does not touch the unit,
so it moves the scaled figures as much as the raw ones; the raw figures
are kept in the run record.  The unit cannot tell the disk's speed,
which drifts on its own: time spent waiting on fsync stays as noisy as
it was.

The unit does what the program's hot paths do in the interpreter:
decode JSON records, tokenise their text into an inverted index, build
adjacency sets, walk them, and sort.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

#: The unit's time, in ms, on a quiet core of the host the benchmark was
#: defined on (2 vCPUs of an Intel Xeon, Python 3.11).
REFERENCE_MS = 2.0

_RECORDS = json.dumps([
    {
        "id": f"N{i}",
        "type": ("goal", "strategy", "solution", "context")[i % 4],
        "text": f"Hazard {i} in the {('brake', 'sensor', 'valve')[i % 3]} "
                f"{('pump', 'timing', 'voter', 'fade')[i % 4]} is mitigated",
        "links": [f"N{(i * 7 + 1) % 600}", f"N{(i * 13 + 5) % 600}"],
    }
    for i in range(600)
])


def unit() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    records = json.loads(_RECORDS)
    postings: "dict[str, list[str]]" = {}
    for record in records:
        for token in record["text"].lower().split():
            postings.setdefault(token, []).append(record["id"])
    children = {record["id"]: set(record["links"]) for record in records}
    seen: "set[str]" = set()
    frontier = ["N0"]
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(children[node] - seen)
    ordered = sorted(records, key=lambda record: (record["type"], record["text"]))
    return len(seen) + len(postings) + len(ordered[0]["text"])


def measure() -> "list[float]":
    """One host sample: ``[when, ms]``, the unit's time and its midpoint
    on the ``perf_counter`` clock.  The collector is off meanwhile, so
    the program's heap does not show in the unit's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return [(start + end) / 2, (end - start) * 1e3]


def host_factor(host: "list[list[float]]") -> float:
    """How much slower than the reference the host ran over a phase, from
    the median of the host samples taken through it."""
    return statistics.median(ms for _, ms in host) / REFERENCE_MS


class Scale:
    """Scales samples by the host samples taken around them."""

    def __init__(self, host: "list[list[float]]") -> None:
        if not host:
            raise ValueError("no host samples to scale by")
        ordered = sorted(host)
        self._when = [when for when, _ in ordered]
        self._ms = [ms for _, ms in ordered]

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran from ``start``
        to ``end``: the median of the two host samples just before and
        the two just after (fewer at the ends of the run), so that one
        unit that was preempted does not skew the samples beside it."""
        before = bisect.bisect_right(self._when, start)
        after = bisect.bisect_left(self._when, end)
        around = self._ms[max(0, before - 2):before] + self._ms[after:after + 2]
        return statistics.median(around or self._ms) / REFERENCE_MS

    def __call__(self, sample: "list[float]") -> float:
        """A ``[ms, start, end]`` sample, in ms at the reference speed."""
        ms, start, end = sample
        return ms / self.factor(start, end)

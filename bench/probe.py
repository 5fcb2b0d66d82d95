"""Host-speed probe: fixed pure-Python shortest-path runs, timed between operations.

On a shared virtual machine the same Python code runs up to 40 % faster or
slower from one minute to the next, in bursts of a few seconds; it is host
speed, not scheduling (process time tracks wall time).  The probe samples that
speed every INTERVAL_S seconds between operations, and an operation's time is
reported rescaled to the reference speed:
``measured * REFERENCE_S / mean(probe samples just before and after it)``.

A sample times two Dijkstra runs, one on a graph too large for the CPU caches
(as chain-1000's substrate is) and one on a small graph (as the 10-node mesh
is), and takes the geometric mean: contention slows the two kinds of work by
different amounts.  The probe does not use the library, so a change to the
library moves the rescaled times exactly as it moves the measured ones.  On the
2-core reference VM, rescaling cut the spread (interquartile range over median)
of run medians across seeds from 0.10-0.25 to 0.02-0.07.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import random
from time import perf_counter

# about the median sample on the 2-core reference VM; it sets the scale only
REFERENCE_S = 0.0065
INTERVAL_S = 0.2
LARGE_NODES, LARGE_RUNS = 2000, 1
SMALL_NODES, SMALL_RUNS = 200, 10


def _graph(nodes: int, seed: int) -> list:
    """Adjacency lists of a random spanning tree plus 2 * nodes extra edges."""
    rng = random.Random(seed)
    adjacency = [[] for _ in range(nodes)]

    def edge(a, b):
        weight = rng.uniform(1.0, 20.0)
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))

    for i in range(1, nodes):
        edge(i, rng.randrange(i))
    for _ in range(2 * nodes):
        edge(rng.randrange(nodes), rng.randrange(nodes))
    return adjacency


def _dijkstra(adjacency: list, source: int) -> dict:
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for other, weight in adjacency[node]:
            alt = d + weight
            if alt < dist.get(other, math.inf):
                dist[other] = alt
                heapq.heappush(heap, (alt, other))
    return dist


class Probe:
    """Samples host speed at most every INTERVAL_S seconds, between operations."""

    def __init__(self):
        self.large = _graph(LARGE_NODES, 1)
        self.small = _graph(SMALL_NODES, 2)
        self.times = []       # end of each sample
        self.samples = []     # geometric-mean seconds of each sample

    def _run(self, adjacency: list, runs: int) -> float:
        start = perf_counter()
        for source in range(runs):
            _dijkstra(adjacency, source)
        return perf_counter() - start

    def sample(self) -> None:
        """Time both probe parts with the collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            large = self._run(self.large, LARGE_RUNS)
            small = self._run(self.small, SMALL_RUNS)
        finally:
            if enabled:
                gc.enable()
        self.times.append(perf_counter())
        self.samples.append(math.sqrt(large * small))

    def timed(self, op_id, fn):
        """Timer for workloads: maybe sample the probe, then (seconds, fn())."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()
        start = perf_counter()
        result = fn()
        return perf_counter() - start, result

    def scale_at(self, moment: float) -> float:
        """Factor that turns a time measured at `moment` into reference-speed time."""
        index = bisect.bisect_left(self.times, moment)
        near = self.samples[max(0, index - 1):index + 1]
        return REFERENCE_S * len(near) / sum(near)

"""Anypath route computation over a wireless substrate.

A route toward a destination is built in two stages over the links with
enough spare bandwidth: a unicast Dijkstra orients every such link toward the
destination as it settles nodes (dropping ties, which yields a DAG), then a
Dijkstra-like sweep grows per-node forwarding sets in settle order and prices
each hop as a hyperlink: one broadcast transmission that any member of the
forwarding set may relay.

Hyperlink metrics for an ordered forwarding set with link reliabilities p_m
and delays d_m:

    reliability = 1 - prod(1 - p_m)          (any member receives)
    delay       = max(d_m)                   (worst member may be the relay)
    cost        = delay / reliability
    w_m         = p_m * prod_{k<m}(1 - p_k) / reliability

The expected anypath transmission time of a node is then the hyperlink cost
plus the w-weighted mean of its members' own costs.  ``_expected_time`` is
the one place these formulas are computed.

Everything inside runs on the dense integer ids of the substrate's shared
``netmodel.Topology``: node i is the i-th node id in ``natural_key`` order,
and a DAG edge or forwarding member is an arc code 2*link + side whose head
is ``topology.ends[arc]`` and whose tail is ``topology.ends[arc ^ 1]``.  The
sweep's heap key is (cost, index), so equal costs settle in ``natural_key``
order of the ids; the sweep counts a route's links with an int bitmask over
link indices.  A table keeps every node's forwarding set in one flat
layout: ``arcs`` lists the sets node by node, each in priority order, and
``start`` holds n + 1 offsets into it.  ``route_closure`` hands a route out as
its forwarding arcs, and ids appear only at the boundary: the link ids that
``embedder.embed`` reserves and the hyperlinks of
``embedder.ChannelRoute.to_dict``.

A route table depends only on the topology, its destination and which links
have at least the channel's bandwidth, because link delay and pdr never
change.  Routing reads that set only through ``eligible_links``, never a
link's bandwidth.  A table miss is one function of that key, ``_table``, and
one process-wide ``lru_cache`` keeps its recent tables; clones share a
topology, so they share its tables.  A cached table is the one a
recomputation would build, float for float and tie for tie.

A miss runs in the compiled kernel, ``route_kernel.c``, when it can be
built: on import the module compiles it with ``cc`` into ``__pycache__``
beside itself, once per source, flags and platform, and loads it with
``ctypes``.  The kernel does ``_orient``, ``_sweep`` and
``_expected_time`` in one call, with the same floats in the same order.  Its
heaps hold one entry per node, not ``heapq``'s stale ones, and each entry
carries its (cost, index) key; a pop walks the hole at the root down to a
leaf along the lesser child and then sifts the last entry up from there.  The
key is a total order, so whatever the heap's shape the least live entry is
the one ``heapq`` pops next, and the kernel pops the same nodes in the same
order; it ranks with a counting sort by link count.  It
reads the topology's typed arrays in place, by address, and writes the
table's own arrays in its flat layout, so a miss copies no field in Python.
Without a compiler, or when the build or the load fails, ``_orient`` and
``_sweep`` build every table.  ``KERNEL`` ("c" or "python") names the one
kernel that builds every table in the process, and ``KERNEL_REASON`` why it
is the Python one (None when it is not).  The Python kernel stays the
reference that the tests compare the compiled one with.  A NaN cost cannot
arise from validated links; the compiled kernel refuses one with a
FloatingPointError instead of ordering it.
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import math
import os
import shutil
import subprocess
import sysconfig
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from pathlib import Path

from .netmodel import SchemaError, SubstrateNetwork, Topology, _cut

INFINITY = math.inf
# route tables kept.  By _table.cache_info(), 16 (32) entries miss 242 (87) of
# a 20-iteration default sweep's 10 323 lookups, 934 (930) of 3 spread-240
# episodes' 1 035 and 3 (3) of 3 chain-1000 items' 36.  By tracemalloc, a
# spread-240 table holds about 13 kB.
ROUTE_CACHE_SIZE = 16


class UnreachableSourceError(Exception):
    """Raised when a route closure is requested from a node with no route."""


def _orient(topology: Topology, dst: str, eligible: bytes) -> tuple[list, list]:
    """Unicast Dijkstra toward dst over the eligible links, orienting them as it goes.

    Returns (dist, incoming) by node index: the delay/pdr shortest-path cost
    (inf when unreachable), and per node v the arcs into v from a farther
    endpoint, in the order their tails settle.  A neighbour nearer than the
    settling node has settled already, so its distance is final; a link
    between equal distances gets no arc.  Link costs are positive, so the
    distances do not depend on the pop order of equal heap keys.
    """
    adj_start, adj_link, adj_node = topology.adj_start, topology.adj_link, topology.adj_node
    weight, ends = topology.weight, topology.ends
    n = len(topology.nodes)
    dist = [INFINITY] * n
    incoming = [[] for _ in range(n)]
    start = topology.index[dst]
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        row = slice(adj_start[u], adj_start[u + 1])
        for link, v in zip(adj_link[row], adj_node[row]):
            if not eligible[link]:
                continue
            dv = dist[v]
            if dv < d:
                # the arc into v: 2*link + 1 when v is the link's endpoint b
                incoming[v].append(2 * link + (ends[2 * link + 1] == v))
            elif (alt := d + weight[link]) < dv:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist, incoming


def _expected_time(members, pdr, delay, head, cost) -> float:
    """Expected anypath transmission time over the priority-ordered members.

    pdr, delay and head are indexed by member; cost by head.  The result is
    the hyperlink cost plus the w-weighted sum of the heads' costs,
    accumulated left to right in member order.
    """
    miss = 1.0
    worst = 0.0
    for m in members:
        miss *= 1.0 - pdr[m]
        d = delay[m]
        if d > worst:    # >= is equivalent: an equal delay leaves the same maximum
            worst = d
    reliability = 1.0 - miss
    remaining = 0.0
    ahead = 1.0
    for m in members:
        p = pdr[m]
        remaining += p * ahead / reliability * cost[head[m]]
        ahead *= 1.0 - p
    return worst / reliability + remaining


@dataclass(frozen=True)
class AnypathRouteTable:
    """Per-node forwarding sets and expected anypath transmission times to dst.

    ``cost`` is a list over node indices, the other fields are
    ``array("i")``.  The forwarding sets are flat:
    node i's arcs, in priority order, are ``arcs[start[i]:start[i + 1]]``,
    which ``members(i)`` returns, and an unreached node has none.  ``ranked``
    orders the reached nodes the way candidate selection prefers them, so a
    selection walks it and stops at the first node that qualifies.  Tables
    are shared through the route cache and never written after they are built.
    """

    topology: Topology
    dst: str
    cost: list           # node index -> float (inf if unreachable)
    arcs: array          # every forwarding set's arc codes, node by node
    start: array         # n + 1 offsets into arcs, node by node
    settle_order: array  # reached node indices in ascending cost
    ranked: array        # reached node indices by (link count, cost, index)

    def members(self, i: int) -> array:
        """Node i's forwarding arcs, in priority order."""
        return self.arcs[self.start[i]:self.start[i + 1]]


def _sweep(topology: Topology, dst: str, incoming: list) -> AnypathRouteTable:
    """Settle nodes in ascending cost, growing forwarding sets as neighbors settle.

    incoming is ``_orient``'s: node index -> the DAG arcs headed at it.  When
    a node settles, every DAG predecessor whose current cost exceeds the
    settled cost appends it to its forwarding set and reprices its own cost as
    hyperlink cost plus weighted remaining cost.  The repricing is applied even
    if it raises the predecessor's cost, so a fresh heap entry is pushed on
    every update and stale entries are skipped by value comparison.

    A settled node's forwarding set is final and its heads settled before it,
    so its route's links are counted as it settles.  The reached nodes are then
    ranked by (link count, cost, index), a strict order, and the sets are
    flattened into the table's layout.

    The result does not depend on the order of ``incoming``: an update reads
    only its predecessor's members, the heap key is total, and parallel links
    share a tail, so they stay in natural-key order of their link ids.
    """
    ends = topology.ends
    pdr, delay = topology.pdr, topology.delay
    n = len(topology.nodes)
    cost = [INFINITY] * n
    forwarding = [()] * n
    settled = [False] * n
    masks = [0] * n    # node index -> its route's links, as a bitmask
    links = [0] * n    # node index -> number of distinct links its route uses
    settle_order = []
    start = topology.index[dst]
    cost[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        settled_cost, u = heapq.heappop(heap)
        if settled[u] or settled_cost != cost[u]:
            continue
        settled[u] = True
        settle_order.append(u)
        mask = 0
        for arc in forwarding[u]:
            mask |= masks[ends[arc]] | (1 << (arc >> 1))
        masks[u] = mask
        links[u] = mask.bit_count()
        for arc in incoming[u]:
            pred = ends[arc ^ 1]
            if settled[pred] or cost[pred] <= settled_cost:
                continue
            members = forwarding[pred] + (arc,)
            cost[pred] = _expected_time(members, pdr, delay, ends, cost)
            forwarding[pred] = members
            heapq.heappush(heap, (cost[pred], pred))
    # stable sorts, least significant key first
    ranked = sorted(settle_order)
    ranked.sort(key=cost.__getitem__)
    ranked.sort(key=links.__getitem__)
    return AnypathRouteTable(topology, dst, cost, array("i", chain.from_iterable(forwarding)),
                             array("i", accumulate(map(len, forwarding), initial=0)),
                             array("i", settle_order), array("i", ranked))


# no -march and no fast-math: the object must compute the Python kernel's floats
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _load_kernel(directory: Path) -> tuple:
    """(route_table, None) for the compiled kernel in directory, built there with
    ``cc`` first when missing; (None, reason) when it cannot be built or loaded."""
    source = Path(__file__).with_name("route_kernel.c")
    try:
        tag = hashlib.sha256(source.read_bytes() + repr(
            (_CFLAGS, sysconfig.get_platform())).encode()).hexdigest()[:16]
        target = directory / f"route_kernel.{tag}.so"
        if not target.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None, "cc not found"
            directory.mkdir(exist_ok=True)
            partial = directory / f"route_kernel.{tag}.{os.getpid()}.tmp"
            try:
                subprocess.run([cc, *_CFLAGS, "-o", str(partial), str(source)],
                               check=True, capture_output=True)
                os.replace(partial, target)
            finally:
                partial.unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(target)).route_table
    except subprocess.CalledProcessError as error:
        lines = error.stderr.decode(errors="replace").splitlines()
        return None, lines[-1] if lines else f"cc exited with status {error.returncode}"
    except (OSError, subprocess.SubprocessError) as error:
        return None, str(error)
    kernel.restype = ctypes.c_int
    # the arrays go by address, so their types are Topology's to keep
    kernel.argtypes = ([ctypes.c_int] * 2 + [ctypes.c_void_p] * 7
                       + [ctypes.c_char_p, ctypes.c_int] + [ctypes.c_void_p] * 5)
    return kernel, None


_kernel, KERNEL_REASON = _load_kernel(Path(__file__).with_name("__pycache__"))
KERNEL = "python" if _kernel is None else "c"    # the kernel the import chose


def _compiled_table(kernel, topology: Topology, dst: str, eligible: bytes) -> AnypathRouteTable:
    """The route table built by the compiled kernel; a NaN cost raises FloatingPointError."""
    n = len(topology.nodes)
    cost, start = array("d", [0.0]) * n, array("i", [0]) * (n + 1)
    arcs = array("i", [0]) * topology.adj_start[n]
    order, ranked = array("i", [0]) * n, array("i", [0]) * n
    address = [values.buffer_info()[0] for values in (
        topology.adj_start, topology.adj_link, topology.adj_node, topology.ends,
        topology.weight, topology.pdr, topology.delay, cost, start, arcs, order, ranked)]
    reached = kernel(n, len(topology.link_ids), *address[:7], eligible, topology.index[dst],
                     *address[7:])
    if reached < 0:    # ROUTE_NO_MEMORY is -2, ROUTE_NAN -1
        raise (MemoryError("route kernel") if reached == -2 else
               FloatingPointError(f"route kernel: a NaN cost toward {_cut(dst)}"))
    # the arcs in use end at start[n]
    del arcs[start[n]:], order[reached:], ranked[reached:]
    return AnypathRouteTable(topology, dst, cost.tolist(), arcs, start, order, ranked)


@lru_cache(maxsize=ROUTE_CACHE_SIZE)
def _table(topology: Topology, dst: str, eligible: bytes) -> AnypathRouteTable:
    """A table miss, by the compiled kernel when it is loaded, else by
    ``_orient`` and ``_sweep``.  A dst that is not a node, or an eligible
    string that is not one byte per link, raises a SchemaError."""
    if dst not in topology.index:
        raise SchemaError("dst", f"{_cut(dst)} is not a node")
    if len(eligible) != len(topology.link_ids):
        raise SchemaError("eligible", f"{len(eligible)} bytes for {len(topology.link_ids)} links")
    if _kernel is not None:
        return _compiled_table(_kernel, topology, dst, eligible)
    return _sweep(topology, dst, _orient(topology, dst, eligible)[1])


def route_table(net: SubstrateNetwork, dst: str, bw: int) -> AnypathRouteTable:
    """Route table toward dst over the links with bw >= bw, from the route cache.

    The key is the topology, dst and ``net.eligible_links(bw)``, so a reservation
    that drops a link below bw leads to a new table; a dst that is not a string
    raises a SchemaError before the cache is asked.
    """
    if not isinstance(dst, str):
        raise SchemaError("dst", f"expected a node id, got {_cut(dst)}")
    return _table(net.topology(), dst, net.eligible_links(bw))


def route_closure(table: AnypathRouteTable, src: str) -> list:
    """Forwarding arcs of the nodes on src's route, each transmitter's together
    in priority order; [] when src is dst.  A src that is not a node id raises
    a SchemaError, a node with no route an UnreachableSourceError."""
    if src == table.dst:
        return []
    topology = table.topology
    source = topology.index.get(src) if isinstance(src, str) else None
    if source is None:
        raise SchemaError("src", f"{_cut(src)} is not a node")
    if table.cost[source] == INFINITY:
        raise UnreachableSourceError(f"node {src} has no route to {table.dst}")
    ends, arcs, start = topology.ends, table.arcs, table.start
    route = []
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for arc in arcs[start[u]:start[u + 1]]:
            route.append(arc)
            head = ends[arc]
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return route

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
``netmodel.Topology``: node i is the i-th node id, and a DAG edge or
forwarding member is an arc code 2*link + side whose head is
``topology.ends[arc]`` and whose tail is ``topology.ends[arc ^ 1]``.  The
sweep's heap key is (cost, natural-key rank, index), so equal costs settle in
``natural_key`` order of the ids; the sweep counts a route's links with an
int bitmask over link indices.  ``route_closure`` hands a route out as its
forwarding arcs, and ids appear only at the boundary: the link ids that
``embedder.embed`` reserves and the hyperlinks of
``embedder.ChannelRoute.to_dict``.  Only ``PrunedDag.edges`` makes DagEdges.

A route table depends only on the topology, its destination and which links
have at least the channel's bandwidth, because link delay and pdr never
change.  Routing reads that set only through
``SubstrateNetwork.eligible_links``, never a link's bandwidth.
``route_table`` keeps recent tables on the topology, which every clone of a
substrate shares; ``add_node``/``add_link`` start a new topology with an
empty cache.  A cached table is the one a recomputation would build, float
for float and tie for tie.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .netmodel import SubstrateNetwork, Topology

INFINITY = math.inf
# route tables kept per topology.  With 16, a 20-iteration default sweep makes
# 10 323 lookups for 72 distinct keys and computes 242 tables, and a table of
# a 240-node substrate holds about 50 kB.
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
    adjacency, weight, ends = topology.adjacency, topology.weight, topology.ends
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
        for link, v in adjacency[u]:
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


@dataclass(frozen=True)
class DagEdge:
    """Directed use of a substrate link, from the farther endpoint to the nearer.

    A forwarding-set member is the DagEdge whose head is the relay.
    """

    tail: str
    head: str
    link_id: str
    delay: float
    pdr: float


def _edge(topology: Topology, arc: int) -> DagEdge:
    nodes, ends = topology.nodes, topology.ends
    return DagEdge(nodes[ends[arc ^ 1]], nodes[ends[arc]],
                   topology.link_ids[arc >> 1], topology.delay[arc], topology.pdr[arc])


@dataclass
class PrunedDag:
    """Destination-oriented DAG; every arc is one substrate link, oriented."""

    dst: str
    topology: Topology
    incoming: list    # node index -> arc codes headed at it, in tail-settle order

    @cached_property
    def edges(self) -> list:
        """The arcs as DagEdges, in link order (each link is at most one arc)."""
        return [_edge(self.topology, arc) for arc in sorted(chain(*self.incoming))]


def prune(net: SubstrateNetwork, dst: str, bw: int) -> PrunedDag:
    """Orient each link with bw >= bw from its farther endpoint toward dst; drop ties."""
    topology = net.topology()
    _, incoming = _orient(topology, dst, net.eligible_links(bw))
    return PrunedDag(dst, topology, incoming)


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
        if d > worst:
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

    ``cost`` and ``forwarding`` are lists over node indices.  ``ranked``
    orders the reached nodes the way candidate selection prefers them, so a
    selection walks it and stops at the first node that qualifies.  Tables
    are shared through the route cache and never written after they are built.
    """

    topology: Topology
    dst: str
    cost: list           # node index -> float (inf if unreachable)
    forwarding: list     # node index -> tuple of arc codes
    settle_order: list   # reached node indices in ascending cost
    ranked: list         # reached node indices by (link count, cost, natural-key rank)


def anypath_routes(dag: PrunedDag, dst: str) -> AnypathRouteTable:
    """Settle nodes in ascending cost, growing forwarding sets as neighbors settle.

    When a node settles, every DAG predecessor whose current cost exceeds the
    settled cost appends it to its forwarding set and reprices its own cost as
    hyperlink cost plus weighted remaining cost.  The repricing is applied even
    if it raises the predecessor's cost, so a fresh heap entry is pushed on
    every update and stale entries are skipped by value comparison.

    A settled node's forwarding set is final and its heads settled before it,
    so its route's links are counted as it settles.  The reached nodes are then
    ranked by (link count, cost, natural-key rank), a strict order.

    The result does not depend on the order of ``dag.incoming``: an update
    reads only its predecessor's members, the heap key is total, and parallel
    links share a tail, so they stay in link order.
    """
    topology = dag.topology
    rank, ends = topology.rank, topology.ends
    pdr, delay = topology.pdr, topology.delay
    incoming = dag.incoming
    n = len(topology.nodes)
    cost = [INFINITY] * n
    forwarding = [()] * n
    settled = [False] * n
    masks = [0] * n    # node index -> its route's links, as a bitmask
    links = [0] * n    # node index -> number of distinct links its route uses
    settle_order = []
    start = topology.index[dst]
    cost[start] = 0.0
    heap = [(0.0, rank[start], start)]
    while heap:
        settled_cost, _, u = heapq.heappop(heap)
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
            heapq.heappush(heap, (cost[pred], rank[pred], pred))
    # stable sorts, least significant key first
    ranked = sorted(settle_order, key=rank.__getitem__)
    ranked.sort(key=cost.__getitem__)
    ranked.sort(key=links.__getitem__)
    return AnypathRouteTable(topology, dst, cost, forwarding, settle_order, ranked)


def route_table(net: SubstrateNetwork, dst: str, bw: int) -> AnypathRouteTable:
    """Route table toward dst over the links with bw >= bw, from the topology's cache.

    The key is dst and ``net.eligible_links(bw)``, exactly the filter of
    ``prune``, so a reservation that drops a link below bw leads to a new
    table.  A miss calls ``prune`` and ``anypath_routes`` through this
    module.  The cache keeps the ``ROUTE_CACHE_SIZE`` most recently used
    tables; they are shared, so callers only read them.
    """
    cache = net.topology().routes
    key = (dst, net.eligible_links(bw))
    # Clones may be embedded from several threads, so the cache is touched
    # only by single, atomic OrderedDict calls: a hit is popped and put back
    # as the newest entry, since a lookup followed by a move could lose the
    # key to another thread's eviction in between.
    table = cache.pop(key, None)
    if table is None:
        table = anypath_routes(prune(net, dst, bw), dst)
    cache[key] = table
    if len(cache) > ROUTE_CACHE_SIZE:
        cache.popitem(last=False)
    return table


def route_closure(table: AnypathRouteTable, src: str) -> list:
    """Forwarding arcs of the nodes on src's route, each transmitter's together
    in priority order; [] when src is dst."""
    if src == table.dst:
        return []
    topology = table.topology
    start = topology.index.get(src)
    if start is None or table.cost[start] == INFINITY:
        raise UnreachableSourceError(f"node {src} has no route to {table.dst}")
    ends, forwarding = topology.ends, table.forwarding
    arcs = []
    seen = {start}
    stack = [start]
    while stack:
        members = forwarding[stack.pop()]
        arcs += members
        for arc in members:
            if ends[arc] not in seen:
                seen.add(ends[arc])
                stack.append(ends[arc])
    return arcs

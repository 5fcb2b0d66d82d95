"""Shared fuzzing helpers and independent oracles for the test suite."""

from __future__ import annotations

import heapq
import math

import numpy as np

from anypath_vne.anypath import (
    DagEdge,
    PrunedDag,
    _edge,
    _expected_time,
    _orient,
    route_closure,
)
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SubstrateNetwork,
    VirtualRequest,
    fits,
    reserve_channel,
    reserve_service,
)


# --- id-keyed views of the library's index-based kernels and tables ---------

def unicast_distances(net: SubstrateNetwork, dst: str, bw: int) -> dict[str, float]:
    """Node id -> delay/pdr shortest-path cost to dst over links with bw >= bw.

    Runs the library's fused Dijkstra, ``anypath._orient``; inf when unreachable.
    """
    topology = net.topology()
    dist, _ = _orient(topology, dst, net.eligible_links(bw))
    return dict(zip(topology.nodes, dist))


def forwarding_cost(members, cost: dict) -> float:
    """Expected anypath transmission time over DagEdge members, given cost[m.head].

    Runs the library's pricing kernel, ``anypath._expected_time``.
    """
    return _expected_time(range(len(members)), [m.pdr for m in members],
                          [m.delay for m in members], [m.head for m in members],
                          cost)


def cost_by_id(table) -> dict[str, float]:
    """Node id -> route cost of a route table, in the substrate's node order."""
    return dict(zip(table.topology.nodes, table.cost))


def members(table, node_id: str) -> tuple:
    """Forwarding set of node_id in a route table, as DagEdges in priority order."""
    topology = table.topology
    return tuple(_edge(topology, arc) for arc in table.forwarding[topology.index[node_id]])


def forwarding_by_id(table) -> dict[str, tuple]:
    """Node id -> forwarding set of a route table, as DagEdges."""
    return {nid: members(table, nid) for nid in table.topology.nodes}


def settled_ids(table) -> list[str]:
    """Reached node ids of a route table, in ascending cost."""
    return [table.topology.nodes[i] for i in table.settle_order]


def link_count(table, node_id: str) -> int:
    """Distinct links of node_id's route, counted over its ``route_closure``.

    Independent of the sweep's own counts, which only order ``table.ranked``.
    """
    return len({arc >> 1 for arc in route_closure(table, node_id)})


def closure_ids(table, src: str) -> tuple[set, set]:
    """(node ids, link ids) of src's ``route_closure``; empty sets when src is dst."""
    topology = table.topology
    nodes, ends = topology.nodes, topology.ends
    arcs = route_closure(table, src)
    return ({nodes[ends[arc]] for arc in arcs} | {nodes[ends[arc ^ 1]] for arc in arcs},
            {topology.link_ids[arc >> 1] for arc in arcs})


def local_pdr(net: SubstrateNetwork, node_id: str) -> float:
    """Mean pdr over node_id's links, from the topology's adjacency; 0 when it has none."""
    topology = net.topology()
    pdrs = [topology.pdr[2 * link] for link, _ in topology.adjacency[topology.index[node_id]]]
    return sum(pdrs) / len(pdrs) if pdrs else 0.0


def suitable_nodes(net: SubstrateNetwork, service: NanoService) -> set[str]:
    """Ids of every node that ``fits`` the service, by a scan of the substrate."""
    return {nid for nid, node in net.nodes.items() if fits(node, service)}


def example_after_steps(example, steps: int) -> SubstrateNetwork:
    """Example substrate with the first N embedding reservations applied."""
    net, request, _ = example
    ledger = []
    if steps >= 1:
        reserve_service(net, "n4", request.services["s2"], ledger)
    if steps >= 2:
        reserve_service(net, "n1", request.services["s1"], ledger)
        reserve_channel(net, {"l1", "l2", "l3", "l4"}, 50, ledger)
    if steps >= 3:
        reserve_service(net, "n5", request.services["s3"], ledger)
        reserve_channel(net, {"l2", "l5"}, 30, ledger)
    return net


def forwarding_set(pdrs, delays=None) -> tuple:
    """Members from transmitter t to relays r1, r2, ... in priority order."""
    delays = delays or [0.0] * len(pdrs)
    return tuple(DagEdge("t", f"r{i}", f"l{i}", float(d), float(p))
                 for i, (p, d) in enumerate(zip(pdrs, delays), 1))


def random_substrate(rng: np.random.Generator, max_nodes: int = 8,
                     connected: bool = True, extra_edge_factor: float = 1.0,
                     min_nodes: int = 2) -> SubstrateNetwork:
    """Random substrate: optional spanning tree plus extra non-parallel links."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", cpu=int(rng.integers(0, 61)),
                     gpu=int(rng.integers(0, 31)), mem=int(rng.integers(0, 61)))
    pairs = set()
    seq = 0

    def add(i, j):
        nonlocal seq
        seq += 1
        net.add_link(f"l{seq}", f"n{i}", f"n{j}", bw=int(rng.integers(0, 101)),
                     delay=float(rng.uniform(1.0, 30.0)),
                     pdr=float(rng.uniform(0.05, 1.0)))
        pairs.add(frozenset((i, j)))

    if connected:
        for i in range(2, n + 1):
            add(i, int(rng.integers(1, i)))
    extra = int(rng.integers(0, max(1, int(n * extra_edge_factor)) + 1))
    for _ in range(extra):
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if i != j and frozenset((i, j)) not in pairs:
            add(i, j)
    return net


def tie_prone_substrate(rng: np.random.Generator, max_nodes: int = 9) -> SubstrateNetwork:
    """Random substrate with parallel links, ties, isolated parts and bw-0 links.

    Link ends are drawn independently, so a pair may get several links and a
    node a self-loop.
    Delays and pdrs come from small sets of exact binary fractions, so equal
    unicast distances, and links between equal distances, are common.  Few
    links for the node count leave parts disconnected.
    """
    n = int(rng.integers(2, max_nodes + 1))
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", cpu=10, gpu=10, mem=10)
    for k in range(1, int(rng.integers(0, 2 * n + 1)) + 1):
        i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
        net.add_link(f"l{k}", f"n{i}", f"n{j}",
                     bw=int(rng.choice([0, 5, 10, 50])),
                     delay=float(rng.choice([1.0, 2.0, 4.0])),
                     pdr=float(rng.choice([1.0, 0.5, 0.25])))
    return net


def random_tree_substrate(rng: np.random.Generator, max_nodes: int = 9):
    """Random tree plus the parent map used for independent path-cost sums."""
    n = int(rng.integers(2, max_nodes + 1))
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", cpu=10, gpu=10, mem=10)
    parent = {}
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        net.add_link(f"l{i - 1}", f"n{i}", f"n{j}", bw=100,
                     delay=float(rng.uniform(1.0, 30.0)),
                     pdr=float(rng.uniform(0.05, 1.0)))
        parent[f"n{i}"] = (f"n{j}", f"l{i - 1}")
    return net, parent


def random_request(rng: np.random.Generator, max_services: int = 4,
                   max_demand: int = 15) -> VirtualRequest:
    """Small random request with modest demands and loose quality bounds."""
    k = int(rng.integers(1, max_services + 1))
    request = VirtualRequest("fuzz")
    for i in range(1, k + 1):
        request.add_service(NanoService(
            f"s{i}", cpu=int(rng.integers(0, max_demand + 1)),
            gpu=int(rng.integers(0, max_demand // 2 + 1)),
            mem=int(rng.integers(0, max_demand + 1))))
    seq = 0
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if rng.random() < 0.5:
                seq += 1
                request.add_channel(Channel(
                    f"c{seq}", f"s{i}", f"s{j}",
                    bw=int(rng.integers(1, 11)),
                    max_delay=float(rng.uniform(20.0, 400.0)),
                    min_pdr=float(rng.uniform(0.3, 1.0))))
    return request


def eatt_recursive(table) -> dict[str, float]:
    """Straight-line recomputation of route costs over the produced forwarding sets.

    Deliberately independent of the routing algorithm: it evaluates, per node,
    the hyperlink reliability/delay product formulas and the priority-weighted
    remaining cost by direct recursion.
    """
    memo = {table.dst: 0.0}
    forwarding = forwarding_by_id(table)

    def evaluate(node: str) -> float:
        if node in memo:
            return memo[node]
        members = forwarding[node]
        if not members:
            memo[node] = math.inf
            return math.inf
        miss = 1.0
        delay = 0.0
        for m in members:
            miss *= 1.0 - m.pdr
            delay = max(delay, m.delay)
        reliability = 1.0 - miss
        remaining = 0.0
        ahead = 1.0
        for m in members:
            weight = m.pdr * ahead / reliability
            remaining += weight * evaluate(m.head)
            ahead *= 1.0 - m.pdr
        memo[node] = delay / reliability + remaining
        return memo[node]

    for node in settled_ids(table):
        evaluate(node)
    return memo


def has_cycle(nodes, edges) -> bool:
    """Kahn's algorithm cycle check over (tail, head) pairs."""
    indegree = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for tail, head in edges:
        indegree[head] += 1
        out[tail].append(head)
    queue = [n for n, deg in indegree.items() if deg == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in out[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    return seen != len(nodes)


def reference_prune(net: SubstrateNetwork, dst: str, bw: int) -> PrunedDag:
    """Two-pass orientation: unicast distances, then one pass over the links.

    Independent of ``anypath``: the Dijkstra runs over ``net.links`` and reads
    each link's bw, and every node's incoming arcs come in link order.  Arc
    2*k + 1 is link k into its endpoint b, arc 2*k into a.
    """
    index = net.topology().index
    neighbours = {nid: [] for nid in net.nodes}
    for link in net.links.values():
        if link.bw >= bw:
            weight = link.delay / link.pdr
            neighbours[link.a].append((link.b, weight))
            neighbours[link.b].append((link.a, weight))
    dist = {nid: math.inf for nid in net.nodes}
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, weight in neighbours[u]:
            if d + weight < dist[v]:
                dist[v] = d + weight
                heapq.heappush(heap, (dist[v], v))
    incoming = [[] for _ in net.nodes]
    for k, link in enumerate(net.links.values()):
        da, db = dist[link.a], dist[link.b]
        if link.bw < bw or da == db:
            continue
        head = link.b if da > db else link.a
        incoming[index[head]].append(2 * k + (da > db))
    return PrunedDag(dst, net.topology(), incoming)

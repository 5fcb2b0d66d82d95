"""Anypath route computation over a wireless substrate.

A route toward a destination is built in two stages over the links with
enough spare bandwidth: orient every such link toward the destination by
unicast distance (dropping ties, which yields a DAG), then run a Dijkstra-like
sweep that grows per-node forwarding sets in settle order and prices each hop
as a hyperlink: one broadcast transmission that any member of the forwarding
set may relay.

Hyperlink metrics for an ordered forwarding set with link reliabilities p_m
and delays d_m:

    reliability = 1 - prod(1 - p_m)          (any member receives)
    delay       = max(d_m)                   (worst member may be the relay)
    cost        = delay / reliability
    w_m         = p_m * prod_{k<m}(1 - p_k) / reliability

The expected anypath transmission time of a node is then the hyperlink cost
plus the w-weighted mean of its members' own costs.  ``forwarding_cost`` is
the one place these formulas are computed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from .netmodel import SubstrateNetwork, natural_key

INFINITY = math.inf


class UnreachableSourceError(Exception):
    """Raised when a route closure is requested from a node with no route."""


def unicast_distances(net: SubstrateNetwork, dst: str,
                      bw: int) -> dict[str, float]:
    """Shortest-path cost to dst under delay/pdr weights, over links with bw >= bw.

    Link costs are non-negative, so the final distances do not depend on the
    order in which equal heap keys pop; ties need no extra key.
    """
    dist = {nid: INFINITY for nid in net.nodes}
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    done = set()
    while heap:
        d, nid = heapq.heappop(heap)
        if nid in done:
            continue
        done.add(nid)
        for link in net.incident_links(nid):
            if link.bw < bw:
                continue
            other = link.other(nid)
            if other not in dist:
                continue
            alt = d + link.delay / link.pdr
            if alt < dist[other]:
                dist[other] = alt
                heapq.heappush(heap, (alt, other))
    return dist


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


@dataclass
class PrunedDag:
    """Destination-oriented DAG; every edge is one substrate link, oriented."""

    dst: str
    nodes: tuple                                   # insertion order of net.nodes
    edges: list = field(default_factory=list)
    incoming: dict = field(default_factory=dict)   # head -> [DagEdge]


def prune(net: SubstrateNetwork, dst: str, bw: int) -> PrunedDag:
    """Orient each link with bw >= bw from its farther endpoint toward dst; drop ties."""
    dist = unicast_distances(net, dst, bw)
    dag = PrunedDag(dst, tuple(net.nodes))
    for link in net.links.values():
        if link.bw < bw:
            continue
        da, db = dist[link.a], dist[link.b]
        if da == db:
            continue   # equal distance (including both unreachable): no direction
        tail, head = (link.a, link.b) if da > db else (link.b, link.a)
        edge = DagEdge(tail, head, link.id, link.delay, link.pdr)
        dag.edges.append(edge)
        dag.incoming.setdefault(head, []).append(edge)
    return dag


def forwarding_cost(members: Sequence[DagEdge], cost: dict) -> float:
    """Expected anypath transmission time of a transmitter, given cost[m.head].

    members is the priority-ordered forwarding set.  The result is the
    hyperlink cost plus the w-weighted sum of the heads' costs, accumulated
    left to right in member order.
    """
    miss = 1.0
    delay = 0.0
    for m in members:
        miss *= 1.0 - m.pdr
        delay = max(delay, m.delay)
    reliability = 1.0 - miss
    remaining = 0.0
    ahead = 1.0
    for m in members:
        remaining += m.pdr * ahead / reliability * cost[m.head]
        ahead *= 1.0 - m.pdr
    return delay / reliability + remaining


@dataclass
class Hyperlink:
    """A transmitter and its priority-ordered forwarding set."""

    transmitter: str
    members: tuple             # tuple[DagEdge, ...], each headed at a relay


class AnypathRouteTable:
    """Per-node forwarding sets and expected anypath transmission times to dst."""

    def __init__(self, dst: str, cost: dict, forwarding: dict, settle_order: list):
        self.dst = dst
        self.cost = cost                  # node id -> float (inf if unreachable)
        self.forwarding = forwarding      # node id -> tuple[DagEdge, ...]
        self.settle_order = settle_order  # reached nodes in ascending cost
        self._link_counts = None

    def closure_link_count(self, node_id: str) -> int:
        """Number of distinct substrate links used by the route from node_id."""
        if self._link_counts is None:
            self._compute_link_counts()
        return self._link_counts[node_id]

    def _compute_link_counts(self):
        # Forwarding sets point strictly downhill in cost, so settle order is a
        # topological order; accumulate link sets as bitmasks over that order.
        link_bit = {}
        masks = {}
        counts = {}
        for nid in self.settle_order:
            mask = 0
            for member in self.forwarding[nid]:
                bit = link_bit.setdefault(member.link_id, len(link_bit))
                mask |= masks[member.head] | (1 << bit)
            masks[nid] = mask
            counts[nid] = bin(mask).count("1")
        self._link_counts = counts


def anypath_routes(dag: PrunedDag, dst: str) -> AnypathRouteTable:
    """Settle nodes in ascending cost, growing forwarding sets as neighbors settle.

    When a node settles, every DAG predecessor whose current cost exceeds the
    settled cost appends it to its forwarding set and reprices its own cost as
    hyperlink cost plus weighted remaining cost.  The repricing is applied even
    if it raises the predecessor's cost, so a fresh heap entry is pushed on
    every update and stale entries are skipped by value comparison.
    """
    cost = {nid: INFINITY for nid in dag.nodes}
    forwarding = {nid: () for nid in dag.nodes}
    cost[dst] = 0.0
    settled = set()
    settle_order = []
    heap = [(0.0, natural_key(dst), dst)]
    while heap:
        settled_cost, _, nid = heapq.heappop(heap)
        if nid in settled or settled_cost != cost[nid]:
            continue
        settled.add(nid)
        settle_order.append(nid)
        for edge in dag.incoming.get(nid, ()):
            pred = edge.tail
            if pred in settled or cost[pred] <= settled_cost:
                continue
            members = forwarding[pred] + (edge,)
            cost[pred] = forwarding_cost(members, cost)
            forwarding[pred] = members
            heapq.heappush(heap, (cost[pred], natural_key(pred), pred))
    return AnypathRouteTable(dst, cost, forwarding, settle_order)


def route_closure(table: AnypathRouteTable, src: str):
    """(node set, link set) of the route from src; empty sets when src is dst."""
    if src == table.dst:
        return set(), set()
    if table.cost.get(src, INFINITY) == INFINITY:
        raise UnreachableSourceError(f"node {src} has no route to {table.dst}")
    nodes = {src}
    links = set()
    stack = [src]
    while stack:
        nid = stack.pop()
        for member in table.forwarding[nid]:
            links.add(member.link_id)
            if member.head not in nodes:
                nodes.add(member.head)
                stack.append(member.head)
    return nodes, links

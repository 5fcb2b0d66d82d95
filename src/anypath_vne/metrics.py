"""Evaluation metrics over window outcomes and substrate usage."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .embedder import Coefficients, Embedding
from .netmodel import SchemaError, SubstrateNetwork, VirtualRequest, left_sum


def revenue(request: VirtualRequest, coeffs: Coefficients) -> float:
    """Weighted resources demanded by the request (its theoretical price)."""
    value = left_sum(coeffs.node_term(s) for s in request.services.values())
    value += coeffs.beta * sum(c.bw for c in request.channels)
    return value


def cost(request: VirtualRequest, embedding: Embedding,
         coeffs: Coefficients) -> float:
    """Weighted resources actually consumed; each channel pays per route link."""
    value = left_sum(coeffs.node_cost_term(s) for s in request.services.values())
    value += coeffs.cost_beta * sum(
        c.bw * len(embedding.channel_routes[c.id].links)
        for c in request.channels)
    return value


@dataclass
class NodeUsage:
    """Hosted services and used cpu/gpu/mem of one node; means when aggregated."""

    node: str
    services: float
    cpu_used: float
    cpu_total: int
    gpu_used: float
    gpu_total: int
    mem_used: float
    mem_total: int


@dataclass
class LinkUsage:
    """Routed channels and used bandwidth of one link; means when aggregated."""

    link: str
    channels: float
    bw_used: float
    bw_total: int


@dataclass
class MetricsReport:
    """All window metrics: ratios, revenue/cost, and per-resource usage."""

    acceptance_ratio: float
    revenue: float
    cost: float
    rc_ratio: float            # NaN when the accepted set costs nothing
    node_usage: list = field(default_factory=list)
    link_usage: list = field(default_factory=list)


def metrics_report(before: SubstrateNetwork, after: SubstrateNetwork,
                   outcomes: list, coeffs: Coefficients) -> MetricsReport:
    """Score one processed window, the list of its request outcomes, in one
    pass over its accepted requests.

    The pass adds up each accepted request's revenue and cost, left to right
    from 0, and counts the services each node hosts and the channels each link
    routes; used capacity is the before/after capacity delta.  An empty window
    raises a SchemaError naming ``outcomes``, and snapshots of different
    topologies one naming ``after``, in that order.
    """
    if not outcomes:
        raise SchemaError("outcomes", "expected at least one request outcome")
    if (before.nodes.keys() != after.nodes.keys()
            or before.links.keys() != after.links.keys()):
        raise SchemaError("after", "expected a snapshot of the topology of before")
    accepted = total_revenue = total_cost = 0
    hosted = dict.fromkeys(before.nodes, 0)
    routed = dict.fromkeys(before.links, 0)
    for result in outcomes:
        if not result.accepted:
            continue
        accepted += 1
        total_revenue += revenue(result.request, coeffs)
        total_cost += cost(result.request, result.embedding, coeffs)
        for node_id in result.embedding.service_map.values():
            hosted[node_id] += 1
        for route in result.embedding.channel_routes.values():
            for link_id in route.links:
                routed[link_id] += 1
    rc = total_revenue / total_cost if total_cost > 0 else math.nan
    node_rows = []
    for nid in before.topology().nodes:
        was, now = before.nodes[nid], after.nodes[nid]
        node_rows.append(NodeUsage(nid, hosted[nid], was.cpu - now.cpu, was.cpu0,
                                   was.gpu - now.gpu, was.gpu0,
                                   was.mem - now.mem, was.mem0))
    link_rows = [LinkUsage(lid, routed[lid], before.links[lid].bw - after.links[lid].bw,
                           before.links[lid].bw0)
                 for lid in before.topology().link_ids]
    return MetricsReport(accepted / len(outcomes), total_revenue, total_cost, rc,
                         node_rows, link_rows)

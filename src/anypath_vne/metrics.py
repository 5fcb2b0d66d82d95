"""Evaluation metrics over window outcomes and substrate usage."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .embedder import Coefficients, Embedding
from .netmodel import SubstrateNetwork, VirtualRequest, natural_key

if TYPE_CHECKING:
    from .windowing import WindowOutcome


class EmptyWindowError(ValueError):
    """Ratios over a window with no requests are undefined."""


class TopologyMismatchError(ValueError):
    """Usage needs before/after snapshots of the same substrate topology."""


def revenue(request: VirtualRequest, coeffs: Coefficients) -> float:
    """Weighted resources demanded by the request (its theoretical price)."""
    value = sum(coeffs.node_term(s) for s in request.services.values())
    value += coeffs.beta * sum(c.bw for c in request.channels)
    return value


def cost(request: VirtualRequest, embedding: Embedding,
         coeffs: Coefficients) -> float:
    """Weighted resources actually consumed; each channel pays per route link."""
    value = sum(coeffs.node_cost_term(s) for s in request.services.values())
    value += coeffs.cost_beta * sum(
        c.bw * len(embedding.channel_routes[c.id].links)
        for c in request.channels)
    return value


def ratios(outcome: WindowOutcome) -> tuple[float, float]:
    """(acceptance ratio, blocking ratio) of the window; they sum to 1."""
    total = len(outcome.results)
    if total == 0:
        raise EmptyWindowError("window contains no requests")
    acceptance = len(outcome.accepted) / total
    return acceptance, 1.0 - acceptance


def embedding_revenue(outcome: WindowOutcome, coeffs: Coefficients) -> float:
    return sum(revenue(r.request, coeffs) for r in outcome.accepted)


def embedding_cost(outcome: WindowOutcome, coeffs: Coefficients) -> float:
    return sum(cost(r.request, r.embedding, coeffs) for r in outcome.accepted)


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
    blocking_ratio: float
    revenue: float
    cost: float
    rc_ratio: float            # NaN when the accepted set costs nothing
    node_usage: list = field(default_factory=list)
    link_usage: list = field(default_factory=list)


def usage_report(before: SubstrateNetwork, after: SubstrateNetwork,
                 outcome: WindowOutcome) -> tuple[list, list]:
    """Per-node and per-link usage from the before/after capacity deltas."""
    if (set(before.nodes) != set(after.nodes)
            or set(before.links) != set(after.links)):
        raise TopologyMismatchError("before/after snapshots differ in topology")
    hosted = {nid: 0 for nid in before.nodes}
    routed = {lid: 0 for lid in before.links}
    for result in outcome.accepted:
        for node_id in result.embedding.service_map.values():
            hosted[node_id] += 1
        for route in result.embedding.channel_routes.values():
            for link_id in route.links:
                routed[link_id] += 1
    node_rows = [
        NodeUsage(nid, hosted[nid],
                  before.nodes[nid].cpu - after.nodes[nid].cpu,
                  before.nodes[nid].cpu0,
                  before.nodes[nid].gpu - after.nodes[nid].gpu,
                  before.nodes[nid].gpu0,
                  before.nodes[nid].mem - after.nodes[nid].mem,
                  before.nodes[nid].mem0)
        for nid in before.topology().nodes
    ]
    link_rows = [
        LinkUsage(lid, routed[lid],
                  before.links[lid].bw - after.links[lid].bw,
                  before.links[lid].bw0)
        for lid in sorted(before.links, key=natural_key)
    ]
    return node_rows, link_rows


def metrics_report(before: SubstrateNetwork, after: SubstrateNetwork,
                   outcome: WindowOutcome, coeffs: Coefficients) -> MetricsReport:
    """Assemble the full report for one processed window."""
    acceptance, blocking = ratios(outcome)
    total_revenue = embedding_revenue(outcome, coeffs)
    total_cost = embedding_cost(outcome, coeffs)
    rc = total_revenue / total_cost if total_cost > 0 else math.nan
    node_rows, link_rows = usage_report(before, after, outcome)
    return MetricsReport(acceptance, blocking, total_revenue, total_cost,
                         rc, node_rows, link_rows)

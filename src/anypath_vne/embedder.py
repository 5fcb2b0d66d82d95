"""Channel-driven embedding of one virtual request onto the substrate.

Channels are processed in descending pair quality-revenue order.  Each channel
fixes the anypath destination from the allocation state of its two endpoint
services, computes routes on the bandwidth-feasible pruned subgraph, and
places the free endpoint on the suitable node whose route uses the fewest
physical links within the channel's cost bound.  Every reservation lands in a
ledger so a failure at any point restores the substrate exactly and blocks
the request.

Route tables come from ``anypath.route_table``, whose process-wide cache is
keyed by the shared topology, destination and eligible links: every channel
of every ``embed`` call, on a substrate or its clones, reuses a cached table
built for the same key, and the reuse is exact.

Nodes are chosen by walking orders computed once and shared, not by scanning
the substrate: a route table's ``ranked`` order for the channel's free
endpoint and the topology's ``by_local_pdr`` order for an anchor.  A walk
stops at the first node that qualifies, which is the minimum of the
preference key over all qualifying nodes because the orders are sorted by
that key.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import groupby

from . import anypath
from .netmodel import (
    RESOURCES,
    _HUGE,
    _REAL,
    Channel,
    NanoService,
    SchemaError,
    SubstrateNetwork,
    Topology,
    VirtualRequest,
    _check,
    _shown,
    fits,
    natural_key,
    reserve_channel,
    reserve_service,
    rollback,
)


class EmbeddingError(Exception):
    """Base class for embedding failures that block a request."""


class NoSuitableNodeError(EmbeddingError):
    """No substrate node can host the service."""

    def __init__(self, service_id: str):
        self.service_id = service_id
        super().__init__(f"no suitable node for service {service_id}")


class NoFeasiblePathError(EmbeddingError):
    """No candidate node satisfies the channel's route cost bound."""

    def __init__(self, channel_id: str):
        self.channel_id = channel_id
        super().__init__(f"no feasible route for channel {channel_id}")


def _resource_sum(weights: tuple, service: NanoService) -> float:
    return weights[0] * service.cpu + weights[1] * service.gpu + weights[2] * service.mem


@dataclass(frozen=True)
class Coefficients:
    """Revenue/cost/ordering weights.

    alpha and cost_alpha weight node resources in (cpu, gpu, mem) order; beta
    and cost_beta weight channel bandwidth; gamma weights the quality term, a
    channel's ``min_pdr / max_delay``, which is used only for ordering, in the
    one formula that orders both requests and the channels within one.
    Every weight is stored as a float.  An alpha that is not a 3-tuple, or a
    weight that is not a finite number, raises a SchemaError naming the field
    (``alpha.cpu`` for one resource of an alpha).
    """

    alpha: tuple = (1.0, 1.0, 1.0)
    beta: float = 1.0
    cost_alpha: tuple = (1.0, 1.0, 1.0)
    cost_beta: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "cost_alpha"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) == 3):
                raise SchemaError(name, "expected a (cpu, gpu, mem) tuple, "
                                  f"got {_shown(value)}")
            object.__setattr__(self, name, tuple(
                float(_check(f"{name}.{resource}", weight, _REAL, -_HUGE, _HUGE))
                for resource, weight in zip(RESOURCES, value)))
        for name in ("beta", "cost_beta", "gamma"):
            object.__setattr__(self, name, float(
                _check(name, getattr(self, name), _REAL, -_HUGE, _HUGE)))

    def node_term(self, service: NanoService) -> float:
        return _resource_sum(self.alpha, service)

    def node_cost_term(self, service: NanoService) -> float:
        return _resource_sum(self.cost_alpha, service)


@dataclass
class ChannelRoute:
    """Realized route of one channel, oriented in the data-flow direction.

    ``closure`` holds the arcs of ``anypath.route_closure`` on ``topology``,
    as computed toward the anchor; ``reverse`` is true when that was against
    the flow.  ``arcs`` turns them into flow direction (``arc ^ 1`` for a
    reversed route), by transmitter in natural-key order; a transmitter's arcs
    are in priority order, or by relay in natural-key order when transposed.
    It is built on each read, since only ``to_dict`` needs it.  ``links`` are
    the distinct link ids in link order, the order ``to_dict`` lists them in;
    both are empty when the endpoints share a node.
    """

    channel_id: str
    src_node: str
    dst_node: str
    links: tuple
    eatt: float                # realized route cost checked against the bound
    topology: Topology
    closure: tuple
    reverse: bool

    @property
    def arcs(self) -> tuple:
        return _flow_arcs(self.topology, self.closure, self.reverse)

    def to_dict(self) -> dict:
        topology = self.topology
        nodes, ends, link_ids = topology.nodes, topology.ends, topology.link_ids
        return {
            "id": self.channel_id,
            "src_node": self.src_node,
            "dst_node": self.dst_node,
            "eatt": self.eatt,
            "links": list(self.links),
            "hyperlinks": [
                {"transmitter": nodes[tail],
                 "members": [{"node": nodes[ends[arc]], "link": link_ids[arc >> 1]}
                             for arc in arcs]}
                for tail, arcs in groupby(self.arcs, key=lambda arc: ends[arc ^ 1])
            ],
        }


@dataclass
class Embedding:
    """Accepted mapping of one request plus the ledger that produced it.

    ``to_dict`` is the ``embed`` JSON, the one place hyperlinks are built.
    """

    request_id: str
    service_map: dict = field(default_factory=dict)   # service id -> node id
    channel_routes: dict = field(default_factory=dict)  # channel id -> ChannelRoute
    ledger: list = field(default_factory=list)           # reservation records

    def to_dict(self) -> dict:
        return {
            "request": self.request_id,
            "services": {sid: self.service_map[sid]
                         for sid in sorted(self.service_map, key=natural_key)},
            "channels": [self.channel_routes[cid].to_dict()
                         for cid in sorted(self.channel_routes, key=natural_key)],
        }


def pair_quality_revenue(channel: Channel, request: VirtualRequest,
                         coeffs: Coefficients) -> float:
    """The quality revenue of the channel as a request of its own.

    It equals (``==``) ``windowing.request_quality_revenue`` of a request that
    holds only this channel and its two endpoint services: one formula scores
    both requests and the channel pairs inside them.  The sum is written out
    here, in the same order, rather than built from such a request, because
    ``rank_channels`` calls it once per channel.
    """
    src = request.services[channel.src]
    dst = request.services[channel.dst]
    return (coeffs.node_term(src) + coeffs.node_term(dst)
            + coeffs.beta * channel.bw
            + coeffs.gamma * (channel.min_pdr / channel.max_delay))


def rank_channels(request: VirtualRequest, coeffs: Coefficients) -> list[Channel]:
    """Channels in descending pair quality-revenue; ties keep arrival order."""
    return sorted(request.channels,
                  key=lambda c: -pair_quality_revenue(c, request, coeffs))


def select_max_pdr(net: SubstrateNetwork, service: NanoService) -> str:
    """Suitable node with the highest local PDR; ties go to the smallest id.

    Walks the topology's ``by_local_pdr`` order and returns the first node
    that fits the service.
    """
    topology = net.topology()
    for i in topology.by_local_pdr:
        node_id = topology.nodes[i]
        if fits(net.nodes[node_id], service):
            return node_id
    raise NoSuitableNodeError(service.id)


def select_min_links(table: anypath.AnypathRouteTable, accepts,
                     bound: float = math.inf) -> str | None:
    """Accepted node whose route uses the fewest links; ties by cost then node id.

    Walks ``table.ranked`` and returns the first node id whose route cost is
    at most bound and for which accepts(node_id) is true; None when there is
    none.  A node whose cost is inf is never chosen, whatever the bound.
    """
    cost, nodes = table.cost, table.topology.nodes
    # a reached node's cost can overflow to inf while its unicast distance is
    # finite; route_closure refuses such a node, so an inf bound must not admit it
    limit = min(bound, sys.float_info.max)
    for i in table.ranked:
        if cost[i] <= limit and accepts(nodes[i]):
            return nodes[i]
    return None


def _flow_arcs(topology: Topology, closure: tuple, reverse: bool) -> tuple:
    """The arcs of ``anypath.route_closure``, ordered as ``ChannelRoute.arcs``."""
    ends = topology.ends
    arcs = [arc ^ reverse for arc in closure]
    if reverse:
        arcs.sort(key=ends.__getitem__)
    # stable, so a transmitter's arcs keep their order
    arcs.sort(key=lambda arc: ends[arc ^ 1])
    return tuple(arcs)


def embed(net: SubstrateNetwork, request: VirtualRequest,
          coeffs: Coefficients) -> Embedding:
    """Embed the whole request or raise an EmbeddingError after a full rollback.

    Any exception, not only an EmbeddingError, undoes every reservation of
    the call before it propagates, so the substrate is never left half debited.

    Per ranked channel, routes run toward an anchor service: the source when
    only the source is placed (links are symmetric, so the chosen route is
    transposed back into flow direction), otherwise the destination.  An
    unplaced anchor goes to the first node of the topology's local-PDR order
    that fits it.  The other endpoint goes to the first node of the route
    table's (links, cost, id) order whose cost is within max_delay / min_pdr
    and that is its node, if it is placed, or fits it otherwise.  A service
    that fits no node blocks the request before its channel's table is
    fetched; a channel with no such node blocks it after.  The route's links
    are debited and recorded in the ledger; a channel whose endpoints share a
    node has an empty route, and no ``reserve_channel`` call is made for it.

    Each channel's table comes from ``anypath.route_table``: it is shared
    through the substrate's topology with earlier channels, earlier calls and
    every clone, and it outlives the call.  Its key holds the substrate's
    memoised eligible links for the channel's bandwidth; a reservation that
    drops a link below a later channel's bandwidth patches that memo entry,
    so the key changes without a rescan and the channel gets a table over
    the links that are left.
    """
    embedding = Embedding(request.id)
    placed = embedding.service_map
    ledger = embedding.ledger
    try:
        for channel in rank_channels(request, coeffs):
            reverse = channel.src in placed and channel.dst not in placed
            anchor, other = ((channel.src, channel.dst) if reverse
                             else (channel.dst, channel.src))
            if anchor in placed:
                n_dst = placed[anchor]
            else:
                anchor_svc = request.services[anchor]
                n_dst = select_max_pdr(net, anchor_svc)
                reserve_service(net, n_dst, anchor_svc, ledger)
                placed[anchor] = n_dst
            pending = None   # service to place on the selected node
            if other in placed:
                accepts = placed[other].__eq__
            else:
                pending = request.services[other]
                if not any(fits(node, pending) for node in net.nodes.values()):
                    raise NoSuitableNodeError(pending.id)
                accepts = lambda node_id: fits(net.nodes[node_id], pending)

            table = anypath.route_table(net, n_dst, channel.bw)
            selected = select_min_links(table, accepts, channel.max_cost)
            if selected is None:
                raise NoFeasiblePathError(channel.id)
            if pending is not None:
                reserve_service(net, selected, pending, ledger)
                placed[pending.id] = selected

            topology = table.topology
            closure = anypath.route_closure(table, selected)
            if closure:
                closure = tuple(closure)
                # the route DAG orients each link one way, so no link has two arcs here
                links = tuple([topology.link_ids[arc >> 1] for arc in sorted(closure)])
                reserve_channel(net, links, channel.bw, ledger)
            else:   # the endpoints share a node: nothing to debit
                closure = links = ()
            flow_src, flow_dst = (n_dst, selected) if reverse else (selected, n_dst)
            embedding.channel_routes[channel.id] = ChannelRoute(
                channel.id, flow_src, flow_dst, links,
                table.cost[topology.index[selected]], topology, closure, reverse)

        # services with no incident channel are placed on their own
        for sid in sorted(request.services.keys() - placed.keys(), key=natural_key):
            service = request.services[sid]
            node_id = select_max_pdr(net, service)
            reserve_service(net, node_id, service, ledger)
            placed[sid] = node_id
    except BaseException:
        rollback(net, ledger)
        raise
    return embedding

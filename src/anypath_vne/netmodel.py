"""Substrate and virtual-request graph models with transactional resource accounting.

The substrate is an undirected graph of compute nodes (CPU/GPU/MEM units plus
optional capability labels) joined by lossy wireless links (bandwidth, one-way
delay, packet delivery ratio).  A virtual request is a directed graph of
nano-services connected by communication channels with bandwidth, delay and
reliability demands.  All reservations go through a ledger so that a partially
embedded request can be undone exactly.

Link delay and pdr never change after construction, so the static structure
of a substrate is kept apart from its capacities: ``SubstrateNetwork.topology``
numbers nodes and links densely and is shared by every clone, while the
mutable bandwidth and node resources stay on ``SubstrateLink`` and
``SubstrateNode``.  The topology also carries the route-table cache of
``anypath.route_table``, so every clone reuses the tables of the others.

Link bandwidth changes only through ``reserve_channel`` and ``rollback``.
``SubstrateNetwork.eligible_links`` memoises, per bandwidth, which links have
at least that much spare; the memo belongs to a capacity state, not to one
network object.  ``clone`` hands the copy the same memo dict, so a substrate
and all its untouched clones scan their links once per bandwidth; a
reservation or rollback that changes link bandwidth, and ``add_link``, give
that network a fresh memo and leave the shared one alone.
"""

from __future__ import annotations

import functools
import math
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

RESOURCES = ("cpu", "gpu", "mem")

_DIGIT_RUN = re.compile(r"(\d+)")
# ids whose keys are kept; covers every node and link id of a 1000-node,
# 3000-link substrate plus the ids of the requests on it
_NATURAL_KEY_CACHE = 1 << 14


@functools.lru_cache(maxsize=_NATURAL_KEY_CACHE)
def natural_key(identifier: str) -> tuple:
    """Sort key that orders embedded integers numerically (n2 before n10).

    The raw string is appended so ids that only differ in zero padding still
    compare deterministically.  The key is a pure function of the id and an
    immutable tuple, so it is computed once per id and then served from a
    bounded cache.
    """
    parts = tuple(int(part) if part.isdigit() else part
                  for part in _DIGIT_RUN.split(identifier))
    return parts + (identifier,)


class InsufficientCapacityError(Exception):
    """Raised when a reservation would drive an available capacity negative."""


class SchemaError(ValueError):
    """Input does not match the expected schema or range; names the field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.detail = message
        super().__init__(f"{field_name}: {message}")


@dataclass
class SubstrateNode:
    """A compute node. cpu/gpu/mem are the mutable available units."""

    id: str
    cpu: int
    gpu: int
    mem: int
    functionals: frozenset = frozenset()
    cpu0: int = None
    gpu0: int = None
    mem0: int = None

    def __post_init__(self):
        self.functionals = frozenset(self.functionals)
        for name in RESOURCES:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise SchemaError(name,
                                  f"node {self.id} needs a non-negative integer {name}")
        # original capacities default to the initial available amounts
        if self.cpu0 is None:
            self.cpu0 = self.cpu
        if self.gpu0 is None:
            self.gpu0 = self.gpu
        if self.mem0 is None:
            self.mem0 = self.mem

    def available(self) -> tuple[int, int, int]:
        return (self.cpu, self.gpu, self.mem)


@dataclass
class SubstrateLink:
    """An undirected link with symmetric delay/reliability in both directions."""

    id: str
    a: str
    b: str
    bw: int
    delay: float
    pdr: float
    bw0: int = None

    def __post_init__(self):
        if self.bw0 is None:
            self.bw0 = self.bw
        # the range checks are written so that NaN fails them
        if not isinstance(self.bw, int) or isinstance(self.bw, bool) or self.bw < 0:
            raise SchemaError("bw", f"link {self.id} needs a non-negative integer bw")
        if not 0 < self.delay < math.inf:
            raise SchemaError("delay", f"link {self.id} needs a finite delay > 0")
        # below 2**-53, 1 - pdr rounds to 1 and a hyperlink's reliability to 0
        if not 2.0 ** -53 <= self.pdr <= 1:
            raise SchemaError("pdr", f"link {self.id} needs pdr in [2**-53, 1]")

    def endpoints(self) -> frozenset:
        return frozenset((self.a, self.b))


@dataclass
class NanoService:
    """An atomic task with fixed resource demands and required capabilities."""

    id: str
    cpu: int = 0
    gpu: int = 0
    mem: int = 0
    functionals: frozenset = frozenset()

    def __post_init__(self):
        self.functionals = frozenset(self.functionals)
        for name in RESOURCES:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise SchemaError(name, f"service {self.id} needs a non-negative "
                                  f"integer {name} demand")

    def demands(self) -> tuple[int, int, int]:
        return (self.cpu, self.gpu, self.mem)


@dataclass
class Channel:
    """A directed flow between two services with bandwidth/quality demands."""

    id: str
    src: str
    dst: str
    bw: int
    max_delay: float
    min_pdr: float

    def __post_init__(self):
        if self.src == self.dst:
            raise SchemaError("dst", f"channel {self.id} connects a service to itself")
        if not isinstance(self.bw, int) or isinstance(self.bw, bool) or self.bw < 0:
            raise SchemaError("bw", f"channel {self.id} needs a non-negative integer bw")
        # the range checks are written so that NaN fails them
        if not 0 < self.max_delay < math.inf:
            raise SchemaError("max_delay",
                              f"channel {self.id} needs a finite max_delay > 0")
        if not 0 < self.min_pdr <= 1:
            raise SchemaError("min_pdr", f"channel {self.id} needs min_pdr in (0, 1]")

    @property
    def max_cost(self) -> float:
        """Largest tolerable route cost, max_delay / min_pdr."""
        return self.max_delay / self.min_pdr


@dataclass
class VirtualRequest:
    """A directed service graph; channel order is the arrival order."""

    id: str
    services: dict = field(default_factory=dict)   # service id -> NanoService
    channels: list = field(default_factory=list)   # list[Channel]

    def add_service(self, service: NanoService) -> NanoService:
        if service.id in self.services:
            raise SchemaError("id", f"duplicate service id {service.id}")
        self.services[service.id] = service
        return service

    def add_channel(self, channel: Channel) -> Channel:
        for end, sid in (("src", channel.src), ("dst", channel.dst)):
            if sid not in self.services:
                raise SchemaError(
                    end, f"channel {channel.id} references unknown service {sid}")
        if any(c.id == channel.id for c in self.channels):
            raise SchemaError("id", f"duplicate channel id {channel.id}")
        self.channels.append(channel)
        return channel


class Topology:
    """Static structure of a substrate on dense integer ids, and its route-table cache.

    Node i is the i-th node id in insertion order and link k the k-th link.
    Arc 2*k + s is link k directed into its endpoint ``ends[2*k + s]`` (s = 0
    for endpoint a, 1 for b); ``ends[arc ^ 1]`` is its tail, ``arc >> 1`` its
    link.  ``delay`` and ``pdr`` are kept per arc, so one index reads both a
    forwarding member's link quality and its head; ``weight`` is the unicast
    cost delay / pdr per link.  ``adjacency[i]`` holds a (link, neighbour) pair
    per link at node i, in link order, and ``rank[i]`` is the position of node
    i's id in ``natural_key`` order.  ``by_local_pdr`` lists the node indices
    by descending ``local_pdr``, ties in ``rank`` order: the order in which
    anchor placement tries the nodes.

    ``routes`` is the one mutable member: the route-table cache that
    ``anypath.route_table`` fills, least recently used first.
    """

    __slots__ = ("nodes", "index", "rank", "link_ids", "ends", "delay", "pdr",
                 "weight", "adjacency", "local_pdr", "by_local_pdr", "routes")

    def __init__(self, net: "SubstrateNetwork"):
        self.nodes = tuple(net.nodes)
        self.index = {nid: i for i, nid in enumerate(self.nodes)}
        rank = {nid: r for r, nid in enumerate(sorted(self.nodes, key=natural_key))}
        self.rank = tuple(rank[nid] for nid in self.nodes)
        self.link_ids = tuple(net.links)
        ends, delay, pdr, weight = [], [], [], []
        adjacency = [[] for _ in self.nodes]
        for k, link in enumerate(net.links.values()):
            try:
                a, b = self.index[link.a], self.index[link.b]
            except KeyError as exc:
                raise SchemaError(f"links[{k}]", f"link {link.id} has dangling "
                                  f"endpoint {exc.args[0]}") from None
            ends += (a, b)
            delay += (link.delay, link.delay)
            pdr += (link.pdr, link.pdr)
            weight.append(link.delay / link.pdr)
            adjacency[a].append((k, b))
            if b != a:
                adjacency[b].append((k, a))
        self.ends, self.delay, self.pdr = tuple(ends), tuple(delay), tuple(pdr)
        self.weight = tuple(weight)
        self.adjacency = tuple(tuple(row) for row in adjacency)
        self.local_pdr = local = tuple(_mean_pdr([pdr[2 * k] for k, _ in row])
                                       for row in self.adjacency)
        self.by_local_pdr = tuple(sorted(range(len(self.nodes)),
                                         key=lambda i: (-local[i], self.rank[i])))
        self.routes = OrderedDict()   # (destination, eligible links) -> table


def _mean_pdr(pdrs: list) -> float:
    return sum(pdrs) / len(pdrs) if pdrs else 0.0


class SubstrateNetwork:
    """Node and link stores with their capacities, plus the shared static topology."""

    def __init__(self):
        self.nodes: dict[str, SubstrateNode] = {}
        self.links: dict[str, SubstrateLink] = {}
        self._topology = None
        self._eligible = {}   # bw -> eligible_links(bw), shared with clones

    def add_node(self, node_id: str, cpu: int, gpu: int, mem: int,
                 functionals: Iterable[str] = ()) -> SubstrateNode:
        if node_id in self.nodes:
            raise SchemaError("id", f"duplicate node id {node_id}")
        node = SubstrateNode(node_id, cpu, gpu, mem, frozenset(functionals))
        self.nodes[node_id] = node
        self._topology = None
        return node

    def add_link(self, link_id: str, a: str, b: str, bw: int,
                 delay: float, pdr: float) -> SubstrateLink:
        if link_id in self.links:
            raise SchemaError("id", f"duplicate link id {link_id}")
        link = SubstrateLink(link_id, a, b, bw, delay, pdr)
        self.links[link_id] = link
        self._topology = None
        self._eligible = {}
        return link

    def topology(self) -> Topology:
        """The static structure, built on first use after the last add_node/add_link.

        Raises SchemaError naming the link when a link has an endpoint that is
        not a node.
        """
        if self._topology is None:
            self._topology = Topology(self)
        return self._topology

    def eligible_links(self, bw: int) -> bytes:
        """Byte k is 1 when the k-th link has at least bw spare bandwidth, else 0.

        Memoised per bandwidth until link bandwidth changes.  The memo dict
        is shared with clones and only ever grows by identical values, so it
        is never cleared: a change of link bandwidth gives this network a
        new one instead.
        """
        memo = self._eligible
        eligible = memo.get(bw)
        if eligible is None:
            eligible = memo[bw] = bytes([link.bw >= bw for link in self.links.values()])
        return eligible

    def clone(self) -> "SubstrateNetwork":
        """Copy of the capacities.

        The topology, the eligible-link memo and the capability sets are shared.
        """
        dup = SubstrateNetwork()
        for node in self.nodes.values():
            dup.nodes[node.id] = SubstrateNode(
                node.id, node.cpu, node.gpu, node.mem, node.functionals,
                node.cpu0, node.gpu0, node.mem0)
        for link in self.links.values():
            dup.links[link.id] = SubstrateLink(
                link.id, link.a, link.b, link.bw, link.delay, link.pdr, link.bw0)
        dup._topology = self.topology()
        dup._eligible = self._eligible
        return dup

    def snapshot(self) -> tuple:
        """Hashable view of all mutable state, for exact-restoration checks."""
        return (
            tuple((n.id, n.cpu, n.gpu, n.mem) for n in self.nodes.values()),
            tuple((l.id, l.bw) for l in self.links.values()),
        )


def _is_int(value) -> bool:
    """Whether value is an int; bool, a subclass of int, is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_substrate(net: SubstrateNetwork) -> list[str]:
    """Return a list of invariant violations; an empty list means valid.

    Only what the constructors cannot see is checked: capacities, which change
    after construction, against their originals, and links against the nodes
    and each other (dangling endpoints, self-loops, duplicate pairs).
    """
    report = []
    for node in net.nodes.values():
        for name in RESOURCES:
            avail = getattr(node, name)
            orig = getattr(node, name + "0")
            if not (_is_int(avail) and _is_int(orig)):
                report.append(f"node {node.id}: non-integer {name} capacity")
            elif avail < 0 or orig < 0:
                report.append(f"node {node.id}: negative {name} capacity")
            elif avail > orig:
                report.append(f"node {node.id}: available {name} exceeds original")
    seen_pairs = {}
    for link in net.links.values():
        if link.a == link.b:
            report.append(f"link {link.id}: self-loop at {link.a}")
        for end in (link.a, link.b):
            if end not in net.nodes:
                report.append(f"link {link.id}: dangling endpoint {end}")
        if not (_is_int(link.bw) and _is_int(link.bw0)):
            report.append(f"link {link.id}: non-integer bandwidth")
        elif link.bw < 0 or link.bw0 < 0:
            report.append(f"link {link.id}: negative bandwidth")
        elif link.bw > link.bw0:
            report.append(f"link {link.id}: available bandwidth exceeds original")
        pair = link.endpoints()
        if pair in seen_pairs:
            report.append(
                f"link {link.id}: duplicates pair of link {seen_pairs[pair]}")
        else:
            seen_pairs[pair] = link.id
    return report


def local_pdr(net: SubstrateNetwork, node_id: str) -> float:
    """Mean delivery ratio over the node's incident links; 0 when isolated."""
    topology = net.topology()
    return topology.local_pdr[topology.index[node_id]]


def fits(node: SubstrateNode, service: NanoService) -> bool:
    """Whether the node's available resources and capabilities satisfy the service."""
    return (service.cpu <= node.cpu and service.gpu <= node.gpu
            and service.mem <= node.mem
            and service.functionals <= node.functionals)


def suitable_nodes(net: SubstrateNetwork, service: NanoService) -> set[str]:
    """Nodes that fit the service."""
    return {node.id for node in net.nodes.values() if fits(node, service)}


def reserve_service(net: SubstrateNetwork, node_id: str,
                    service: NanoService, ledger: list) -> None:
    """Debit the service's cpu/gpu/mem demands from the node."""
    node = net.nodes[node_id]
    if (service.cpu > node.cpu or service.gpu > node.gpu
            or service.mem > node.mem):
        raise InsufficientCapacityError(
            f"node {node_id} cannot host service {service.id}")
    node.cpu -= service.cpu
    node.gpu -= service.gpu
    node.mem -= service.mem
    ledger.append(("node", node_id, service.cpu, service.gpu, service.mem))


def reserve_channel(net: SubstrateNetwork, link_ids: Iterable[str],
                    bw: int, ledger: list) -> None:
    """Debit the channel bandwidth from every link of its route."""
    link_ids = sorted(link_ids, key=natural_key)
    for link_id in link_ids:
        if net.links[link_id].bw < bw:
            raise InsufficientCapacityError(
                f"link {link_id} has {net.links[link_id].bw} < {bw} bandwidth")
    for link_id in link_ids:
        net.links[link_id].bw -= bw
        ledger.append(("link", link_id, bw))
    if link_ids and bw:
        net._eligible = {}


def rollback(net: SubstrateNetwork, ledger: list) -> None:
    """Undo the records of the ledger list in reverse order and empty it."""
    for record in reversed(ledger):
        if record[0] == "node":
            _, node_id, dcpu, dgpu, dmem = record
            node = net.nodes[node_id]
            node.cpu += dcpu
            node.gpu += dgpu
            node.mem += dmem
        else:
            _, link_id, dbw = record
            net.links[link_id].bw += dbw
    if ledger:
        net._eligible = {}
        ledger.clear()


# --- JSON-friendly (de)serialization -----------------------------------------

def _require(doc: dict, key: str, types, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(where, "expected a JSON object")
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _float(doc: dict, key: str, where: str) -> float:
    """A required number as a float; an int too large for a float is refused."""
    value = _require(doc, key, (int, float), where)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}.{key}", "number too large for a float") from None


def _functionals(doc: dict, where: str) -> frozenset:
    value = doc.get("functionals", [])
    if not isinstance(value, list) or not all(isinstance(f, str) for f in value):
        raise SchemaError(f"{where}.functionals", "expected a list of strings")
    return frozenset(value)


def _build(where: str, make, /, *args, **kwargs):
    """make(*args, **kwargs), with a model check's field name prefixed by where."""
    try:
        return make(*args, **kwargs)
    except SchemaError as exc:
        raise SchemaError(f"{where}.{exc.field}", exc.detail) from exc


def substrate_to_dict(net: SubstrateNetwork) -> dict:
    return {
        "nodes": [
            {"id": n.id, "cpu": n.cpu, "gpu": n.gpu, "mem": n.mem,
             "functionals": sorted(n.functionals)}
            for n in net.nodes.values()
        ],
        "links": [
            {"id": l.id, "a": l.a, "b": l.b, "bw": l.bw,
             "delay": l.delay, "pdr": l.pdr}
            for l in net.links.values()
        ],
    }


def substrate_from_dict(doc: dict) -> SubstrateNetwork:
    """Build a substrate from JSON data; capacities are taken as originals."""
    net = SubstrateNetwork()
    nodes = _require(doc, "nodes", list, "substrate")
    links = _require(doc, "links", list, "substrate")
    for i, nd in enumerate(nodes):
        where = f"nodes[{i}]"
        _build(where, net.add_node,
               str(_require(nd, "id", (str, int), where)),
               _require(nd, "cpu", int, where),
               _require(nd, "gpu", int, where),
               _require(nd, "mem", int, where),
               _functionals(nd, where))
    for i, ld in enumerate(links):
        where = f"links[{i}]"
        _build(where, net.add_link,
               str(_require(ld, "id", (str, int), where)),
               str(_require(ld, "a", (str, int), where)),
               str(_require(ld, "b", (str, int), where)),
               _require(ld, "bw", int, where),
               _float(ld, "delay", where),
               _float(ld, "pdr", where))
    return net


def request_to_dict(request: VirtualRequest) -> dict:
    return {
        "id": request.id,
        "services": [
            {"id": s.id, "cpu": s.cpu, "gpu": s.gpu, "mem": s.mem,
             "functionals": sorted(s.functionals)}
            for s in request.services.values()
        ],
        "channels": [
            {"id": c.id, "src": c.src, "dst": c.dst, "bw": c.bw,
             "max_delay": c.max_delay, "min_pdr": c.min_pdr}
            for c in request.channels
        ],
    }


def request_from_dict(doc: dict) -> VirtualRequest:
    services = _require(doc, "services", list, "request")
    channels = _require(doc, "channels", list, "request")
    request = VirtualRequest(str(doc.get("id", "request")))
    for i, sd in enumerate(services):
        where = f"services[{i}]"
        service = _build(where, NanoService,
                         str(_require(sd, "id", (str, int), where)),
                         _require(sd, "cpu", int, where),
                         _require(sd, "gpu", int, where),
                         _require(sd, "mem", int, where),
                         _functionals(sd, where))
        _build(where, request.add_service, service)
    for i, cd in enumerate(channels):
        where = f"channels[{i}]"
        channel = _build(where, Channel,
                         str(_require(cd, "id", (str, int), where)),
                         str(_require(cd, "src", (str, int), where)),
                         str(_require(cd, "dst", (str, int), where)),
                         _require(cd, "bw", int, where),
                         _float(cd, "max_delay", where),
                         _float(cd, "min_pdr", where))
        _build(where, request.add_channel, channel)
    return request

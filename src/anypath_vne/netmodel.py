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
import reprlib
import sys
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

    The key is the id's parts, then the raw string, so ids that only differ
    in zero padding still compare deterministically.  Only the digit runs
    become numbers, so the parts alternate text and number, a prefix sorts
    first, and two keys always compare.  The key is a pure function of the
    id and an immutable tuple, so it is computed once per id and then served
    from a bounded cache.
    """
    parts = _DIGIT_RUN.split(identifier)
    parts[1::2] = map(_run_value, parts[1::2])
    return tuple(parts), identifier


def _run_value(run: str):
    """The number a digit run spells; a run too long for int() (over 4300
    digits by default) sorts after every shorter one."""
    try:
        return int(run)
    except ValueError:
        return math.inf


class InsufficientCapacityError(Exception):
    """Raised when a reservation would drive an available capacity negative."""


class SchemaError(ValueError):
    """Input does not match the expected schema or range; names the field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.detail = message
        super().__init__(f"{field_name}: {message}")


_REAL = (int, float)   # a bool, though an int, is refused by _check
# the least positive float: a delay or min_pdr must exceed zero
_TINY = math.ulp(0.0)
# every number fits a float, so arithmetic on it never raises OverflowError
_HUGE = sys.float_info.max


def _shown(value) -> str:
    """A short repr of value for an error message, at most 80 characters; an
    int too long for repr (over 4300 digits) is shown by its size."""
    try:
        return reprlib.repr(value)[:80]
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def _cut(name) -> str:
    """An id or key for an error message: a string of at most 80 characters
    as it is, a longer one cut to 80, anything else as ``_shown`` gives it."""
    if not isinstance(name, str):
        return _shown(name)
    return name if len(name) <= 80 else name[:77] + "..."


def _check(name: str, value, kinds, low, high, owner=None):
    """value when it is one of kinds, not a bool, in [low, high]; else a
    SchemaError naming the field, and the owner object by its id when given.
    The type is tested first, so no comparison meets a string or None, and
    NaN fails the range."""
    if not (isinstance(value, kinds) and not isinstance(value, bool)
            and low <= value <= high):
        kind = "an integer" if kinds is int else "a number"
        label = "" if owner is None else f"{type(owner).__name__} {_cut(owner.id)}: "
        raise SchemaError(name, f"{label}expected {kind} in [{low}, {high}], "
                          f"got {_shown(value)}")
    return value


def _check_functionals(owner) -> frozenset:
    """owner.functionals as a frozenset; else a SchemaError naming the field.
    A bare str or a dict is refused."""
    value = owner.functionals
    if not isinstance(value, (list, tuple, set, frozenset)) or (
            value and not all(isinstance(label, str) for label in value)):
        raise SchemaError("functionals", f"{type(owner).__name__} {_cut(owner.id)}: "
                          f"expected a list of strings, got {_shown(value)}")
    return frozenset(value)


def _check_ids(owner, names=("id",)):
    """Refuse an id or endpoint of owner, named in names after "id", that is
    not a string, with a SchemaError naming the field; an endpoint's names
    owner by its id."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, str):
            label = type(owner).__name__ + ("" if name == "id" else f" {_cut(owner.id)}")
            raise SchemaError(name, f"{label}: expected a string, got {_shown(value)}")


@dataclass
class SubstrateNode:
    """A compute node. cpu/gpu/mem are the mutable available units, and
    cpu0/gpu0/mem0 the capacities it was built with."""

    id: str
    cpu: int
    gpu: int
    mem: int
    functionals: frozenset = frozenset()
    cpu0: int = field(init=False)
    gpu0: int = field(init=False)
    mem0: int = field(init=False)

    def __post_init__(self):
        _check_ids(self)
        self.cpu0 = _check("cpu", self.cpu, int, 0, _HUGE, self)
        self.gpu0 = _check("gpu", self.gpu, int, 0, _HUGE, self)
        self.mem0 = _check("mem", self.mem, int, 0, _HUGE, self)
        self.functionals = _check_functionals(self)

    def available(self) -> tuple[int, int, int]:
        return (self.cpu, self.gpu, self.mem)

    def _copy(self) -> "SubstrateNode":
        dup = object.__new__(SubstrateNode)   # checked when self was built
        dup.id, dup.cpu, dup.gpu, dup.mem = self.id, self.cpu, self.gpu, self.mem
        dup.functionals, dup.cpu0, dup.gpu0, dup.mem0 = (
            self.functionals, self.cpu0, self.gpu0, self.mem0)
        return dup


@dataclass
class SubstrateLink:
    """An undirected link with symmetric float delay and pdr; bw0 is its built bw."""

    id: str
    a: str
    b: str
    bw: int
    delay: float
    pdr: float
    bw0: int = field(init=False)

    def __post_init__(self):
        _check_ids(self, ("id", "a", "b"))
        self.bw0 = _check("bw", self.bw, int, 0, _HUGE, self)
        self.delay = float(_check("delay", self.delay, _REAL, _TINY, _HUGE, self))
        # below 2**-53, 1 - pdr rounds to 1 and a hyperlink's reliability to 0
        self.pdr = float(_check("pdr", self.pdr, _REAL, 2.0 ** -53, 1, self))

    def _copy(self) -> "SubstrateLink":
        dup = object.__new__(SubstrateLink)   # checked when self was built
        dup.id, dup.a, dup.b, dup.bw = self.id, self.a, self.b, self.bw
        dup.delay, dup.pdr, dup.bw0 = self.delay, self.pdr, self.bw0
        return dup


@dataclass
class NanoService:
    """An atomic task with fixed resource demands and required capabilities."""

    id: str
    cpu: int = 0
    gpu: int = 0
    mem: int = 0
    functionals: frozenset = frozenset()

    def __post_init__(self):
        _check_ids(self)
        _check("cpu", self.cpu, int, 0, _HUGE, self)
        _check("gpu", self.gpu, int, 0, _HUGE, self)
        _check("mem", self.mem, int, 0, _HUGE, self)
        self.functionals = _check_functionals(self)


@dataclass
class Channel:
    """A directed flow with bandwidth/quality demands; max_delay, min_pdr are floats."""

    id: str
    src: str
    dst: str
    bw: int
    max_delay: float
    min_pdr: float

    def __post_init__(self):
        _check_ids(self, ("id", "src", "dst"))
        if self.src == self.dst:
            raise SchemaError("dst", f"channel {_cut(self.id)} connects a service "
                              "to itself")
        _check("bw", self.bw, int, 0, _HUGE, self)
        self.max_delay = float(_check("max_delay", self.max_delay, _REAL,
                                      _TINY, _HUGE, self))
        self.min_pdr = float(_check("min_pdr", self.min_pdr, _REAL, _TINY, 1, self))

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

    def __post_init__(self):
        _check_ids(self)

    def add_service(self, service: NanoService) -> NanoService:
        if service.id in self.services:
            raise SchemaError("id", f"duplicate service id {_cut(service.id)}")
        self.services[service.id] = service
        return service

    def add_channel(self, channel: Channel) -> Channel:
        for end, sid in (("src", channel.src), ("dst", channel.dst)):
            if sid not in self.services:
                raise SchemaError(end, f"channel {_cut(channel.id)} references "
                                  f"unknown service {_cut(sid)}")
        if any(c.id == channel.id for c in self.channels):
            raise SchemaError("id", f"duplicate channel id {_cut(channel.id)}")
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
    by descending local pdr, the mean pdr of a node's links (0 when it has
    none), ties in ``rank`` order: the order in which anchor placement tries
    the nodes.

    ``routes`` is the one mutable member: the route-table cache that
    ``anypath.route_table`` fills, least recently used first.
    """

    __slots__ = ("nodes", "index", "rank", "link_ids", "ends", "delay", "pdr",
                 "weight", "adjacency", "by_local_pdr", "routes")

    def __init__(self, net: "SubstrateNetwork"):
        self.nodes = tuple(net.nodes)
        self.index = {nid: i for i, nid in enumerate(self.nodes)}
        rank = {nid: r for r, nid in enumerate(sorted(self.nodes, key=natural_key))}
        self.rank = tuple(rank[nid] for nid in self.nodes)
        self.link_ids = tuple(net.links)
        ends, delay, pdr, weight = [], [], [], []
        adjacency = [[] for _ in self.nodes]
        for k, link in enumerate(net.links.values()):
            a, b = self.index[link.a], self.index[link.b]
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
        local = [_mean_pdr([pdr[2 * k] for k, _ in row]) for row in self.adjacency]
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
        node = SubstrateNode(node_id, cpu, gpu, mem, functionals)
        if node_id in self.nodes:
            raise SchemaError("id", f"duplicate node id {_cut(node_id)}")
        self.nodes[node_id] = node
        self._topology = None
        return node

    def add_link(self, link_id: str, a: str, b: str, bw: int,
                 delay: float, pdr: float) -> SubstrateLink:
        """Add a link between two nodes; self-loops and parallel links are allowed."""
        link = SubstrateLink(link_id, a, b, bw, delay, pdr)
        if link_id in self.links:
            raise SchemaError("id", f"duplicate link id {_cut(link_id)}")
        for end, node_id in (("a", a), ("b", b)):
            if node_id not in self.nodes:
                raise SchemaError(end, f"link {_cut(link_id)}: endpoint "
                                  f"{_cut(node_id)} is not a node")
        self.links[link_id] = link
        self._topology = None
        self._eligible = {}
        return link

    def topology(self) -> Topology:
        """The static structure, built on first use after the last add_node/add_link."""
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
        Nodes and links are copied field by field, without the checks they
        passed when built; copying their ``__dict__`` instead makes later
        attribute reads, on the copy and the original, slower on CPython 3.11.
        """
        dup = SubstrateNetwork()
        dup.nodes = {nid: node._copy() for nid, node in self.nodes.items()}
        dup.links = {lid: link._copy() for lid, link in self.links.items()}
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

    A substrate's structure and values are checked once, when it is built, so
    only what changes afterwards is checked here: each capacity against its
    original.
    """
    capacities = [(f"node {_cut(node.id)}", f"{name} capacity", getattr(node, name),
                   getattr(node, name + "0"))
                  for node in net.nodes.values() for name in RESOURCES]
    capacities += [(f"link {_cut(link.id)}", "bandwidth", link.bw, link.bw0)
                   for link in net.links.values()]
    report = []
    for owner, what, avail, orig in capacities:
        if not (_is_int(avail) and _is_int(orig)):
            report.append(f"{owner}: non-integer {what}")
        elif avail < 0 or orig < 0:
            report.append(f"{owner}: negative {what}")
        elif avail > orig:
            report.append(f"{owner}: available {what} exceeds original")
    return report


def fits(node: SubstrateNode, service: NanoService) -> bool:
    """Whether the node's available resources and capabilities satisfy the service."""
    return (service.cpu <= node.cpu and service.gpu <= node.gpu
            and service.mem <= node.mem
            and service.functionals <= node.functionals)


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
    """Debit the channel bandwidth once from each distinct link of its route."""
    link_ids = sorted(set(link_ids), key=natural_key)
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
    """Undo the records of the ledger list in reverse order and empty it.

    Like ``reserve_channel``, it gives the network a fresh eligible-links memo
    only when a link's bandwidth changes.
    """
    fresh = False
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
            fresh = fresh or dbw != 0
    if fresh:
        net._eligible = {}
    ledger.clear()


# --- JSON-friendly (de)serialization -----------------------------------------

def _object(doc: dict, where: str, required, optional=()) -> dict:
    """doc when it is a JSON object holding every key of required and no key
    outside required and optional; else a SchemaError naming the place
    (``where``, or ``where.key`` for a missing or unknown key)."""
    if not isinstance(doc, dict):
        raise SchemaError(where, "expected a JSON object")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{where}.{key}", "missing required field")
    for key in doc:
        if key not in required and key not in optional:
            raise SchemaError(f"{where}.{_cut(key)}", "unknown key")
    return doc


def _id(doc: dict, key: str, where: str) -> str:
    """The id doc[key], string or integer, as a string."""
    value = doc[key]
    try:
        if isinstance(value, (str, int)) and not isinstance(value, bool):
            return str(value)
    except ValueError:   # str() refuses an int of more than 4300 digits
        pass
    raise SchemaError(f"{where}.{key}", "expected a string or an int of at most "
                      f"4300 digits, got {_shown(value)}")


def _objects(doc: dict, key: str, where: str, ids, values, optional=()):
    """(place, fields) of each JSON object in the list doc[key]; fields holds
    the ids as strings, the values and those of optional the object has."""
    items = doc[key]
    if not isinstance(items, list):
        raise SchemaError(f"{where}.{key}", "expected a JSON list")
    for i, item in enumerate(items):
        place = f"{key}[{i}]"
        item = _object(item, place, ids + values, optional)
        yield place, {**item, **{name: _id(item, name, place) for name in ids}}


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
    """Build a substrate from JSON data; capacities are taken as originals.

    Only the document's shape and its ids are checked here, and every object
    refuses a key it does not know; the constructors check every value,
    named by its place (``links[2].pdr``).  Unlike the library, the format
    refuses a self-loop and a second link between one pair of nodes.
    """
    doc = _object(doc, "substrate", ("nodes", "links"))
    net = SubstrateNetwork()
    for where, fields in _objects(doc, "nodes", "substrate", ("id",), RESOURCES,
                                  ("functionals",)):
        _build(where, net.add_node, fields.pop("id"), **fields)
    pairs = {}   # endpoints -> id of the link that joins them
    for where, fields in _objects(doc, "links", "substrate", ("id", "a", "b"),
                                  ("bw", "delay", "pdr")):
        link_id, a, b = fields.pop("id"), fields["a"], fields["b"]
        if a == b:
            raise SchemaError(f"{where}.b", f"link {_cut(link_id)} is a "
                              f"self-loop at {_cut(a)}")
        earlier = pairs.setdefault(frozenset((a, b)), link_id)
        if earlier != link_id:
            raise SchemaError(where, f"link {_cut(link_id)} joins the pair of "
                              f"link {_cut(earlier)}")
        _build(where, net.add_link, link_id, **fields)
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
    """Build a request from JSON data; checked as ``substrate_from_dict`` is."""
    doc = _object(doc, "request", ("services", "channels"), ("id",))
    request = VirtualRequest(_id(doc, "id", "request") if "id" in doc else "request")
    for where, fields in _objects(doc, "services", "request", ("id",), RESOURCES,
                                  ("functionals",)):
        _build(where, request.add_service, _build(where, NanoService, **fields))
    for where, fields in _objects(doc, "channels", "request", ("id", "src", "dst"),
                                  ("bw", "max_delay", "min_pdr")):
        _build(where, request.add_channel, _build(where, Channel, **fields))
    return request

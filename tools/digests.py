#!/usr/bin/env python3
"""Print sha256 digests of route tables and embeddings over a seeded corpus.

    PYTHONPATH=src python3 tools/digests.py

The corpus is drawn from ``random.Random(7)`` with integer-argument draws
only (``randrange`` and ``choice``), whose stream is the same on every
Python 3 version, and it is tie-prone: delays and pdrs come from small sets
of exact binary fractions, link ends are drawn independently (so parallel
links, self-loops and disconnected parts occur), and node ids run past n9,
where natural-key order is not string order.

Two lines are printed:

    routes <sha256 over every route table: each node's cost repr and
            forwarding link ids, and each reached node's route link count>
    embeds <sha256 over every embed: the ``to_dict()`` JSON or the blocked
            error, then the substrate's ``snapshot()``>

Only the standard library and the package's numpy-free modules are used, so
the script runs on every interpreter that ``requires-python`` admits, and
equal lines on two interpreters mean equal results bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random

from anypath_vne.anypath import route_closure, route_table
from anypath_vne.embedder import Coefficients, EmbeddingError, embed
from anypath_vne.netmodel import Channel, NanoService, SubstrateNetwork, VirtualRequest

SEED = 7
SUBSTRATES = 400
REQUESTS = 3           # embedded in turn on each substrate
BANDWIDTHS = (0, 5)    # route tables are digested for each
DELAYS = (1.0, 2.0, 4.0)
PDRS = (1.0, 0.75, 0.5, 0.25)
FUNCTIONALS = ((), ("GPS",), ("CAM",), ("CAM", "GPS"))    # a node's
NEEDS = ((), (), ("GPS",), ("CAM",))                        # a service's


def substrate(rng: random.Random) -> SubstrateNetwork:
    """2 to 12 nodes and up to twice as many links, drawn with ties in mind."""
    n = rng.randrange(2, 13)
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", cpu=rng.randrange(0, 41), gpu=rng.randrange(0, 21),
                     mem=rng.randrange(0, 41),
                     functionals=frozenset(rng.choice(FUNCTIONALS)))
    for k in range(1, rng.randrange(0, 2 * n + 1) + 1):
        net.add_link(f"l{k}", f"n{rng.randrange(1, n + 1)}", f"n{rng.randrange(1, n + 1)}",
                     bw=rng.choice((0, 5, 10, 50)), delay=rng.choice(DELAYS),
                     pdr=rng.choice(PDRS))
    return net


def request(rng: random.Random) -> VirtualRequest:
    """1 to 4 services, each pair joined by a channel half of the time."""
    k = rng.randrange(1, 5)
    req = VirtualRequest("digest")
    for i in range(1, k + 1):
        req.add_service(NanoService(f"s{i}", cpu=rng.randrange(0, 16),
                                    gpu=rng.randrange(0, 8), mem=rng.randrange(0, 16),
                                    functionals=frozenset(rng.choice(NEEDS))))
    seq = 0
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if rng.randrange(2):
                seq += 1
                req.add_channel(Channel(f"c{seq}", f"s{i}", f"s{j}",
                                        bw=rng.randrange(1, 11),
                                        max_delay=float(rng.randrange(2, 81)),
                                        min_pdr=rng.randrange(10, 101) / 100))
    return req


def digests() -> dict:
    """{"routes": sha256 hex, "embeds": sha256 hex} of the corpus."""
    rng = random.Random(SEED)
    routes, embeds = hashlib.sha256(), hashlib.sha256()
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    for _ in range(SUBSTRATES):
        net = substrate(rng)
        topology = net.topology()
        for dst in topology.nodes:
            for bw in BANDWIDTHS:
                table = route_table(net, dst, bw)
                for i, nid in enumerate(topology.nodes):
                    links = [topology.link_ids[arc >> 1] for arc in table.members(i)]
                    routes.update(repr((nid, table.cost[i], links)).encode())
                routes.update(repr([
                    (topology.nodes[i],
                     len({arc >> 1 for arc in route_closure(table, topology.nodes[i])}))
                    for i in table.settle_order]).encode())
        for _ in range(REQUESTS):
            try:
                line = json.dumps(embed(net, request(rng), coeffs).to_dict())
            except EmbeddingError as exc:
                line = f"blocked:{exc}"
            embeds.update(line.encode())
            embeds.update(repr(net.snapshot()).encode())
    return {"routes": routes.hexdigest(), "embeds": embeds.hexdigest()}


if __name__ == "__main__":
    for name, digest in digests().items():
        print(name, digest)

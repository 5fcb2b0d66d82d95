"""Output checks for the embedder benchmark that do not reuse the library's algorithms.

Inputs are plain data: link attributes from the benchmark's own generators,
request and embedding documents from the library's JSON boundary
(``request_to_dict`` and ``Embedding.to_dict``), and ``snapshot()`` tuples of
the substrate's mutable state taken before and after an ``embed`` call.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import re

# Recomputed and reported eatt may differ by summation order only.
REL_TOL = 1e-9

_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(identifier: str) -> tuple:
    """Order ids with embedded numbers numerically (n2 before n10)."""
    parts = tuple(int(p) if p.isdigit() else p for p in _DIGIT_RUN.split(identifier))
    return parts + (identifier,)


def _state(snapshot) -> tuple[dict, dict]:
    nodes, links = snapshot
    return ({nid: (cpu, gpu, mem) for nid, cpu, gpu, mem in nodes},
            {lid: bw for lid, bw in links})


def route_eatt(arcs: dict, origin: str, target: str, links: dict) -> float:
    """Expected anypath transmission time from origin to target over arcs.

    ``arcs`` maps a node to its (member node, link id) pairs pointing toward
    target.  Members relay in ascending cost order, ties by node id, which is
    the order in which a Dijkstra-like sweep settles them.  A node with no
    arcs, or one on a cycle, has infinite cost.
    """
    memo = {target: 0.0}
    active = set()

    def value(node: str) -> float:
        if node in memo:
            return memo[node]
        if node in active or not arcs.get(node):
            return math.inf
        active.add(node)
        members = sorted((value(m), natural_key(m), lid) for m, lid in arcs[node])
        active.discard(node)
        miss, delay, weighted = 1.0, 0.0, 0.0
        for cost, _, lid in members:
            _, _, d, p = links[lid]
            weighted += p * miss * cost
            miss *= 1.0 - p
            delay = max(delay, d)
        reliability = 1.0 - miss
        memo[node] = (delay + weighted) / reliability
        return memo[node]

    return value(origin)


def _check_route(route: dict, channel: dict, links: dict) -> list[str]:
    cid = route["id"]
    src, dst, eatt = route["src_node"], route["dst_node"], route["eatt"]
    problems = []
    bound = channel["max_delay"] / channel["min_pdr"]
    if not eatt <= bound:
        problems.append(f"channel {cid}: eatt {eatt} exceeds bound {bound}")
    used = set()
    forward, backward = {}, {}
    for hyper in route["hyperlinks"]:
        tx = hyper["transmitter"]
        for member in hyper["members"]:
            lid = member["link"]
            if lid not in links or {links[lid][0], links[lid][1]} != {tx, member["node"]}:
                problems.append(f"channel {cid}: link {lid} does not join "
                                f"{tx} and {member['node']}")
                continue
            used.add(lid)
            forward.setdefault(tx, []).append((member["node"], lid))
            backward.setdefault(member["node"], []).append((tx, lid))
    if used != set(route["links"]):
        problems.append(f"channel {cid}: route links differ from its hyperlinks")
    if problems:
        return problems
    if src == dst:
        if route["links"] or eatt != 0.0:
            problems.append(f"channel {cid}: co-located endpoints need an empty route")
        return problems
    # A route is stored in data-flow direction; it was priced toward dst, or
    # toward src when only the source service had been placed.
    candidates = (route_eatt(forward, src, dst, links),
                  route_eatt(backward, dst, src, links))
    if not any(math.isfinite(c) and abs(c - eatt) <= REL_TOL * max(1.0, abs(eatt))
               for c in candidates):
        problems.append(f"channel {cid}: reported eatt {eatt} does not match "
                        f"the route's recomputed eatt {candidates}")
    return problems


def check_accepted(request: dict, embedding: dict, before, after,
                   links: dict) -> list[str]:
    """Problems with an accepted embedding and the reservations it made.

    ``links`` maps link id to (endpoint a, endpoint b, delay, pdr).
    """
    problems = []
    services = {s["id"]: s for s in request["services"]}
    channels = {c["id"]: c for c in request["channels"]}
    placed = embedding["services"]
    nodes_before, bw_before = _state(before)
    nodes_after, bw_after = _state(after)
    if set(placed) != set(services):
        return [f"request {request['id']}: placed services {sorted(placed)} "
                f"differ from requested {sorted(services)}"]
    if set(placed.values()) - set(nodes_before):
        return [f"request {request['id']}: service placed on an unknown node"]
    routes = {route["id"]: route for route in embedding["channels"]}
    if set(routes) != set(channels):
        return [f"request {request['id']}: routed channels differ from requested"]

    node_debit = {nid: [0, 0, 0] for nid in nodes_before}
    for sid, nid in placed.items():
        for k, name in enumerate(("cpu", "gpu", "mem")):
            node_debit[nid][k] += services[sid][name]
    link_debit = dict.fromkeys(bw_before, 0)
    for cid, route in routes.items():
        channel = channels[cid]
        if (route["src_node"], route["dst_node"]) != (placed[channel["src"]],
                                                       placed[channel["dst"]]):
            problems.append(f"channel {cid}: route endpoints differ from placement")
        problems += _check_route(route, channel, links)
        for lid in route["links"]:
            if lid in link_debit:
                link_debit[lid] += channel["bw"]
    for nid, debit in node_debit.items():
        used = tuple(b - a for b, a in zip(nodes_before[nid], nodes_after[nid]))
        if used != tuple(debit):
            problems.append(f"node {nid}: reserved {used}, services demand {tuple(debit)}")
    for lid, debit in link_debit.items():
        used = bw_before[lid] - bw_after[lid]
        if used != debit:
            problems.append(f"link {lid}: reserved bw {used}, channels demand {debit}")
    return problems


def check_blocked(before, after) -> list[str]:
    """A blocked request must leave the substrate exactly as it found it."""
    if before != after:
        return ["blocked request changed the substrate snapshot"]
    return []


def check_capacities(snapshot) -> list[str]:
    """No available capacity may be negative."""
    nodes, links = _state(snapshot)
    problems = [f"node {nid}: negative capacity {avail}"
                for nid, avail in nodes.items() if min(avail) < 0]
    problems += [f"link {lid}: negative bandwidth {bw}"
                 for lid, bw in links.items() if bw < 0]
    return problems

import hashlib
import math
import sys
import threading
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne import anypath
from anypath_vne.anypath import (
    ROUTE_CACHE_SIZE,
    UnreachableSourceError,
    route_closure,
    route_table,
)
from anypath_vne.embedder import select_min_links
from anypath_vne.netmodel import SchemaError, SubstrateNetwork, natural_key

import helpers
from helpers import (
    closure_ids,
    cost_by_id,
    dag_edges,
    eatt_recursive,
    example_after_steps,
    forwarding_by_id,
    forwarding_cost,
    forwarding_set,
    has_cycle,
    incoming,
    link_count,
    members,
    random_substrate,
    random_tree_substrate,
    reference_prune,
    settled_ids,
    sweep,
    tie_prone_substrate,
    unicast_distances,
)
from test_embedder import _count_calls

pdrs = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8)


def test_unicast_distances_example(example_net):
    dist = unicast_distances(example_net, "n4", 0)
    assert dist["n4"] == 0.0
    assert dist["n2"] == pytest.approx(11.1111, abs=1e-3)
    assert dist["n3"] == pytest.approx(11.1111, abs=1e-3)
    assert dist["n1"] == pytest.approx(22.2222, abs=1e-3)
    assert dist["n5"] == pytest.approx(37.7778, abs=1e-3)


def test_unicast_distance_isolated_is_infinite(example_net):
    example_net.add_node("n9", 1, 1, 1)
    assert unicast_distances(example_net, "n4", 0)["n9"] == math.inf


def test_bandwidth_filter_after_reservations(example):
    net = example_after_steps(example, steps=2)
    # two isolated nodes, inserted out of natural-key order
    net.add_node("n10", 1, 1, 1)
    net.add_node("n9", 1, 1, 1)
    arcs = incoming(net, "n1", 30)
    assert {e.link_id for e in dag_edges(net, arcs)} == {"l2", "l3", "l5", "l6"}
    assert net.topology().nodes == ("n1", "n2", "n3", "n4", "n5", "n9", "n10")
    # the table's lists are indexed in natural-key order, not insertion order
    table = sweep(net, "n1", arcs)
    assert table.topology.nodes == tuple(sorted(net.nodes, key=natural_key))
    assert len(table.cost) == len(table.start) - 1 == len(net.nodes)


def test_bandwidth_filter_extremes(example_net):
    assert {e.link_id for e in dag_edges(example_net, incoming(example_net, "n4", 1))} \
        == {"l1", "l2", "l3", "l4", "l5", "l6"}
    assert dag_edges(example_net, incoming(example_net, "n4", 101)) == []
    assert unicast_distances(example_net, "n4", 101) \
        == {"n1": math.inf, "n2": math.inf, "n3": math.inf,
            "n4": 0.0, "n5": math.inf}


def test_prune_example_orientation(example_net):
    oriented = {(e.tail, e.head)
                for e in dag_edges(example_net, incoming(example_net, "n4", 1))}
    assert oriented == {("n1", "n2"), ("n1", "n3"), ("n2", "n4"),
                        ("n3", "n4"), ("n5", "n3"), ("n5", "n4")}


def test_prune_drops_equal_distance_links():
    net = SubstrateNetwork()
    for nid in ("a", "b", "dst"):
        net.add_node(nid, 1, 1, 1)
    net.add_link("l1", "a", "dst", bw=10, delay=10.0, pdr=0.5)
    net.add_link("l2", "b", "dst", bw=10, delay=10.0, pdr=0.5)
    net.add_link("l3", "a", "b", bw=10, delay=5.0, pdr=0.9)
    assert {e.link_id for e in dag_edges(net, incoming(net, "dst", 1))} == {"l1", "l2"}


def test_prune_single_neighbor():
    net = SubstrateNetwork()
    net.add_node("a", 1, 1, 1)
    net.add_node("dst", 1, 1, 1)
    net.add_link("l1", "a", "dst", bw=10, delay=1.0, pdr=0.9)
    assert [(e.tail, e.head) for e in dag_edges(net, incoming(net, "dst", 1))] \
        == [("a", "dst")]


def _hyperlink_cost(members) -> float:
    """Cost of one broadcast step alone: every relay already at the destination."""
    return forwarding_cost(members, {m.head: 0.0 for m in members})


def _relay_weights(pdrs) -> list[float]:
    """Each member's w_m: with no delay, a one-hot head cost returns its weight."""
    members = forwarding_set(pdrs)
    return [forwarding_cost(members, {m.head: float(m is hot) for m in members})
            for hot in members]


def test_hyperlink_metrics_singleton():
    assert _hyperlink_cost(forwarding_set([0.9], [10.0])) == 10.0 / 0.9


def test_hyperlink_metrics_pair():
    cost = _hyperlink_cost(forwarding_set([0.5, 0.75], [20.0, 20.0]))
    assert cost == 20.0 / 0.875
    assert cost == pytest.approx(22.857143, abs=1e-5)


@given(pdrs)
def test_hyperlink_with_perfect_member_is_reliable(ps):
    delays = [float(i + 1) for i in range(len(ps))] + [1.0]
    members = forwarding_set(ps + [1.0], delays)
    assert _hyperlink_cost(members) == max(delays)


@given(pdrs)
def test_hyperlink_metrics_grow_with_members(ps):
    # unit delays: the cost is 1 / reliability, so it falls as members join
    members = forwarding_set(ps, [1.0] * len(ps))
    prev_cost = math.inf
    for size in range(1, len(members) + 1):
        cost = _hyperlink_cost(members[:size])
        assert cost <= prev_cost
        assert cost * max(ps[:size]) <= 1.0 + 1e-12
        prev_cost = cost


def test_forwarder_weights_examples():
    assert _relay_weights([1.0]) == [1.0]
    assert _relay_weights([0.9, 0.9]) \
        == pytest.approx([0.909091, 0.090909], abs=1e-5)
    assert _relay_weights([0.5, 0.75]) \
        == pytest.approx([0.571429, 0.428571], abs=1e-5)


@given(pdrs)
def test_forwarder_weights_sum_to_one(ps):
    weights = _relay_weights(ps)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert all(w >= 0 for w in weights)


def test_anypath_example_toward_n4(example_net):
    table = sweep(example_net, "n4", incoming(example_net, "n4", 50))
    cost = cost_by_id(table)
    assert cost["n4"] == 0.0
    assert cost["n1"] == pytest.approx(21.2121, abs=1e-3)
    assert [m.head for m in members(table, "n1")] == ["n2", "n3"]
    assert [m.link_id for m in members(table, "n2")] == ["l3"]
    assert [m.link_id for m in members(table, "n3")] == ["l4"]


def test_anypath_example_second_channel_state(example):
    net = example_after_steps(example, steps=2)
    table = helpers.table(net, "n1", 30)
    assert cost_by_id(table)["n5"] == pytest.approx(37.7778, abs=1e-3)
    assert closure_ids(table, "n5")[1] == {"l2", "l5"}


def test_anypath_example_third_channel_state(example):
    net = example_after_steps(example, steps=3)
    arcs = incoming(net, "n4", 10)
    assert {e.link_id for e in dag_edges(net, arcs)} == {"l1", "l3", "l4", "l5", "l6"}
    table = sweep(net, "n4", arcs)
    assert cost_by_id(table)["n5"] == pytest.approx(27.619, abs=1e-3)
    assert [(m.head, m.link_id) for m in members(table, "n5")] \
        == [("n4", "l6"), ("n3", "l5")]
    assert [(m.head, m.link_id) for m in members(table, "n3")] == [("n4", "l4")]
    assert closure_ids(table, "n5")[1] == {"l4", "l5", "l6"}


def test_anypath_chain_equals_link_cost_sum():
    net = SubstrateNetwork()
    for i in range(1, 5):
        net.add_node(f"n{i}", 1, 1, 1)
    net.add_link("l1", "n1", "n2", bw=10, delay=10.0, pdr=0.5)
    net.add_link("l2", "n2", "n3", bw=10, delay=4.0, pdr=0.8)
    net.add_link("l3", "n3", "n4", bw=10, delay=9.0, pdr=0.9)
    table = helpers.table(net, "n1", 1)
    assert cost_by_id(table)["n4"] == pytest.approx(9 / 0.9 + 4 / 0.8 + 10 / 0.5, abs=1e-9)


def test_route_closure_example_routes(example_net):
    table = helpers.table(example_net, "n4", 50)
    nodes, links = closure_ids(table, "n1")
    assert links == {"l1", "l2", "l3", "l4"}
    assert nodes == {"n1", "n2", "n3", "n4"}


def test_route_closure_source_equals_destination(example_net):
    table = helpers.table(example_net, "n4", 1)
    assert route_closure(table, "n4") == []
    assert closure_ids(table, "n4") == (set(), set())


def test_route_closure_unreachable_raises(example_net):
    example_net.add_node("n9", 1, 1, 1)
    table = helpers.table(example_net, "n4", 1)
    with pytest.raises(UnreachableSourceError):
        route_closure(table, "n9")


# UnreachableSourceError is kept for a node that has no route
@pytest.mark.parametrize("src", [["n1"], "zz", {"n1"}, 1, None])
def test_route_closure_refuses_a_source_that_is_not_a_node(example_net, src):
    table = helpers.table(example_net, "n4", 1)
    with pytest.raises(SchemaError) as info:
        route_closure(table, src)
    assert info.value.field == "src"


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_route_closure_is_each_route_nodes_forwarding_set_once(seed):
    rng = np.random.default_rng(seed)
    net = tie_prone_substrate(rng)
    dst = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
    table = helpers.table(net, dst, 0)
    nodes, ends = table.topology.nodes, table.topology.ends
    forwarding = forwarding_by_id(table)
    for src in settled_ids(table):
        route, todo = set(), [src]
        while todo:
            node = todo.pop()
            if node not in route:
                route.add(node)
                todo += [m.head for m in forwarding[node]]
        arcs = route_closure(table, src)
        groups = [(nodes[tail], tuple(group))
                  for tail, group in groupby(arcs, key=lambda arc: ends[arc ^ 1])]
        # one contiguous group per transmitter, its arcs in priority order
        assert len({tail for tail, _ in groups}) == len(groups)
        assert {tail for tail, _ in groups} == route - {dst}
        for tail, group in groups:
            assert group == tuple(table.members(table.topology.index[tail]))


def test_ranked_orders_by_closure_links_then_cost_then_natural_key(example_net):
    # the sweep counts links as nodes settle and always sorts by rank; the
    # reference counts each route's closure and sorts by the ids themselves
    tables = [helpers.table(example_net, dst, bw)
              for dst in example_net.nodes for bw in (1, 50)]
    rng = np.random.default_rng(1818)
    for _ in range(300):
        net = tie_prone_substrate(rng)
        for dst in net.nodes:
            table = helpers.table(net, dst, 0)
            costs = [table.cost[i] for i in table.settle_order]
            if len(set(costs)) < len(costs):
                tables.append(table)
    assert len(tables) > 200
    for table in tables:
        cost = cost_by_id(table)
        expected = sorted(settled_ids(table), key=lambda nid: (
            link_count(table, nid), cost[nid], natural_key(nid)))
        assert [table.topology.nodes[i] for i in table.ranked] == expected


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_prune_is_acyclic(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, connected=False, extra_edge_factor=2.0)
    dst = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
    edges = dag_edges(net, incoming(net, dst, 0))
    assert not has_cycle(net.topology().nodes, [(e.tail, e.head) for e in edges])


def test_orientation_matches_the_two_pass_reference():
    # the fused Dijkstra appends arcs in tail-settle order, the reference in
    # link order: the arc sets and the whole route tables must agree
    rng = np.random.default_rng(4040)
    parallel = ties = unreached = dropped = 0
    for _ in range(300):
        net = tie_prone_substrate(rng)
        pairs = [frozenset((l.a, l.b)) for l in net.links.values()]
        parallel += len(pairs) - len(set(pairs))
        for dst in net.nodes:
            for bw in (0, 5, 10, 50):
                arcs, ref = incoming(net, dst, bw), reference_prune(net, dst, bw)
                assert [sorted(into) for into in arcs] == [sorted(into) for into in ref]
                assert dag_edges(net, arcs) == dag_edges(net, ref)
                dist = unicast_distances(net, dst, bw)
                unreached += list(dist.values()).count(math.inf)
                for link in net.links.values():
                    if link.bw < bw:
                        dropped += 1
                    elif link.a != link.b and dist[link.a] == dist[link.b] < math.inf:
                        ties += 1
                table, expected = sweep(net, dst, arcs), sweep(net, dst, ref)
                assert repr(table.cost) == repr(expected.cost)
                assert (table.arcs, table.start) == (expected.arcs, expected.start)
                assert table.settle_order == expected.settle_order
    # the corpus covers what the digest substrates lack
    assert min(parallel, ties, unreached, dropped) > 100


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_tree_routes_equal_unicast_path_sums(seed):
    rng = np.random.default_rng(seed)
    net, parent = random_tree_substrate(rng)
    table = helpers.table(net, "n1", 1)
    cost = cost_by_id(table)
    for nid in net.nodes:
        expected = 0.0
        walk = nid
        while walk != "n1":
            up, link_id = parent[walk]
            link = net.links[link_id]
            expected += link.delay / link.pdr
            walk = up
        assert cost[nid] == pytest.approx(expected, abs=1e-9)
        if nid != "n1":
            assert len(members(table, nid)) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_routes_match_recursive_recomputation(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, max_nodes=6, extra_edge_factor=2.0)
    dst = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
    table = helpers.table(net, dst, 0)
    recomputed = eatt_recursive(table)
    cost = cost_by_id(table)
    for nid in settled_ids(table):
        assert cost[nid] == pytest.approx(recomputed[nid], abs=1e-9)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_route_table_invariants(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, connected=False, extra_edge_factor=2.0)
    dst = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
    table = helpers.table(net, dst, 0)
    costs, forwarding = cost_by_id(table), forwarding_by_id(table)
    assert costs[dst] == 0.0
    assert forwarding[dst] == ()
    for nid, cost in costs.items():
        if cost < math.inf:
            for member in forwarding[nid]:
                assert costs[member.head] < cost
        else:
            assert forwarding[nid] == ()


def test_route_table_serialization(example_net):
    table = helpers.table(example_net, "n4", 50)
    assert table.dst == "n4"
    assert cost_by_id(table)["n1"] == pytest.approx(21.2121, abs=1e-3)
    assert [m.link_id for m in members(table, "n1")] == ["l1", "l2"]


# sha256 over every route table of the seeded corpus below: each node's cost
# repr and forwarding-set link ids, and the closure link count of each node in
# settle order; any change of a float's last bit, a tie or a member order fails
ROUTE_TABLES_SHA256 = (
    "cd71235dd4db5fd7d5a45870ef5ae6f1b08e52c3ac1c77b5ec5b8d59d083124b")


def test_route_tables_match_reference():
    rng = np.random.default_rng(20232)
    digest = hashlib.sha256()
    for _ in range(200):
        net = random_substrate(rng, max_nodes=10)
        for dst in net.nodes:
            for bw in (0, 50):
                table = helpers.table(net, dst, bw)
                cost, forwarding = cost_by_id(table), forwarding_by_id(table)
                for nid in net.nodes:
                    digest.update(repr((nid, cost[nid],
                                        [m.link_id for m in forwarding[nid]])).encode())
                digest.update(repr([(nid, link_count(table, nid))
                                    for nid in settled_ids(table)]).encode())
    assert digest.hexdigest() == ROUTE_TABLES_SHA256


def test_equal_costs_settle_in_natural_key_order():
    # insertion order and plain string order would both put n10 before n2
    net = SubstrateNetwork()
    for nid in ("dst", "n10", "n2", "x"):
        net.add_node(nid, 1, 1, 1)
    net.add_link("l1", "n10", "dst", bw=10, delay=5.0, pdr=0.5)
    net.add_link("l2", "n2", "dst", bw=10, delay=5.0, pdr=0.5)
    net.add_link("l3", "x", "n10", bw=10, delay=1.0, pdr=0.9)
    net.add_link("l4", "x", "n2", bw=10, delay=1.0, pdr=0.9)
    table = helpers.table(net, "dst", 1)
    cost = cost_by_id(table)
    assert cost["n2"] == cost["n10"]
    assert settled_ids(table) == ["dst", "n2", "n10", "x"]
    assert [m.head for m in members(table, "x")] == ["n2", "n10"]


def test_a_predecessor_at_exactly_the_settled_cost_does_not_join():
    # settling n3 reprices n2 to 8 + 0.5 * 8 = 12.0, exactly n1's cost; n1
    # settles first by rank, and n2 must not add l4, or its forwarding set
    # would no longer point strictly downhill
    net = SubstrateNetwork()
    for i in range(4):
        net.add_node(f"n{i}", 1, 1, 1)
    for link, a, b, delay, pdr in (("l1", "n0", "n1", 6.0, 0.5), ("l2", "n0", "n2", 8.0, 0.5),
                                   ("l3", "n0", "n3", 6.0, 0.75), ("l4", "n1", "n2", 2.0, 1.0),
                                   ("l5", "n2", "n3", 8.0, 1.0)):
        net.add_link(link, a, b, bw=10, delay=delay, pdr=pdr)
    table = helpers.table(net, "n0", 1)
    assert cost_by_id(table)["n1"] == cost_by_id(table)["n2"] == 12.0
    assert [m.link_id for m in members(table, "n2")] == ["l2", "l5"]
    assert link_count(table, "n2") == 3


def test_equal_cost_nodes_rank_by_index_even_when_they_settle_out_of_order():
    # n2 and n3 cost 1.333e20 and settle in index order; n1 reaches n0 through
    # n3 over a 1.0 hop, which the float sum absorbs (1.0 + 1.333e20 ==
    # 1.333e20), so n1 settles after n2 at an equal cost, and only the rank
    # pass's index sort puts n1 ahead of n2 among the 4-link routes
    net = SubstrateNetwork()
    for i in range(7):
        net.add_node(f"n{i}", 1, 1, 1)
    for link, a, b, delay, pdr in (("l1", "n0", "n4", 1.0, 1.0), ("l2", "n0", "n6", 0.5, 1.0),
                                   ("l3", "n6", "n5", 0.5, 1.0), ("l4", "n3", "n0", 1.0, 0.5),
                                   ("l5", "n3", "n4", 1e20, 0.5), ("l6", "n2", "n0", 1.0, 0.5),
                                   ("l7", "n2", "n5", 1e20, 0.5), ("l8", "n1", "n3", 1.0, 1.0)):
        net.add_link(link, a, b, bw=10, delay=delay, pdr=pdr)
    table = helpers.table(net, "n0", 1)
    assert settled_ids(table) == ["n0", "n6", "n4", "n5", "n2", "n3", "n1"]
    costs = cost_by_id(table)
    assert costs["n2"] == costs["n3"] == costs["n1"] == 1.3333333333333333e20
    assert [link_count(table, nid) for nid in ("n2", "n3", "n1")] == [4, 3, 4]
    assert [table.topology.nodes[i] for i in table.ranked[-3:]] == ["n3", "n1", "n2"]
    assert select_min_links(table, {"n1", "n2"}.__contains__) == "n1"


@pytest.mark.parametrize("kernel", ["loaded", "python"])
def test_route_table_refuses_an_unknown_destination(example_net, kernel, request):
    if kernel == "python":
        request.getfixturevalue("python_kernel")
    route_table(example_net, "n1", 1)
    cached = anypath._table.cache_info().currsize
    with pytest.raises(SchemaError) as info:
        route_table(example_net, "nope", 1)
    assert info.value.field == "dst"
    assert anypath._table.cache_info().currsize == cached


def test_a_python_miss_orients_once_and_sweeps_once(example_net, python_kernel, monkeypatch):
    orients = _count_calls(monkeypatch, anypath, "_orient")
    sweeps = _count_calls(monkeypatch, anypath, "_sweep")
    table = route_table(example_net, "n4", 10)
    assert (len(orients), len(sweeps)) == (1, 1)
    assert route_table(example_net, "n4", 10) is table
    assert (len(orients), len(sweeps)) == (1, 1)


@pytest.mark.parametrize("bw", ["x", 2.5, -1, True, None])
def test_route_table_refuses_a_bandwidth_that_is_not_a_count(example_net, bw):
    with pytest.raises(SchemaError) as info:
        route_table(example_net, "n1", bw)
    assert info.value.field == "bw"


@pytest.mark.parametrize("dst", [["n1"], {"n1"}, 1, None])
def test_route_table_refuses_a_destination_that_is_not_a_string(example_net, dst):
    anypath._table.cache_clear()
    with pytest.raises(SchemaError) as info:
        route_table(example_net, dst, 1)
    assert info.value.field == "dst"
    info = anypath._table.cache_info()     # refused before the cache is asked
    assert (info.hits, info.misses) == (0, 0)


@pytest.mark.parametrize("bw", [True, [1], 1.0])
def test_route_table_refuses_a_bandwidth_that_equals_a_memoised_count(example_net, bw):
    # True and 1.0 hash as 1, which the memo holds; a list cannot be hashed
    table = route_table(example_net, "n1", 1)
    memo = dict(example_net._eligible)
    with pytest.raises(SchemaError) as info:
        route_table(example_net, "n1", bw)
    assert info.value.field == "bw"
    assert example_net._eligible == memo
    assert route_table(example_net, "n1", 1) is table


def test_route_table_refuses_nan_without_growing_the_memo(example_net):
    route_table(example_net, "n1", 1)
    memo = dict(example_net._eligible)
    for _ in range(3):
        with pytest.raises(SchemaError) as info:
            route_table(example_net, "n1", float("nan"))
        assert info.value.field == "bw"
    assert example_net._eligible == memo


def _line_substrate(n_nodes: int) -> SubstrateNetwork:
    net = SubstrateNetwork()
    for i in range(1, n_nodes + 1):
        net.add_node(f"n{i}", 1, 1, 1)
    for i in range(1, n_nodes):
        net.add_link(f"l{i}", f"n{i}", f"n{i + 1}", bw=10, delay=1.0, pdr=0.9)
    return net


def test_clones_share_one_route_cache(example_net):
    anypath._table.cache_clear()
    first, second = example_net.clone(), example_net.clone()
    table = route_table(first, "n4", 10)
    assert route_table(second, "n4", 10) is table
    assert route_table(example_net, "n4", 10) is table
    info = anypath._table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_route_cache_keeps_the_most_recently_used_tables():
    net = _line_substrate(ROUTE_CACHE_SIZE + 4)
    anypath._table.cache_clear()
    tables = {"n1": route_table(net, "n1", 0)}
    for i in range(2, ROUTE_CACHE_SIZE + 1):
        tables[f"n{i}"] = route_table(net, f"n{i}", 0)
        assert anypath._table.cache_info().currsize == i
    # a hit makes n1 the newest
    assert route_table(net, "n1", 0) is tables["n1"]
    for i in range(ROUTE_CACHE_SIZE + 1, ROUTE_CACHE_SIZE + 5):
        tables[f"n{i}"] = route_table(net, f"n{i}", 0)
        assert anypath._table.cache_info().currsize == ROUTE_CACHE_SIZE
    # least recently used first: n1 outlived n2..n5, which went
    misses = anypath._table.cache_info().misses
    kept = ["n1"] + [f"n{i}" for i in range(6, ROUTE_CACHE_SIZE + 5)]
    assert all(route_table(net, dst, 0) is tables[dst] for dst in kept)
    assert anypath._table.cache_info().misses == misses
    for k, dst in enumerate(["n2", "n3", "n4", "n5"], 1):
        assert route_table(net, dst, 0) is not tables[dst]
        assert anypath._table.cache_info().misses == misses + k


def test_route_cache_stays_consistent_under_threads():
    # more destinations than the cache holds, cycled by more threads than
    # cores at different phases, so hits race with other threads' evictions
    net = _line_substrate(ROUTE_CACHE_SIZE + 4)
    dsts = [f"n{i}" for i in range(1, ROUTE_CACHE_SIZE + 3)]
    expected = {dst: helpers.table(net, dst, 0).cost for dst in dsts}
    errors = []

    def work(phase):
        try:
            for _ in range(200):
                for k in range(len(dsts)):
                    dst = dsts[(k + phase) % len(dsts)]
                    table = route_table(net, dst, 0)
                    if table.dst != dst or table.cost != expected[dst]:
                        errors.append(f"wrong table for {dst}")
        except Exception as exc:   # reported by the main thread
            errors.append(repr(exc))

    anypath._table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(5 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    info = anypath._table.cache_info()
    assert info.currsize == ROUTE_CACHE_SIZE
    assert info.hits + info.misses == 4 * 200 * len(dsts)


def test_add_link_starts_an_empty_route_cache(example_net):
    # the new topology is a new key, so none of its tables is cached yet
    clone = example_net.clone()
    old = route_table(example_net, "n4", 0)
    example_net.add_link("l7", "n1", "n4", bw=100, delay=1.0, pdr=1.0)
    misses = anypath._table.cache_info().misses
    new = route_table(example_net, "n4", 0)
    assert new is not old
    assert anypath._table.cache_info().misses == misses + 1
    assert closure_ids(new, "n1")[1] == {"l7"}
    # a clone made before keeps the old topology and its table
    assert route_table(clone, "n4", 0) is old
    assert route_table(example_net, "n4", 0) is new

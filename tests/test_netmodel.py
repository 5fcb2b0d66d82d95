import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne.anypath import anypath_routes, prune, route_closure, unicast_distances
from anypath_vne.embedder import embed
from anypath_vne.netmodel import (
    Channel,
    InsufficientCapacityError,
    NanoService,
    SchemaError,
    SubstrateNetwork,
    Topology,
    local_pdr,
    natural_key,
    request_from_dict,
    request_to_dict,
    reserve_channel,
    reserve_service,
    rollback,
    substrate_from_dict,
    substrate_to_dict,
    suitable_nodes,
    validate_substrate,
)

from helpers import random_substrate


def test_validate_example_is_clean(example_net):
    assert validate_substrate(example_net) == []


def test_validate_flags_zero_pdr(example_net):
    example_net.links["l3"].pdr = 0.0
    report = validate_substrate(example_net)
    assert len(report) == 1
    assert "l3" in report[0]


def test_validate_flags_dangling_endpoint():
    net = SubstrateNetwork()
    net.add_node("n1", 10, 10, 10)
    net.add_link("l1", "n1", "ghost", bw=5, delay=1.0, pdr=0.9)
    report = validate_substrate(net)
    assert len(report) == 1
    assert "ghost" in report[0] and "l1" in report[0]


def test_validate_flags_duplicate_pair_and_self_loop():
    net = SubstrateNetwork()
    net.add_node("n1", 1, 1, 1)
    net.add_node("n2", 1, 1, 1)
    net.add_link("l1", "n1", "n2", bw=5, delay=1.0, pdr=0.9)
    net.add_link("l2", "n2", "n1", bw=5, delay=1.0, pdr=0.9)
    net.add_link("l3", "n1", "n1", bw=5, delay=1.0, pdr=0.9)
    messages = "\n".join(validate_substrate(net))
    assert "duplicates" in messages
    assert "self-loop" in messages


def test_link_cost_values():
    # the unicast cost of one link is delay / pdr
    for delay, pdr, expected in [(10.0, 0.9, 10 / 0.9), (20.0, 0.5, 40.0),
                                 (7.25, 1.0, 7.25)]:
        net = SubstrateNetwork()
        net.add_node("a", cpu=0, gpu=0, mem=0)
        net.add_node("b", cpu=0, gpu=0, mem=0)
        net.add_link("l", "a", "b", bw=1, delay=delay, pdr=pdr)
        assert unicast_distances(net, "b", 0)["a"] == expected


def test_local_pdr_example_values(example_net):
    assert local_pdr(example_net, "n4") == pytest.approx(0.766667, abs=1e-4)
    assert local_pdr(example_net, "n5") == pytest.approx(0.625)


def test_local_pdr_isolated_node(example_net):
    example_net.add_node("n9", 1, 1, 1)
    assert local_pdr(example_net, "n9") == 0.0


def test_local_pdr_single_link_equals_pdr():
    net = SubstrateNetwork()
    net.add_node("a", 1, 1, 1)
    net.add_node("b", 1, 1, 1)
    net.add_link("l1", "a", "b", bw=1, delay=1.0, pdr=0.42)
    assert local_pdr(net, "a") == 0.42


def test_suitable_nodes_example(example_net, example_request):
    assert suitable_nodes(example_net, example_request.services["s2"]) == {"n4"}
    assert suitable_nodes(example_net, example_request.services["s3"]) \
        == {"n2", "n5"}


def test_suitable_nodes_zero_demand_matches_all(example_net):
    empty = NanoService("s0")
    assert suitable_nodes(example_net, empty) == set(example_net.nodes)


def test_suitable_nodes_respects_functionals():
    net = SubstrateNetwork()
    net.add_node("n1", 10, 10, 10, functionals={"GPS"})
    net.add_node("n2", 10, 10, 10, functionals={"GPS", "VIDEO"})
    needs_video = NanoService("s", cpu=1, functionals={"VIDEO"})
    assert suitable_nodes(net, needs_video) == {"n2"}


def test_reserve_service_steps(example_net, example_request):
    ledger = []
    reserve_service(example_net, "n4", example_request.services["s2"], ledger)
    assert example_net.nodes["n4"].available() == (0, 0, 10)
    reserve_service(example_net, "n1", example_request.services["s1"], ledger)
    assert example_net.nodes["n1"].available() == (0, 0, 0)
    assert len(ledger) == 2


def test_reserve_zero_demand_records_zero_deltas(example_net):
    ledger = []
    reserve_service(example_net, "n3", NanoService("s0"), ledger)
    assert example_net.nodes["n3"].available() == (10, 10, 10)
    assert ledger == [("node", "n3", 0, 0, 0)]


def test_reserve_service_insufficient_raises(example_net):
    big = NanoService("s", cpu=999)
    with pytest.raises(InsufficientCapacityError):
        reserve_service(example_net, "n1", big, [])


def test_reserve_channel_steps(example_net):
    ledger = []
    reserve_channel(example_net, {"l1", "l2", "l3", "l4"}, 50, ledger)
    assert [example_net.links[l].bw for l in ("l1", "l2", "l3", "l4")] \
        == [20, 30, 50, 20]
    reserve_channel(example_net, {"l2", "l5"}, 30, ledger)
    assert example_net.links["l2"].bw == 0
    assert example_net.links["l5"].bw == 70


def test_reserve_channel_empty_set_is_noop(example_net):
    ledger = []
    before = example_net.snapshot()
    reserve_channel(example_net, set(), 50, ledger)
    assert example_net.snapshot() == before
    assert len(ledger) == 0


def test_reserve_channel_insufficient_leaves_links_untouched(example_net):
    ledger = []
    before = example_net.snapshot()
    with pytest.raises(InsufficientCapacityError):
        reserve_channel(example_net, {"l1", "l3"}, 75, ledger)
    assert example_net.snapshot() == before
    assert len(ledger) == 0


def test_rollback_restores_node_and_links(example_net, example_request):
    before = example_net.snapshot()
    ledger = []
    reserve_service(example_net, "n4", example_request.services["s2"], ledger)
    reserve_channel(example_net, {"l1", "l2", "l3", "l4"}, 50, ledger)
    reserve_channel(example_net, {"l2", "l5"}, 30, ledger)
    rollback(example_net, ledger)
    assert example_net.snapshot() == before
    assert example_net.nodes["n4"].available() == (10, 30, 30)
    assert len(ledger) == 0


def test_rollback_empty_ledger_is_noop(example_net):
    before = example_net.snapshot()
    rollback(example_net, [])
    assert example_net.snapshot() == before


def test_natural_key_orders_numeric_suffixes():
    ids = ["n10", "n2", "n1", "l20", "l3"]
    assert sorted(ids, key=natural_key) == ["l3", "l20", "n1", "n2", "n10"]


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_random_reserves_conserve_and_roll_back(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng)
    before = net.snapshot()
    ledger = []
    spent_nodes = {nid: [0, 0, 0] for nid in net.nodes}
    spent_links = {lid: 0 for lid in net.links}
    for _ in range(int(rng.integers(1, 12))):
        if rng.random() < 0.5 and net.links:
            lid = list(net.links)[int(rng.integers(0, len(net.links)))]
            amount = int(rng.integers(0, net.links[lid].bw + 1))
            reserve_channel(net, [lid], amount, ledger)
            spent_links[lid] += amount
        else:
            nid = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
            node = net.nodes[nid]
            svc = NanoService("s", cpu=int(rng.integers(0, node.cpu + 1)),
                              gpu=int(rng.integers(0, node.gpu + 1)),
                              mem=int(rng.integers(0, node.mem + 1)))
            reserve_service(net, nid, svc, ledger)
            for k, amount in enumerate(svc.demands()):
                spent_nodes[nid][k] += amount
    # conservation: original minus available equals everything reserved
    for nid, node in net.nodes.items():
        assert (node.cpu0 - node.cpu, node.gpu0 - node.gpu,
                node.mem0 - node.mem) == tuple(spent_nodes[nid])
    for lid, link in net.links.items():
        assert link.bw0 - link.bw == spent_links[lid]
    rollback(net, ledger)
    assert net.snapshot() == before


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_reserving_never_adds_suitable_nodes(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng)
    probe = NanoService("probe", cpu=int(rng.integers(0, 20)),
                        gpu=int(rng.integers(0, 20)), mem=int(rng.integers(0, 20)))
    before = suitable_nodes(net, probe)
    nid = list(net.nodes)[int(rng.integers(0, len(net.nodes)))]
    node = net.nodes[nid]
    bite = NanoService("bite", cpu=min(1, node.cpu), gpu=min(1, node.gpu),
                       mem=min(1, node.mem))
    reserve_service(net, nid, bite, [])
    assert suitable_nodes(net, probe) <= before


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_local_pdr_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, connected=False)
    for nid in net.nodes:
        assert 0.0 <= local_pdr(net, nid) <= 1.0


def test_substrate_json_round_trip(example_net):
    doc = substrate_to_dict(example_net)
    clone = substrate_from_dict(doc)
    assert clone.snapshot() == example_net.snapshot()
    assert {l.id: (l.a, l.b, l.delay, l.pdr) for l in clone.links.values()} \
        == {l.id: (l.a, l.b, l.delay, l.pdr) for l in example_net.links.values()}


def test_request_json_round_trip(example_request):
    doc = request_to_dict(example_request)
    clone = request_from_dict(doc)
    assert request_to_dict(clone) == doc
    assert [c.id for c in clone.channels] == ["c1", "c2", "c3"]


@pytest.mark.parametrize("field, value", [
    ("delay", 0.0), ("delay", -1.0), ("delay", math.nan), ("delay", math.inf),
    ("pdr", 0.0), ("pdr", 1.5), ("pdr", math.nan), ("pdr", 1e-20),
    ("bw", -1), ("bw", 2.5), ("bw", True),
])
def test_link_refuses_bad_values(field, value):
    attrs = {"bw": 10, "delay": 1.0, "pdr": 0.9, field: value}
    net = SubstrateNetwork()
    with pytest.raises(SchemaError) as info:
        net.add_link("l1", "a", "b", **attrs)
    assert info.value.field == field
    assert net.links == {}


@pytest.mark.parametrize("field, value", [
    ("cpu", -1), ("gpu", -5), ("mem", -1), ("cpu", True), ("gpu", 2.5),
    ("mem", "3"), ("cpu", None),
])
def test_node_refuses_bad_capacities(field, value):
    attrs = {"cpu": 10, "gpu": 10, "mem": 10, field: value}
    net = SubstrateNetwork()
    with pytest.raises(SchemaError) as info:
        net.add_node("n1", **attrs)
    assert info.value.field == field
    assert net.nodes == {}
    doc = {"nodes": [{"id": "n1", "cpu": 1, "gpu": 1, "mem": 1},
                     {"id": "n2", **attrs}], "links": []}
    with pytest.raises(SchemaError) as info:
        substrate_from_dict(doc)
    assert info.value.field == f"nodes[1].{field}"


def test_channel_refuses_infinite_max_delay():
    with pytest.raises(SchemaError) as info:
        Channel("c1", "s1", "s2", bw=1, max_delay=math.inf, min_pdr=0.5)
    assert info.value.field == "max_delay"


def test_topology_refuses_dangling_endpoint():
    net = SubstrateNetwork()
    net.add_node("n1", 10, 10, 10)
    net.add_link("l1", "n1", "ghost", bw=5, delay=1.0, pdr=0.9)
    with pytest.raises(SchemaError) as info:
        net.topology()
    assert info.value.field == "links[0]"
    assert "l1" in str(info.value) and "ghost" in str(info.value)


def test_clone_shares_topology(example_net):
    assert example_net.clone().topology() is example_net.topology()
    assert example_net.clone().clone().topology() is example_net.topology()


def test_add_link_rebuilds_topology_and_routes_use_the_link(example_net):
    before = example_net.topology()
    assert unicast_distances(example_net, "n4", 0)["n1"] == 2 * (10.0 / 0.9)
    example_net.add_link("l7", "n1", "n4", bw=100, delay=1.0, pdr=1.0)
    after = example_net.topology()
    assert after is not before
    assert after.link_ids[-1] == "l7"
    assert unicast_distances(example_net, "n4", 0)["n1"] == 1.0
    assert route_closure(anypath_routes(prune(example_net, "n4", 1), "n4"),
                         "n1")[1] == {"l7"}


def test_reservations_on_a_clone_leave_the_topology_alone(
        example_net, example_request, example_coeffs):
    topology = example_net.topology()
    fields = {name: getattr(topology, name) for name in Topology.__slots__}
    work = example_net.clone()
    embed(work, example_request, example_coeffs)
    assert work.snapshot() != example_net.snapshot()
    assert work.topology() is topology
    assert {name: getattr(topology, name) for name in Topology.__slots__} == fields


def test_topology_of_large_substrate_is_compact():
    rng = np.random.default_rng(1000)
    net = SubstrateNetwork()
    for i in range(1, 1001):
        net.add_node(f"n{i}", 1, 1, 1)
    for k in range(1, 3001):
        a = int(rng.integers(1, 1001))
        net.add_link(f"l{k}", f"n{a}", f"n{a % 1000 + 1}", bw=1,
                     delay=float(rng.uniform(1.0, 20.0)),
                     pdr=float(rng.uniform(0.5, 1.0)))
    for nid in net.nodes:
        natural_key(nid)   # the key cache is not part of the topology
    tracemalloc.start()
    try:
        net.topology()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= 1_000_000

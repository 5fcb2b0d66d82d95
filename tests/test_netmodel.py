import copy
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne import netmodel
from anypath_vne.embedder import Coefficients, EmbeddingError, embed
from anypath_vne.netmodel import (
    Channel,
    InsufficientCapacityError,
    NanoService,
    SchemaError,
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    Topology,
    VirtualRequest,
    natural_key,
    request_from_dict,
    request_to_dict,
    reserve_channel,
    reserve_service,
    rollback,
    substrate_from_dict,
    substrate_to_dict,
    validate_substrate,
)

import helpers
from helpers import (
    closure_ids,
    local_pdr,
    random_request,
    random_substrate,
    suitable_nodes,
    unicast_distances,
)


def test_validate_example_is_clean(example_net):
    assert validate_substrate(example_net) == []


def test_validate_flags_zero_pdr(example_net):
    # a zero pdr is refused where the link is built, so no substrate that
    # validate_substrate sees can hold one
    doc = substrate_to_dict(example_net)
    doc["links"][2]["pdr"] = 0.0
    with pytest.raises(SchemaError) as info:
        substrate_from_dict(doc)
    assert info.value.field == "links[2].pdr"
    assert "l3" in str(info.value)
    with pytest.raises(SchemaError) as info:
        example_net.add_link("l7", "n1", "n5", bw=1, delay=1.0, pdr=0.0)
    assert info.value.field == "pdr"
    assert "l7" in str(info.value) and "l7" not in example_net.links
    assert validate_substrate(example_net) == []


def test_add_link_refuses_an_endpoint_that_is_not_a_node():
    net = SubstrateNetwork()
    net.add_node("n1", 10, 10, 10)
    topology = net.topology()
    with pytest.raises(SchemaError) as info:
        net.add_link("l1", "n1", "ghost", bw=5, delay=1.0, pdr=0.9)
    assert info.value.field == "b"
    assert "l1" in str(info.value) and "ghost" in str(info.value)
    with pytest.raises(SchemaError) as info:
        net.add_link("l1", "ghost", "n1", bw=5, delay=1.0, pdr=0.9)
    assert info.value.field == "a"
    # nothing was added, so the topology that was built still stands
    assert net.links == {} and net.topology() is topology


@pytest.mark.parametrize("second, field, earlier", [
    ({"id": "l2", "a": "n1", "b": "n1"}, "links[1].b", None),
    ({"id": "l2", "a": "n2", "b": "n1"}, "links[1]", "l1"),
], ids=["self_loop", "repeated_pair"])
def test_substrate_format_refuses_self_loops_and_repeated_pairs(second, field, earlier):
    doc = {"nodes": [{"id": f"n{i}", "cpu": 1, "gpu": 1, "mem": 1} for i in (1, 2)],
           "links": [{"id": "l1", "a": "n1", "b": "n2", "bw": 5, "delay": 1.0,
                      "pdr": 0.9}]}
    doc["links"].append({**doc["links"][0], **second})
    with pytest.raises(SchemaError) as info:
        substrate_from_dict(doc)
    assert info.value.field == field
    assert "l2" in str(info.value)
    if earlier:
        assert earlier in str(info.value)
    # the library itself allows both, and routes over them
    net = SubstrateNetwork()
    for node_id in ("n1", "n2"):
        net.add_node(node_id, 1, 1, 1)
    for link in doc["links"]:
        net.add_link(link.pop("id"), **link)
    assert validate_substrate(net) == []
    assert len(net.topology().link_ids) == 2


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


def test_reserve_channel_charges_a_repeated_link_once(example_net):
    ledger = []
    reserve_channel(example_net, ["l1", "l1"], 40, ledger)
    assert example_net.links["l1"].bw == 30
    assert ledger == [("link", "l1", 40)]
    assert validate_substrate(example_net) == []
    # l1 has 30 left: one more debit of 40 is refused, however often it is named
    with pytest.raises(InsufficientCapacityError):
        reserve_channel(example_net, ["l1", "l1"], 40, ledger)
    assert example_net.links["l1"].bw == 30


def test_reserve_channel_records_links_once_in_the_order_given(example_net):
    ledger = []
    reserve_channel(example_net, ["l3", "l1", "l3"], 5, ledger)
    assert ledger == [("link", "l3", 5), ("link", "l1", 5)]
    assert (example_net.links["l3"].bw, example_net.links["l1"].bw) == (95, 65)


def test_reserve_channel_insufficient_leaves_links_untouched(example_net):
    ledger = []
    before = example_net.snapshot()
    with pytest.raises(InsufficientCapacityError):
        reserve_channel(example_net, {"l1", "l3"}, 75, ledger)
    assert example_net.snapshot() == before
    assert len(ledger) == 0


@pytest.mark.parametrize("link_ids, bw, field", [
    ({"l1"}, -5, "bw"),            # would raise l1 from 70 to 75
    ({"l1"}, math.nan, "bw"),
    ({"l1"}, 2.5, "bw"),
    ({"l1"}, True, "bw"),
    ({"l1", "nope"}, 5, "link_ids"),
    ({"l1", 7}, 5, "link_ids"),
    ([["l1"]], 5, "link_ids"),     # an unhashable member
    (["l1", {"l2"}], 5, "link_ids"),
    (7, 5, "link_ids"),            # not a collection of ids
])
def test_reserve_channel_refuses_bad_input_before_debiting(example_net, link_ids, bw,
                                                           field):
    ledger = []
    before = example_net.snapshot()
    with pytest.raises(SchemaError) as info:
        reserve_channel(example_net, link_ids, bw, ledger)
    assert info.value.field == field
    assert example_net.snapshot() == before
    assert ledger == []
    assert validate_substrate(example_net) == []


def test_reserve_channel_refuses_a_bare_string_before_debiting():
    # a string is an iterable of one-character strings, which here are link ids
    net = SubstrateNetwork()
    net.add_node("n1", 1, 1, 1)
    net.add_node("n2", 1, 1, 1)
    for lid in ("l", "1", "l1"):
        net.add_link(lid, "n1", "n2", bw=10, delay=1.0, pdr=0.9)
    ledger = []
    before = net.snapshot()
    with pytest.raises(SchemaError) as info:
        reserve_channel(net, "l1", 5, ledger)
    assert info.value.field == "link_ids"
    assert "l1" in str(info.value)
    assert net.snapshot() == before
    assert ledger == []


@pytest.mark.parametrize("node_id", [["n1"], {"n1": 1}, 1, None])
def test_reserve_service_refuses_a_node_id_that_is_not_a_string(example_net, node_id):
    ledger = []
    before = example_net.snapshot()
    with pytest.raises(SchemaError) as info:
        reserve_service(example_net, node_id, NanoService("s", cpu=1), ledger)
    assert info.value.field == "node_id"
    assert example_net.snapshot() == before
    assert ledger == []


def test_reserve_service_refuses_an_unknown_node_before_debiting(example_net):
    ledger = []
    before = example_net.snapshot()
    with pytest.raises(SchemaError) as info:
        reserve_service(example_net, "nope", NanoService("s", cpu=1), ledger)
    assert info.value.field == "node_id"
    assert "nope" in str(info.value)
    assert example_net.snapshot() == before
    assert ledger == []


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
    ids = ["n10", "n2", "n1", "l20", "l3", "n", "n1a2", "n1a"]
    assert sorted(ids, key=natural_key) \
        == ["l3", "l20", "n", "n1", "n1a", "n1a2", "n2", "n10"]
    # a superscript two is a digit to str.isdigit, but not part of a digit run
    assert natural_key("²") == (("²",), "²")
    assert natural_key("n1²") == (("n", 1, "²"), "n1²")
    # a run too long for int() sorts after every shorter number
    long = "n" + "1" * 5000
    assert sorted([long, "n2", "n1²"], key=natural_key) == ["n1²", "n2", long]


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
            for k, amount in enumerate((svc.cpu, svc.gpu, svc.mem)):
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


@pytest.mark.parametrize("given", [
    {"services": {"x": NanoService("s1")}},
    {"channels": [Channel("c1", "s1", "s2", bw=1, max_delay=1.0, min_pdr=0.5)]},
], ids=["services", "channels"])
def test_request_takes_services_and_channels_only_through_add(given):
    # add_service and add_channel check ids and endpoints; the constructor does not
    with pytest.raises(TypeError):
        VirtualRequest("r", **given)


@pytest.mark.parametrize("field, value", [
    ("delay", 0.0), ("delay", -1.0), ("delay", math.nan), ("delay", math.inf),
    ("pdr", 0.0), ("pdr", 1.5), ("pdr", math.nan), ("pdr", 1e-20),
    ("bw", -1), ("bw", 2.5), ("bw", True),
    ("id", ["l1"]), ("id", 1), ("a", ["x"]), ("a", 5), ("b", ("y",)), ("b", 5),
])
def test_link_refuses_bad_values(field, value):
    attrs = {"id": "l1", "a": "a", "b": "b", "bw": 10, "delay": 1.0, "pdr": 0.9,
             field: value}
    net = SubstrateNetwork()
    with pytest.raises(SchemaError) as info:
        net.add_link(*attrs.values())
    assert info.value.field == field
    assert net.links == {}


@pytest.mark.parametrize("field, value", [
    ("cpu", -1), ("gpu", -5), ("mem", -1), ("cpu", True), ("gpu", 2.5),
    ("mem", "3"), ("cpu", None), ("id", ["n1"]), ("id", 5),
])
def test_node_refuses_bad_capacities(field, value):
    attrs = {"id": "n2", "cpu": 10, "gpu": 10, "mem": 10, field: value}
    net = SubstrateNetwork()
    with pytest.raises(SchemaError) as info:
        net.add_node(*attrs.values())
    assert info.value.field == field
    assert net.nodes == {}
    doc = {"nodes": [{"id": "n1", "cpu": 1, "gpu": 1, "mem": 1}, attrs], "links": []}
    if attrs["id"] == 5:   # a JSON id may be an int; the reader makes it a string
        assert list(substrate_from_dict(doc).nodes) == ["n1", "5"]
        return
    with pytest.raises(SchemaError) as info:
        substrate_from_dict(doc)
    assert info.value.field == f"nodes[1].{field}"


def test_channel_refuses_infinite_max_delay():
    with pytest.raises(SchemaError) as info:
        Channel("c1", "s1", "s2", bw=1, max_delay=math.inf, min_pdr=0.5)
    assert info.value.field == "max_delay"


@pytest.mark.parametrize("field, value", [
    ("cpu", 1.5), ("gpu", True), ("mem", -1), ("cpu", "3"), ("gpu", None),
    ("mem", math.nan), ("id", ["s1"]), ("id", 1),
])
def test_service_refuses_bad_demands(field, value):
    with pytest.raises(SchemaError) as info:
        NanoService(**{"id": "s1", field: value})
    assert info.value.field == field


@pytest.mark.parametrize("make, field", [
    # repr raises ValueError for an int of more than 4300 digits
    (lambda: NanoService("s", cpu=10**5000), "cpu"),
    (lambda: NanoService("s", functionals="x" * 10**6), "functionals"),
    (lambda: SubstrateNetwork().add_link("l1", "a", "b", bw=1, delay=1.0,
                                         pdr=[0.5] * 10**5), "pdr"),
    (lambda: request_from_dict({"id": ["x" * 10**6], "services": [], "channels": []}),
     "request.id"),
    (lambda: substrate_from_dict({"nodes": [{"id": {"x": "y" * 10**6}, "cpu": 1,
                                             "gpu": 1, "mem": 1}], "links": []}),
     "nodes[0].id"),
    # str() refuses an int of more than 4300 digits
    (lambda: request_from_dict({"id": 10**5000, "services": [], "channels": []}),
     "request.id"),
    (lambda: substrate_from_dict({"nodes": [{"id": 10**5000, "cpu": 1, "gpu": 1,
                                             "mem": 1}], "links": []}),
     "nodes[0].id"),
    # the library takes only string ids and endpoints
    (lambda: VirtualRequest(10**5000), "id"),
    (lambda: Channel("c1", "s1", ["s2"] * 10**5, bw=1, max_delay=1.0, min_pdr=0.5),
     "dst"),
], ids=["huge_int", "long_string", "long_list", "long_request_id", "object_node_id",
        "huge_int_request_id", "huge_int_node_id", "huge_int_library_request_id",
        "long_list_channel_dst"])
def test_a_refused_value_gives_a_short_message(make, field):
    with pytest.raises(SchemaError) as info:
        make()
    assert type(info.value) is SchemaError
    assert info.value.field == field
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("node, field", [
    ({"id": "n" * 10**6, "cpu": -1, "gpu": 1, "mem": 1}, "nodes[0].cpu"),
    ({"id": "n1", "cpu": 1, "gpu": 1, "mem": 1, "k" * 10**6: 0}, "nodes[0]." + "k" * 77),
], ids=["long_id", "long_unknown_key"])
def test_a_long_id_or_key_gives_a_short_message(node, field):
    with pytest.raises(SchemaError) as info:
        substrate_from_dict({"nodes": [node], "links": []})
    assert info.value.field.startswith(field)
    assert len(str(info.value)) < 300


def test_a_short_id_is_shown_as_it_is():
    with pytest.raises(SchemaError) as info:
        NanoService("x" * 80, cpu=-1)
    assert f"NanoService {'x' * 80}: " in str(info.value)


@pytest.mark.parametrize("value", [2.5, True, -1, math.nan, "3", None])
def test_channel_refuses_a_bandwidth_that_is_not_a_count(value):
    with pytest.raises(SchemaError) as info:
        Channel("c1", "s1", "s2", bw=value, max_delay=10.0, min_pdr=0.5)
    assert info.value.field == "bw"


def test_validate_flags_non_integer_capacities(example_net):
    example_net.nodes["n2"].cpu = 8.5
    example_net.nodes["n3"].mem0 = True
    example_net.links["l1"].bw = 7.5
    assert validate_substrate(example_net) == [
        "node n2: non-integer cpu capacity",
        "node n3: non-integer mem capacity",
        "link l1: non-integer bandwidth",
    ]


def test_validate_flags_negative_and_exceeding_capacities(example_net):
    example_net.nodes["n1"].cpu = -1
    gpu0 = example_net.nodes["n3"].gpu0
    example_net.nodes["n3"].gpu = gpu0 + 1
    example_net.nodes["n4"].mem0 = -1
    example_net.links["l2"].bw = -1
    assert validate_substrate(example_net) == [
        "node n1: negative cpu capacity",
        "node n3: available gpu capacity exceeds original",
        "node n4: negative mem capacity",
        "link l2: negative bandwidth",
    ]


def test_clone_shares_topology(example_net):
    assert example_net.clone().topology() is example_net.topology()
    assert example_net.clone().clone().topology() is example_net.topology()


def test_clone_of_a_reserved_substrate_keeps_the_originals(example_net):
    ledger = []
    reserve_service(example_net, "n1", NanoService("s1", cpu=4, mem=2), ledger)
    reserve_channel(example_net, ["l1"], 7, ledger)
    base = example_net.snapshot()
    work = example_net.clone()
    # dataclass equality compares every field, the originals included
    for mine, theirs in ((work.nodes, example_net.nodes), (work.links, example_net.links)):
        assert mine == theirs
        assert all(mine[key] is not theirs[key] for key in mine)
    node, link = work.nodes["n1"], work.links["l1"]
    original = example_net.nodes["n1"]
    assert (node.cpu, node.cpu0) == (original.cpu0 - 4, original.cpu0)
    assert (link.bw, link.bw0) == (example_net.links["l1"].bw0 - 7,
                                   example_net.links["l1"].bw0)
    assert node.functionals is original.functionals
    assert validate_substrate(work) == []
    reserve_service(work, "n1", NanoService("s2", cpu=1), [])
    reserve_channel(work, ["l1"], 3, [])
    assert example_net.snapshot() == base
    assert work.snapshot() != base


def test_originals_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        SubstrateNode("n", 1, 1, 1, cpu0=1)
    with pytest.raises(TypeError):
        SubstrateLink("l", "a", "b", 1, 1.0, 0.5, bw0=1)
    assert SubstrateNode("n", 3, 2, 1).available() == (3, 2, 1)


def test_add_link_rebuilds_topology_and_routes_use_the_link(example_net):
    before = example_net.topology()
    assert unicast_distances(example_net, "n4", 0)["n1"] == 2 * (10.0 / 0.9)
    example_net.add_link("l7", "n1", "n4", bw=100, delay=1.0, pdr=1.0)
    after = example_net.topology()
    assert after is not before
    assert after.link_ids[-1] == "l7"
    assert unicast_distances(example_net, "n4", 0)["n1"] == 1.0
    assert closure_ids(helpers.table(example_net, "n4", 1),
                       "n1")[1] == {"l7"}


def test_reservations_on_a_clone_leave_the_topology_alone(
        example_net, example_request, example_coeffs):
    topology = example_net.topology()
    # copies, since the typed arrays could be written in place
    fields = {name: copy.copy(getattr(topology, name)) for name in Topology.__slots__}
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
    # measured: 965 856 B with adjacency as a tuple of (link, neighbour)
    # pairs, 1 145 900 B with link_index added to it, 824 416 B with
    # link_index and the flat adj_start/adj_link/adj_node arrays, 726 888 B
    # with ends, delay, pdr and weight as arrays too
    assert size <= 800_000


# --- eligible-link memo -------------------------------------------------------

def _scan(net: SubstrateNetwork, bw: int) -> bytes:
    return bytes(link.bw >= bw for link in net.links.values())


@pytest.mark.parametrize("seed", range(8))
def test_eligible_links_memo_matches_a_fresh_scan(seed):
    # random clone, embed, reserve and rollback steps on nets that share memos
    rng = np.random.default_rng(9100 + seed)
    nets = [random_substrate(rng, max_nodes=7, connected=seed % 2 == 0)]
    ledgers = [[]]   # per net, the ledgers that can still be rolled back
    seen = {0}
    for _ in range(40):
        i = int(rng.integers(len(nets)))
        net = nets[i]
        step = int(rng.integers(4))
        if step == 0:
            nets.append(net.clone())
            ledgers.append([])
        elif step == 1:
            try:
                embedding = embed(net, random_request(rng), Coefficients())
            except EmbeddingError:
                pass
            else:
                ledgers[i].append(embedding.ledger)
        elif step == 2 and net.links:
            lid = list(net.links)[int(rng.integers(len(net.links)))]
            ledger = []
            reserve_channel(net, [lid], int(rng.integers(net.links[lid].bw + 1)),
                            ledger)
            ledgers[i].append(ledger)
        elif ledgers[i]:
            rollback(net, ledgers[i].pop(int(rng.integers(len(ledgers[i])))))
        seen.add(int(rng.integers(0, 101)))
        # fill the memo for a random bandwidth before checking them all, so
        # later steps meet memos filled at different points
        net.eligible_links(int(rng.choice(sorted(seen))))
        for other in nets:
            # every entry, also those patched by the step and not asked for since
            assert other._eligible == {bw: _scan(other, bw) for bw in other._eligible}
            for bw in seen:
                assert other.eligible_links(bw) == _scan(other, bw)


def _two_link_net() -> SubstrateNetwork:
    """n1 - n2 over l1 and l2, 10 bandwidth each, with the memo filled for 0..11."""
    net = SubstrateNetwork()
    net.add_node("n1", 1, 1, 1)
    net.add_node("n2", 1, 1, 1)
    net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=0.9)
    net.add_link("l2", "n1", "n2", bw=10, delay=2.0, pdr=0.9)
    for bw in range(12):
        net.eligible_links(bw)
    return net


def _memo_is_a_fresh_scan(net: SubstrateNetwork) -> bool:
    return net._eligible == {bw: _scan(net, bw) for bw in range(12)}


@pytest.mark.parametrize("debit, still_eligible", [(4, 1), (5, 0)])
def test_a_debit_to_the_threshold_keeps_a_link_eligible(debit, still_eligible):
    net = _two_link_net()
    memo = dict(net._eligible)
    ledger = []
    reserve_channel(net, ["l1"], debit, ledger)   # l1: 10 -> 6 or 5
    assert net._eligible[6] == bytes([still_eligible, 1])
    assert _memo_is_a_fresh_scan(net)
    # only the entries whose threshold l1 crossed are rebuilt
    crossed = range(11 - debit, 11)
    assert [bw for bw in memo if net._eligible[bw] is not memo[bw]] == list(crossed)
    rollback(net, ledger)
    assert net._eligible[6] == b"\x01\x01"
    assert _memo_is_a_fresh_scan(net)


@pytest.mark.parametrize("route, bw", [(["l1", "l2"], 0), ([], 5)])
def test_a_debit_that_changes_no_bandwidth_keeps_the_memo_object(route, bw):
    net = _two_link_net()
    memo = net._eligible
    ledger = []
    reserve_channel(net, route, bw, ledger)
    assert net._eligible is memo
    rollback(net, ledger)
    assert net._eligible is memo


def test_a_colocated_channel_leaves_the_memo_unpatched(example_net, monkeypatch):
    # an empty route changes no bandwidth, so neither its reservation nor
    # the rollback of its ledger, which holds no link record, patches the memo
    patched = []
    patch = netmodel._patch_eligible
    monkeypatch.setattr(netmodel, "_patch_eligible",
                        lambda *args: patched.append(args) or patch(*args))
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=1))
    request.add_service(NanoService("s2", cpu=1))
    request.add_channel(Channel("c1", "s1", "s2", bw=5, max_delay=10.0, min_pdr=0.5))
    embedding = embed(example_net, request, Coefficients())
    assert embedding.service_map["s1"] == embedding.service_map["s2"]
    assert embedding.channel_routes["c1"].links == ()
    assert patched == []
    rollback(example_net, embedding.ledger)
    assert patched == []
    reserve_channel(example_net, ["l1"], 5, embedding.ledger)
    rollback(example_net, embedding.ledger)
    assert len(patched) == 2


def test_a_route_naming_a_link_twice_patches_it_once():
    net = _two_link_net()
    ledger = []
    reserve_channel(net, ["l1", "l2", "l1"], 3, ledger)
    assert (net.links["l1"].bw, net.links["l2"].bw) == (7, 7)
    assert _memo_is_a_fresh_scan(net)
    rollback(net, ledger)
    assert _memo_is_a_fresh_scan(net)


def test_a_ledger_with_two_records_of_a_link_rolls_back_to_a_fresh_scan():
    net = _two_link_net()
    ledger = []
    reserve_channel(net, ["l1"], 3, ledger)
    reserve_channel(net, ["l2", "l1"], 4, ledger)   # l1: 10 -> 7 -> 3
    assert net.links["l1"].bw == 3
    assert _memo_is_a_fresh_scan(net)
    rollback(net, ledger)
    assert (net.links["l1"].bw, net.links["l2"].bw) == (10, 10)
    assert _memo_is_a_fresh_scan(net)


def test_reserving_on_a_clone_leaves_the_base_memo_right(example_net):
    base = example_net
    full = base.eligible_links(70)
    clone = base.clone()
    assert clone.eligible_links(70) is full   # shared: no second scan
    ledger = []
    reserve_channel(clone, ["l1"], 10, ledger)   # l1: 70 -> 60
    assert clone.eligible_links(70) == _scan(clone, 70) != full
    # the base keeps its memo object and its entry
    assert base.eligible_links(70) is full
    assert base._eligible is not clone._eligible
    rollback(clone, ledger)
    assert clone.eligible_links(70) == full


def test_reserving_on_the_base_leaves_the_clone_memo_right(example_net):
    base = example_net
    full = base.eligible_links(80)
    clone = base.clone()
    ledger = []
    reserve_channel(base, ["l2", "l3"], 30, ledger)   # l2: 80 -> 50, l3: 100 -> 70
    assert base.eligible_links(80) == _scan(base, 80) != full
    assert clone.eligible_links(80) is full
    assert clone.eligible_links(60) == _scan(clone, 60)
    assert base.eligible_links(60) == _scan(base, 60)


def test_add_link_starts_a_fresh_memo(example_net):
    clone = example_net.clone()
    before = example_net.eligible_links(0)
    example_net.add_link("l7", "n1", "n4", bw=100, delay=1.0, pdr=1.0)
    assert example_net.eligible_links(0) == before + b"\x01"
    assert clone.eligible_links(0) is before


def test_clones_share_the_memo_safely_under_threads():
    # threads embed into and roll back their own clones of one base, so
    # they fill the base's memo while some of them hold fresh ones
    rng = np.random.default_rng(9207)
    base = random_substrate(rng, max_nodes=10, min_nodes=8, extra_edge_factor=2.0)
    requests = [random_request(rng, max_services=5) for _ in range(6)]
    bws = range(101)
    expected = []
    reserved = 0
    for request in requests:
        try:
            embedding = embed(base.clone(), request, Coefficients())
        except EmbeddingError as exc:
            expected.append(str(exc))
        else:
            expected.append(json.dumps(embedding.to_dict()))
            reserved += sum(record[0] == "link" for record in embedding.ledger)
    assert reserved > 10
    errors = []

    def work(phase):
        try:
            for step in range(60):
                k = (step + phase) % len(requests)
                net = base.clone()
                try:
                    embedding = embed(net, requests[k], Coefficients())
                except EmbeddingError as exc:
                    found, ledger = str(exc), []
                else:
                    found, ledger = json.dumps(embedding.to_dict()), embedding.ledger
                if found != expected[k]:
                    errors.append(f"request {k} embedded differently")
                for _ in range(2):
                    for bw in bws:
                        if net.eligible_links(bw) != _scan(net, bw):
                            errors.append(f"stale memo for bw {bw}")
                    rollback(net, ledger)
        except Exception as exc:   # reported by the main thread
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for bw in bws:
        assert base.eligible_links(bw) == _scan(base, bw)

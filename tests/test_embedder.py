import dataclasses
import gc
import hashlib
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne import anypath, embedder
from anypath_vne.anypath import anypath_routes, prune
from anypath_vne.embedder import (
    Coefficients,
    EmbeddingError,
    NoFeasiblePathError,
    NoSuitableNodeError,
    embed,
    pair_quality_revenue,
    rank_channels,
    select_max_pdr,
    select_min_links,
)
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SubstrateNetwork,
    VirtualRequest,
    fits,
    natural_key,
    substrate_from_dict,
    substrate_to_dict,
)
from anypath_vne.scenario import GeneratorConfig, SimulationConfig, run_simulation

from helpers import (
    closure_ids,
    cost_by_id,
    random_request,
    random_substrate,
    settled_ids,
    suitable_nodes,
)
from test_acceptance import _complexity_instance


def two_node_net(cpu1=100, cpu2=100):
    net = SubstrateNetwork()
    net.add_node("n1", cpu=cpu1, gpu=50, mem=50)
    net.add_node("n2", cpu=cpu2, gpu=50, mem=50)
    net.add_link("l1", "n1", "n2", bw=100, delay=5.0, pdr=0.9)
    return net


def test_pair_quality_revenue_example(example_request, example_coeffs):
    values = {
        c.id: pair_quality_revenue(c, example_request, example_coeffs)
        for c in example_request.channels
    }
    assert values["c1"] == pytest.approx(225.0, abs=1e-6)
    assert values["c2"] == pytest.approx(198.0, abs=1e-6)
    assert values["c3"] == pytest.approx(143.333333, abs=1e-6)


def test_pair_quality_revenue_zero_gamma():
    request = VirtualRequest("r")
    request.add_service(NanoService("s1"))
    request.add_service(NanoService("s2"))
    request.add_channel(Channel("c1", "s1", "s2", bw=7, max_delay=10.0,
                                min_pdr=0.5))
    coeffs = Coefficients(beta=3.0, gamma=0.0)
    assert pair_quality_revenue(request.channels[0], request, coeffs) == 21.0


def test_rank_channels_descending_and_stable(example_request, example_coeffs):
    assert [c.id for c in rank_channels(example_request, example_coeffs)] \
        == ["c1", "c2", "c3"]
    # equal quality-revenue keeps arrival order
    request = VirtualRequest("r")
    for i in (1, 2, 3):
        request.add_service(NanoService(f"s{i}", cpu=1))
    request.add_channel(Channel("cA", "s1", "s2", bw=5, max_delay=10, min_pdr=0.5))
    request.add_channel(Channel("cB", "s2", "s3", bw=5, max_delay=10, min_pdr=0.5))
    assert [c.id for c in rank_channels(request, Coefficients())] == ["cA", "cB"]


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_rank_channels_matches_independent_sort(seed):
    rng = np.random.default_rng(seed)
    request = random_request(rng, max_services=5)
    coeffs = Coefficients(beta=2.0, gamma=300.0)
    # recompute the ordering key from scratch and stable-sort independently
    keyed = []
    for pos, channel in enumerate(request.channels):
        src = request.services[channel.src]
        dst = request.services[channel.dst]
        value = (2.0 * channel.bw + 300.0 * channel.min_pdr / channel.max_delay
                 + src.cpu + src.gpu + src.mem + dst.cpu + dst.gpu + dst.mem)
        keyed.append((-value, pos, channel.id))
    expected = [cid for _, _, cid in sorted(keyed)]
    assert [c.id for c in rank_channels(request, coeffs)] == expected


def test_select_max_pdr_example(example_net, example_request):
    assert select_max_pdr(example_net, example_request.services["s2"]) == "n4"


def test_select_max_pdr_single_and_empty(example_net):
    only_n1 = NanoService("s", cpu=30)
    assert select_max_pdr(example_net, only_n1) == "n1"
    with pytest.raises(NoSuitableNodeError):
        select_max_pdr(example_net, NanoService("s", cpu=1000))


def test_select_max_pdr_tie_breaks_by_id():
    net = SubstrateNetwork()
    net.add_node("n2", 1, 1, 1)
    net.add_node("n1", 1, 1, 1)
    net.add_node("n3", 1, 1, 1)
    net.add_link("l1", "n1", "n2", bw=1, delay=1.0, pdr=0.8)
    net.add_link("l2", "n2", "n3", bw=1, delay=1.0, pdr=0.8)
    net.add_link("l3", "n1", "n3", bw=1, delay=1.0, pdr=0.8)
    assert select_max_pdr(net, NanoService("s")) == "n1"


def test_select_min_links_prefers_fewest_links(example_net):
    table = anypath_routes(prune(example_net, "n4", 1), "n4")
    # n2 routes over 1 link, n1 over 4, destination itself over 0
    assert select_min_links(table, {"n1", "n2"}.__contains__) == "n2"
    assert select_min_links(table, {"n1", "n2", "n4"}.__contains__) == "n4"


def test_embed_reproduces_reference_mapping(example):
    net, request, coeffs = example
    embedding = embed(net, request, coeffs)
    assert embedding.service_map == {"s1": "n1", "s2": "n4", "s3": "n5"}
    assert {cid: set(r.links) for cid, r in embedding.channel_routes.items()} == {
        "c1": {"l1", "l2", "l3", "l4"},
        "c2": {"l2", "l5"},
        "c3": {"l4", "l5", "l6"},
    }
    assert net.nodes["n1"].available() == (0, 0, 0)
    assert net.nodes["n4"].available() == (0, 0, 10)
    assert net.nodes["n5"].available() == (10, 10, 0)
    assert {lid: link.bw for lid, link in net.links.items()} == {
        "l1": 20, "l2": 0, "l3": 50, "l4": 10, "l5": 60, "l6": 90}
    # flow orientation: c2 runs from s1's node toward s3's node
    assert embedding.channel_routes["c2"].src_node == "n1"
    assert embedding.channel_routes["c2"].dst_node == "n5"


def test_embed_unmappable_service_rolls_back(example):
    net, request, coeffs = example
    request.services["s2"] = NanoService("s2", cpu=10_000)
    before = net.snapshot()
    with pytest.raises(NoSuitableNodeError):
        embed(net, request, coeffs)
    assert net.snapshot() == before


def test_embed_infeasible_path_rolls_back(example):
    net, request, coeffs = example
    # c1 becomes impossible to route within its cost bound
    request.channels[0] = Channel("c1", "s1", "s2", bw=50, max_delay=1.0,
                                  min_pdr=0.99)
    before = net.snapshot()
    with pytest.raises(NoFeasiblePathError):
        embed(net, request, coeffs)
    assert net.snapshot() == before


def test_embed_colocates_when_one_node_fits_both():
    net = two_node_net(cpu1=5, cpu2=100)
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=30))
    request.add_service(NanoService("s2", cpu=30))
    request.add_channel(Channel("c1", "s1", "s2", bw=10, max_delay=50.0,
                                min_pdr=0.5))
    embedding = embed(net, request, Coefficients())
    assert embedding.service_map == {"s1": "n2", "s2": "n2"}
    route = embedding.channel_routes["c1"]
    assert route.links == frozenset()
    assert route.eatt == 0.0
    assert net.links["l1"].bw == 100


def test_embed_places_channel_free_services():
    net = two_node_net()
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=10))
    embedding = embed(net, request, Coefficients())
    assert embedding.service_map["s1"] in {"n1", "n2"}
    assert embedding.channel_routes == {}


def test_embed_reversed_case_transposes_route():
    # force the source-allocated-only case with an isolated dst candidate
    net = SubstrateNetwork()
    net.add_node("n1", cpu=50, gpu=0, mem=0)    # only fit for s1
    net.add_node("n2", cpu=0, gpu=0, mem=0)
    net.add_node("n3", cpu=0, gpu=50, mem=40)   # only fit for s3 and s2
    net.add_link("l1", "n1", "n2", bw=100, delay=2.0, pdr=0.9)
    net.add_link("l2", "n2", "n3", bw=100, delay=2.0, pdr=0.9)
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=50))
    request.add_service(NanoService("s2", mem=40))
    request.add_service(NanoService("s3", gpu=50))
    # c1 dominates the ordering and pins s1; c2 then finds its source placed
    request.add_channel(Channel("c1", "s1", "s3", bw=90, max_delay=100.0,
                                min_pdr=0.9))
    request.add_channel(Channel("c2", "s1", "s2", bw=1, max_delay=100.0,
                                min_pdr=0.5))
    embedding = embed(net, request, Coefficients())
    assert embedding.service_map["s1"] == "n1"
    assert embedding.service_map["s2"] == "n3"
    route = embedding.channel_routes["c2"].to_dict()
    assert route["src_node"] == "n1" and route["dst_node"] == "n3"
    assert [(h["transmitter"], [(m["node"], m["link"]) for m in h["members"]])
            for h in route["hyperlinks"]] == [("n1", [("n2", "l1")]),
                                              ("n2", [("n3", "l2")])]


def test_embed_is_deterministic(example):
    net, request, coeffs = example
    first = embed(net.clone(), request, coeffs)
    second = embed(net.clone(), request, coeffs)
    assert first.service_map == second.service_map
    assert {c: r.links for c, r in first.channel_routes.items()} \
        == {c: r.links for c, r in second.channel_routes.items()}


def test_embedding_serialization(example):
    net, request, coeffs = example
    doc = embed(net, request, coeffs).to_dict()
    assert doc["services"] == {"s1": "n1", "s2": "n4", "s3": "n5"}
    c1 = doc["channels"][0]
    assert c1["id"] == "c1"
    assert c1["links"] == ["l1", "l2", "l3", "l4"]
    assert {h["transmitter"] for h in c1["hyperlinks"]} == {"n1", "n2", "n3"}


def test_embed_and_its_json_build_no_dag_edge(example, monkeypatch):
    def refuse(*args):
        raise AssertionError("DagEdge built")

    monkeypatch.setattr(anypath, "_edge", refuse)
    monkeypatch.setattr(anypath, "DagEdge", refuse)
    net, request, coeffs = example
    doc = embed(net, request, coeffs).to_dict()
    assert [len(c["hyperlinks"]) for c in doc["channels"]] == [3, 2, 2]
    results = run_simulation(SimulationConfig(iterations=2, loads=(10, 40)))
    assert len(results.raw_rows) == 4


def test_embed_asks_anypath_for_each_channels_closure_once(example, monkeypatch):
    # the per-layer anypath.closure span of the benchmark tracer rebinds
    # anypath.route_closure, so embed must call it through the module
    calls = _count_calls(monkeypatch, anypath, "route_closure")
    net, request, coeffs = example
    embedding = embed(net, request, coeffs)
    assert len(embedding.channel_routes) == 3
    assert [(table.dst, src) for table, src in calls] \
        == [("n4", "n1"), ("n1", "n5"), ("n5", "n4")]


def test_channel_routes_keep_no_route_table(monkeypatch):
    rng = np.random.default_rng(20240)
    tables = []
    original = anypath.anypath_routes

    def recording(dag, dst):
        table = original(dag, dst)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(anypath, "anypath_routes", recording)
    embeddings = []
    for _ in range(20):
        net = random_substrate(rng, max_nodes=10)
        for _ in range(3):
            try:
                embedding = embed(net, random_request(rng), Coefficients())
            except EmbeddingError:
                continue
            embeddings.append((embedding, json.dumps(embedding.to_dict())))
        net.topology().routes.clear()
    gc.collect()
    assert len(tables) > 20 and len(embeddings) > 20
    assert [table for table in tables if table() is not None] == []
    for embedding, line in embeddings:
        assert json.dumps(embedding.to_dict()) == line


def _count_route_computations(monkeypatch) -> list:
    """Record the destination of every anypath_routes call that embed makes."""
    calls = []
    original = anypath.anypath_routes

    def counting(dag, dst):
        calls.append(dst)
        return original(dag, dst)

    monkeypatch.setattr(anypath, "anypath_routes", counting)
    return calls


def test_embed_reuses_route_table_for_unchanged_eligible_links(monkeypatch):
    # zero-demand services all land on one node, so the 12 channels share
    # their destination and every link keeps its bandwidth
    net, request = _complexity_instance(np.random.default_rng(600), 120)
    calls = _count_route_computations(monkeypatch)
    embedding = embed(net, request, Coefficients())
    assert len(embedding.channel_routes) == 12
    assert len(calls) == 1


def test_second_embed_on_a_fresh_clone_computes_no_route(monkeypatch):
    base, request = _complexity_instance(np.random.default_rng(600), 120)
    calls = _count_route_computations(monkeypatch)
    first = embed(base.clone(), request, Coefficients())
    assert len(calls) == 1
    second = embed(base.clone(), request, Coefficients())
    assert len(calls) == 1
    assert json.dumps(second.to_dict()) == json.dumps(first.to_dict())


def test_embed_recomputes_route_table_when_eligible_links_change(monkeypatch):
    net = SubstrateNetwork()
    for nid, label in (("n1", "x"), ("n2", "y"), ("n3", "z")):
        net.add_node(nid, cpu=10, gpu=0, mem=0, functionals={label})
    net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=1.0)
    net.add_link("l2", "n1", "n3", bw=10, delay=5.0, pdr=1.0)
    net.add_link("l3", "n2", "n3", bw=10, delay=10.0, pdr=1.0)
    request = VirtualRequest("r")
    for sid, label in (("s1", "x"), ("s2", "y"), ("s3", "z")):
        request.add_service(NanoService(sid, functionals={label}))
    # c1 ranks first and leaves l1 with 4 < 5, the bw of c2; both run toward n1
    request.add_channel(Channel("c1", "s2", "s1", bw=6, max_delay=100.0,
                                min_pdr=0.5))
    request.add_channel(Channel("c2", "s3", "s1", bw=5, max_delay=100.0,
                                min_pdr=0.5))
    calls = _count_route_computations(monkeypatch)
    embedding = embed(net, request, Coefficients())
    assert calls == ["n1", "n1"]
    assert embedding.channel_routes["c1"].links == {"l1"}
    assert embedding.channel_routes["c2"].links == {"l2"}
    assert net.links["l1"].bw == 4


def test_embed_never_selects_an_unreachable_candidate():
    # max_delay / min_pdr overflows to inf, a bound that admits every cost
    net = two_node_net(cpu1=10, cpu2=10)
    net.add_node("n3", cpu=10, gpu=50, mem=50)   # suitable but isolated
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=10))
    request.add_service(NanoService("s2", cpu=10))
    request.add_channel(Channel("c1", "s1", "s2", bw=1, max_delay=1e308,
                                min_pdr=0.5))
    assert request.channels[0].max_cost == float("inf")
    embedding = embed(net, request, Coefficients())
    assert embedding.service_map == {"s1": "n2", "s2": "n1"}
    assert embedding.channel_routes["c1"].links == {"l1"}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fuzzed_embeds_respect_bounds_or_roll_back(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, max_nodes=6)
    request = random_request(rng)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    before = net.snapshot()
    try:
        embedding = embed(net, request, coeffs)
    except EmbeddingError:
        assert net.snapshot() == before
        return
    # every accepted channel meets its cost bound and pays its bandwidth
    for channel in request.channels:
        route = embedding.channel_routes[channel.id]
        assert route.eatt <= channel.max_cost
        for link_id in route.links:
            assert net.links[link_id].bw >= 0
    for sid, nid in embedding.service_map.items():
        node = net.nodes[nid]
        assert min(node.cpu, node.gpu, node.mem) >= 0


def _tie_heavy_substrate(rng):
    """Random connected substrate whose delays and pdrs take two values each."""
    n = int(rng.integers(2, 9))
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", cpu=int(rng.integers(0, 61)),
                     gpu=int(rng.integers(0, 31)), mem=int(rng.integers(0, 61)))
    seq = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j == i + 1 or rng.random() < 0.4:
                seq += 1
                net.add_link(f"l{seq}", f"n{i}", f"n{j}",
                             bw=int(rng.integers(0, 101)),
                             delay=(1.0, 2.0)[int(rng.integers(0, 2))],
                             pdr=(0.5, 1.0)[int(rng.integers(0, 2))])
    return net


# sha256 over the JSON of every embedding (or its block reason) and the
# substrate snapshot after it, for the seeded corpus below; any change of a
# float's last bit, a tie or a member order fails
EMBED_CORPUS_SHA256 = (
    "f90e151af508c846f2e72f20dbb05aa3f4848daedf70adbb549cf2157a924d5f")


def test_embed_output_bytes_match_reference():
    rng = np.random.default_rng(20231)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    nets = [random_substrate(rng, max_nodes=10) for _ in range(300)]
    nets += [_tie_heavy_substrate(rng) for _ in range(100)]
    digest = hashlib.sha256()
    for net in nets:
        for _ in range(3):
            request = random_request(rng)
            try:
                line = json.dumps(embed(net, request, coeffs).to_dict())
            except EmbeddingError as exc:
                line = f"blocked:{exc}"
            digest.update(line.encode())
            digest.update(repr(net.snapshot()).encode())
    assert digest.hexdigest() == EMBED_CORPUS_SHA256


def _outcome(net, request, coeffs) -> tuple:
    """The embedding's JSON or the block reason, and the substrate after it."""
    try:
        line = json.dumps(embed(net, request, coeffs).to_dict())
    except EmbeddingError as exc:
        line = f"blocked:{exc}"
    return line, net.snapshot()


def test_embed_output_does_not_depend_on_node_insertion_order():
    # the JSON orders transmitters, and transposed members, by natural key;
    # shuffling only the nodes keeps each link and its position, so every
    # float sum, and with it every cost and tie, is unchanged
    rng = np.random.default_rng(20241)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    transmitters = 0
    for _ in range(200):
        doc = substrate_to_dict(random_substrate(rng, max_nodes=12))
        ordered = substrate_from_dict(doc)
        rng.shuffle(doc["nodes"])
        shuffled = substrate_from_dict(doc)
        for _ in range(3):
            request = random_request(rng)
            line, after = _outcome(ordered, request, coeffs)
            shuffled_line, shuffled_after = _outcome(shuffled, request, coeffs)
            assert shuffled_line == line
            assert sorted(map(sorted, shuffled_after)) == sorted(map(sorted, after))
            if not line.startswith("blocked:"):
                transmitters += sum(len(c["hyperlinks"]) > 1
                                    for c in json.loads(line)["channels"])
    assert transmitters > 50


def test_warm_route_cache_gives_the_outputs_of_fresh_tables(monkeypatch):
    rng = np.random.default_rng(20237)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    calls = _count_route_computations(monkeypatch)
    warm_computations = fresh_computations = 0
    for _ in range(150):
        base = random_substrate(rng, max_nodes=10)
        requests = [random_request(rng) for _ in range(3)]
        # the clones of the second pass find the tables of the first
        for _ in range(2):
            warm = base.clone()
            for request in requests:
                # same capacities, but a new topology and so an empty cache
                fresh = substrate_from_dict(substrate_to_dict(warm))
                start = len(calls)
                warm_outcome = _outcome(warm, request, coeffs)
                middle = len(calls)
                assert _outcome(fresh, request, coeffs) == warm_outcome
                warm_computations += middle - start
                fresh_computations += len(calls) - middle
    assert warm_computations < fresh_computations / 2


def test_route_cache_size_is_a_constant_not_a_setting():
    assert isinstance(anypath.ROUTE_CACHE_SIZE, int)
    for path in Path(anypath.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "environ" not in source and "getenv" not in source, path.name
    for config in (SimulationConfig, GeneratorConfig, Coefficients):
        assert not any("cache" in f.name for f in dataclasses.fields(config))


# --- walks over the shared orders against brute-force oracles ---------------

def _oracle_min_links(table, accepts, bound=math.inf):
    """min over accepted reached nodes within bound, by (links, cost, natural key).

    A node's links are counted from its route closure.
    """
    cost = cost_by_id(table)
    feasible = [nid for nid, c in cost.items()
                if math.isfinite(c) and c <= bound and accepts(nid)]
    return min(feasible, default=None, key=lambda nid: (
        len(closure_ids(table, nid)[1]), cost[nid], natural_key(nid)))


def _oracle_max_pdr(net, service):
    """min over the nodes that fit, by a ``fits`` scan, by (-mean incident pdr, natural key)."""
    def mean_pdr(nid):
        pdrs = [l.pdr for l in net.links.values() if nid in (l.a, l.b)]
        return sum(pdrs) / len(pdrs) if pdrs else 0.0

    candidates = suitable_nodes(net, service)
    if not candidates:
        raise NoSuitableNodeError(service.id)
    return min(candidates, key=lambda nid: (-mean_pdr(nid), natural_key(nid)))


def _labelled_substrate(rng):
    """Random substrate, possibly disconnected, with capability labels.

    Nodes and links are inserted in shuffled order, so index order and
    natural-key order of the ids differ.
    """
    if rng.random() < 0.3:
        net = _tie_heavy_substrate(rng)
    else:
        net = random_substrate(rng, max_nodes=12, connected=rng.random() < 0.7)
    doc = substrate_to_dict(net)
    for node in doc["nodes"]:
        node["functionals"] = [label for label in ("cam", "gpu") if rng.random() < 0.4]
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["links"])
    return substrate_from_dict(doc)


def _random_service(rng, sid="s"):
    return NanoService(sid, cpu=int(rng.integers(0, 61)), gpu=int(rng.integers(0, 31)),
                       mem=int(rng.integers(0, 61)),
                       functionals={label for label in ("cam", "gpu")
                                    if rng.random() < 0.2})


def test_select_min_links_walk_matches_oracle():
    rng = np.random.default_rng(8101)
    checked = unreached = 0
    for _ in range(300):
        net = _labelled_substrate(rng)
        dst = str(rng.choice(list(net.nodes)))
        table = anypath_routes(prune(net, dst, int(rng.integers(0, 80))), dst)
        finite = sorted(c for c in table.cost if math.isfinite(c))
        unreached += len(finite) < len(net.nodes)
        tight = float(rng.choice(finite))
        bounds = [math.inf, 1e308 / 0.5, sys.float_info.max, 0.0, tight,
                  math.nextafter(tight, -math.inf), float(rng.uniform(0, 2 * finite[-1]))]
        for _ in range(3):
            service = _random_service(rng)
            suitable = suitable_nodes(net, service)
            walk_accepts = lambda nid: fits(net.nodes[nid], service)
            for bound in bounds:
                assert (select_min_links(table, walk_accepts, bound)
                        == _oracle_min_links(table, suitable.__contains__, bound))
                checked += 1
        # a placed endpoint, and every node but the destination
        placed = str(rng.choice(list(net.nodes)))
        for accepts in (placed.__eq__, dst.__ne__):
            for bound in bounds:
                assert (select_min_links(table, accepts, bound)
                        == _oracle_min_links(table, accepts, bound))
    assert checked == 300 * 3 * 7 and unreached > 50


def test_select_min_links_breaks_exact_ties_by_id():
    # three leaves with identical links to the hub, inserted out of id order
    net = SubstrateNetwork()
    for nid in ("hub", "n10", "n3", "n2"):
        net.add_node(nid, 1, 1, 1)
    for k, leaf in enumerate(("n10", "n3", "n2"), 1):
        net.add_link(f"l{k}", leaf, "hub", bw=1, delay=2.0, pdr=0.5)
    table = anypath_routes(prune(net, "hub", 1), "hub")
    assert select_min_links(table, "hub".__ne__) == "n2"
    assert select_min_links(table, {"n10", "n3"}.__contains__) == "n3"


def test_select_max_pdr_walk_matches_oracle():
    rng = np.random.default_rng(8102)
    blocked = 0
    for _ in range(300):
        net = _labelled_substrate(rng)
        for _ in range(4):
            service = _random_service(rng)
            try:
                expected = _oracle_max_pdr(net, service)
            except NoSuitableNodeError as exc:
                with pytest.raises(NoSuitableNodeError) as info:
                    select_max_pdr(net, service)
                assert str(info.value) == str(exc)
                blocked += 1
            else:
                assert select_max_pdr(net, service) == expected
    assert blocked > 20


def test_embed_with_the_walks_matches_embed_with_the_oracles(monkeypatch):
    rng = np.random.default_rng(8103)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    cases = []
    for _ in range(200):
        net = _labelled_substrate(rng)
        request = random_request(rng)
        for service in request.services.values():
            service.functionals = frozenset(
                label for label in ("cam", "gpu") if rng.random() < 0.15)
        cases.append((substrate_to_dict(net), request))
    walked = [_outcome(substrate_from_dict(doc), request, coeffs)
              for doc, request in cases]
    monkeypatch.setattr(embedder, "select_min_links", _oracle_min_links)
    monkeypatch.setattr(embedder, "select_max_pdr", _oracle_max_pdr)
    oracled = [_outcome(substrate_from_dict(doc), request, coeffs)
               for doc, request in cases]
    assert walked == oracled
    reasons = {line.split(" ")[0] for line, _ in walked}
    assert {"blocked:no", "{\"request\":"} <= reasons
    kinds = {line[:len("blocked:no feasible")] for line, _ in walked}
    assert {"blocked:no suitable", "blocked:no feasible"} <= kinds


def _blocking_substrate():
    # n1 and n2 are linked; n3 is isolated; only n2 has a camera
    net = SubstrateNetwork()
    net.add_node("n1", cpu=10, gpu=0, mem=0)
    net.add_node("n2", cpu=10, gpu=0, mem=0, functionals={"cam"})
    net.add_node("n3", cpu=50, gpu=0, mem=0)
    net.add_link("l1", "n1", "n2", bw=10, delay=2.0, pdr=0.5)
    return net


def _pair_request(src, dst, bw=1, max_delay=100.0, min_pdr=0.5):
    request = VirtualRequest("r")
    request.add_service(src)
    request.add_service(dst)
    request.add_channel(Channel("c1", src.id, dst.id, bw=bw, max_delay=max_delay,
                                min_pdr=min_pdr))
    return request


BLOCKED_CASES = {
    # anchor s2 fits no node
    "anchor_fits_nowhere": (
        _pair_request(NanoService("s1"), NanoService("s2", cpu=100)),
        NoSuitableNodeError, "no suitable node for service s2"),
    # anchor s2 goes to n2; s1 fits no node
    "free_endpoint_fits_nowhere": (
        _pair_request(NanoService("s1", gpu=1), NanoService("s2", functionals={"cam"})),
        NoSuitableNodeError, "no suitable node for service s1"),
    # s1 fits only n3, which has no route to n2
    "free_endpoint_fits_only_unreachable": (
        _pair_request(NanoService("s1", cpu=20), NanoService("s2", functionals={"cam"})),
        NoFeasiblePathError, "no feasible route for channel c1"),
    # s2 takes half of n2, so s1 fits n1, whose route to n2 costs 4 > 3.9 / 1.0,
    # and the unreachable n3
    "tight_bound": (
        _pair_request(NanoService("s1", cpu=10),
                      NanoService("s2", cpu=5, functionals={"cam"}),
                      max_delay=3.9, min_pdr=1.0),
        NoFeasiblePathError, "no feasible route for channel c1"),
    # the link is short of bandwidth, so n1 is unreachable whatever the bound
    "overflowing_bound_without_bandwidth": (
        _pair_request(NanoService("s1", cpu=10),
                      NanoService("s2", cpu=5, functionals={"cam"}),
                      bw=11, max_delay=1e308, min_pdr=0.5),
        NoFeasiblePathError, "no feasible route for channel c1"),
}


def test_embed_never_selects_a_node_whose_cost_overflows():
    # P's unicast distance is finite over l3, but once B joins its forwarding
    # set over l4, whose delay is the float maximum, its cost overflows to inf;
    # max_delay / min_pdr overflows to inf too
    net = SubstrateNetwork()
    net.add_node("D", cpu=10, gpu=0, mem=0)
    net.add_node("A", cpu=0, gpu=0, mem=0)
    net.add_node("B", cpu=0, gpu=0, mem=0)
    net.add_node("P", cpu=0, gpu=5, mem=0)
    net.add_link("l1", "A", "D", bw=1, delay=1.0, pdr=0.99)
    net.add_link("l2", "B", "D", bw=1, delay=2.0, pdr=0.99)
    net.add_link("l3", "P", "A", bw=1, delay=10.0, pdr=0.99)
    net.add_link("l4", "P", "B", bw=1, delay=sys.float_info.max, pdr=0.5)
    request = _pair_request(NanoService("s1", gpu=5), NanoService("s2", cpu=10),
                            max_delay=sys.float_info.max, min_pdr=1e-300)
    assert request.channels[0].max_cost == math.inf
    table = anypath_routes(prune(net, "D", 1), "D")
    assert "P" in settled_ids(table) and cost_by_id(table)["P"] == math.inf
    before = net.snapshot()
    with pytest.raises(NoFeasiblePathError):
        embed(net, request, Coefficients())
    assert net.snapshot() == before


@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_blocked_requests_keep_their_exception_and_message(monkeypatch, case):
    request, error, message = BLOCKED_CASES[case]
    net = _blocking_substrate()
    routes = _count_route_computations(monkeypatch)
    before = net.snapshot()
    with pytest.raises(EmbeddingError) as info:
        embed(net, request, Coefficients())
    assert type(info.value) is error
    assert str(info.value) == message
    assert net.snapshot() == before
    # a service that fits no node blocks before its channel's table is asked for
    assert len(routes) == (error is NoFeasiblePathError)


# --- eligible-link memo and substrate scans ----------------------------------

def _count_scans(monkeypatch) -> list:
    """Record the bandwidth of every eligible_links call that scans the links.

    eligible_links scans exactly when its memo has no entry for the bandwidth.
    """
    scans = []
    original = SubstrateNetwork.eligible_links

    def counting(net, bw):
        if bw not in net._eligible:
            scans.append(bw)
        return original(net, bw)

    monkeypatch.setattr(SubstrateNetwork, "eligible_links", counting)
    return scans


def _count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_chain_embed_computes_one_eligible_mask(monkeypatch):
    net, request = _complexity_instance(np.random.default_rng(601), 120)
    scans = _count_scans(monkeypatch)
    embedding = embed(net, request, Coefficients())
    assert len(embedding.channel_routes) == 12
    assert len(scans) == 1


def test_second_embed_on_a_fresh_clone_scans_no_link(monkeypatch):
    base, request = _complexity_instance(np.random.default_rng(601), 120)
    scans = _count_scans(monkeypatch)
    first = embed(base.clone(), request, Coefficients())
    assert len(scans) == 1
    second = embed(base.clone(), request, Coefficients())
    assert len(scans) == 1
    assert json.dumps(second.to_dict()) == json.dumps(first.to_dict())


def test_channel_after_a_link_reservation_gets_a_fresh_mask(monkeypatch):
    net = SubstrateNetwork()
    for nid, label in (("n1", "x"), ("n2", "y"), ("n3", "z")):
        net.add_node(nid, cpu=10, gpu=0, mem=0, functionals={label})
    net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=1.0)
    net.add_link("l2", "n1", "n3", bw=10, delay=5.0, pdr=1.0)
    net.add_link("l3", "n2", "n3", bw=10, delay=10.0, pdr=1.0)
    request = VirtualRequest("r")
    for sid, label in (("s1", "x"), ("s2", "y"), ("s3", "z")):
        request.add_service(NanoService(sid, functionals={label}))
    # both channels need 6; c1 leaves l1 with 4.  A stale memo would hand c2
    # the table over l1, whose route from n3 runs through l1
    request.add_channel(Channel("c1", "s2", "s1", bw=6, max_delay=100.0,
                                min_pdr=0.5))
    request.add_channel(Channel("c2", "s3", "s1", bw=6, max_delay=100.0,
                                min_pdr=0.5))
    scans = _count_scans(monkeypatch)
    embedding = embed(net, request, Coefficients())
    assert scans == [6, 6]
    assert embedding.channel_routes["c1"].links == {"l1"}
    assert embedding.channel_routes["c2"].links == {"l2"}


@pytest.mark.parametrize("bw, rescans", [(0, 0), (1, 1)])
def test_only_a_link_debit_gives_a_fresh_mask(monkeypatch, bw, rescans):
    net = SubstrateNetwork()
    net.add_node("n1", cpu=10, gpu=0, mem=0, functionals={"x"})
    net.add_node("n2", cpu=10, gpu=0, mem=0, functionals={"y"})
    net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=1.0)
    request = VirtualRequest("r")
    for sid, label in (("s1", "x"), ("s2", "y"), ("s3", "x")):
        request.add_service(NanoService(sid, functionals={label}))
    # both channels route over l1; a debit of 0 changes no link's eligibility
    for cid, src in (("c1", "s1"), ("c2", "s3")):
        request.add_channel(Channel(cid, src, "s2", bw=bw, max_delay=100.0,
                                    min_pdr=0.5))
    scans = _count_scans(monkeypatch)
    embedding = embed(net, request, Coefficients())
    assert {cid: route.links for cid, route in embedding.channel_routes.items()} \
        == {"c1": {"l1"}, "c2": {"l1"}}
    assert scans == [bw] * (1 + rescans)


@pytest.mark.parametrize("bw, blocker, rescans",
                         [(1, "path", 0), (0, "node", 0), (1, "node", 1)])
def test_only_undoing_a_link_debit_gives_a_fresh_mask(monkeypatch, bw, blocker,
                                                       rescans):
    net = SubstrateNetwork()
    net.add_node("n1", cpu=10, gpu=0, mem=0, functionals={"x"})
    net.add_node("n2", cpu=10, gpu=0, mem=0, functionals={"y"})
    net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=1.0)
    request = VirtualRequest("r")
    for sid, label in (("s1", "x"), ("s2", "y"), ("s3", "z")):
        request.add_service(NanoService(sid, functionals={label}))
    if blocker == "path":
        # no route costs as little as 1e-6: blocked with only s2 placed
        request.add_channel(Channel("c1", "s1", "s2", bw=bw, max_delay=1e-6,
                                    min_pdr=1.0))
    else:
        # c1 debits l1 by bw, then no node fits s3
        for cid, src in (("c1", "s1"), ("c2", "s3")):
            request.add_channel(Channel(cid, src, "s2", bw=bw, max_delay=100.0,
                                        min_pdr=0.5))
    scans = _count_scans(monkeypatch)
    for _ in range(2):
        with pytest.raises(EmbeddingError):
            embed(net, request, Coefficients())
    assert scans == [bw] * (1 + rescans)


def test_zero_demand_chain_on_1000_nodes_scans_no_substrate(monkeypatch):
    net, request = _complexity_instance(np.random.default_rng(602), 1000)
    checks = _count_calls(monkeypatch, embedder, "fits")
    embedding = embed(net, request, Coefficients())
    assert len(set(embedding.service_map.values())) == 1
    # one check for the first anchor, then two per channel: any node, the walk
    assert len(checks) == 1 + 2 * 12

"""The benchmark's output checks must reject corrupted embeddings and substrates.

    python3 -m pytest -q -p no:cacheprovider bench/test_checker.py
"""

import copy

import pytest

import run

run.load_library()

import checker  # noqa: E402
import tracer  # noqa: E402
from anypath_vne import anypath, embedder, netmodel  # noqa: E402
from anypath_vne.scenario import example_fixture  # noqa: E402


def _plain_links(net):
    return {lid: (l.a, l.b, l.delay, l.pdr) for lid, l in net.links.items()}


@pytest.fixture
def accepted():
    """The worked example embedded, as the checker sees it."""
    net, request, coeffs = example_fixture()
    before = net.snapshot()
    embedding = embedder.embed(net, request, coeffs)
    return {"net": net, "request": netmodel.request_to_dict(request),
            "embedding": embedding.to_dict(), "before": before,
            "links": _plain_links(net)}


def _problems(case, embedding=None, after=None):
    return checker.check_accepted(
        case["request"], embedding or case["embedding"], case["before"],
        after or case["net"].snapshot(), case["links"])


def test_correct_embedding_passes(accepted):
    assert _problems(accepted) == []
    assert checker.check_capacities(accepted["net"].snapshot()) == []


def test_recomputed_eatt_matches_both_route_orientations(accepted):
    # c1 is priced toward its destination, c2 toward its already placed source
    channels = {c["id"]: c for c in accepted["embedding"]["channels"]}
    links = accepted["links"]
    for cid, reverse in (("c1", False), ("c2", True)):
        route = channels[cid]
        arcs = {}
        for hyper in route["hyperlinks"]:
            for member in hyper["members"]:
                tail, head = hyper["transmitter"], member["node"]
                if reverse:
                    tail, head = head, tail
                arcs.setdefault(tail, []).append((head, member["link"]))
        origin, target = route["src_node"], route["dst_node"]
        if reverse:
            origin, target = target, origin
        assert checker.route_eatt(arcs, origin, target, links) \
            == pytest.approx(route["eatt"], rel=1e-12)


def test_rejects_eatt_above_bound(accepted):
    bad = copy.deepcopy(accepted["embedding"])
    bad["channels"][0]["eatt"] = 1e6
    assert any("exceeds bound" in p for p in _problems(accepted, bad))


def test_rejects_eatt_that_does_not_match_route(accepted):
    bad = copy.deepcopy(accepted["embedding"])
    bad["channels"][1]["eatt"] *= 0.5
    assert any("does not match" in p for p in _problems(accepted, bad))


def test_rejects_route_links_not_in_hyperlinks(accepted):
    bad = copy.deepcopy(accepted["embedding"])
    bad["channels"][0]["links"] = bad["channels"][0]["links"][1:]
    assert any("differ from its hyperlinks" in p for p in _problems(accepted, bad))


def test_rejects_wrong_placement(accepted):
    bad = copy.deepcopy(accepted["embedding"])
    bad["services"]["s3"] = "n2"
    problems = _problems(accepted, bad)
    assert any("endpoints differ" in p for p in problems)
    assert any("node n2: reserved" in p for p in problems)


def test_rejects_bandwidth_reserved_beyond_demand(accepted):
    accepted["net"].links["l6"].bw -= 1
    assert any("link l6: reserved bw" in p for p in _problems(accepted))


def test_rejects_node_resources_reserved_beyond_demand(accepted):
    accepted["net"].nodes["n2"].mem -= 3
    assert any("node n2: reserved" in p for p in _problems(accepted))


def test_rejects_blocked_request_that_changed_substrate():
    net, _, _ = example_fixture()
    before = net.snapshot()
    assert checker.check_blocked(before, net.snapshot()) == []
    net.links["l1"].bw -= 5
    assert checker.check_blocked(before, net.snapshot()) != []


def test_rejects_negative_capacity():
    net, _, _ = example_fixture()
    net.nodes["n3"].cpu = -1
    assert checker.check_capacities(net.snapshot()) == ["node n3: negative capacity (-1, 10, 10)"]


def test_tracer_counts_layers_and_restores_library():
    net, request, coeffs = example_fixture()
    original = anypath.anypath_routes
    trace = tracer.Tracer()
    seconds, embedding = trace.op(0, lambda: embedder.embed(net, request, coeffs))
    assert anypath.anypath_routes is original
    assert seconds > 0 and len(embedding.channel_routes) == 3
    values = {k: v["value"] for k, v in trace.metrics(1.0).items()}
    assert values["anypath.sweep.calls"] == 3
    assert values["anypath.unicast.calls"] == 3
    assert values["netmodel.reserve.calls"] == 6
    assert values["anypath.route.repeat_ratio"] == 0.0
    assert values["netmodel.natural_key.calls"] > 0
    # self times of all layers add up to the root span's duration
    assert trace.names[trace.span_name[0]] == "bench.op"
    assert (trace.span_parent[0], trace.span_op[0]) == (-1, 0)
    assert all(0 <= parent < i for i, parent in enumerate(trace.span_parent) if i)
    total_self = sum(self_s for _, self_s in trace.stats.values())
    root_s = trace.span_end[0] - trace.span_start[0]
    assert total_self == pytest.approx(root_s, rel=1e-9)

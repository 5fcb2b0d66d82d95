import math

import numpy as np
import pytest

from anypath_vne.embedder import Coefficients, Embedding, EmbeddingError, embed
from anypath_vne.metrics import cost, metrics_report, revenue
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SchemaError,
    SubstrateNetwork,
    VirtualRequest,
)
from anypath_vne.scenario import example_fixture
from anypath_vne.windowing import RequestOutcome, process_window

from helpers import random_request, random_substrate


@pytest.fixture
def example_window():
    net, request, coeffs = example_fixture()
    before = net.clone()
    outcomes = process_window(net, [request], coeffs)
    return before, net, outcomes, coeffs


def test_revenue_example(example_request):
    assert revenue(example_request, Coefficients()) == 310.0
    assert revenue(example_request, Coefficients(beta=3.0)) == 490.0


def test_revenue_empty_request():
    assert revenue(VirtualRequest("r"), Coefficients()) == 0.0


def test_cost_example(example_window):
    _, _, [result], _ = example_window
    assert result.accepted
    assert cost(result.request, result.embedding, Coefficients()) == 510.0


def test_cost_all_colocated_equals_node_term():
    net = SubstrateNetwork()
    net.add_node("n1", cpu=100, gpu=100, mem=100)
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=10))
    request.add_service(NanoService("s2", cpu=5))
    request.add_channel(Channel("c1", "s1", "s2", bw=3, max_delay=10.0,
                                min_pdr=0.5))
    embedding = embed(net, request, Coefficients())
    assert embedding.channel_routes["c1"].links == ()
    assert cost(request, embedding, Coefficients()) == 15.0


def test_ratios(example_net):
    outcomes = []
    for i in range(10):
        request = VirtualRequest(f"r{i}")
        outcomes.append(
            RequestOutcome(request, Embedding(request.id)) if i < 9
            else RequestOutcome(request, error=EmbeddingError("blocked")))
    report = metrics_report(example_net, example_net.clone(), outcomes,
                            Coefficients())
    assert report.acceptance_ratio == 0.9


def test_ratios_empty_window_raises(example_net):
    with pytest.raises(SchemaError) as info:
        metrics_report(example_net, example_net.clone(), [], Coefficients())
    assert info.value.field == "outcomes"


def test_ratios_example_window(example_window):
    report = metrics_report(*example_window)
    assert report.acceptance_ratio == 1.0


def test_report_adds_revenue_and_cost_left_to_right(example_net):
    # per-request revenues and costs 1e16, 1.0, 1.0: added from 0, left to
    # right, each 1.0 rounds away; a compensated sum would give 1e16 + 2
    outcomes = []
    for i, cpu in enumerate((10**16, 1, 1)):
        request = VirtualRequest(f"r{i}")
        request.add_service(NanoService("s1", cpu=cpu))
        outcomes.append(RequestOutcome(request, Embedding(request.id)))
    report = metrics_report(example_net, example_net.clone(), outcomes,
                            Coefficients())
    assert (report.revenue, report.cost) == (1e16, 1e16)
    assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2


def test_revenue_over_cost_example(example_window):
    before, after, outcomes, _ = example_window
    report = metrics_report(before, after, outcomes, Coefficients())
    assert report.revenue == 310.0
    assert report.cost == 510.0
    assert report.rc_ratio == report.revenue / report.cost
    assert report.rc_ratio == pytest.approx(310 / 510, abs=1e-9)


def test_single_link_routes_give_unit_ratio():
    net = SubstrateNetwork()
    net.add_node("n1", cpu=50, gpu=0, mem=0)
    net.add_node("n2", cpu=0, gpu=0, mem=50)
    net.add_link("l1", "n1", "n2", bw=100, delay=5.0, pdr=0.9)
    request = VirtualRequest("r")
    request.add_service(NanoService("s1", cpu=20))
    request.add_service(NanoService("s2", mem=20))
    request.add_channel(Channel("c1", "s1", "s2", bw=10, max_delay=100.0,
                                min_pdr=0.5))
    coeffs = Coefficients(beta=2.0, cost_beta=2.0)
    before = net.clone()
    outcomes = process_window(net, [request], coeffs)
    [result] = outcomes
    assert result.accepted
    assert len(result.embedding.channel_routes["c1"].links) == 1
    assert metrics_report(before, net, outcomes, coeffs).rc_ratio \
        == pytest.approx(1.0)


def test_report_usage_example(example_window):
    report = metrics_report(*example_window)
    nodes = {row.node: row for row in report.node_usage}
    links = {row.link: row for row in report.link_usage}
    assert nodes["n1"].services == 1
    assert (nodes["n1"].cpu_used, nodes["n1"].cpu_total) == (50, 50)
    assert (nodes["n4"].services, nodes["n4"].cpu_used, nodes["n4"].gpu_used,
            nodes["n4"].mem_used) == (1, 10, 30, 20)
    assert (nodes["n4"].cpu_total, nodes["n4"].gpu_total,
            nodes["n4"].mem_total) == (10, 30, 30)
    assert (links["l2"].bw_used, links["l2"].bw_total) == (80, 80)
    assert (links["l6"].bw_used, links["l6"].bw_total) == (10, 100)
    assert links["l2"].channels == 2    # c1 and c2 both cross l2
    assert links["l6"].channels == 1


def test_report_topology_mismatch(example_window):
    before, _, outcomes, coeffs = example_window
    other = before.clone()
    other.add_node("extra", 1, 1, 1)
    with pytest.raises(SchemaError) as info:
        metrics_report(before, other, outcomes, coeffs)
    assert info.value.field == "after"
    other = before.clone()
    other.add_link("extra", "n1", "n5", bw=1, delay=1.0, pdr=0.5)
    with pytest.raises(SchemaError) as info:
        metrics_report(before, other, outcomes, coeffs)
    assert info.value.field == "after"


def test_report_checks_the_window_before_the_topology(example_net):
    other = example_net.clone()
    other.add_node("extra", 1, 1, 1)
    with pytest.raises(SchemaError) as info:
        metrics_report(example_net, other, [], Coefficients())
    assert info.value.field == "outcomes"


def test_usage_conserves_demand():
    # the reservation ledgers of the accepted embeddings are an oracle for
    # usage that does not read the before/after capacity deltas
    rng = np.random.default_rng(405)
    coeffs = Coefficients(beta=2.0, gamma=50.0)
    accepted = 0
    for _ in range(300):
        net = random_substrate(rng, max_nodes=5)
        requests = [random_request(rng, max_services=3)
                    for _ in range(int(rng.integers(1, 4)))]
        for i, request in enumerate(requests):
            request.id = f"r{i + 1}"
        before = net.clone()
        outcomes = process_window(net, requests, coeffs)
        report = metrics_report(before, net, outcomes, coeffs)
        hosted = {nid: [0, 0, 0, 0] for nid in net.nodes}
        routed = {lid: [0, 0] for lid in net.links}
        for result in (r for r in outcomes if r.accepted):
            for kind, rid, *amounts in result.embedding.ledger:
                counts = hosted[rid] if kind == "node" else routed[rid]
                counts[0] += 1
                for k, amount in enumerate(amounts, 1):
                    counts[k] += amount
            accepted += 1
        assert {row.node: [row.services, row.cpu_used, row.gpu_used, row.mem_used]
                for row in report.node_usage} == hosted
        assert {row.link: [row.channels, row.bw_used]
                for row in report.link_usage} == routed
    assert accepted >= 200   # the corpus stays meaningful


def test_metrics_report_example(example_window):
    before, after, outcomes, coeffs = example_window
    report = metrics_report(before, after, outcomes, coeffs)
    assert report.acceptance_ratio == 1.0
    assert report.revenue == 310.0
    assert report.cost == 510.0
    assert report.rc_ratio == pytest.approx(310 / 510)


def test_metrics_report_nan_ratio_when_nothing_accepted(example):
    net, request, coeffs = example
    request.services["s1"] = NanoService("s1", cpu=10_000)
    before = net.clone()
    outcomes = process_window(net, [request], coeffs)
    report = metrics_report(before, net, outcomes, coeffs)
    assert report.acceptance_ratio == 0.0
    assert math.isnan(report.rc_ratio)
    assert all(row.services == 0 and row.cpu_used == 0 for row in report.node_usage)
    assert all(row.channels == 0 and row.bw_used == 0 for row in report.link_usage)


def test_cost_monotone_in_route_links(example_window):
    # lengthening any route strictly raises the cost term
    _, _, [result], _ = example_window
    assert result.accepted
    base = cost(result.request, result.embedding, Coefficients())
    route = result.embedding.channel_routes["c2"]
    route.links += ("l6",)
    assert cost(result.request, result.embedding, Coefficients()) > base

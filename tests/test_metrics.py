import math

import pytest

from anypath_vne.embedder import Coefficients, embed
from anypath_vne.metrics import (
    EmptyWindowError,
    TopologyMismatchError,
    cost,
    embedding_cost,
    embedding_revenue,
    metrics_report,
    ratios,
    revenue,
    usage_report,
)
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SubstrateNetwork,
    VirtualRequest,
)
from anypath_vne.scenario import example_fixture
from anypath_vne.windowing import WindowOutcome, process_window


@pytest.fixture
def example_window():
    net, request, coeffs = example_fixture()
    before = net.clone()
    outcome = process_window(net, [request], coeffs)
    return before, net, outcome, coeffs


def test_revenue_example(example_request):
    assert revenue(example_request, Coefficients()) == 310.0
    assert revenue(example_request, Coefficients(beta=3.0)) == 490.0


def test_revenue_empty_request():
    assert revenue(VirtualRequest("r"), Coefficients()) == 0.0


def test_cost_example(example_window):
    _, _, outcome, _ = example_window
    result = outcome.accepted[0]
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
    assert embedding.channel_routes["c1"].links == frozenset()
    assert cost(request, embedding, Coefficients()) == 15.0


def test_ratios():
    outcome = WindowOutcome()
    for accepted in [True] * 9 + [False]:
        outcome.results.append(type("R", (), {"accepted": accepted})())
    assert ratios(outcome) == (0.9, pytest.approx(0.1))


def test_ratios_empty_window_raises():
    with pytest.raises(EmptyWindowError):
        ratios(WindowOutcome())


def test_ratios_example_window(example_window):
    _, _, outcome, _ = example_window
    assert ratios(outcome) == (1.0, 0.0)


def test_revenue_over_cost_example(example_window):
    _, _, outcome, _ = example_window
    plain = Coefficients()
    assert embedding_revenue(outcome, plain) == 310.0
    assert embedding_cost(outcome, plain) == 510.0
    assert embedding_revenue(outcome, plain) / embedding_cost(outcome, plain) \
        == pytest.approx(310 / 510, abs=1e-9)


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
    outcome = process_window(net, [request], coeffs)
    assert len(outcome.accepted) == 1
    assert len(outcome.accepted[0].embedding.channel_routes["c1"].links) == 1
    assert embedding_revenue(outcome, coeffs) / embedding_cost(outcome, coeffs) \
        == pytest.approx(1.0)


def test_usage_report_example(example_window):
    before, after, outcome, _ = example_window
    node_rows, link_rows = usage_report(before, after, outcome)
    nodes = {row.node: row for row in node_rows}
    links = {row.link: row for row in link_rows}
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


def test_usage_report_empty_window(example_net):
    node_rows, link_rows = usage_report(example_net, example_net.clone(),
                                        WindowOutcome())
    assert all(row.services == 0 and row.cpu_used == 0 for row in node_rows)
    assert all(row.channels == 0 and row.bw_used == 0 for row in link_rows)


def test_usage_report_topology_mismatch(example_net):
    other = example_net.clone()
    other.add_node("extra", 1, 1, 1)
    with pytest.raises(TopologyMismatchError):
        usage_report(example_net, other, WindowOutcome())


def test_usage_conserves_demand(example_window):
    before, after, outcome, _ = example_window
    node_rows, _ = usage_report(before, after, outcome)
    total_cpu_used = sum(row.cpu_used for row in node_rows)
    demanded = sum(s.cpu for r in outcome.accepted
                   for s in r.request.services.values())
    assert total_cpu_used == demanded


def test_metrics_report_example(example_window):
    before, after, outcome, coeffs = example_window
    report = metrics_report(before, after, outcome, coeffs)
    assert report.acceptance_ratio + report.blocking_ratio == 1.0
    assert report.revenue == 310.0
    assert report.cost == 510.0
    assert report.rc_ratio == pytest.approx(310 / 510)


def test_metrics_report_nan_ratio_when_nothing_accepted(example):
    net, request, coeffs = example
    request.services["s1"] = NanoService("s1", cpu=10_000)
    before = net.clone()
    outcome = process_window(net, [request], coeffs)
    report = metrics_report(before, net, outcome, coeffs)
    assert report.acceptance_ratio == 0.0
    assert math.isnan(report.rc_ratio)


def test_cost_monotone_in_route_links(example_window):
    # lengthening any route strictly raises the cost term
    _, _, outcome, _ = example_window
    result = outcome.accepted[0]
    base = cost(result.request, result.embedding, Coefficients())
    route = result.embedding.channel_routes["c2"]
    route.links = frozenset(route.links | {"l6"})
    assert cost(result.request, result.embedding, Coefficients()) > base

import dataclasses
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne.embedder import (
    Coefficients,
    Embedding,
    NoFeasiblePathError,
    NoSuitableNodeError,
    embed,
    pair_quality_revenue,
)
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SchemaError,
    SubstrateNetwork,
    VirtualRequest,
    request_from_dict,
    request_to_dict,
    substrate_from_dict,
    substrate_to_dict,
)
from anypath_vne.windowing import (
    RequestOutcome,
    process_window,
    rank_window,
    ranking_keys,
    request_quality_revenue,
)

from helpers import random_request, random_substrate


def test_request_quality_revenue_example(example_request, example_coeffs):
    value = request_quality_revenue(example_request, example_coeffs)
    assert value == pytest.approx(346.333333, abs=1e-4)


def test_request_quality_revenue_without_channels(example_request, example_coeffs):
    example_request.channels.clear()
    assert request_quality_revenue(example_request, example_coeffs) == 220.0


def test_request_quality_revenue_zero_gamma_equals_revenue(example_request):
    coeffs = Coefficients(gamma=0.0)
    assert request_quality_revenue(example_request, coeffs) == 310.0


def test_request_quality_revenue_adds_quality_terms_left_to_right():
    # quality terms 1e16, 1.0, 1.0: a left fold rounds each 1.0 away, while a
    # compensated sum (the builtin sum of floats since Python 3.12) keeps them
    request = VirtualRequest("r")
    request.add_service(NanoService("s1"))
    request.add_service(NanoService("s2"))
    for cid, max_delay in (("c1", 1e-16), ("c2", 1.0), ("c3", 1.0)):
        request.add_channel(Channel(cid, "s1", "s2", bw=0, max_delay=max_delay,
                                    min_pdr=1.0))
    terms = [c.min_pdr / c.max_delay for c in request.channels]
    assert terms == [1e16, 1.0, 1.0]
    assert math.fsum(terms) == 1.0000000000000002e16
    assert request_quality_revenue(request, Coefficients(gamma=1.0)) == 1e16


_weight = st.floats(-1e6, 1e6)
_demand = st.integers(0, 1000)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_weight, _weight, _weight), _weight, _weight,
       st.tuples(_demand, _demand, _demand), st.tuples(_demand, _demand, _demand),
       st.integers(0, 1000), st.floats(1e-3, 1e6), st.floats(1e-3, 1.0),
       st.booleans())
def test_a_channel_pair_scores_as_the_request_of_that_pair(
        alpha, beta, gamma, src, dst, bw, max_delay, min_pdr, dst_first):
    coeffs = Coefficients(alpha=alpha, beta=beta, gamma=gamma)
    request = VirtualRequest("r")
    services = [NanoService("s1", *src), NanoService("s2", *dst)]
    for service in reversed(services) if dst_first else services:
        request.add_service(service)
    channel = request.add_channel(Channel("c1", "s1", "s2", bw=bw,
                                          max_delay=max_delay, min_pdr=min_pdr))
    assert pair_quality_revenue(channel, request, coeffs) \
        == request_quality_revenue(request, coeffs)


def test_single_request_window_accepted(example):
    net, request, coeffs = example
    outcomes = process_window(net, [request], coeffs)
    assert [result.accepted for result in outcomes] == [True]


def test_second_identical_request_is_blocked(example):
    net, request, coeffs = example
    import copy
    twin = copy.deepcopy(request)
    twin.id = "twin"
    outcomes = process_window(net, [request, twin], coeffs)
    assert [(r.request.id, r.accepted) for r in outcomes] \
        == [("example", True), ("twin", False)]
    # the GPU-heavy service can no longer be placed anywhere
    assert "s2" in str(outcomes[1].error)


def test_blocked_outcomes_keep_the_typed_cause(example):
    net, request, coeffs = example
    no_node = VirtualRequest("no_node")
    no_node.add_service(NanoService("s1", cpu=10_000))
    no_path = VirtualRequest("no_path")
    # only n1 fits s1 and only n4 fits s2, and no route between them costs
    # as little as 1e-6; the quality term ranks this request first
    no_path.add_service(NanoService("s1", cpu=30))
    no_path.add_service(dataclasses.replace(request.services["s2"]))
    no_path.add_channel(Channel("c1", "s1", "s2", bw=1, max_delay=1e-6,
                                min_pdr=1.0))
    outcomes = process_window(net, [no_node, request, no_path], coeffs)
    accepted = [r for r in outcomes if r.accepted]
    blocked = [r for r in outcomes if not r.accepted]
    assert [r.request.id for r in accepted] == ["example"]
    assert accepted[0].error is None
    assert accepted[0].embedding is not None
    causes = {r.request.id: r.error for r in blocked}
    assert type(causes["no_node"]) is NoSuitableNodeError
    assert causes["no_node"].service_id == "s1"
    assert type(causes["no_path"]) is NoFeasiblePathError
    assert causes["no_path"].channel_id == "c1"
    for result in blocked:
        assert result.embedding is None
        assert result.error.__traceback__ is None
    assert str(blocked[0].error) in ("no suitable node for service s1",
                                             "no feasible route for channel c1")


@pytest.mark.parametrize("both", [False, True])
def test_request_outcome_holds_exactly_one_of_embedding_and_error(both):
    # with neither, the outcome would count as accepted with no embedding
    request = VirtualRequest("r")
    kwargs = {"embedding": Embedding("r"), "error": NoSuitableNodeError("s1")} \
        if both else {}
    with pytest.raises(SchemaError) as info:
        RequestOutcome(request, **kwargs)
    assert info.value.field == "embedding"


def test_empty_window(example):
    net, _, coeffs = example
    before = net.snapshot()
    assert process_window(net, [], coeffs) == []
    assert net.snapshot() == before


def test_window_orders_by_quality_revenue():
    rng = np.random.default_rng(7)
    net = random_substrate(rng, max_nodes=6)
    coeffs = Coefficients(beta=3.0, gamma=100.0)
    requests = []
    for i in range(6):
        request = random_request(rng)
        request.id = f"r{i + 1}"
        requests.append(request)
    processed = [r.request.id for r in process_window(net, requests, coeffs)]
    expected = [r.id for r in sorted(
        requests, key=lambda r: -request_quality_revenue(r, coeffs))]
    assert processed == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ratios_partition_and_replay_equivalence(seed):
    rng = np.random.default_rng(seed)
    net = random_substrate(rng, max_nodes=5)
    coeffs = Coefficients()
    requests = []
    for i in range(int(rng.integers(1, 5))):
        request = random_request(rng)
        request.id = f"r{i + 1}"
        requests.append(request)
    replay_net = net.clone()
    outcomes = process_window(net, requests, coeffs)
    assert sorted(r.request.id for r in outcomes) == sorted(r.id for r in requests)
    for result in outcomes:
        assert result.accepted == (result.embedding is not None) \
            == (result.error is None)
    # replaying only the accepted requests in processed order gives the same state
    for result in outcomes:
        if result.accepted:
            embed(replay_net, result.request, coeffs)
    assert replay_net.snapshot() == net.snapshot()


def _doubled(net, requests, coeffs):
    """Copies with every link delay, channel max_delay and gamma doubled."""
    doc = substrate_to_dict(net)
    for link in doc["links"]:
        link["delay"] *= 2
    scaled = []
    for request in requests:
        request_doc = request_to_dict(request)
        for channel in request_doc["channels"]:
            channel["max_delay"] *= 2
        scaled.append(request_from_dict(request_doc))
    return (substrate_from_dict(doc), scaled,
            dataclasses.replace(coeffs, gamma=2 * coeffs.gamma))


def _shape(route):
    """Everything of a route's JSON except its eatt."""
    doc = route.to_dict()
    del doc["eatt"]
    return doc


def test_doubling_every_delay_doubles_every_eatt_and_changes_nothing_else():
    # scaling by 2 is exact in IEEE arithmetic, so every cost, comparison and
    # tie of the routing is preserved and every realized eatt doubles exactly
    rng = np.random.default_rng(20246)
    coeffs = Coefficients(beta=2.0, gamma=100.0)
    accepted = 0
    for _ in range(300):
        net = random_substrate(rng, max_nodes=10)
        requests = [random_request(rng) for _ in range(4)]
        for i, request in enumerate(requests):
            request.id = f"r{i}"
        net2, requests2, coeffs2 = _doubled(net, requests, coeffs)
        first = process_window(net, requests, coeffs)
        second = process_window(net2, requests2, coeffs2)
        assert [(r.request.id, r.accepted, str(r.error)) for r in first] \
            == [(r.request.id, r.accepted, str(r.error)) for r in second]
        assert net.snapshot() == net2.snapshot()
        for one, two in zip(first, second):
            if not one.accepted:
                continue
            assert one.embedding.service_map == two.embedding.service_map
            routes = one.embedding.channel_routes
            assert routes.keys() == two.embedding.channel_routes.keys()
            for cid, route in routes.items():
                twin = two.embedding.channel_routes[cid]
                assert _shape(twin) == _shape(route)
                assert twin.eatt == 2 * route.eatt
            accepted += 1
    assert accepted >= 600


_HUGE = sys.float_info.max


@pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (_HUGE, -_HUGE, 0.0)])
def test_one_scoring_of_a_pool_ranks_each_prefix_as_process_window(alpha):
    # 100 requests on a few values tie often; with the huge weights their
    # revenue is also inf, -inf or NaN.  The pool is longer than 64, so the
    # sort merges runs, where NaN keys make the ranked pool, filtered to a
    # prefix, differ from that prefix ranked alone
    rng = random.Random(3)
    pool = []
    for i in range(100):
        request = VirtualRequest(f"r{i + 1}")
        request.add_service(NanoService("s1", cpu=rng.choice((0, 1, 2)),
                                        gpu=rng.choice((0, 2))))
        pool.append(request)
    coeffs = Coefficients(alpha=alpha)
    keys = ranking_keys(pool, coeffs)
    assert len(set(map(repr, keys))) < 10
    net = SubstrateNetwork()
    net.add_node("n1", cpu=0, gpu=0, mem=0)
    whole = rank_window(pool, keys)
    filtered = 0
    for load in range(1, len(pool) + 1):
        expected = [r.request for r in process_window(net.clone(), pool[:load], coeffs)]
        assert rank_window(pool[:load], keys) == expected
        filtered += [r for r in whole if int(r.id[1:]) <= load] != expected
    assert (filtered > 0) == any(map(math.isnan, keys))

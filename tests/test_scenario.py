import dataclasses
import math

import numpy as np
import pytest

from anypath_vne.metrics import metrics_report
from anypath_vne.netmodel import SchemaError, request_to_dict, validate_substrate
from anypath_vne.scenario import (
    MAX_ITERATIONS,
    GeneratorConfig,
    SimulationConfig,
    _mean_std,
    example_fixture,
    generate_request,
    iteration_pool,
    iteration_streams,
    run_simulation,
    simulation_substrate,
)
from anypath_vne.windowing import process_window


def test_example_fixture_tables():
    net, request, coeffs = example_fixture()
    assert validate_substrate(net) == []
    assert net.nodes["n1"].available() == (50, 20, 30)
    assert net.nodes["n4"].available() == (10, 30, 30)
    l5 = net.links["l5"]
    assert (l5.delay, l5.pdr, l5.bw) == (20.0, 0.75, 100)
    assert {l.id: l.endpoints() for l in net.links.values()} == {
        "l1": frozenset({"n1", "n2"}), "l2": frozenset({"n1", "n3"}),
        "l3": frozenset({"n2", "n4"}), "l4": frozenset({"n3", "n4"}),
        "l5": frozenset({"n3", "n5"}), "l6": frozenset({"n4", "n5"}),
    }
    c1 = request.channels[0]
    assert (c1.src, c1.dst) == ("s1", "s2")
    assert (c1.max_delay, c1.min_pdr, c1.bw) == (20.0, 0.6, 50)
    assert [(c.src, c.dst) for c in request.channels] \
        == [("s1", "s2"), ("s1", "s3"), ("s2", "s3")]
    assert coeffs.gamma == 500.0
    assert coeffs.alpha == (1.0, 1.0, 1.0) and coeffs.beta == 1.0


def test_simulation_substrate_tables():
    net = simulation_substrate()
    assert validate_substrate(net) == []
    assert len(net.nodes) == 10
    assert len(net.links) == 20
    assert net.nodes["n4"].available() == (136, 45, 81)
    l12 = net.links["l12"]
    assert l12.endpoints() == frozenset({"n4", "n7"})
    assert (l12.bw, l12.delay, l12.pdr) == (52, 1.0, 0.94)
    assert net.nodes["n10"].available() == (132, 36, 100)
    assert net.links["l20"].endpoints() == frozenset({"n9", "n10"})


def test_generate_request_deterministic():
    cfg = GeneratorConfig()
    first = generate_request(np.random.default_rng(123), cfg, "r1")
    second = generate_request(np.random.default_rng(123), cfg, "r1")
    assert request_to_dict(first) == request_to_dict(second)


def test_generate_request_every_service_has_a_channel():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(5)
    for _ in range(300):
        request = generate_request(rng, cfg)
        touched = {end for c in request.channels for end in (c.src, c.dst)}
        assert touched == set(request.services)


def test_generate_request_ranges_and_statistics():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(42)
    service_counts = []
    gpu_flags = []
    for _ in range(10_000):
        request = generate_request(rng, cfg)
        service_counts.append(len(request.services))
        for service in request.services.values():
            gpu_flags.append(service.gpu > 0)
            assert 1 <= service.cpu <= 10
            assert 1 <= service.mem <= 5
            assert service.gpu == 0 or 1 <= service.gpu <= 10
        for channel in request.channels:
            assert 1 <= channel.bw <= 10
            assert 10 <= channel.max_delay <= 50
            assert channel.max_delay == int(channel.max_delay)
            assert 0.5 < channel.min_pdr < 1.0
    assert np.mean(service_counts) == pytest.approx(4.5, abs=0.1)
    assert np.mean(gpu_flags) == pytest.approx(0.25, abs=0.02)


def test_generate_request_ordered_pair_flag_doubles_density():
    rng = np.random.default_rng(9)
    unordered = GeneratorConfig()
    ordered = GeneratorConfig(ordered_pairs=True)
    count_u = np.mean([len(generate_request(rng, unordered).channels)
                       for _ in range(2000)])
    count_o = np.mean([len(generate_request(rng, ordered).channels)
                       for _ in range(2000)])
    assert count_o > count_u


def test_simulation_config_validation():
    for iterations in (0, MAX_ITERATIONS + 1, 10**21):
        with pytest.raises(SchemaError) as info:
            SimulationConfig(iterations=iterations)
        assert info.value.field == "iterations"
    SimulationConfig(iterations=MAX_ITERATIONS)
    cases = [({"loads": loads}, "loads")
             for loads in [(), (0, 10), (10, -5), (2.5,), (10, 10_001)]]
    cases += [({"seed": -1}, "seed"), ({"substrate": "nope"}, "substrate")]
    for kwargs, field in cases:
        with pytest.raises(SchemaError) as info:
            SimulationConfig(**kwargs)
        assert info.value.field == field, kwargs
    # a range whose minimum exceeds its maximum names the maximum
    for bad, field in [({"services_min": 1}, "services_min"),
                       ({"services_max": 1}, "services_max"),
                       ({"cpu_min": 3, "cpu_max": 2}, "cpu_max"),
                       ({"delay_min": 60}, "delay_max"),
                       ({"cpu_min": -5, "cpu_max": -1}, "cpu_min"),
                       ({"delay_min": 0}, "delay_min"), ({"pdr_lo": 0.0}, "pdr_lo"),
                       ({"pdr_lo": 0.9, "pdr_hi": 0.8}, "pdr_hi"),
                       ({"pdr_hi": 1.5}, "pdr_hi"), ({"gpu_prob": -0.1}, "gpu_prob"),
                       ({"channel_prob": 2.0}, "channel_prob"),
                       ({"services_max": 101}, "services_max"),
                       ({"delay_max": 10**30}, "delay_max"),
                       ({"bw_max": 10**6 + 1}, "bw_max"),
                       ({"cpu_max": 1.5}, "cpu_max"), ({"delay_max": math.inf}, "delay_max"),
                       ({"mem_min": True}, "mem_min"),
                       ({"ordered_pairs": "yes"}, "ordered_pairs"),
                       ({"ordered_pairs": 1}, "ordered_pairs")]:
        with pytest.raises(SchemaError) as info:
            GeneratorConfig(**bad)
        assert info.value.field == field, bad
    # the bounds themselves are accepted
    GeneratorConfig(services_min=2, services_max=100, delay_min=1, delay_max=10**6,
                    cpu_min=0, pdr_lo=1, pdr_hi=1, gpu_prob=0, channel_prob=1)
    SimulationConfig(loads=(1, 10_000), seed=0, substrate="example")


# junk for each field: a string, a bool, a float, NaN, None, a list and
# 10**30; where one of them is valid (a bool for ordered_pairs, 10**30 for
# seed), another junk value of that kind takes its place
_INT_JUNK = ["3", True, 2.5, 2.0, math.nan, None, [3], 10**30]
_REAL_JUNK = ["0.5", True, math.nan, math.inf, None, [0.5], 10**30]
_FIELD_JUNK = {
    **{f.name: _INT_JUNK for f in dataclasses.fields(GeneratorConfig)
       if f.name.endswith(("_min", "_max"))},
    **{name: _REAL_JUNK for name in ("gpu_prob", "channel_prob", "pdr_lo", "pdr_hi")},
    "ordered_pairs": ["yes", 1, 0.0, math.nan, None, [True], 10**30],
    "substrate": ["nope", True, 1.5, math.nan, None, ["simulation"], 10**30],
    "loads": ["10", True, 1.5, math.nan, None, [10], 10**30, (),
              ("10",), (True,), (1.5,), (math.nan,), (None,), ([10],), (10**30,)],
    "iterations": _INT_JUNK,
    # any non-negative integer seeds a SeedSequence, so 10**30 is valid
    "seed": ["3", True, 2.5, math.nan, None, [3], -10**30],
    "coefficients": ["x", True, 1.5, math.nan, None, [1.0], 10**30, {}],
    "generator": ["x", True, 1.5, math.nan, None, [2], 10**30, {}],
}
_JUNK_CASES = [(config, name, value)
               for config in (GeneratorConfig, SimulationConfig)
               for name in (f.name for f in dataclasses.fields(config))
               for value in _FIELD_JUNK[name]]


@pytest.mark.parametrize("config, name, value", _JUNK_CASES,
                         ids=[f"{c.__name__}.{n}={v!r:.12}" for c, n, v in _JUNK_CASES])
def test_config_junk_raises_schema_error_naming_the_field(config, name, value):
    with pytest.raises(SchemaError) as info:
        config(**{name: value})
    assert type(info.value) is SchemaError
    assert info.value.field == name


def test_every_config_field_has_junk_cases():
    names = {f.name for config in (GeneratorConfig, SimulationConfig)
             for f in dataclasses.fields(config)}
    assert names == set(_FIELD_JUNK)


def test_run_simulation_deterministic_and_shaped():
    cfg = SimulationConfig(iterations=4, loads=(5, 10), seed=77)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert len(first.raw_rows) == 8
    assert [vars(a) for a in first.raw_rows] == [vars(b) for b in second.raw_rows]
    assert [vars(a) for a in first.summaries] == [vars(b) for b in second.summaries]
    assert {u.load for u in first.usage} == {5, 10}
    assert len(first.usage[0].node_rows) == 10
    assert len(first.usage[0].link_rows) == 20


def test_iteration_pool_is_a_prefix_of_any_longer_pool():
    # requests are drawn in sequence, so a longer pool only appends requests
    short = SimulationConfig(iterations=2, loads=(3,), seed=5)
    long = SimulationConfig(iterations=2, loads=(3, 200), seed=5)
    short_pool, long_pool = (iteration_pool(cfg, iteration_streams(cfg)[1])
                             for cfg in (short, long))
    assert len(short_pool) == 3 and len(long_pool) == 200
    assert [request_to_dict(r) for r in long_pool[:3]] \
        == [request_to_dict(r) for r in short_pool]


def test_run_simulation_rows_reproducible_from_pool_prefix():
    # the published row for (iteration, load) must equal an independent
    # replay of that iteration's pool prefix on a fresh substrate
    cfg = SimulationConfig(iterations=3, loads=(4, 8), seed=11)
    results = run_simulation(cfg)
    streams = iteration_streams(cfg)
    target = next(r for r in results.raw_rows
                  if r.iteration == 2 and r.load == 4)
    pool = iteration_pool(cfg, streams[2])
    base = simulation_substrate()
    net = base.clone()
    outcome = process_window(net, pool[:4], cfg.coefficients)
    report = metrics_report(base, net, outcome, cfg.coefficients)
    assert report.acceptance_ratio == target.acceptance_ratio
    assert report.revenue == target.revenue
    assert report.cost == target.cost


def test_run_simulation_loads_use_fresh_substrates():
    # a heavier load never lowers the revenue of the same iteration's lighter
    # load; reservations must not leak between load levels
    cfg = SimulationConfig(iterations=2, loads=(3, 6), seed=3)
    results = run_simulation(cfg)
    for iteration in (0, 1):
        rows = {r.load: r for r in results.raw_rows if r.iteration == iteration}
        assert rows[6].revenue >= rows[3].revenue


def test_run_simulation_aggregates_like_the_per_window_reports():
    # reference: every window's report is kept, each usage cell averaged with
    # np.mean and each metric with _mean_std; a repeated load is aggregated
    # over all of its windows, once per repeat
    cfg = SimulationConfig(iterations=5, loads=(6, 12, 6), seed=13,
                           generator=GeneratorConfig(bw_min=0, channel_prob=0.6))
    results = run_simulation(cfg)
    base = simulation_substrate()
    reports = {load: [] for load in cfg.loads}
    for stream in iteration_streams(cfg):
        pool = iteration_pool(cfg, stream)
        for load in cfg.loads:
            net = base.clone()
            outcome = process_window(net, pool[:load], cfg.coefficients)
            reports[load].append(metrics_report(base, net, outcome, cfg.coefficients))
    assert [s.load for s in results.summaries] == [u.load for u in results.usage] \
        == list(cfg.loads)
    for summary, usage in zip(results.summaries, results.usage):
        rows = reports[summary.load]
        for name, prefix in [("acceptance_ratio", "acceptance"), ("revenue", "revenue"),
                             ("cost", "cost"), ("rc_ratio", "rc")]:
            expected = _mean_std([getattr(r, name) for r in rows])
            found = (getattr(summary, f"{prefix}_mean"), getattr(summary, f"{prefix}_std"))
            assert repr(found) == repr(expected)
        for i, row in enumerate(usage.node_rows):
            cells = [r.node_usage[i] for r in rows]
            assert row.node == cells[0].node
            for name in ("services", "cpu_used", "gpu_used", "mem_used"):
                assert getattr(row, name) == float(np.mean([getattr(c, name) for c in cells]))
            assert (row.cpu_total, row.gpu_total, row.mem_total) \
                == (cells[0].cpu_total, cells[0].gpu_total, cells[0].mem_total)
        for i, row in enumerate(usage.link_rows):
            cells = [r.link_usage[i] for r in rows]
            assert (row.link, row.bw_total) == (cells[0].link, cells[0].bw_total)
            for name in ("channels", "bw_used"):
                assert getattr(row, name) == float(np.mean([getattr(c, name) for c in cells]))

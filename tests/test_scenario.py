import csv
import dataclasses
import math

import numpy as np
import pytest

from anypath_vne.cli import write_results
from anypath_vne.embedder import Coefficients
from anypath_vne.metrics import metrics_report
from anypath_vne.netmodel import (
    Channel,
    NanoService,
    SchemaError,
    SubstrateLink,
    SubstrateNode,
    request_from_dict,
    request_to_dict,
    substrate_from_dict,
    validate_substrate,
)
from anypath_vne.scenario import (
    MAX_ITERATIONS,
    GeneratorConfig,
    RawRow,
    SimulationConfig,
    _mean_std,
    _PCG64Draws,
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
    assert {l.id: frozenset((l.a, l.b)) for l in net.links.values()} == {
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
    assert {l12.a, l12.b} == {"n4", "n7"}
    assert (l12.bw, l12.delay, l12.pdr) == (52, 1.0, 0.94)
    assert net.nodes["n10"].available() == (132, 36, 100)
    l20 = net.links["l20"]
    assert {l20.a, l20.b} == {"n9", "n10"}


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


def test_simulation_config_refuses_a_repeated_load():
    # a repeated load would score every window of that load twice
    for loads in [(40, 40), (10, 20, 10)]:
        with pytest.raises(SchemaError) as info:
            SimulationConfig(loads=loads, iterations=4)
        assert info.value.field == "loads", loads
        assert "each load appears once" in str(info.value)
    SimulationConfig(loads=(40, 10), iterations=4)


# junk for each field: a string, a bool, a float, NaN, None, a list and
# 10**30; where one of them is valid (a bool for ordered_pairs, 10**30 for
# seed or a weight), another junk value of that kind takes its place
_INT_JUNK = ["3", True, 2.5, 2.0, math.nan, None, [3], 10**30]
_REAL_JUNK = ["0.5", True, math.nan, math.inf, None, [0.5], 10**30]
# a weight is any finite number that fits a float
_WEIGHT_JUNK = ["0.5", True, math.nan, -math.inf, None, [0.5], 10**400]
# an alpha is a (cpu, gpu, mem) tuple, not one number or a list
_TRIPLE_JUNK = ["1", True, 1.5, math.nan, None, [1.0, 1.0, 1.0], 10**30, (1.0, 1.0)]
# junk for every number of a model class; 10**400 does not fit a float
_NUMBER_JUNK = ["x", None, True, math.nan, math.inf, -math.inf, [1], 10**400]
_COUNT_JUNK = _NUMBER_JUNK + [-1, 2.0, 2.5]
_DELAY_JUNK = _NUMBER_JUNK + [0, 0.0, -1.0]
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
    **{name: _WEIGHT_JUNK for name in ("beta", "cost_beta", "gamma")},
    **{name: _TRIPLE_JUNK for name in ("alpha", "cost_alpha")},
    **{name: _COUNT_JUNK for name in ("cpu", "gpu", "mem", "bw")},
    "delay": _DELAY_JUNK,
    "max_delay": _DELAY_JUNK,
    # below 2**-53 a link's pdr rounds 1 - pdr to 1
    "pdr": _DELAY_JUNK + [1.5, 1e-20],
    "min_pdr": _DELAY_JUNK + [1.5],
    "functionals": ["GPS", {"GPS": 1}, 5, None, True, [1], ["GPS", None], "x"],
    # an int id is refused by the constructors but read from JSON as its
    # string, so test_netmodel's refusal tests take it instead
    **{name: [None, True, 2.5, math.nan, ["n1"], {"id": "n1"}]
       for name in ("id", "a", "b", "src", "dst")},
}
# the valid arguments each class is built from, one field replaced by junk
_CONFIGS = {
    GeneratorConfig: {},
    SimulationConfig: {},
    Coefficients: {},
    SubstrateNode: {"id": "n1", "cpu": 1, "gpu": 1, "mem": 1},
    NanoService: {"id": "s1", "cpu": 0, "gpu": 0, "mem": 0},
    SubstrateLink: {"id": "l1", "a": "n1", "b": "n2", "bw": 1, "delay": 1.0, "pdr": 0.9},
    Channel: {"id": "c1", "src": "s1", "dst": "s2", "bw": 1, "max_delay": 1.0,
              "min_pdr": 0.9},
}
_JUNK_CASES = [(config, f.name, value)
               for config in _CONFIGS
               for f in dataclasses.fields(config)
               if f.init
               for value in _FIELD_JUNK[f.name]]


def _case_ids(cases):
    return [f"{c.__name__}.{n}={v!r:.12}" for c, n, v in cases]


@pytest.mark.parametrize("config, name, value", _JUNK_CASES, ids=_case_ids(_JUNK_CASES))
def test_config_junk_raises_schema_error_naming_the_field(config, name, value):
    args = _CONFIGS[config]
    with pytest.raises(SchemaError) as info:
        config(**{**args, name: value})
    assert type(info.value) is SchemaError
    assert info.value.field == name
    if "id" in args and name != "id":   # a model's message names the object
        assert args["id"] in str(info.value)


def test_every_config_field_has_junk_cases():
    names = {f.name for config in _CONFIGS for f in dataclasses.fields(config) if f.init}
    assert names == set(_FIELD_JUNK)
    for config, args in _CONFIGS.items():   # the base arguments are valid
        config(**args)


# where each model class sits in a JSON document, and the document it sits in
_DOCUMENTS = {
    SubstrateNode: ("nodes", substrate_from_dict),
    SubstrateLink: ("links", substrate_from_dict),
    NanoService: ("services", request_from_dict),
    Channel: ("channels", request_from_dict),
}
_READER_CASES = [case for case in _JUNK_CASES if case[0] in _DOCUMENTS]


@pytest.mark.parametrize("config, name, value", _READER_CASES,
                         ids=_case_ids(_READER_CASES))
def test_reader_junk_raises_schema_error_naming_the_place(config, name, value):
    node, service = _CONFIGS[SubstrateNode], _CONFIGS[NanoService]
    part, reader = _DOCUMENTS[config]
    # each reader gets its own document: a key of the other is unknown to it
    doc = ({"nodes": [node, {**node, "id": "n2"}], "links": [_CONFIGS[SubstrateLink]]}
           if reader is substrate_from_dict else
           {"services": [service, {**service, "id": "s2"}],
            "channels": [_CONFIGS[Channel]]})
    reader(doc)   # valid before the junk goes in
    doc[part][0] = {**doc[part][0], name: value}
    with pytest.raises(SchemaError) as info:
        reader(doc)
    assert type(info.value) is SchemaError
    assert info.value.field == f"{part}[0].{name}"


def test_run_simulation_deterministic_and_shaped():
    cfg = SimulationConfig(iterations=4, loads=(5, 10), seed=77)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert len(first.raw_rows) == 8
    assert [vars(a) for a in first.raw_rows] == [vars(b) for b in second.raw_rows]
    assert [vars(a) for a in first.summaries] == [vars(b) for b in second.summaries]
    assert [s.load for s in first.summaries] == [5, 10]
    for summary in first.summaries:
        assert list(summary.stats) == ["acceptance_ratio", "revenue", "cost", "rc_ratio"]
        assert len(summary.node_rows) == 10
        assert len(summary.link_rows) == 20


def test_iteration_pool_is_a_prefix_of_any_longer_pool():
    # requests are drawn in sequence, so a longer pool only appends requests
    short = SimulationConfig(iterations=2, loads=(3,), seed=5)
    long = SimulationConfig(iterations=2, loads=(3, 200), seed=5)
    short_pool, long_pool = (iteration_pool(cfg, iteration_streams(cfg)[1])
                             for cfg in (short, long))
    assert len(short_pool) == 3 and len(long_pool) == 200
    assert [request_to_dict(r) for r in long_pool[:3]] \
        == [request_to_dict(r) for r in short_pool]


# spans of integers(low, low + span): the draw-free span 1, small ones, the
# generator's widest (10**6 + 1), one that rejects about half its 32-bit
# draws (2**31 + 1), and the widest the reader takes (2**32 - 1)
READER_SPANS = (1, 2, 3, 10, 41, 10**6 + 1, 2**31 + 1, 2**32 - 1)


@pytest.mark.parametrize("seed", range(12))
def test_raw_pcg64_reader_draws_equal_numpy(seed):
    stream = np.random.SeedSequence(seed)
    numpy_rng, reader = np.random.default_rng(stream), _PCG64Draws(stream)
    script = np.random.default_rng(1000 + seed)
    for _ in range(400):
        kind = int(script.integers(0, 3))
        if kind == 0:
            low = int(script.integers(-50, 50))
            span = READER_SPANS[int(script.integers(0, len(READER_SPANS)))]
            expected = int(numpy_rng.integers(low, low + span))
            got = reader.integers(low, low + span)
        elif kind == 1:
            expected, got = float(numpy_rng.random()), reader.random()
        else:
            low = float(script.random())
            expected = float(numpy_rng.uniform(low, low + 3))
            got = reader.uniform(low, low + 3)
        assert type(got) is type(expected) and got == expected


def test_raw_pcg64_reader_keeps_the_high_half_across_a_double():
    # the second integers call reads the half the first one kept, which the
    # random() call between them must leave alone; the last random() checks
    # that both sides have read the same number of raw outputs
    stream = np.random.SeedSequence(77)
    numpy_rng, reader = np.random.default_rng(stream), _PCG64Draws(stream)
    assert reader.integers(0, 41) == int(numpy_rng.integers(0, 41))
    assert reader.random() == float(numpy_rng.random())
    assert reader.integers(0, 41) == int(numpy_rng.integers(0, 41))
    assert reader.random() == float(numpy_rng.random())


@pytest.mark.parametrize("span", [0, -5, 2**32])
def test_raw_pcg64_reader_refuses_spans_it_does_not_draw_as_numpy(span):
    with pytest.raises(ValueError, match="span"):
        _PCG64Draws(np.random.SeedSequence(1)).integers(10, 10 + span)


@pytest.mark.parametrize("generator", [
    GeneratorConfig(),
    GeneratorConfig(ordered_pairs=True),
    GeneratorConfig(services_min=4, services_max=4),
    GeneratorConfig(gpu_prob=0.0),
    GeneratorConfig(gpu_prob=1.0),
    GeneratorConfig(channel_prob=0.0),
    GeneratorConfig(channel_prob=1.0),
    GeneratorConfig(pdr_lo=0.7, pdr_hi=0.7),
    GeneratorConfig(bw_min=0),
    GeneratorConfig(delay_max=10**6),
], ids=["default", "ordered_pairs", "fixed_count", "gpu_never", "gpu_always",
        "channel_never", "channel_always", "fixed_pdr", "bw_from_zero", "widest_delay"])
def test_iteration_pool_equals_numpy_generator_requests(generator):
    cfg = SimulationConfig(iterations=2, loads=(60,), seed=21, generator=generator)
    for stream in iteration_streams(cfg):
        rng = np.random.default_rng(stream)
        expected = [request_to_dict(generate_request(rng, generator, f"r{i + 1}"))
                    for i in range(60)]
        assert [request_to_dict(r) for r in iteration_pool(cfg, stream)] == expected


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
    # np.mean and each metric with _mean_std; summaries follow the loads'
    # order, which need not be sorted
    cfg = SimulationConfig(iterations=5, loads=(6, 12, 3), seed=13,
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
    assert [s.load for s in results.summaries] == list(cfg.loads)
    # raw.csv's metric columns follow iteration, load, accepted and blocked
    metrics = [column.name for column in dataclasses.fields(RawRow)][4:]
    assert metrics == ["acceptance_ratio", "revenue", "cost", "rc_ratio"]
    for summary in results.summaries:
        rows = reports[summary.load]
        assert list(summary.stats) == metrics
        for name in metrics:
            expected = _mean_std([getattr(r, name) for r in rows])
            assert repr(summary.stats[name]) == repr(expected)
        for i, row in enumerate(summary.node_rows):
            cells = [r.node_usage[i] for r in rows]
            assert row.node == cells[0].node
            for name in ("services", "cpu_used", "gpu_used", "mem_used"):
                assert getattr(row, name) == float(np.mean([getattr(c, name) for c in cells]))
            assert (row.cpu_total, row.gpu_total, row.mem_total) \
                == (cells[0].cpu_total, cells[0].gpu_total, cells[0].mem_total)
        for i, row in enumerate(summary.link_rows):
            cells = [r.link_usage[i] for r in rows]
            assert (row.link, row.bw_total) == (cells[0].link, cells[0].bw_total)
            for name in ("channels", "bw_used"):
                assert getattr(row, name) == float(np.mean([getattr(c, name) for c in cells]))


def test_a_metric_with_no_finite_value_summarises_as_nan(tmp_path):
    # nothing costs anything, so every window's rc_ratio divides by a zero cost
    free = Coefficients(cost_alpha=(0.0, 0.0, 0.0), cost_beta=0.0)
    results = run_simulation(SimulationConfig(iterations=2, coefficients=free))
    assert results.raw_rows and all(math.isnan(row.rc_ratio) for row in results.raw_rows)
    for summary in results.summaries:
        assert all(map(math.isnan, summary.stats["rc_ratio"]))
    write_results(results, tmp_path)
    with open(tmp_path / "summary.csv", newline="") as handle:
        rc = [row[2:] for row in csv.reader(handle) if row[1] == "rc_ratio"]
    assert rc == [["nan", "nan"]] * len(results.summaries)
    # one finite value has a mean and no spread
    assert _mean_std([math.nan, 2.5, -math.inf]) == (2.5, 0.0)

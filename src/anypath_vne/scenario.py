"""Built-in fixtures, the random request generator, and the simulation driver.

Two substrates ship with the package: a 5-node teaching example with a
matching 3-service request, and the 10-node mesh used by the load-sweep
simulation.  Requests for the sweep are generated from independent per
iteration RNG streams derived with numpy's SeedSequence.spawn, which keeps
every iteration reproducible from one master seed.  An iteration's pool reads
its stream's raw PCG64 output in blocks and turns it into the draws numpy's
``default_rng(stream)`` would give, bit for bit, in Python, so a draw costs no
numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .embedder import Coefficients
from .metrics import LinkUsage, NodeUsage, metrics_report
from .netmodel import (_REAL, Channel, NanoService, SchemaError, SubstrateNetwork,
                       VirtualRequest, _check, _shown)
from .windowing import embed_ranked, rank_window, ranking_keys


def example_fixture():
    """The 5-node substrate, its 3-service request, and the matching weights."""
    net = SubstrateNetwork()
    net.add_node("n1", cpu=50, gpu=20, mem=30)
    net.add_node("n2", cpu=20, gpu=20, mem=50)
    net.add_node("n3", cpu=10, gpu=10, mem=10)
    net.add_node("n4", cpu=10, gpu=30, mem=30)
    net.add_node("n5", cpu=20, gpu=10, mem=50)
    net.add_link("l1", "n1", "n2", bw=70, delay=10.0, pdr=0.9)
    net.add_link("l2", "n1", "n3", bw=80, delay=10.0, pdr=0.9)
    net.add_link("l3", "n2", "n4", bw=100, delay=10.0, pdr=0.9)
    net.add_link("l4", "n3", "n4", bw=70, delay=10.0, pdr=0.9)
    net.add_link("l5", "n3", "n5", bw=100, delay=20.0, pdr=0.75)
    net.add_link("l6", "n4", "n5", bw=100, delay=20.0, pdr=0.5)

    request = VirtualRequest("example")
    request.add_service(NanoService("s1", cpu=50, gpu=20, mem=30))
    request.add_service(NanoService("s2", cpu=10, gpu=30, mem=20))
    request.add_service(NanoService("s3", cpu=10, gpu=0, mem=50))
    request.add_channel(Channel("c1", "s1", "s2", bw=50, max_delay=20.0, min_pdr=0.6))
    request.add_channel(Channel("c2", "s1", "s3", bw=30, max_delay=50.0, min_pdr=0.8))
    request.add_channel(Channel("c3", "s2", "s3", bw=10, max_delay=30.0, min_pdr=0.8))

    coeffs = Coefficients(gamma=500.0)
    return net, request, coeffs


def simulation_substrate() -> SubstrateNetwork:
    """The 10-node, 20-link mesh used by the load sweep."""
    net = SubstrateNetwork()
    for nid, cpu, gpu, mem in [
        ("n1", 71, 30, 89), ("n2", 98, 41, 85), ("n3", 92, 47, 69),
        ("n4", 136, 45, 81), ("n5", 67, 33, 71), ("n6", 84, 30, 79),
        ("n7", 77, 46, 85), ("n8", 119, 50, 55), ("n9", 72, 44, 97),
        ("n10", 132, 36, 100),
    ]:
        net.add_node(nid, cpu=cpu, gpu=gpu, mem=mem)
    for lid, a, b, bw, delay, pdr in [
        ("l1", "n1", "n2", 84, 2, 0.93), ("l2", "n1", "n3", 90, 8, 0.99),
        ("l3", "n1", "n4", 51, 7, 0.99), ("l4", "n2", "n3", 59, 5, 0.90),
        ("l5", "n2", "n4", 94, 10, 0.96), ("l6", "n2", "n5", 87, 8, 0.91),
        ("l7", "n2", "n6", 75, 3, 0.95), ("l8", "n3", "n4", 56, 2, 0.92),
        ("l9", "n3", "n7", 74, 6, 0.91), ("l10", "n3", "n8", 76, 4, 0.95),
        ("l11", "n4", "n5", 65, 10, 0.95), ("l12", "n4", "n7", 52, 1, 0.94),
        ("l13", "n4", "n8", 72, 4, 0.95), ("l14", "n4", "n9", 54, 3, 0.93),
        ("l15", "n5", "n6", 52, 8, 0.98), ("l16", "n5", "n9", 84, 9, 0.92),
        ("l17", "n6", "n9", 93, 8, 0.98), ("l18", "n6", "n10", 56, 2, 0.96),
        ("l19", "n8", "n9", 56, 9, 0.96), ("l20", "n9", "n10", 74, 1, 0.90),
    ]:
        net.add_link(lid, a, b, bw=bw, delay=float(delay), pdr=pdr)
    return net


SUBSTRATE_FIXTURES = {
    "example": lambda: example_fixture()[0],
    "simulation": simulation_substrate,
}


# (floor, ceiling) of each generator range *_min..*_max.  A lone service has
# no peer for its fallback channel, and a zero delay or pdr would divide by
# zero in a channel's cost bound; the ceilings keep every draw well inside
# int64 and every generated request a size the sweep can embed.
GENERATOR_LIMITS = {"services": (2, 100), "cpu": (0, 10**6), "gpu": (0, 10**6),
                    "mem": (0, 10**6), "bw": (0, 10**6), "delay": (1, 10**6)}
# largest number of requests in one load level's window
MAX_LOAD = 10_000
# most iterations of one sweep; each iteration spawns an RNG stream and
# embeds every load level once
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling ranges for random virtual requests.

    Integer ranges are inclusive and lie within ``GENERATOR_LIMITS``.  A bad
    value raises a SchemaError naming its field; a range whose minimum exceeds
    its maximum names the maximum.
    """

    services_min: int = 2
    services_max: int = 7
    cpu_min: int = 1
    cpu_max: int = 10
    gpu_min: int = 1
    gpu_max: int = 10
    gpu_prob: float = 0.25
    mem_min: int = 1
    mem_max: int = 5
    channel_prob: float = 0.3
    bw_min: int = 1
    bw_max: int = 10
    delay_min: int = 10
    delay_max: int = 50
    pdr_lo: float = 0.5
    pdr_hi: float = 1.0
    # sample the channel Bernoulli per ordered pair instead of unordered
    ordered_pairs: bool = False

    def __post_init__(self):
        for name, (floor, ceiling) in GENERATOR_LIMITS.items():
            low = _check(f"{name}_min", getattr(self, f"{name}_min"), int, floor, ceiling)
            _check(f"{name}_max", getattr(self, f"{name}_max"), int, low, ceiling)
        # pdr_lo > 0: the least positive float is its floor
        low = _check("pdr_lo", self.pdr_lo, _REAL, math.ulp(0.0), 1)
        _check("pdr_hi", self.pdr_hi, _REAL, low, 1)
        _check("gpu_prob", self.gpu_prob, _REAL, 0, 1)
        _check("channel_prob", self.channel_prob, _REAL, 0, 1)
        if not isinstance(self.ordered_pairs, bool):
            raise SchemaError("ordered_pairs", "expected true or false, "
                              f"got {_shown(self.ordered_pairs)}")


@dataclass(frozen=True)
class SimulationConfig:
    """Substrate choice, load sweep, and reproducibility settings; a bad value
    raises a SchemaError naming its field."""

    substrate: str = "simulation"
    loads: tuple = (10, 20, 30, 40, 50)
    iterations: int = 100
    seed: int = 1
    coefficients: Coefficients = Coefficients(
        alpha=(1.0, 1.0, 1.0), beta=3.0,
        cost_alpha=(1.0, 1.0, 1.0), cost_beta=3.0, gamma=3000.0)
    generator: GeneratorConfig = GeneratorConfig()

    def __post_init__(self):
        if not (isinstance(self.substrate, str) and self.substrate in SUBSTRATE_FIXTURES):
            raise SchemaError("substrate", f"expected one of {sorted(SUBSTRATE_FIXTURES)}, "
                              f"got {_shown(self.substrate)}")
        if not (isinstance(self.loads, tuple) and self.loads):
            raise SchemaError("loads",
                              f"expected a non-empty tuple, got {_shown(self.loads)}")
        for load in self.loads:
            _check("loads", load, int, 1, MAX_LOAD)
        if len(set(self.loads)) != len(self.loads):
            raise SchemaError("loads", f"each load appears once, got {_shown(self.loads)}")
        _check("iterations", self.iterations, int, 1, MAX_ITERATIONS)
        _check("seed", self.seed, int, 0, math.inf)
        for name, kind in (("coefficients", Coefficients), ("generator", GeneratorConfig)):
            if not isinstance(getattr(self, name), kind):
                raise SchemaError(name, f"expected a {kind.__name__}")


def _sample_channel_attrs(rng, cfg: GeneratorConfig):
    bw = int(rng.integers(cfg.bw_min, cfg.bw_max + 1))
    delay = float(rng.integers(cfg.delay_min, cfg.delay_max + 1))
    pdr = float(rng.uniform(cfg.pdr_lo, cfg.pdr_hi))
    return bw, delay, pdr


class _PCG64Draws:
    """numpy ``Generator.integers``, ``random`` and ``uniform`` on one PCG64
    stream, bit for bit, with no numpy call per draw.

    The stream's raw 64-bit outputs are read in blocks of 128, in order, and
    turned into draws as numpy's Generator does (O'Neill's PCG64; Lemire,
    ACM TOMACS 2019).  A double is the top 53 bits of an output times 2**-53.
    A 32-bit draw is the low half of an output, and keeps the high half for
    the next 32-bit draw, as PCG64's ``has_uint32`` buffer does; doubles leave
    that half alone.  Reading ahead by up to a block is harmless as long as
    nothing else reads the same bit generator.
    """

    __slots__ = ("_raw", "_half")

    def __init__(self, stream):
        bits = np.random.PCG64(stream)
        # an endless iterator of raw outputs, one random_raw call per block
        self._raw = chain.from_iterable(iter(lambda: bits.random_raw(128).tolist(), None))
        self._half = None

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            raw = next(self._raw)
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        self._half = None
        return half

    def random(self) -> float:
        return (next(self._raw) >> 11) * 2.0 ** -53

    def uniform(self, low, high) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high): low itself, with no draw, when the span is 1,
        else Lemire's rejection on 32-bit draws.  numpy takes other paths for
        spans above 2**32 - 1, so those raise ValueError here."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span < 2**32:
            raise ValueError(f"integers: span {span} outside 1..2**32 - 1")
        product = self._uint32() * span
        if product & 0xFFFFFFFF < span:
            threshold = 2**32 % span
            while product & 0xFFFFFFFF < threshold:
                product = self._uint32() * span
        return low + (product >> 32)


def generate_request(rng: np.random.Generator | _PCG64Draws, cfg: GeneratorConfig,
                     request_id: str = "request") -> VirtualRequest:
    """Draw one random request; the draw order below is fixed for reproducibility.

    Service count, then per service cpu / gpu gate (and value if granted) /
    mem, then the channel Bernoulli sweep over service pairs in index order,
    then one extra channel from each still-isolated service to a uniformly
    chosen peer so that every service can be placed through a channel.

    Only ``rng.integers(low, high)``, ``rng.random()`` and
    ``rng.uniform(low, high)`` are called, so ``rng`` is a numpy Generator or
    the raw PCG64 reader ``iteration_pool`` uses; both give the same request.
    """
    request = VirtualRequest(request_id)
    count = int(rng.integers(cfg.services_min, cfg.services_max + 1))
    ids = [f"s{i}" for i in range(1, count + 1)]
    for sid in ids:
        cpu = int(rng.integers(cfg.cpu_min, cfg.cpu_max + 1))
        gpu = 0
        if rng.random() < cfg.gpu_prob:
            gpu = int(rng.integers(cfg.gpu_min, cfg.gpu_max + 1))
        mem = int(rng.integers(cfg.mem_min, cfg.mem_max + 1))
        request.add_service(NanoService(sid, cpu=cpu, gpu=gpu, mem=mem))

    connected = set()
    seq = 0
    if cfg.ordered_pairs:
        pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
    else:
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    for i, j in pairs:
        if rng.random() < cfg.channel_prob:
            seq += 1
            bw, delay, pdr = _sample_channel_attrs(rng, cfg)
            request.add_channel(Channel(f"c{seq}", ids[i], ids[j],
                                        bw=bw, max_delay=delay, min_pdr=pdr))
            connected.update((ids[i], ids[j]))
    for i, sid in enumerate(ids):
        if sid in connected:
            continue
        others = [other for other in ids if other != sid]
        peer = others[int(rng.integers(0, len(others)))]
        seq += 1
        bw, delay, pdr = _sample_channel_attrs(rng, cfg)
        request.add_channel(Channel(f"c{seq}", sid, peer,
                                    bw=bw, max_delay=delay, min_pdr=pdr))
        connected.update((sid, peer))
    return request


@dataclass
class RawRow:
    """Metrics of one (iteration, load) cell."""

    iteration: int
    load: int
    accepted: int
    blocked: int
    acceptance_ratio: float
    revenue: float
    cost: float
    rc_ratio: float


# the per-window metrics of raw.csv, each summarised per load, in summary.csv's row order
METRICS = ("acceptance_ratio", "revenue", "cost", "rc_ratio")


@dataclass
class LoadSummary:
    """One load level: each metric's mean and sample standard deviation, and
    each node's and link's mean usage, over the iterations."""

    load: int
    stats: dict = field(default_factory=dict)       # metric name -> (mean, stddev)
    node_rows: list = field(default_factory=list)   # list[NodeUsage]
    link_rows: list = field(default_factory=list)   # list[LinkUsage]


@dataclass
class SimulationResults:
    raw_rows: list = field(default_factory=list)    # list[RawRow]
    summaries: list = field(default_factory=list)   # list[LoadSummary], one per load


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return math.nan, math.nan
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def iteration_streams(cfg: SimulationConfig):
    """One independent child seed per iteration, split from the master seed."""
    return np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)


def iteration_pool(cfg: SimulationConfig, stream) -> list:
    """The max(loads) requests one iteration draws from its RNG stream.

    The draws read the stream's raw PCG64 output directly, and equal those of
    ``generate_request(np.random.default_rng(stream), ...)`` request by request.
    """
    rng = _PCG64Draws(stream)
    return [generate_request(rng, cfg.generator, f"r{i + 1}")
            for i in range(max(cfg.loads))]


def run_simulation(cfg: SimulationConfig) -> SimulationResults:
    """Sweep the load levels over seeded iterations and aggregate the metrics.

    Each iteration draws a fresh pool of max(loads) requests from its own RNG
    stream; each load level embeds the pool prefix of that length into a fresh
    copy of the substrate, so load levels share requests but never reservations.
    The pool is scored once, and each prefix is ranked from those scores in
    the order ``process_window`` would give it.
    """
    base = SUBSTRATE_FIXTURES[cfg.substrate]()
    results = SimulationResults()
    # per load, each node's (services, cpu, gpu, mem) and each link's (channels,
    # bw) used, summed over the windows as int64; the counts are ints, so the
    # sums are exact and sum / n equals their mean
    node_sums = dict.fromkeys(cfg.loads, 0)
    link_sums = dict.fromkeys(cfg.loads, 0)
    for iteration, child in enumerate(iteration_streams(cfg)):
        pool = iteration_pool(cfg, child)
        keys = ranking_keys(pool, cfg.coefficients)
        for load in cfg.loads:
            net = base.clone()
            outcomes = embed_ranked(net, rank_window(pool[:load], keys), cfg.coefficients)
            report = metrics_report(base, net, outcomes, cfg.coefficients)
            accepted = sum(result.accepted for result in outcomes)
            results.raw_rows.append(RawRow(
                iteration, load, accepted, len(outcomes) - accepted,
                *(getattr(report, name) for name in METRICS)))
            node_sums[load] += np.array([(u.services, u.cpu_used, u.gpu_used, u.mem_used)
                                         for u in report.node_usage], dtype=np.int64)
            link_sums[load] += np.array([(u.channels, u.bw_used)
                                         for u in report.link_usage], dtype=np.int64)
    for load in cfg.loads:
        rows = [row for row in results.raw_rows if row.load == load]
        summary = LoadSummary(load, {name: _mean_std([getattr(r, name) for r in rows])
                                     for name in METRICS})
        for nid, (services, cpu, gpu, mem) in zip(base.topology().nodes,
                                                  (node_sums[load] / len(rows)).tolist()):
            node = base.nodes[nid]
            summary.node_rows.append(NodeUsage(nid, services, cpu, node.cpu0,
                                               gpu, node.gpu0, mem, node.mem0))
        for lid, (channels, bw) in zip(base.topology().link_ids,
                                       (link_sums[load] / len(rows)).tolist()):
            summary.link_rows.append(LinkUsage(lid, channels, bw, base.links[lid].bw0))
        results.summaries.append(summary)
    return results

"""The three benchmark workloads: inputs made from a seed, operations, output checks.

Each workload is a sequence of items run in order.  An item holds one or more
timed operations; ``run_item`` returns an ``Op`` per operation and checks
every output outside the timed region.

* ``mesh10-sweep``: one item is one ``anypath-vne simulate`` call through
  ``cli.main`` on the default config (10-node mesh, loads 10-50, pool 50) with
  ``SWEEP_ITERATIONS`` iterations and an item-specific seed.  Route tables
  repeat almost always, and it is the only workload that runs request
  generation, window ranking, metrics, aggregation and CSV writing.
* ``chain-1000``: one item is one ``embed`` of a 13-service, 12-channel chain
  of zero-demand services into a fresh clone of a 1000-node, 3000-link random
  substrate.  Every service lands on one node, so no link is reserved and each
  channel recomputes the same route table: per-route cost on a large graph.
* ``spread-240``: one item is an episode of ``EPISODE_REQUESTS`` generated
  requests admitted one by one by ``embed`` into a fresh clone of a 240-node,
  720-link substrate; every ``embed`` is one operation.  Services spread,
  routes reserve links, and reservations keep changing which links are
  eligible, so route tables rarely repeat.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from anypath_vne import cli, embedder, metrics, netmodel, scenario

import checker

SWEEP_ITERATIONS = 1
EPISODE_REQUESTS = 100
CHAIN_INSTANCES = 3

# raw.csv and the other CSVs of `simulate` for this config at the seed commit
# (a6a9d6b); the sweep's output must stay byte-identical
REFERENCE_CONFIG = {"iterations": 3, "seed": 1}
REFERENCE_SHA256 = {
    "raw.csv": "1e3913195148144713ea2e43b7d0dab9c17b38275bcfb7dbfcecbc77a060fb22",
    "summary.csv": "88fc0112bc74772b09c8d2055ac49bd8459036d0db895a659c38cc405b449aec",
    "node_usage.csv": "5311507df82da1f7f8df404ac9efc6aef29c356b04e06099066ba356487731af",
    "link_usage.csv": "101f014c6be5c2dbc07c10feada33a49236665f0c10f9a5858964c29584a8ed7",
}


@dataclass
class Op:
    """One timed operation and what it attempted."""

    seconds: float
    end: float         # perf_counter() when it finished
    attempts: int      # embed attempts
    accepted: int
    channels: int      # channels of the attempted requests
    revenue: float = 0.0
    cost: float = 0.0
    failed: int = 0    # attempts that raised or failed the output check


def _plain_time(op_id, fn):
    """Untraced timer: (seconds, result) of fn()."""
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def _report(problems, where: str) -> int:
    for problem in problems[:5]:
        print(f"check failed ({where}): {problem}", flush=True)
    return 1 if problems else 0


class Workload:
    """Inputs made from a seed; ``run_item`` runs and checks one item."""

    name = ""
    # items whose outcomes define accept_ratio and rc_ratio; every run
    # completes at least these, so both ratios repeat exactly for a seed
    min_items = 1
    # untraced items per second at the seed commit; sizes a traced run
    items_per_s = 1.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> list[Op]:
        """Build the inputs and run a checked warm-up on inputs of its own."""
        raise NotImplementedError

    def run_item(self, index: int, timer=_plain_time, deadline=None) -> list[Op]:
        raise NotImplementedError

    def check_reference(self) -> list[Op]:
        """Whole-output checks run once per run, outside the timed phase."""
        return []


class Mesh10Sweep(Workload):
    name = "mesh10-sweep"
    min_items = 40
    items_per_s = 4.0

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_dir / "config.json"
        self.out_dir = self.work_dir / "out"
        self.loads = scenario.SimulationConfig().loads
        return self.run_item(-1)

    def _item_seed(self, index: int) -> int:
        return int(_child_seed(self.seed, index + 1).generate_state(1)[0])

    def _sweep(self, config: dict, timer=_plain_time, op_id=0) -> float:
        self.config_path.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(self.config_path),
                "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            seconds, code = timer(op_id, lambda: cli.main(argv))
        if code != cli.EXIT_OK:
            raise RuntimeError(f"simulate exited {code}")
        return seconds

    def run_item(self, index, timer=_plain_time, deadline=None):
        config = {"iterations": SWEEP_ITERATIONS, "seed": self._item_seed(index)}
        try:
            seconds = self._sweep(config, timer, index)
            end = perf_counter()
            with open(self.out_dir / "raw.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
        except Exception as exc:   # a crash is a failed operation, not a stop
            print(f"sweep {index} raised {exc!r}", flush=True)
            return [Op(0.0, perf_counter(), 0, 0, 0, failed=1)]
        problems = []
        expected = [(it, load) for it in range(SWEEP_ITERATIONS) for load in self.loads]
        if [(int(r["iteration"]), int(r["load"])) for r in rows] != expected:
            problems.append("raw.csv rows do not cover every iteration and load")
        for r in rows:
            if int(r["accepted"]) + int(r["blocked"]) != int(r["load"]):
                problems.append(f"raw.csv row {r}: accepted + blocked != load")
        cfg = scenario.SimulationConfig(iterations=SWEEP_ITERATIONS,
                                        seed=config["seed"])
        pools = [scenario.iteration_pool(cfg, stream)
                 for stream in scenario.iteration_streams(cfg)]
        channels = sum(len(request.channels) for pool in pools
                       for n in self.loads for request in pool[:n])
        return [Op(seconds, end, sum(self.loads) * SWEEP_ITERATIONS,
                   sum(int(r["accepted"]) for r in rows), channels,
                   sum(float(r["revenue"]) for r in rows),
                   sum(float(r["cost"]) for r in rows),
                   failed=_report(problems, f"sweep {index}"))]

    def check_reference(self):
        attempts = sum(self.loads) * REFERENCE_CONFIG["iterations"]
        where = f"reference sweep {REFERENCE_CONFIG}"
        try:
            seconds = self._sweep(REFERENCE_CONFIG)
        except Exception as exc:   # a crash is a failed check, not a stop
            return [Op(0.0, perf_counter(), attempts, 0, 0,
                       failed=_report([f"raised {exc!r}"], where))]
        problems = []
        for name, digest in REFERENCE_SHA256.items():
            found = hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
            if found != digest:
                problems.append(f"{name} sha256 {found} != seed commit's {digest}")
        return [Op(seconds, perf_counter(), attempts, 0, 0,
                   failed=_report(problems, where))]


def _random_substrate(rng, n_nodes: int, n_links: int, node_attrs, link_attrs):
    """Plain node and link data: a random spanning tree plus distinct extra pairs."""
    nodes = {f"n{i}": node_attrs(rng) for i in range(1, n_nodes + 1)}
    links = {}
    pairs = set()

    def add(i, j):
        links[f"l{len(links) + 1}"] = (f"n{i}", f"n{j}", *link_attrs(rng))
        pairs.add(frozenset((i, j)))

    for i in range(2, n_nodes + 1):
        add(i, int(rng.integers(1, i)))
    while len(links) < n_links:
        i, j = int(rng.integers(1, n_nodes + 1)), int(rng.integers(1, n_nodes + 1))
        if i != j and frozenset((i, j)) not in pairs:
            add(i, j)
    return nodes, links


def _route_attrs(links: dict) -> dict:
    """Link id -> (a, b, delay, pdr), what the checker needs to price routes."""
    return {lid: (a, b, delay, pdr) for lid, (a, b, _, delay, pdr) in links.items()}


def _build(nodes: dict, links: dict) -> netmodel.SubstrateNetwork:
    net = netmodel.SubstrateNetwork()
    for nid, (cpu, gpu, mem) in nodes.items():
        net.add_node(nid, cpu=cpu, gpu=gpu, mem=mem)
    for lid, (a, b, bw, delay, pdr) in links.items():
        net.add_link(lid, a, b, bw=bw, delay=delay, pdr=pdr)
    return net


class _EmbedWorkload(Workload):
    """Workloads that call ``embed`` directly and check each outcome."""

    def _embed_op(self, net, links, request, coeffs, timer, op_id) -> Op:
        """Embed request into net as one timed operation and check the outcome.

        ``links`` maps each link id of net to (a, b, delay, pdr).
        """
        def attempt():
            try:
                return embedder.embed(net, request, coeffs)
            except embedder.EmbeddingError as exc:   # blocked: an outcome
                return exc

        before = net.snapshot()
        try:
            seconds, outcome = timer(op_id, attempt)
        except Exception as exc:   # a crash is a failed operation, not a stop
            print(f"embed {request.id} raised {exc!r}", flush=True)
            return Op(0.0, perf_counter(), 1, 0, len(request.channels), failed=1)
        end = perf_counter()
        after = net.snapshot()
        if isinstance(outcome, embedder.EmbeddingError):
            failed = _report(checker.check_blocked(before, after), request.id)
            return Op(seconds, end, 1, 0, len(request.channels), failed=failed)
        problems = checker.check_accepted(
            netmodel.request_to_dict(request), outcome.to_dict(), before, after, links)
        return Op(seconds, end, 1, 1, len(request.channels),
                  metrics.revenue(request, coeffs),
                  metrics.cost(request, outcome, coeffs),
                  _report(problems, request.id))

    def _check_substrate(self, net, where: str) -> int:
        problems = netmodel.validate_substrate(net)
        problems += checker.check_capacities(net.snapshot())
        return _report(problems, where)


class Chain1000(_EmbedWorkload):
    name = "chain-1000"
    min_items = CHAIN_INSTANCES
    items_per_s = 1.2

    def setup(self):
        rng = np.random.default_rng(_child_seed(self.seed, 0))
        self.instances = []
        for _ in range(CHAIN_INSTANCES):
            nodes, links = _random_substrate(
                rng, 1000, 3000, lambda r: (100, 100, 100),
                lambda r: (100, float(r.uniform(1.0, 20.0)), float(r.uniform(0.5, 1.0))))
            self.instances.append((_build(nodes, links), _route_attrs(links)))
        self.request = netmodel.VirtualRequest("chain")
        for i in range(1, 14):
            self.request.add_service(netmodel.NanoService(f"s{i}"))
        for i in range(1, 13):
            self.request.add_channel(netmodel.Channel(
                f"c{i}", f"s{i}", f"s{i + 1}", bw=1, max_delay=1e9, min_pdr=0.5))
        self.coeffs = embedder.Coefficients()
        # chain instances repeat by design, so the warm-up may use the first
        return self.run_item(0)

    def run_item(self, index, timer=_plain_time, deadline=None):
        base, links = self.instances[index % CHAIN_INSTANCES]
        # cloning is traced but not timed; the lambda looks clone up at call
        # time, so a traced run sees the traced method
        _, net = timer(index, lambda: base.clone())
        op = self._embed_op(net, links, self.request, self.coeffs, timer, index)
        op.failed += self._check_substrate(net, f"chain item {index}")
        # every service shares one node, which is what makes this workload
        # read-only; a route that reserves bandwidth is a behaviour change
        if net.snapshot()[1] != base.snapshot()[1]:
            op.failed += _report(["a link had bandwidth reserved"], f"chain item {index}")
        return [op]


class Spread240(_EmbedWorkload):
    name = "spread-240"
    min_items = 3
    items_per_s = 0.22

    def setup(self):
        rng = np.random.default_rng(_child_seed(self.seed, 0))
        nodes, links = _random_substrate(
            rng, 240, 720,
            lambda r: (int(r.integers(8, 16)), int(r.integers(0, 12)),
                       int(r.integers(5, 12))),
            lambda r: (int(r.integers(20, 60)), float(r.integers(1, 11)),
                       float(r.uniform(0.6, 1.0))))
        self.base = _build(nodes, links)
        self.links = _route_attrs(links)
        self.generator = scenario.GeneratorConfig()
        self.coeffs = scenario.SimulationConfig().coefficients
        # warm-up on requests no timed episode uses
        warm = self.base.clone()
        return [self._embed_op(warm, self.links, request, self.coeffs, _plain_time, -1)
                for request in self._requests(-1, 10)]

    def _requests(self, episode: int, count: int = EPISODE_REQUESTS):
        rng = np.random.default_rng(_child_seed(self.seed, 1, episode + 1))
        return [scenario.generate_request(rng, self.generator, f"e{episode}r{i + 1}")
                for i in range(count)]

    def run_item(self, index, timer=_plain_time, deadline=None):
        # generation and cloning are traced but not timed
        _, requests = timer(index * EPISODE_REQUESTS, lambda: self._requests(index))
        _, net = timer(index * EPISODE_REQUESTS, lambda: self.base.clone())
        ops = []
        for k, request in enumerate(requests):
            if ops and deadline is not None and perf_counter() >= deadline:
                break
            ops.append(self._embed_op(net, self.links, request, self.coeffs, timer,
                                      index * EPISODE_REQUESTS + k))
        ops[-1].failed += self._check_substrate(net, f"episode {index}")
        return ops


WORKLOADS = {w.name: w for w in (Mesh10Sweep, Chain1000, Spread240)}

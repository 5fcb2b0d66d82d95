"""Smoke test of the benchmark workloads: each one sets up, runs one item and
passes its reference check against the library as it is.

The workloads import library entry points of their own (``request_to_dict``,
``iteration_pool``, ``Embedding.to_dict``, ``cli.main``), so this fails as
soon as one of them is removed or changes its output.  The per-layer tracer
names library functions by string, so a guard checks that each still exists:
a removed or renamed one would silently read 0 in the traced metrics.  The
targets known to be gone are listed, and the list must match exactly, so it
shrinks when the tracer is retargeted.  A spread-240 episode also pins how
often it scans the substrate's links.
"""

import importlib
import sys
from pathlib import Path

import pytest

from anypath_vne.netmodel import SubstrateNetwork

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["mesh10-sweep", "chain-1000", "spread-240"])
def test_workload_runs_one_checked_item(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](1, tmp_path)
    ops = workload.setup() + workload.run_item(0) + workload.check_reference()
    assert ops
    assert [op for op in ops if op.failed] == []


# targets whose functions the library no longer has; the tracer reports each
# as "not found" and its metrics read 0 until the benchmark is retargeted
_DEAD_TARGETS = {"bandwidth_subgraph", "unicast_distances", "prune", "anypath_routes",
                 "AnypathRouteTable.closure_link_count", "suitable_nodes"}


def test_every_traced_function_exists_in_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    tracer = importlib.import_module("tracer")
    missing = set()
    for _, module_name, attr in tracer.TARGETS + tracer.COUNTED:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.add(attr)
    # no other target is missing, and no listed one is back or no longer traced
    assert missing == _DEAD_TARGETS


def test_spread_episode_scans_each_bandwidth_at_most_once(tmp_path, monkeypatch):
    # an episode embeds its requests into one clone, and reservations and
    # rollbacks patch its eligible-link memo, so no bandwidth is scanned twice
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["spread-240"](1, tmp_path)
    workload.setup()
    scans = []
    original = SubstrateNetwork.eligible_links

    def counting(net, bw):
        if bw not in net._eligible:
            scans.append(bw)
        return original(net, bw)

    monkeypatch.setattr(SubstrateNetwork, "eligible_links", counting)
    ops = workload.run_item(0)
    assert len(ops) == workloads.EPISODE_REQUESTS
    assert [op for op in ops if op.failed] == []
    assert scans and sorted(scans) == sorted(set(scans))

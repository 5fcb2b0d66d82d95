"""Smoke test of the benchmark workloads: each one sets up, runs one item and
passes its reference check against the library as it is.

The workloads import library entry points of their own (``request_to_dict``,
``iteration_pool``, ``Embedding.to_dict``, ``cli.main``), so this fails as
soon as one of them is removed or changes its output.  The per-layer tracer
names library functions by string, so a guard checks that each still exists:
a removed or renamed one would silently read 0 in the traced metrics.  The
targets known to be gone are listed, and the list must match exactly, so it
shrinks when the tracer is retargeted.
"""

import importlib
import sys
from pathlib import Path

import pytest

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

#!/usr/bin/env python3
"""Count the bytecodes the package runs on small fixed inputs.

    PYTHONPATH=src python3 tools/opcount.py

A timing moves by a few percent from run to run, so a few percent of drift
per change passes unseen; an opcode count does not move at all on one
interpreter and one route kernel.  Every opcode run in a frame of the
``anypath_vne`` package is counted, through ``sys.settrace`` with
``f_trace_opcodes``; code outside the package, the standard library and the
compiled route kernel included, is not.  So the work opcodes cannot see is
counted beside them: route tables built (``anypath._table.cache_info()``
misses), compiled kernel calls (0 under the Python kernel) and eligible-link
scans (bandwidths missing from a network's ``_eligible`` memo when
``eligible_links`` looks them up).

Four lines are printed, each count line as

    kernel <anypath.KERNEL>
    <input> <opcodes> opcodes <n> table misses <n> kernel calls <n> eligible-link scans

for three inputs, the first two at seed 1 and built by
``bench/workloads.py`` as the benchmark builds them:

- ``chain-1000 embed``: one warm ``embed`` of the chain request into a clone
  of the first chain-1000 instance; its warm-up fills the route cache;
- ``spread-240 10 requests``: the first 10 requests of episode 0, embedded
  one after another into a clone of the substrate after its warm-up, a
  blocked request counting as embedded;
- ``simulate 1 iteration``: one default ``run_simulation`` iteration from an
  empty route cache.

Only the standard library is used here; ``bench/workloads.py`` imports numpy.
"""

from __future__ import annotations

import sys
from pathlib import Path

import anypath_vne
from anypath_vne import anypath, embedder, scenario
from anypath_vne.netmodel import SubstrateNetwork

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(Path(anypath_vne.__file__).parent)


def count_opcodes(fn) -> tuple[int, object]:
    """(opcodes run in the package's frames, result) of one call of fn().

    The trace function in place before the call is put back after it.
    """
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return opcode
        return None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return count, result


def counted(fn) -> tuple[int, int, int, int]:
    """(opcodes, route tables built, kernel calls, eligible-link scans) of one
    call of fn().

    The kernel and ``eligible_links`` are wrapped for the call by functions
    outside the package, so the opcode count does not see the wrappers.
    """
    kernel, eligible_links = anypath._kernel, SubstrateNetwork.eligible_links
    calls = scans = 0

    def counting_kernel(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    def counting_eligible_links(net, bw):
        nonlocal scans
        scans += bw not in net._eligible
        return eligible_links(net, bw)

    misses = anypath._table.cache_info().misses
    if kernel is not None:
        anypath._kernel = counting_kernel
    SubstrateNetwork.eligible_links = counting_eligible_links
    try:
        opcodes, _ = count_opcodes(fn)
    finally:
        anypath._kernel, SubstrateNetwork.eligible_links = kernel, eligible_links
    return opcodes, anypath._table.cache_info().misses - misses, calls, scans


def bench_workloads():
    """The benchmark's workload module."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def chain_embed() -> tuple[int, int, int, int]:
    chain = bench_workloads().Chain1000(1, None)
    chain.setup()
    base = chain.instances[0][0]
    net = base.clone()
    return counted(lambda: embedder.embed(net, chain.request, chain.coeffs))


def spread_requests() -> tuple[int, int, int, int]:
    spread = bench_workloads().Spread240(1, None)
    spread.setup()
    requests = spread._requests(0, 10)
    net = spread.base.clone()

    def embed_all():
        for request in requests:
            try:
                embedder.embed(net, request, spread.coeffs)
            except embedder.EmbeddingError:
                pass

    return counted(embed_all)


def simulate_iteration() -> tuple[int, int, int, int]:
    anypath._table.cache_clear()
    config = scenario.SimulationConfig(iterations=1)
    return counted(lambda: scenario.run_simulation(config))


def main() -> int:
    print(f"kernel {anypath.KERNEL}")
    for name, measure in (("chain-1000 embed", chain_embed),
                          ("spread-240 10 requests", spread_requests),
                          ("simulate 1 iteration", simulate_iteration)):
        opcodes, misses, calls, scans = measure()
        print(f"{name} {opcodes} opcodes {misses} table misses {calls} kernel calls "
              f"{scans} eligible-link scans")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count the bytecodes the package runs on small fixed inputs.

    PYTHONPATH=src python3 tools/opcount.py

A timing moves by a few percent from run to run, so a few percent of drift
per change passes unseen; an opcode count does not move at all on one
interpreter and one route kernel.  Every opcode run in a frame of the
``anypath_vne`` package is counted, through ``sys.settrace`` with
``f_trace_opcodes``; code outside the package, the standard library and the
compiled route kernel included, is not.  So the table misses are reported
beside each count, from ``anypath._table.cache_info()``.

Three lines are printed:

    kernel <anypath.KERNEL>
    chain-1000 embed <opcodes> opcodes <misses> table misses
    simulate 1 iteration <opcodes> opcodes <misses> table misses

The first count is one warm ``embed`` of the chain request into a clone of
the first chain-1000 instance at seed 1, built by ``bench/workloads.py`` as
the benchmark builds it; its warm-up fills the route cache.  The second is
one default ``run_simulation`` iteration from an empty route cache.  Only
the standard library is used here; ``bench/workloads.py`` imports numpy.
"""

from __future__ import annotations

import sys
from pathlib import Path

import anypath_vne
from anypath_vne import anypath, embedder, scenario

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


def counted(fn) -> tuple[int, int]:
    """(opcodes, route tables built) of one call of fn()."""
    misses = anypath._table.cache_info().misses
    opcodes, _ = count_opcodes(fn)
    return opcodes, anypath._table.cache_info().misses - misses


def chain_embed() -> tuple[int, int]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    chain = workloads.Chain1000(1, None)
    chain.setup()
    base = chain.instances[0][0]
    net = base.clone()
    return counted(lambda: embedder.embed(net, chain.request, chain.coeffs))


def simulate_iteration() -> tuple[int, int]:
    anypath._table.cache_clear()
    config = scenario.SimulationConfig(iterations=1)
    return counted(lambda: scenario.run_simulation(config))


def main() -> int:
    print(f"kernel {anypath.KERNEL}")
    for name, measure in (("chain-1000 embed", chain_embed),
                          ("simulate 1 iteration", simulate_iteration)):
        opcodes, misses = measure()
        print(f"{name} {opcodes} opcodes {misses} table misses")
    return 0


if __name__ == "__main__":
    sys.exit(main())

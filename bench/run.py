"""Benchmark of the anypath-vne embedder, end to end and layer by layer.

    python3 bench/run.py --workload mesh10-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from anywhere; the library is imported from the ``src`` directory next to
this one.  Inputs are made from ``--seed``.  With ``--trace 0`` the run times
operations for ``--seconds`` seconds with tracing off and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of items, sized
from ``--seconds`` at the seed commit's rate, first traced and then untraced,
and reports the per-layer metrics; the spans go to
``.bench_run/<workload>/trace.jsonl``.  Every output is checked outside the
timed region.  End-to-end times are rescaled to a reference host speed
measured by ``probe.py``; the human-readable lines, which come first, also
show the measured rate and the scale.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process, so peak memory is
not inherited between workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOADS = ("mesh10-sweep", "chain-1000", "spread-240")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900

END_TO_END = [
    ("embeds_per_s", "1/s"),
    ("embed_ms_p50", "ms"),
    ("embed_ms_p90", "ms"),
    ("channel_ms_p50", "ms"),
    ("accept_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def load_library():
    """Import the workload and tracer modules against ``src``; exit 2 without it."""
    package = SRC / "anypath_vne"
    if not (package / "__init__.py").is_file():
        print(f"error: library source not found at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import anypath_vne
    if Path(anypath_vne.__file__).resolve().parent != package.resolve():
        print(f"error: imported {anypath_vne.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    import tracer
    import workloads
    return workloads, tracer


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 < q < 100) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def setup_workload(workloads, name: str, seed: int, probe):
    """Set the workload up SETUP_REPEATS times.

    Returns the last workload, its checked warm-up operations, and the median
    set-up time at the reference host speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        workload = workloads.WORKLOADS[name](seed, WORK / name)
        probe.sample()
        start = perf_counter()
        warm_up = workload.setup()
        finish = perf_counter()
        times.append((finish - start, finish))
    probe.sample()
    setup_s = statistics.median(s * probe.scale_at(at) for s, at in times)
    return workload, warm_up, setup_s


def run_timed(workload, seconds: float, probe):
    """Items until `seconds` have passed and at least min_items are done."""
    items = []
    deadline = perf_counter() + seconds
    while len(items) < workload.min_items or perf_counter() < deadline:
        late = deadline if len(items) >= workload.min_items else None
        items.append(workload.run_item(len(items), timer=probe.timed, deadline=late))
    return items


def outcome_ratios(items, count: int):
    """accept_ratio and rc_ratio over the first `count` items (None if no cost)."""
    ops = [op for item in items[:count] for op in item]
    accept = sum(op.accepted for op in ops) / sum(op.attempts for op in ops)
    cost = sum(op.cost for op in ops)
    return accept, (sum(op.revenue for op in ops) / cost if cost else None)


def end_to_end(workload, items, setup_s: float, probe) -> tuple[dict, list]:
    """End-to-end metrics; times are rescaled to the reference host speed."""
    ops = [op for item in items for op in item if op.seconds > 0]
    seconds = [op.seconds * probe.scale_at(op.end) for op in ops]
    op_ms = [s * 1e3 / op.attempts for s, op in zip(seconds, ops)]
    channel_ms = [s * 1e3 / op.channels for s, op in zip(seconds, ops)]
    accept, rc = outcome_ratios(items, workload.min_items)
    attempts = sum(op.attempts for op in ops)
    values = {
        "embeds_per_s": attempts / sum(seconds),
        "embed_ms_p50": statistics.median(op_ms),
        "embed_ms_p90": percentile(op_ms, 90),
        "channel_ms_p50": statistics.median(channel_ms),
        "accept_ratio": accept,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = sum(op.seconds for op in ops)
    notes = [
        ("ops", len(ops), "count"),
        ("embed_attempts", attempts, "count"),
        ("rc_ratio", rc, "ratio"),
        ("measured_embeds_per_s", attempts / measured, "1/s"),
        ("host_speed_scale", sum(seconds) / measured, "ratio"),
    ]
    if workload.name == "mesh10-sweep":
        notes.append(("sweep_s", statistics.median(seconds), "s"))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, notes


def per_layer(workload, tracer_module, seconds: float) -> tuple[dict, list]:
    count = max(1, round(seconds * workload.items_per_s / 2))
    tracer = tracer_module.Tracer()
    traced = [workload.run_item(i, timer=tracer.op) for i in range(count)]
    untraced = [workload.run_item(i) for i in range(count)]
    traced_s = sum(op.seconds for item in traced for op in item)
    untraced_s = sum(op.seconds for item in untraced for op in item)
    out = WORK / workload.name / "trace.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out)
    return tracer.metrics(traced_s / untraced_s), traced + untraced


def run_one(args) -> int:
    workloads, tracer_module = load_library()
    probe = Probe()
    workload, warm_up, setup_s = setup_workload(workloads, args.workload, args.seed, probe)
    checked = warm_up + workload.check_reference()
    if args.trace:
        metrics, items = per_layer(workload, tracer_module, args.seconds)
        notes = []
    else:
        items = run_timed(workload, args.seconds, probe)
        if not any(op.seconds > 0 for item in items for op in item):
            print("error: every operation raised", file=sys.stderr)
            return 1
        metrics, notes = end_to_end(workload, items, setup_s, probe)
    ops = checked + [op for item in items for op in item]
    attempted = len(ops)
    failed = sum(1 for op in ops if op.failed)
    notes.append(("error_ratio", failed / attempted, "ratio"))
    for name, body in metrics.items():
        print(f"{args.workload:<13} {name:<30} {body['value']:>14.6g} {body['unit']}")
    for name, value, unit in notes:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<13} {name:<30} {shown:>14} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

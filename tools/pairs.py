#!/usr/bin/env python3
"""Run the benchmark on two git refs in alternating pairs and record every pair.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 --seconds 8 --out pairs.json

Both refs are extracted with ``git archive`` into a temporary directory,
which is removed on exit.  Pair k runs
``python3 bench/run.py --workload all --seed k --seconds S`` once in each
tree; the parent runs first in odd pairs and the change in even ones, so
neither side always runs on a warmer or cooler machine.  The run stops at the
first non-zero exit or ``"correct": false``.

The output JSON holds the core count, the Python version, every pair's values
and host-speed scales, and for each ``workload.metric`` the median and
quartiles of both sides and how many pairs the change won.  A metric's
direction is its ``better`` in ``BENCHMARK.json``.  An end-to-end metric also
gets the gate: the relative change of the medians, whether it is within the
metric's ``bound``, and whether it is unresolved, which is when the parent's
own spread is wider than the bound; the gate is printed as a table too.
Before the pairs, ``tools/opcount.py`` runs once in each tree, and its
counts are kept under ``"opcount"``, ``null`` for a tree without the tool.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# a count line of tools/opcount.py
_COUNTS = re.compile(r"(?P<input>.+?) (?P<opcodes>\d+) opcodes (?P<table_misses>\d+) "
                     r"table misses (?P<kernel_calls>\d+) kernel calls "
                     r"(?P<eligible_link_scans>\d+) eligible-link scans")


def directions(benchmark: dict) -> dict:
    """Metric name -> "higher" or "lower", from BENCHMARK.json's metric lists."""
    return {m["name"]: m["better"]
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def bounds(benchmark: dict) -> dict:
    """End-to-end metric name -> the relative worsening it may show, its ``bound``."""
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def _relative(value: float, median: float) -> float:
    """value as a fraction of |median|: 0 when value is 0, else inf when median is."""
    if value == 0:
        return 0.0
    return math.copysign(math.inf, value) if median == 0 else value / abs(median)


def _gate(values: dict, body: dict, direction: str, bound: float) -> dict:
    """The relative change of the medians and whether it worsens by at most
    bound; the parent's spread, (q3 - q1) / |median|, and whether it leaves the
    gate unresolved.  values holds both sides' runs, body their medians and
    quartiles.

    A spread wider than the bound means the parent's runs alone could move a
    median past it, so the gate cannot tell a change from noise, unless every
    change run beats every parent run.
    """
    parent, change = body["parent"], body["change"]
    relative = _relative(change["median"] - parent["median"], parent["median"])
    worse = relative if direction == "lower" else -relative
    width = _relative(parent["q3"] - parent["q1"], parent["median"])
    sign = 1 if direction == "higher" else -1
    beats_all = (min(sign * v for v in values["change"])
                 > max(sign * v for v in values["parent"]))
    return {"relative": relative, "bound": bound, "within": worse <= bound,
            "spread": width, "unresolved": width > bound and not beats_all}


def _spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict, bound: dict | None = None) -> dict:
    """Per ``workload.metric``: both sides' median and quartiles, and the change's wins.

    Each pair maps "parent" and "change" to {"workload.metric": value}.  A
    pair is a win when the change is strictly better in the metric's
    direction; a metric without a direction has ``wins`` None.  A metric with
    a bound also has its ``gate``.
    """
    summary = {}
    for name in pairs[0]["parent"]:
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        direction = better.get(name.split(".", 1)[1])
        wins = None
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (change - parent) > 0
                       for parent, change in zip(values["parent"], values["change"]))
        summary[name] = {"better": direction, "pairs": len(pairs), "wins": wins,
                         **{side: _spread(values[side]) for side in SIDES}}
        metric = name.split(".", 1)[1]
        if direction is not None and metric in (bound or {}):
            summary[name]["gate"] = _gate(values, summary[name], direction,
                                          bound[metric])
    return summary


def gate_table(summary: dict) -> str:
    """One line per gated metric: medians, relative change, bound, the
    parent's spread (marked when it leaves the gate unresolved) and verdict."""
    lines = []
    for name, body in summary.items():
        gate = body.get("gate")
        if gate is not None:
            lines.append(f"{name:32} {body['parent']['median']:12.6g} -> "
                         f"{body['change']['median']:12.6g} {gate['relative']:+8.2%} "
                         f"(bound {gate['bound']:.0%}, spread {gate['spread']:.1%}"
                         f"{' UNRESOLVED' if gate['unresolved'] else ''}, "
                         f"better {body['better']}) "
                         f"{'ok' if gate['within'] else 'WORSE'}")
    return "\n".join(lines)


def run_bench(tree: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--workload all`` run: its metric values and each workload's host-speed scale."""
    argv = [sys.executable, "bench/run.py", "--workload", "all",
            "--seed", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"bench/run.py failed in {tree} (exit {child.returncode}):\n{child.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench/run.py reported correct: false in {tree} at seed {seed}")
    scales = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[1] == "host_speed_scale":
            scales[fields[0]] = float(fields[2])
    return {name: body["value"] for name, body in result["metrics"].items()}, scales


def parse_opcount(text: str) -> dict:
    """tools/opcount.py's output as {"kernel": name, input: {count name: n}};
    a line it does not recognise raises ValueError."""
    counts = {}
    for line in text.splitlines():
        match = _COUNTS.fullmatch(line)
        if match:
            counts[match["input"]] = {name: int(value) for name, value
                                      in match.groupdict().items() if name != "input"}
        elif line.startswith("kernel "):
            counts["kernel"] = line.split(" ", 1)[1]
        else:
            raise ValueError(f"not an opcount line: {line!r}")
    return counts


def run_opcount(tree: Path) -> dict | None:
    """The parsed counts of one ``tools/opcount.py`` run in tree, or None
    when the tree has no such tool."""
    if not (tree / "tools" / "opcount.py").is_file():
        return None
    child = subprocess.run([sys.executable, "tools/opcount.py"], cwd=tree,
                           env={**os.environ, "PYTHONPATH": "src"},
                           capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"tools/opcount.py failed in {tree} (exit {child.returncode}):\n"
                 f"{child.stderr}")
    return parse_opcount(child.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    refs = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
            "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            trees[side].mkdir()
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", refs[side]],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive,
                           check=True)
        opcount = {side: run_opcount(trees[side]) for side in SIDES}
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0], "scale": {}}
            for side in order:
                pair[side], pair["scale"][side] = run_bench(trees[side], seed,
                                                            args.seconds)
            pairs.append(pair)
            print(f"pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)
    summary = summarize(pairs, directions(benchmark), bounds(benchmark))
    report = {"parent": refs["parent"], "change": refs["change"],
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "python": platform.python_version(), "opcount": opcount,
              "pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(gate_table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The summary of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pairs_module():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_takes_medians_quartiles_and_wins_in_each_direction():
    pairs = _pairs_module()
    runs = [({"w.embed_ms_p50": 1.0, "w.accept_ratio": 0.5, "w.sweep_s": 4.0},
             {"w.embed_ms_p50": 0.5, "w.accept_ratio": 0.5, "w.sweep_s": 3.0}),
            ({"w.embed_ms_p50": 2.0, "w.accept_ratio": 0.5, "w.sweep_s": 4.0},
             {"w.embed_ms_p50": 2.5, "w.accept_ratio": 0.6, "w.sweep_s": 3.0}),
            ({"w.embed_ms_p50": 3.0, "w.accept_ratio": 0.5, "w.sweep_s": 4.0},
             {"w.embed_ms_p50": 2.0, "w.accept_ratio": 0.4, "w.sweep_s": 3.0})]
    summary = pairs.summarize(
        [{"seed": k, "parent": parent, "change": change}
         for k, (parent, change) in enumerate(runs, 1)],
        {"embed_ms_p50": "lower", "accept_ratio": "higher"})
    latency = summary["w.embed_ms_p50"]
    assert latency["better"] == "lower" and latency["pairs"] == 3
    assert latency["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert latency["change"] == {"median": 2.0, "q1": 1.25, "q3": 2.25}
    assert latency["wins"] == 2          # 0.5 < 1.0 and 2.0 < 3.0
    assert summary["w.accept_ratio"]["wins"] == 1   # a tie is not a win
    assert summary["w.sweep_s"]["wins"] is None     # no direction, no wins
    one = pairs.summarize([{"parent": {"w.setup_s": 2.0}, "change": {"w.setup_s": 1.0}}],
                          {"setup_s": "lower"})
    assert one["w.setup_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["w.setup_s"]["wins"] == 1


def test_every_benchmark_metric_has_a_direction():
    pairs = _pairs_module()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = pairs.directions(benchmark)
    assert {m["name"] for m in benchmark["end_to_end"]} <= better.keys()
    assert set(better.values()) <= {"higher", "lower"}

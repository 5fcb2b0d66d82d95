"""The summary of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

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


def test_gate_is_the_relative_change_of_the_medians_against_the_bound():
    pairs = _pairs_module()
    runs = [({"w.embed_ms_p50": 1.0, "w.accept_ratio": 0.5, "w.setup_s": 2.0,
              "w.peak_rss_mb": 50.0},
             {"w.embed_ms_p50": 1.1, "w.accept_ratio": 0.4, "w.setup_s": 2.6,
              "w.peak_rss_mb": 50.0}),
            ({"w.embed_ms_p50": 3.0, "w.accept_ratio": 0.5, "w.setup_s": 2.0,
              "w.peak_rss_mb": 0.0},
             {"w.embed_ms_p50": 3.3, "w.accept_ratio": 0.4, "w.setup_s": 2.6,
              "w.peak_rss_mb": 1.0})]
    better = {"embed_ms_p50": "lower", "accept_ratio": "higher", "setup_s": "lower",
              "peak_rss_mb": "lower"}
    bound = {"embed_ms_p50": 0.2, "accept_ratio": 0.1, "setup_s": 0.25,
             "peak_rss_mb": 0.2}
    summary = pairs.summarize([{"parent": parent, "change": change}
                               for parent, change in runs], better, bound)
    latency = summary["w.embed_ms_p50"]["gate"]     # medians 2.0 -> 2.2
    assert latency["relative"] == pytest.approx(0.1) and latency["within"]
    assert latency["bound"] == 0.2
    accept = summary["w.accept_ratio"]["gate"]      # 0.5 -> 0.4, higher is better
    assert accept["relative"] == pytest.approx(-0.2) and not accept["within"]
    setup = summary["w.setup_s"]["gate"]            # 2.0 -> 2.6, lower is better
    assert setup["relative"] == pytest.approx(0.3) and not setup["within"]
    rss = summary["w.peak_rss_mb"]["gate"]          # medians 25.0 -> 25.5
    assert rss["relative"] == pytest.approx(0.02) and rss["within"]
    table = pairs.gate_table(summary).splitlines()
    assert len(table) == 4
    assert table[0].startswith("w.embed_ms_p50") and table[0].endswith(" ok")
    assert table[1].startswith("w.accept_ratio") and table[1].endswith(" WORSE")
    # without bounds, or for a metric without one, there is no gate
    assert "gate" not in pairs.summarize([{"parent": runs[0][0], "change": runs[0][1]}],
                                         better)["w.setup_s"]
    zero = pairs.summarize([{"parent": {"w.m": 0.0}, "change": {"w.m": 1.0}}],
                           {"m": "lower"}, {"m": 0.2})["w.m"]["gate"]
    assert zero["relative"] == math.inf and not zero["within"]


def test_every_benchmark_metric_has_a_direction():
    pairs = _pairs_module()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = pairs.directions(benchmark)
    assert {m["name"] for m in benchmark["end_to_end"]} <= better.keys()
    assert pairs.bounds(benchmark).keys() == {m["name"] for m in benchmark["end_to_end"]}
    assert set(better.values()) <= {"higher", "lower"}


def test_gate_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    pairs = _pairs_module()
    wide, tight = [1.0, 2.0, 3.0], [1.9, 2.0, 2.1]     # spreads 50 % and 5 %
    cases = {
        "w.noisy": (wide, [1.9, 2.0, 2.1], "lower", True),
        "w.clear": (wide, [0.5, 0.6, 0.7], "lower", False),   # beats every parent run
        "w.tight": (tight, [2.5, 2.6, 2.7], "lower", False),
        "w.higher": (wide, [3.5, 4.0, 5.0], "higher", False),
        "w.near": (wide, [2.5, 3.0, 3.5], "higher", True),
        "w.zero": ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", False),
        "w.around_zero": ([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], "lower", True),
    }
    runs = [{"parent": {name: case[0][k] for name, case in cases.items()},
             "change": {name: case[1][k] for name, case in cases.items()}}
            for k in range(3)]
    better = {name.split(".")[1]: case[2] for name, case in cases.items()}
    summary = pairs.summarize(runs, better, dict.fromkeys(better, 0.2))
    for name, (_, _, _, unresolved) in cases.items():
        assert summary[name]["gate"]["unresolved"] is unresolved, name
    assert summary["w.noisy"]["gate"]["spread"] == pytest.approx(0.5)
    assert summary["w.tight"]["gate"]["spread"] == pytest.approx(0.05)
    assert summary["w.zero"]["gate"]["spread"] == 0.0
    assert summary["w.around_zero"]["gate"]["spread"] == math.inf
    # unresolved says nothing of the medians: w.tight is resolved and worse
    assert not summary["w.tight"]["gate"]["within"]
    assert summary["w.noisy"]["gate"]["within"]
    table = dict(zip(cases, pairs.gate_table(summary).splitlines()))
    assert "spread 50.0% UNRESOLVED," in table["w.noisy"]
    assert table["w.noisy"].endswith(" ok")
    assert "spread 5.0%," in table["w.tight"] and table["w.tight"].endswith(" WORSE")
    assert "UNRESOLVED" not in table["w.clear"]

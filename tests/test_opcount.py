"""The opcode counter of ``tools/opcount.py`` on the worked example."""

import importlib.util
import sys
from pathlib import Path

from anypath_vne import anypath
from anypath_vne.embedder import embed
from anypath_vne.scenario import example_fixture

ROOT = Path(__file__).resolve().parents[1]


def _opcount_module():
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_warm_embed_counts_the_same_opcodes_twice():
    opcount = _opcount_module()
    base, request, coeffs = example_fixture()
    embed(base.clone(), request, coeffs)   # fills the route cache
    misses = anypath._table.cache_info().misses
    first, embedding = opcount.count_opcodes(lambda: embed(base.clone(), request, coeffs))
    second, _ = opcount.count_opcodes(lambda: embed(base.clone(), request, coeffs))
    assert first == second > 0
    assert anypath._table.cache_info().misses == misses
    assert sorted(embedding.service_map) == ["s1", "s2", "s3"]


def test_only_the_package_frames_are_counted_and_the_trace_is_put_back():
    opcount = _opcount_module()
    before = sys.gettrace()
    assert opcount.count_opcodes(lambda: sorted(range(100), key=str))[0] == 0
    assert sys.gettrace() is before

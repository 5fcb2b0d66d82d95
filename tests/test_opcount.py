"""The opcode counter of ``tools/opcount.py`` on the worked example."""

import importlib.util
import sys
from pathlib import Path

import pytest

from anypath_vne import anypath
from anypath_vne.embedder import embed
from anypath_vne.netmodel import SubstrateNetwork
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


@pytest.mark.parametrize("kernel", ["loaded", "python"])
def test_counted_sees_tables_kernel_calls_and_scans_and_puts_them_back(request, kernel):
    if kernel == "python":
        request.getfixturevalue("python_kernel")
    opcount = _opcount_module()
    compiled, eligible_links = anypath._kernel, SubstrateNetwork.eligible_links
    anypath._table.cache_clear()
    base, example_request, coeffs = example_fixture()
    net = base.clone()
    opcodes, misses, calls, scans = opcount.counted(lambda: embed(net, example_request, coeffs))
    assert opcodes > 0 and misses > 0
    assert calls == (0 if compiled is None else misses)
    # a fresh network scans each of its channels' bandwidths once
    assert scans == len({channel.bw for channel in example_request.channels}) == 3
    assert anypath._kernel is compiled
    assert SubstrateNetwork.eligible_links is eligible_links
    anypath._table.cache_clear()

"""The compiled route kernel against its reference, the Python kernel.

Each table the compiled kernel builds must equal ``helpers.table``, which runs
``anypath._orient`` and ``anypath._sweep``: every cost by repr, every
forwarding set, the settle order and the ranked order.  The kernel is built
into ``tmp_path`` for these tests, so they check the source as it is, not an
object left in ``__pycache__``.
"""

import ctypes
import importlib.util
import json
import math
import os
import random
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anypath_vne import anypath
from anypath_vne.embedder import embed
from anypath_vne.netmodel import SchemaError, SubstrateNetwork

import helpers
from helpers import random_substrate

ROOT = Path(__file__).resolve().parents[1]
HUGE = sys.float_info.max

NO_CC = "no C compiler (cc) on PATH to build the route kernel"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason=NO_CC)


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    if shutil.which("cc") is None:
        pytest.skip(NO_CC)
    directory = tmp_path_factory.mktemp("kernel")
    built, reason = anypath._load_kernel(directory)
    assert built is not None and reason is None
    assert [path.suffix for path in directory.iterdir()] == [".so"]
    return built


def assert_same_table(kernel, net: SubstrateNetwork, dst: str, bw: int):
    """The compiled kernel's table equals the Python kernel's, field for field
    and type for type; returns it."""
    compiled = anypath._compiled_table(kernel, net.topology(), dst, net.eligible_links(bw))
    reference = helpers.table(net, dst, bw)
    assert repr(compiled.cost) == repr(reference.cost)
    assert compiled.arcs == reference.arcs
    assert compiled.start == reference.start
    assert compiled.settle_order == reference.settle_order
    assert compiled.ranked == reference.ranked
    assert (compiled.topology, compiled.dst) == (reference.topology, reference.dst)
    assert type(compiled.cost) is list and {type(c) for c in compiled.cost} == {float}
    assert type(compiled.arcs) is array and compiled.arcs.typecode == "i"
    assert type(compiled.start) is array and compiled.start.typecode == "i"
    assert type(compiled.settle_order) is array and compiled.settle_order.typecode == "i"
    assert type(compiled.ranked) is array and compiled.ranked.typecode == "i"
    return compiled


@pytest.fixture(scope="module", params=["python", "c"])
def build(request):
    """(net, dst, bw) -> route table, by one kernel and outside the route cache."""
    if request.param == "python":
        return helpers.table
    compiled = request.getfixturevalue("kernel")
    return lambda net, dst, bw: anypath._compiled_table(
        compiled, net.topology(), dst, net.eligible_links(bw))


def assert_flat_layout(table, reference):
    """The table's forwarding sets are a well-formed flat layout and equal the
    reference's, set for set and in order."""
    arcs, start, ends = table.arcs, table.start, table.topology.ends
    n = len(table.topology.nodes)
    assert len(start) == n + 1
    assert start[0] == 0 and start[-1] == len(arcs)
    assert all(a <= b for a, b in zip(start, start[1:]))
    rank = {u: k for k, u in enumerate(table.settle_order)}
    for i in range(n):
        members = table.members(i)
        assert all(ends[arc ^ 1] == i for arc in members)
        if i not in rank:
            assert not members
        # appended as their heads settled, parallel links in link order
        assert list(members) == sorted(members, key=lambda arc: (rank[ends[arc]], arc))
        assert tuple(members) == tuple(reference.members(i))


def digest_corpus():
    """(net, dst, bw) of the 2 374 tables of test_route_tables_match_reference."""
    rng = np.random.default_rng(20232)
    for _ in range(200):
        net = random_substrate(rng, max_nodes=10)
        for dst in net.nodes:
            for bw in (0, 50):
                yield net, dst, bw


def test_route_table_digest_corpus(kernel):
    tables = 0
    for net, dst, bw in digest_corpus():
        assert_same_table(kernel, net, dst, bw)
        tables += 1
    assert tables == 2374


def test_flat_layout_on_the_digest_corpus(build):
    tables = 0
    for net, dst, bw in digest_corpus():
        assert_flat_layout(build(net, dst, bw), helpers.table(net, dst, bw))
        tables += 1
    assert tables == 2374


def test_tools_digests_corpus(kernel):
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    rng = random.Random(digests.SEED)
    tables = 0
    for _ in range(digests.SUBSTRATES):
        net = digests.substrate(rng)
        for dst in net.nodes:
            for bw in digests.BANDWIDTHS:
                assert_same_table(kernel, net, dst, bw)
                tables += 1
        for _ in range(digests.REQUESTS):    # keep the draws of the digest corpus
            digests.request(rng)
    assert tables == 5498


@st.composite
def tie_prone_nets(draw) -> SubstrateNetwork:
    """Up to 12 nodes (ids past n9) and 20 links with independently drawn ends,
    so parallel links, self-loops and disconnected parts occur, and delays and
    pdrs from small sets of exact binary fractions, so costs tie."""
    n = draw(st.integers(1, 12))
    net = SubstrateNetwork()
    for i in range(1, n + 1):
        net.add_node(f"n{i}", 1, 1, 1)
    ends = st.integers(1, n).map("n{}".format)
    for k, (a, b, bw, delay, pdr) in enumerate(draw(st.lists(st.tuples(
            ends, ends, st.sampled_from((0, 5)), st.sampled_from((0.5, 1.0, 2.0, 4.0)),
            st.sampled_from((1.0, 0.75, 0.5, 0.25))), max_size=20))):
        net.add_link(f"l{k + 1}", a, b, bw=bw, delay=delay, pdr=pdr)
    return net


def small_net(nodes: int, links=()) -> SubstrateNetwork:
    """Nodes n1..n<nodes>, and link l<k> between the k-th (a, b) of links."""
    net = SubstrateNetwork()
    for i in range(1, nodes + 1):
        net.add_node(f"n{i}", 1, 1, 1)
    for k, (a, b) in enumerate(links, 1):
        net.add_link(f"l{k}", a, b, bw=5, delay=1.0, pdr=0.5)
    return net


@settings(max_examples=300, deadline=None)
@given(net=tie_prone_nets())
# with no links the kernel gets NULL for its empty link and arc arrays
@example(net=small_net(3))
@example(net=small_net(3, [("n1", "n2")]))    # n3 is isolated
def test_tie_prone_substrates(kernel, net):
    for dst in net.nodes:
        for bw in (0, 5):
            assert_same_table(kernel, net, dst, bw)


@settings(max_examples=300, deadline=None)
@given(net=tie_prone_nets())
def test_flat_layout_on_tie_prone_substrates(build, net):
    for dst in net.nodes:
        for bw in (0, 5):
            assert_flat_layout(build(net, dst, bw), helpers.table(net, dst, bw))


def grid_net(side: int) -> SubstrateNetwork:
    """A side x side grid whose links all have delay 1.0 and pdr 0.5, so
    whole wavefronts tie on cost; every third link has bw 1, the rest 10."""
    net = SubstrateNetwork()
    for i in range(side * side):
        net.add_node(f"n{i + 1}", 1, 1, 1)
    pairs = [(i, i + 1) for i in range(side * side) if (i + 1) % side] \
        + [(i, i + side) for i in range(side * (side - 1))]
    for k, (a, b) in enumerate(pairs, 1):
        net.add_link(f"l{k}", f"n{a + 1}", f"n{b + 1}", bw=1 if k % 3 == 0 else 10,
                     delay=1.0, pdr=0.5)
    return net


def tied_random_net(seed: int, nodes: int = 300) -> SubstrateNetwork:
    """A random spanning tree of nodes nodes and 2 * nodes more links with
    independently drawn ends, delays in {1, 2} and pdrs in {0.5, 1.0}."""
    rng = random.Random(seed)
    net = SubstrateNetwork()
    for i in range(1, nodes + 1):
        net.add_node(f"n{i}", 1, 1, 1)
    for k in range(1, 3 * nodes):
        a = k + 1 if k < nodes else rng.randrange(1, nodes + 1)
        b = rng.randrange(1, a) if k < nodes else rng.randrange(1, nodes + 1)
        net.add_link(f"l{k}", f"n{a}", f"n{b}", bw=rng.choice((1, 10)),
                     delay=rng.choice((1.0, 2.0)), pdr=rng.choice((0.5, 1.0)))
    return net


@pytest.mark.parametrize("net", [grid_net(20), tied_random_net(1)], ids=["grid", "random"])
def test_deep_heaps_with_equal_keys(kernel, net):
    # hundreds of nodes keep a heap of several levels, so pops walk long
    # paths to a leaf and sift up among entries whose costs tie
    dsts = random.Random(len(net.nodes)).sample(sorted(net.nodes), 12)
    for dst in dsts:
        assert len(assert_same_table(kernel, net, dst, 0).settle_order) == len(net.nodes)
        assert_same_table(kernel, net, dst, 5)


def test_compiled_table_of_large_substrate_is_compact(kernel):
    # a random spanning tree of 1000 nodes and 2001 more random links, so
    # every node is reached
    rng = random.Random(1000)
    net = SubstrateNetwork()
    for i in range(1, 1001):
        net.add_node(f"n{i}", 1, 1, 1)
    for k in range(1, 3001):
        a = k + 1 if k < 1000 else rng.randrange(1, 1001)
        b = rng.randrange(1, a) if k < 1000 else rng.randrange(1, 1001)
        net.add_link(f"l{k}", f"n{a}", f"n{b}", bw=1, delay=rng.randrange(1, 2049) / 128,
                     pdr=rng.randrange(512, 1025) / 1024)
    topology, eligible = net.topology(), net.eligible_links(0)
    tracemalloc.start()
    try:
        table = anypath._compiled_table(kernel, topology, "n1", eligible)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.settle_order) == 1000
    # 52 516 B measured with the output arrays written in place, 58 819 B
    # with ctypes outputs copied out; 114 979 B with settle_order and ranked
    # as lists of ints, 230 627 B with a tuple per node
    assert size <= 60_000


@pytest.mark.parametrize("behind", [False, True])
def test_a_repricing_that_raises_a_cost(kernel, behind):
    # p first prices at 1/0.9 through d; when b settles at 1.0, p adds b and
    # its cost rises to 101.1...; with q in the heap at 2.0, p must sink below it
    net = SubstrateNetwork()
    for nid in ("b", "d", "p") + ("q",) * behind:
        net.add_node(nid, 1, 1, 1)
    net.add_link("l1", "p", "d", bw=10, delay=1.0, pdr=0.9)
    net.add_link("l2", "b", "d", bw=10, delay=1.0, pdr=1.0)
    net.add_link("l3", "p", "b", bw=10, delay=100.0, pdr=0.9)
    if behind:
        net.add_link("l4", "q", "d", bw=10, delay=2.0, pdr=1.0)
    table = assert_same_table(kernel, net, "d", 10)
    assert helpers.cost_by_id(table)["p"] == 101.1010101010101 > 1 / 0.9
    assert [edge.head for edge in helpers.members(table, "p")] == ["d", "b"]
    assert helpers.settled_ids(table) == (["d", "b", "q", "p"] if behind else ["d", "b", "p"])


def test_a_route_with_more_links_than_nodes(kernel):
    # 8 parallel links a-b and 8 b-z: a's route toward z uses all 16, so a
    # rank by link count needs more than n = 3 counts
    net = SubstrateNetwork()
    for nid in ("a", "b", "z"):
        net.add_node(nid, 1, 1, 1)
    for k in range(16):
        net.add_link(f"l{k + 1}", *(("a", "b"), ("b", "z"))[k // 8], bw=1,
                     delay=1.0 + k % 8, pdr=0.3)
    table = assert_same_table(kernel, net, "z", 0)
    assert helpers.link_count(table, "a") == 16
    assert helpers.settled_ids(table) == ["z", "b", "a"]


def test_overflowing_costs_match_and_never_fall_back(kernel, monkeypatch):
    # delays near the float maximum over pdr-1 links overflow sums and
    # hyperlink costs to inf; a settled head's cost is below its
    # predecessor's, so it is finite, and no product 0 * inf, hence no NaN,
    # can arise from validated links
    monkeypatch.setattr(anypath, "_kernel", kernel)
    rng = random.Random(11)
    priced_inf = 0
    for _ in range(300):
        n = rng.randrange(2, 9)
        net = SubstrateNetwork()
        for i in range(1, n + 1):
            net.add_node(f"n{i}", 1, 1, 1)
        for k in range(1, rng.randrange(1, 3 * n) + 1):
            net.add_link(f"l{k}", f"n{rng.randrange(1, n + 1)}", f"n{rng.randrange(1, n + 1)}",
                         bw=1, delay=rng.choice((HUGE, HUGE / 2, HUGE / 3, 1e300, 1.0)),
                         pdr=rng.choice((1.0, 1.0, 0.75, 0.5, 2.0 ** -53)))
        for dst in net.nodes:
            table = assert_same_table(kernel, net, dst, 0)
            assert not any(map(math.isnan, table.cost))
            served = anypath._table(net.topology(), dst, net.eligible_links(0))
            assert repr(served.cost) == repr(table.cost)
            priced_inf += any(cost == math.inf for i, cost in enumerate(table.cost)
                              if table.members(i))
    assert priced_inf > 100


def test_a_nan_cost_is_refused_by_the_compiled_kernel(kernel, monkeypatch):
    # validation refuses a NaN pdr, so it is put into a built topology; the
    # compiled kernel reports the NaN, and neither it nor _table builds a table
    net = SubstrateNetwork()
    for i in range(1, 5):
        net.add_node(f"n{i}", 1, 1, 1)
    for k, (a, b) in enumerate((("n1", "n2"), ("n2", "n3"), ("n1", "n3"), ("n3", "n4")), 1):
        net.add_link(f"l{k}", a, b, bw=1, delay=1.0, pdr=0.5)
    topology, eligible = net.topology(), net.eligible_links(0)
    # a table built before the write shows that the kernel reads the
    # topology's arrays, not a copy made on an earlier call
    unchanged = anypath._compiled_table(kernel, topology, "n1", eligible)
    assert not any(map(math.isnan, unchanged.cost))
    topology.pdr[4] = topology.pdr[5] = math.nan
    monkeypatch.setattr(anypath, "_kernel", kernel)
    anypath._table.cache_clear()
    with pytest.raises(FloatingPointError, match="n1"):
        anypath._compiled_table(kernel, topology, "n1", eligible)
    with pytest.raises(FloatingPointError):
        anypath._table(topology, "n1", eligible)
    assert anypath._table.cache_info().currsize == 0
    # the Python kernel orders the NaN instead
    assert any(map(math.isnan, helpers.table(net, "n1", 0).cost))


def no_python_kernel(*args):
    raise AssertionError("the Python kernel ran")


@pytest.mark.parametrize("compiled", [False, True], ids=["python", "c"])
def test_an_eligible_string_of_another_length_is_refused(request, monkeypatch, compiled):
    # the compiled kernel would read past a short one, and a long one would
    # pass unseen in the Python kernel
    net = SubstrateNetwork()
    for nid in ("n1", "n2", "n3"):
        net.add_node(nid, 1, 1, 1)
    net.add_link("l1", "n1", "n2", bw=1, delay=1.0, pdr=0.5)
    net.add_link("l2", "n2", "n3", bw=1, delay=1.0, pdr=0.5)
    monkeypatch.setattr(anypath, "_kernel",
                        request.getfixturevalue("kernel") if compiled else None)
    monkeypatch.setattr(anypath, "_sweep", no_python_kernel)
    anypath._table.cache_clear()
    for eligible in (b"\x01", b"\x01\x01\x01"):
        with pytest.raises(SchemaError) as refused:
            anypath._table(net.topology(), "n1", eligible)
        assert refused.value.field == "eligible"
    assert anypath._table.cache_info().currsize == 0


def test_the_compiled_kernel_builds_every_table(kernel, monkeypatch, example):
    # with the compiled kernel loaded, each table miss is one kernel call and
    # the Python kernel never runs
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(anypath, "_kernel", counting)
    monkeypatch.setattr(anypath, "_sweep", no_python_kernel)
    anypath._table.cache_clear()
    net, request, coeffs = example
    for dst in net.nodes:
        for channel in request.channels:
            anypath.route_table(net, dst, channel.bw)
    embedding = embed(net, request, coeffs)
    assert embedding.service_map == {"s1": "n1", "s2": "n4", "s3": "n5"}
    assert calls == anypath._table.cache_info().misses > len(net.nodes)
    anypath._table.cache_clear()


def test_topology_fields_have_the_kernels_element_types(example_net):
    # the kernel takes them by address, so ctypes checks no element type
    topology = example_net.topology()
    for name in ("adj_start", "adj_link", "adj_node", "ends"):
        field = getattr(topology, name)
        assert type(field) is array and field.typecode == "i", name
        assert field.itemsize == ctypes.sizeof(ctypes.c_int), name
    for name in ("weight", "pdr", "delay"):
        field = getattr(topology, name)
        assert type(field) is array and field.typecode == "d", name
    assert topology.adj_start[-1] == 2 * len(topology.link_ids) == len(topology.ends)
    assert len(topology.weight) == len(topology.link_ids)
    assert len(topology.pdr) == len(topology.delay) == len(topology.ends)


@needs_cc
def test_the_import_builds_and_loads_the_compiled_kernel():
    assert (anypath.KERNEL, anypath.KERNEL_REASON) == ("c", None)
    built = list((Path(anypath.__file__).parent / "__pycache__").glob("route_kernel.*.so"))
    assert built and all(".tmp" not in path.name for path in built)


def test_without_a_compiler_the_package_uses_the_python_kernel(tmp_path):
    # a copy of the package with no built object, and no cc on PATH
    shutil.copytree(ROOT / "src" / "anypath_vne", tmp_path / "src" / "anypath_vne",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    script = textwrap.dedent("""
        import json
        from anypath_vne import anypath, embedder, netmodel
        net = netmodel.SubstrateNetwork()
        for nid, cpu in (("n1", 4), ("n2", 1), ("n3", 8)):
            net.add_node(nid, cpu=cpu, gpu=0, mem=cpu)
        net.add_link("l1", "n1", "n2", bw=10, delay=1.0, pdr=0.5)
        net.add_link("l2", "n2", "n3", bw=10, delay=1.0, pdr=0.5)
        request = netmodel.VirtualRequest("r")
        request.add_service(netmodel.NanoService("s1", cpu=4, mem=4))
        request.add_service(netmodel.NanoService("s2", cpu=8, mem=8))
        request.add_channel(netmodel.Channel("c1", "s1", "s2", bw=5,
                                             max_delay=100.0, min_pdr=0.1))
        embedding = embedder.embed(net, request, embedder.Coefficients())
        print(json.dumps({"kernel": anypath.KERNEL, "reason": anypath.KERNEL_REASON,
                          "file": anypath.__file__,
                          "embedding": embedding.to_dict()}))
    """)
    runs = {}
    for name, path in (("copy", tmp_path / "bin"), ("repository", os.environ.get("PATH", ""))):
        src = tmp_path / "src" if name == "copy" else ROOT / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PATH=str(path))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        runs[name] = json.loads(proc.stdout)
    copy = runs["copy"]
    assert (copy["kernel"], copy["reason"]) == ("python", "cc not found")
    repository = runs["repository"]
    assert (repository["reason"] is None) == (repository["kernel"] == "c")
    assert Path(copy["file"]).is_relative_to(tmp_path)
    assert copy["embedding"] == runs["repository"]["embedding"]
    assert copy["embedding"]["services"] == {"s1": "n1", "s2": "n3"}
    assert not list((tmp_path / "src" / "anypath_vne").glob("__pycache__/route_kernel*"))


def fake_cc(tmp_path, monkeypatch, script: str):
    """Put a cc that runs the shell script alone on PATH."""
    (tmp_path / "bin").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_text(f"#!/bin/sh\n{script}\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


@pytest.mark.parametrize("script, reason", [
    ('echo "cc: a note" >&2; echo "cc: fatal error: no input" >&2; exit 1',
     "cc: fatal error: no input"),
    ("exit 3", "cc exited with status 3"),
])
def test_a_failed_build_keeps_the_compilers_last_stderr_line(tmp_path, monkeypatch,
                                                             script, reason):
    fake_cc(tmp_path, monkeypatch, script)
    assert anypath._load_kernel(tmp_path / "kernel") == (None, reason)
    assert not list((tmp_path / "kernel").iterdir())


def test_an_object_that_does_not_load_keeps_the_load_error(tmp_path, monkeypatch):
    # the file that -o names is not a shared object
    fake_cc(tmp_path, monkeypatch, 'while [ "$1" != -o ]; do shift; done; echo junk > "$2"')
    kernel, reason = anypath._load_kernel(tmp_path / "kernel")
    assert kernel is None
    [built] = (tmp_path / "kernel").iterdir()
    assert built.suffix == ".so" and str(built) in reason

"""The routing and embedding core runs on the standard library alone: it
imports and embeds without numpy, and ``tools/digests.py``, which uses only
that core, pins its route tables and embeddings on a ``random.Random``
corpus that every interpreter draws alike."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 digests printed by tools/digests.py for its default seed; the same on
# Python 3.10, 3.11, 3.12 and 3.13
ROUTES_SHA256 = "7aadd5adb2513d454f478110acb49a8dfce0e8af6f1e8690cc9435967dfc8668"
EMBEDS_SHA256 = "cbbc2147bb0434e88057cabb8160cbc82771ece71ed1dc3fccab45e9dc93cf5a"


def test_core_imports_and_embeds_without_numpy():
    script = textwrap.dedent("""
        import json, sys
        sys.modules["numpy"] = None    # an import of numpy now raises ImportError
        from anypath_vne import anypath, embedder, metrics, netmodel, windowing
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
        print(json.dumps({"embedding": embedding.to_dict(),
                          "modules": sorted(name for name in sys.modules
                                            if name.startswith("anypath_vne"))}))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # s2 fits only n3, and then s1 only n1, two hops away
    assert out["embedding"]["services"] == {"s1": "n1", "s2": "n3"}
    assert out["embedding"]["channels"][0]["links"] == ["l1", "l2"]
    assert out["modules"] == ["anypath_vne", "anypath_vne.anypath", "anypath_vne.embedder",
                              "anypath_vne.metrics", "anypath_vne.netmodel",
                              "anypath_vne.windowing"]


def test_digests_match_reference():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert digests.digests() == {"routes": ROUTES_SHA256, "embeds": EMBEDS_SHA256}


def test_digests_match_reference_with_the_python_kernel(python_kernel):
    test_digests_match_reference()

"""Static checks of the package source with ``ast``, in place of a linter:
every import is used, every module-level private name is referenced,
nodes and links are put in natural-key order in one place only, no
per-channel step sorts by natural key, and floats are never added with the
builtin ``sum``."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "anypath_vne"
TREES = {path.name: ast.parse(path.read_text(), path.name)
         for path in sorted(SOURCE.glob("*.py"))}


def _read_names(tree) -> set:
    """The names a module reads, those in quoted annotations included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - _read_names(tree)) == []


def test_every_private_module_name_is_referenced():
    private = {(module, name) for module, tree in TREES.items()
               for node in tree.body
               for name in ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            else [target.id for target in getattr(node, "targets", [])
                                  + [getattr(node, "target", None)]
                                  if isinstance(target, ast.Name)])
               if name.startswith("_") and not name.startswith("__")}
    referenced = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted((module, name) for module, name in private if name not in referenced) == []


def _sorts_ids_by_natural_key(node) -> bool:
    """Whether node is a call ``sorted(<expr>.nodes, key=natural_key)``, or
    the same on ``<expr>.links``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sorted" and bool(node.args)
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in ("nodes", "links")
            and any(keyword.arg == "key" and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "natural_key" for keyword in node.keywords))


def test_only_the_topology_sorts_nodes_by_natural_key():
    # Topology numbers nodes and links in natural-key order; any other module
    # lists them in that order by reading Topology.nodes and .link_ids, not
    # by sorting again
    topology = next(node for node in TREES["netmodel.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "Topology")
    init = next(node for node in topology.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    inside = [node for node in ast.walk(init) if _sorts_ids_by_natural_key(node)]
    assert sorted(node.args[0].attr for node in inside) == ["links", "nodes"]
    elsewhere = [(module, node.lineno) for module, tree in TREES.items()
                 for node in ast.walk(tree)
                 if _sorts_ids_by_natural_key(node) and node not in inside]
    assert elsewhere == []


def _reads(tree, name: str) -> list:
    """(scope, is a sort key) of each read of name in a module: scope is the
    dotted path of the enclosing classes and functions, and a sort key is the
    ``key=`` of a ``sorted`` call."""
    keys = {id(keyword.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            for keyword in node.keywords if keyword.arg == "key"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)):
                found.append((scope, id(child) in keys))
            visit(child, scope)

    visit(tree, "")
    return found


def test_natural_key_sorts_only_substrate_ids_and_output_listings():
    # the topology numbers ids in natural-key order once per substrate, and a
    # route lists its links in that link order, so no per-channel step sorts
    # by natural key; only the embed JSON's listings and the services left
    # unplaced after the channels sort their own ids
    reads = Counter((module, scope, key) for module, tree in TREES.items()
                    for scope, key in _reads(tree, "natural_key"))
    assert reads == Counter({
        ("netmodel.py", "Topology.__init__", True): 2,
        ("embedder.py", "Embedding.to_dict", True): 2,
        ("embedder.py", "embed", True): 1,
    })


def test_builtin_sum_adds_only_integers():
    # the builtin sum of floats is compensated since Python 3.12, so floats
    # are added with netmodel.left_sum, which gives the same bits on every
    # interpreter; these sums are of bandwidths, link counts and accepted
    # flags, all integers
    reads = Counter((module, scope) for module, tree in TREES.items()
                    for scope, _ in _reads(tree, "sum"))
    assert reads == Counter({
        ("metrics.py", "revenue"): 1,
        ("metrics.py", "cost"): 1,
        ("scenario.py", "run_simulation"): 1,
    })

"""Command-line interface: worked example, ad-hoc embedding, load sweep, validation.

Exit codes: 0 success, 2 blocked embedding, 3 input error, 4 internal
invariant violation.

Input schemas (JSON):
  substrate: {"nodes": [{"id", "cpu", "gpu", "mem", "functionals"?}, ...],
              "links": [{"id", "a", "b", "bw", "delay", "pdr"}, ...]}
  request:   {"id"?, "services": [{"id", "cpu", "gpu", "mem", "functionals"?}, ...],
              "channels": [{"id", "src", "dst", "bw", "max_delay", "min_pdr"}, ...]}
  coefficients: {"alpha"?, "beta"?, "cost_alpha"?, "cost_beta"?, "gamma"?}
      where alpha/cost_alpha are a number or a {"cpu", "gpu", "mem"} object
  simulation config: {"substrate"?, "loads"?, "iterations"?, "seed"?,
      "coefficients"?, "generator"?}

Every JSON object refuses a key it does not know, naming it
(``services[0].functionls``), and every key is named after the field it sets.
Loading checks only the JSON shape and the ids; the constructor each value
feeds checks it, so the library refuses exactly what loading refuses, and a
boolean is refused for every number.  A link joins two distinct nodes of the
document, at most one link per pair, so a substrate that loads is valid;
``embed`` checks it again only after embedding, for exit 4.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import json
import os
import signal
import sys
from pathlib import Path

from . import scenario
from .embedder import (
    Coefficients,
    EmbeddingError,
    embed,
    pair_quality_revenue,
    rank_channels,
)
from .netmodel import (
    RESOURCES,
    SchemaError,
    _build,
    _object,
    request_from_dict,
    substrate_from_dict,
    validate_substrate,
)

EXIT_OK = 0
EXIT_BLOCKED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# ground truth for the `example` subcommand self-check
_EXAMPLE_SERVICES = {"s1": "n1", "s2": "n4", "s3": "n5"}
_EXAMPLE_ROUTES = {
    "c1": ("l1", "l2", "l3", "l4"),
    "c2": ("l2", "l5"),
    "c3": ("l4", "l5", "l6"),
}
_EXAMPLE_NODES = {"n1": (0, 0, 0), "n4": (0, 0, 10), "n5": (10, 10, 0)}
_EXAMPLE_BW = {"l1": 20, "l2": 0, "l3": 50, "l4": 10, "l5": 60, "l6": 90}


def fmt(value) -> str:
    """Render numbers with 6 significant digits; integers stay integral."""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _load_json(path: str, what: str) -> dict:
    try:
        # JSON is UTF-8 (RFC 8259), whatever the locale's encoding
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(what, f"cannot read {path}: {exc.strerror}") from exc
    # malformed, not UTF-8, nested too deeply, or an integer literal too long to parse
    except (ValueError, RecursionError) as exc:
        raise SchemaError(what, f"malformed JSON in {path}: {exc}") from exc


def coefficients_from_dict(doc: dict, defaults: Coefficients = None) -> Coefficients:
    """The weights of a JSON object over defaults; ``Coefficients`` checks them.

    Every key is a ``Coefficients`` field.  An alpha key holds one number for
    every resource or a {"cpu", "gpu", "mem"} object.  A bad value is named
    by its key, and by its resource when it sits in such an object.
    """
    fields = dict(_object(doc, "coefficients", (), Coefficients.__dataclass_fields__))
    for key in ("alpha", "cost_alpha"):
        if isinstance(fields.get(key), dict):
            alpha = _object(fields[key], f"coefficients.{key}", RESOURCES)
            fields[key] = tuple(alpha[resource] for resource in RESOURCES)
        elif key in fields:
            fields[key] = (fields[key],) * 3
    try:
        return dataclasses.replace(defaults or Coefficients(), **fields)
    except SchemaError as exc:
        key = exc.field.partition(".")[0]
        # one number given for every resource is named by its key alone
        field = exc.field if isinstance(doc[key], dict) else key
        raise SchemaError(f"coefficients.{field}", exc.detail) from exc


def simulation_config_from_dict(doc: dict) -> scenario.SimulationConfig:
    """The config of a JSON object; the config classes check every value."""
    fields = dict(_object(doc, "config", (),
                          scenario.SimulationConfig.__dataclass_fields__))
    if isinstance(fields.get("loads"), list):
        fields["loads"] = tuple(fields["loads"])
    fields["coefficients"] = _build("config", coefficients_from_dict,
                                    fields.get("coefficients", {}),
                                    scenario.SimulationConfig.coefficients)
    generator = _object(fields.get("generator", {}), "config.generator", (),
                        scenario.GeneratorConfig.__dataclass_fields__)
    fields["generator"] = _build("config.generator", scenario.GeneratorConfig,
                                 **generator)
    return _build("config", scenario.SimulationConfig, **fields)


def cmd_example(_args) -> int:
    net, request, coeffs = scenario.example_fixture()
    print("channel order by pair quality-revenue:")
    for channel in rank_channels(request, coeffs):
        print(f"  {channel.id}: {fmt(pair_quality_revenue(channel, request, coeffs))}")
    try:
        embedding = embed(net, request, coeffs)
    except EmbeddingError as exc:
        print(f"embedding unexpectedly blocked: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    doc = embedding.to_dict()
    print("service placement:")
    for sid, nid in doc["services"].items():
        print(f"  {sid} -> {nid}")
    print("channel routes:")
    for route in doc["channels"]:
        print(f"  {route['id']}: {route['src_node']} -> {route['dst_node']} via "
              f"{{{','.join(route['links'])}}} (eatt {fmt(route['eatt'])})")
    print("residual node resources (cpu, gpu, mem):")
    for nid in net.topology().nodes:
        node = net.nodes[nid]
        print(f"  {nid}: ({node.cpu}, {node.gpu}, {node.mem})")
    print("residual link bandwidth:")
    for lid in net.topology().link_ids:
        print(f"  {lid}: {net.links[lid].bw}")

    ok = embedding.service_map == _EXAMPLE_SERVICES
    ok &= {cid: r.links for cid, r in embedding.channel_routes.items()} == _EXAMPLE_ROUTES
    ok &= all(net.nodes[nid].available() == avail
              for nid, avail in _EXAMPLE_NODES.items())
    ok &= all(net.links[lid].bw == bw for lid, bw in _EXAMPLE_BW.items())
    if not ok:
        print("self-check failed: result differs from the reference tables",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_validate(args) -> int:
    net = substrate_from_dict(_load_json(args.substrate, "substrate"))
    print(f"substrate ok: {len(net.nodes)} nodes, {len(net.links)} links")
    return EXIT_OK


def cmd_embed(args) -> int:
    net = substrate_from_dict(_load_json(args.substrate, "substrate"))
    request = request_from_dict(_load_json(args.request, "request"))
    coeffs = Coefficients()
    if args.coeffs:
        coeffs = coefficients_from_dict(_load_json(args.coeffs, "coefficients"))
    try:
        embedding = embed(net, request, coeffs)
    except EmbeddingError as exc:
        embedding, blocked = None, exc
    # loading refuses an invalid substrate, so a violation now is the embedder's fault
    violations = validate_substrate(net)
    if violations:
        print("internal error: embedding left the substrate invalid: "
              + "; ".join(violations), file=sys.stderr)
        return EXIT_INTERNAL
    if embedding is None:
        detail = {"error": str(blocked)}
        if hasattr(blocked, "service_id"):
            detail["service"] = blocked.service_id
        if hasattr(blocked, "channel_id"):
            detail["channel"] = blocked.channel_id
        print(json.dumps(detail, indent=2))
        return EXIT_BLOCKED
    print(json.dumps(embedding.to_dict(), indent=2))
    return EXIT_OK


def write_results(results: scenario.SimulationResults, out_dir: Path) -> None:
    """Emit summary.csv, node_usage.csv, link_usage.csv, and raw.csv into out_dir.

    All or none: each file is written under a temporary name, and the four
    are renamed into place only after all are written.  A file that cannot
    be written, or a CSV path that is a directory, raises a SchemaError
    naming ``out`` and leaves every CSV as it was.
    """
    raw_header = [column.name for column in dataclasses.fields(scenario.RawRow)]
    tables = {
        "summary.csv": (["load", "metric", "mean", "stddev"], [
            [summary.load, name, fmt(mean), fmt(std)]
            for summary in results.summaries
            for name, (mean, std) in summary.stats.items()]),
        "node_usage.csv": (["load", "node", "services_mean", "cpu_used_mean", "cpu_total",
                            "gpu_used_mean", "gpu_total", "mem_used_mean", "mem_total"], [
            [summary.load, row.node, fmt(row.services), fmt(row.cpu_used), row.cpu_total,
             fmt(row.gpu_used), row.gpu_total, fmt(row.mem_used), row.mem_total]
            for summary in results.summaries for row in summary.node_rows]),
        "link_usage.csv": (["load", "link", "channels_mean", "bw_used_mean", "bw_total"], [
            [summary.load, row.link, fmt(row.channels), fmt(row.bw_used), row.bw_total]
            for summary in results.summaries for row in summary.link_rows]),
        "raw.csv": (raw_header, [[fmt(getattr(row, name)) for name in raw_header]
                                 for row in results.raw_rows]),
    }
    temporaries = {out_dir / f".{name}.tmp": out_dir / name for name in tables}
    try:
        for (temporary, path), (header, rows) in zip(temporaries.items(),
                                                     tables.values()):
            if path.is_dir():   # its rename would fail after the others are done
                raise IsADirectoryError(errno.EISDIR, "Is a directory")
            with open(temporary, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
        for temporary, path in temporaries.items():
            os.replace(temporary, path)
    except OSError as exc:
        raise SchemaError("out", f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:   # only a failure leaves one behind
        for temporary in temporaries:
            with contextlib.suppress(OSError):
                temporary.unlink()


def cmd_simulate(args) -> int:
    cfg = scenario.SimulationConfig()
    if args.config:
        cfg = simulation_config_from_dict(_load_json(args.config, "config"))
    out_dir = Path(args.out)
    try:   # before the sweep, so a bad path fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError("out", f"cannot create directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    write_results(scenario.run_simulation(cfg), out_dir)
    for name in ("summary.csv", "node_usage.csv", "link_usage.csv", "raw.csv"):
        print(f"wrote {out_dir / name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anypath-vne",
        description="Embed dataflow virtual networks on a wireless mesh substrate")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example",
                   help="run the built-in worked example and self-check it")

    p_embed = sub.add_parser("embed", help="embed one request onto a substrate")
    p_embed.add_argument("--substrate", required=True, help="substrate JSON file")
    p_embed.add_argument("--request", required=True, help="request JSON file")
    p_embed.add_argument("--coeffs", help="coefficients JSON file")

    p_sim = sub.add_parser("simulate", help="run the seeded load sweep")
    p_sim.add_argument("--config", help="simulation config JSON file")
    p_sim.add_argument("--out", required=True, help="output directory for CSVs")

    p_val = sub.add_parser("validate", help="check substrate invariants")
    p_val.add_argument("--substrate", required=True, help="substrate JSON file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map to the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    handlers = {
        "example": cmd_example,
        "embed": cmd_embed,
        "simulate": cmd_simulate,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "field": exc.field}),
              file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    # a reader that stops early (``| head``) ends the process as it would a C
    # tool, by SIGPIPE, not with a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()

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
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
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
    natural_key,
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
    "c1": {"l1", "l2", "l3", "l4"},
    "c2": {"l2", "l5"},
    "c3": {"l4", "l5", "l6"},
}
_EXAMPLE_NODES = {"n1": (0, 0, 0), "n4": (0, 0, 10), "n5": (10, 10, 0)}
_EXAMPLE_BW = {"l1": 20, "l2": 0, "l3": 50, "l4": 10, "l5": 60, "l6": 90}


def fmt(value) -> str:
    """Render numbers with 6 significant digits; integers stay integral."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(what, f"cannot read {path}: {exc.strerror}") from exc
    # malformed, nested too deeply, or an integer literal too long to parse
    except (ValueError, RecursionError) as exc:
        raise SchemaError(what, f"malformed JSON in {path}: {exc}") from exc


def _coefficient(value, where: str) -> float:
    """value as a float; refuses strings, bools, NaN and infinities."""
    try:
        finite = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:   # an int too large for a float
        finite = False
    if not finite:
        raise SchemaError(where, f"expected a finite number, got {value!r}")
    return float(value)


def _alpha_triple(value, where: str) -> tuple:
    if isinstance(value, dict):
        return tuple(_coefficient(value.get(name), f"{where}.{name}")
                     for name in RESOURCES)
    return (_coefficient(value, where),) * 3


def coefficients_from_dict(doc: dict, defaults: Coefficients = None) -> Coefficients:
    base = defaults or Coefficients()
    if not isinstance(doc, dict):
        raise SchemaError("coefficients", "expected a JSON object")
    alpha = (_alpha_triple(doc["alpha"], "coefficients.alpha")
             if "alpha" in doc else base.alpha)
    alpha_cost = (_alpha_triple(doc["cost_alpha"], "coefficients.cost_alpha")
                  if "cost_alpha" in doc else base.alpha_cost)
    return Coefficients(
        alpha=alpha,
        beta=_coefficient(doc.get("beta", base.beta), "coefficients.beta"),
        alpha_cost=alpha_cost,
        beta_cost=_coefficient(doc.get("cost_beta", base.beta_cost),
                               "coefficients.cost_beta"),
        gamma=_coefficient(doc.get("gamma", base.gamma), "coefficients.gamma"),
    )


def simulation_config_from_dict(doc: dict) -> scenario.SimulationConfig:
    """The config of a JSON object; the config classes check every value."""
    if not isinstance(doc, dict):
        raise SchemaError("config", "expected a JSON object")
    defaults = scenario.SimulationConfig()
    generator = doc.get("generator", {})
    if not isinstance(generator, dict):
        raise SchemaError("config.generator", "expected a JSON object")
    known = {f.name for f in dataclasses.fields(scenario.GeneratorConfig)}
    for key in generator:
        if key not in known:
            raise SchemaError(f"config.generator.{key}", "unknown key")
    loads = doc.get("loads", list(defaults.loads))
    if not isinstance(loads, list):
        raise SchemaError("config.loads", "expected a JSON list")
    return _build("config", scenario.SimulationConfig,
                  doc.get("substrate", defaults.substrate),
                  tuple(loads),
                  doc.get("iterations", defaults.iterations),
                  doc.get("seed", defaults.seed),
                  _build("config", coefficients_from_dict,
                         doc.get("coefficients", {}), defaults.coefficients),
                  _build("config.generator", scenario.GeneratorConfig, **generator))


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
    print("service placement:")
    for sid in sorted(embedding.service_map, key=natural_key):
        print(f"  {sid} -> {embedding.service_map[sid]}")
    print("channel routes:")
    for cid in sorted(embedding.channel_routes, key=natural_key):
        route = embedding.channel_routes[cid]
        links = ",".join(sorted(route.links, key=natural_key))
        print(f"  {cid}: {route.src_node} -> {route.dst_node} via {{{links}}}"
              f" (eatt {fmt(route.eatt)})")
    print("residual node resources (cpu, gpu, mem):")
    for nid in sorted(net.nodes, key=natural_key):
        node = net.nodes[nid]
        print(f"  {nid}: ({node.cpu}, {node.gpu}, {node.mem})")
    print("residual link bandwidth:")
    for lid in sorted(net.links, key=natural_key):
        print(f"  {lid}: {net.links[lid].bw}")

    ok = embedding.service_map == _EXAMPLE_SERVICES
    ok &= {cid: set(r.links) for cid, r in embedding.channel_routes.items()} \
        == _EXAMPLE_ROUTES
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
    report = validate_substrate(net)
    for violation in report:
        print(violation)
    if report:
        return EXIT_INPUT
    print(f"substrate ok: {len(net.nodes)} nodes, {len(net.links)} links")
    return EXIT_OK


def cmd_embed(args) -> int:
    net = substrate_from_dict(_load_json(args.substrate, "substrate"))
    violations = validate_substrate(net)
    if violations:
        raise SchemaError("substrate", "; ".join(violations))
    request = request_from_dict(_load_json(args.request, "request"))
    coeffs = Coefficients()
    if args.coeffs:
        coeffs = coefficients_from_dict(_load_json(args.coeffs, "coefficients"))
    try:
        embedding = embed(net, request, coeffs)
    except EmbeddingError as exc:
        embedding, blocked = None, exc
    # the input passed these checks, so a violation now is the embedder's fault
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


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_results(results: scenario.SimulationResults, out_dir: Path) -> None:
    """Emit summary.csv, node_usage.csv, link_usage.csv, and raw.csv into out_dir."""
    summary_rows = []
    for summary in results.summaries:
        for metric, mean, std in [
            ("acceptance_ratio", summary.acceptance_mean, summary.acceptance_std),
            ("revenue", summary.revenue_mean, summary.revenue_std),
            ("cost", summary.cost_mean, summary.cost_std),
            ("rc_ratio", summary.rc_mean, summary.rc_std),
        ]:
            summary_rows.append([summary.load, metric, fmt(mean), fmt(std)])
    _write_csv(out_dir / "summary.csv",
               ["load", "metric", "mean", "stddev"], summary_rows)

    node_rows = []
    link_rows = []
    for usage in results.usage:
        for row in usage.node_rows:
            node_rows.append([usage.load, row.node, fmt(row.services),
                              fmt(row.cpu_used), row.cpu_total,
                              fmt(row.gpu_used), row.gpu_total,
                              fmt(row.mem_used), row.mem_total])
        for row in usage.link_rows:
            link_rows.append([usage.load, row.link, fmt(row.channels),
                              fmt(row.bw_used), row.bw_total])
    _write_csv(out_dir / "node_usage.csv",
               ["load", "node", "services_mean",
                "cpu_used_mean", "cpu_total", "gpu_used_mean", "gpu_total",
                "mem_used_mean", "mem_total"], node_rows)
    _write_csv(out_dir / "link_usage.csv",
               ["load", "link", "channels_mean", "bw_used_mean", "bw_total"],
               link_rows)

    raw_rows = [
        [row.iteration, row.load, row.accepted, row.blocked,
         fmt(row.acceptance_ratio), fmt(row.revenue), fmt(row.cost),
         fmt(row.rc_ratio)]
        for row in results.raw_rows
    ]
    _write_csv(out_dir / "raw.csv",
               ["iteration", "load", "accepted", "blocked",
                "acceptance_ratio", "revenue", "cost", "rc_ratio"], raw_rows)


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
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Command-line interface.

Subcommands: solve, grad, route, shape, taper, and export (an alias of
``solve --format dot``). Payload goes to stdout (tables by default,
machine JSON with --format json, Graphviz DOT where applicable);
diagnostics go to stderr and failures exit non-zero. A reader that closes
stdout early ends the command with exit code 1 and nothing on stderr.
Every JSON report is byte-identical to ``json.dumps(report, indent=2,
sort_keys=True)``; ``solve`` writes its report directly from the solve's
arrays instead of building the report dict.
Every tie comparison uses the library's absolute tolerance ``qtbs.EPS``
(1e-9); no command takes a tolerance.

``main`` pauses Python's cyclic garbage collector while its command runs.
A command's data (networks, interned arrays, solutions, reports) holds no
reference cycles, so reference counting frees all of it; yet a 10k-flow
solve keeps enough containers alive to trigger full collections that find
nothing, about a fifth of the solve's time. The collector setting is
process-wide, so only the CLI, which owns its process's command, pauses it;
library calls never touch it, and ``main`` restores the caller's setting
when it returns or raises.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import QtbsError
from .export import dot_graph
from .gradients import Perturbation, forward_grad, gradient_bound
from .metrics import jain_index
from .model import Network, parse_network
# Not called: ``parse_network`` already rejects every case ``validate``
# reports. Kept importable as ``qtbs.cli.validate``, the entry point that
# perfbench's tracer wraps for its ``model.validate_ms`` layer.
from .model import validate  # noqa: F401
from .planner import accelerate_flow, taper_fold
from .routing import _prober, _search, min_hop_path
from .solver import BottleneckSolution, gradient_graph

SCHEMA_VERSION = 1


def _load(path: str) -> Network:
    """Read and parse a network file; ``parse_network`` rejects every case
    that ``validate`` reports, so no second pass is made."""
    try:
        with open(path, "rb") as fh:
            return parse_network(fh.read())
    except OSError as exc:
        raise QtbsError(f"cannot read {path}: {exc}")


def _report(command: str, net: Network, payload: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "network": {"links": len(net.links), "flows": len(net.flows)},
        **payload,
    }


def _print_json(report: dict):
    print(json.dumps(report, indent=2, sort_keys=True))


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _block(items: list[str]) -> str:
    """A top-level report section: a JSON object of encoded ``items``, laid
    out as ``json.dumps`` does with ``indent=2``."""
    if not items:
        return "{}"
    return "{\n    " + ",\n    ".join(items) + "\n  }"


def _numbers(values) -> dict:
    """Each distinct value's JSON text. A max-min solve has at most one
    distinct rate per link, so this encodes far fewer numbers than it is
    given. One table per section: 2 == 2.0, so integer levels and float
    rates must never share one."""
    return {v: json.dumps(v) for v in set(values)}


def _solve_json(net: Network, sol: BottleneckSolution) -> str:
    """The ``solve`` report, equal to ``json.dumps(report, indent=2,
    sort_keys=True)`` of the report ``_report`` would build.

    Written from the solve's arrays: ``link_ids`` and ``flow_ids`` ascend by
    raw id, as ``sort_keys`` orders keys (not by escaped text), so the rate
    and fair-share sections need no sort, and ``bottlenecks_of`` is grouped
    from ``bottleneck_pairs`` without building the string views.
    """
    graph = sol.graph
    lkey = list(map(encode_basestring_ascii, graph.link_ids))
    fkey = list(map(encode_basestring_ascii, graph.flow_ids))
    rates = list(sol.rate.values())  # ascending flow id
    shares = list(sol.fair_share.values())  # ascending link id

    text = _numbers(rates)
    rate_block = _block([f"{k}: {text[r]}" for k, r in zip(fkey, rates)])
    text = _numbers(shares)
    share_block = _block([f"{k}: {text[s]}" for k, s in zip(lkey, shares)])

    # Each flow's bottleneck links, joined into the body of its array.
    # Sorting the (link, flow) pairs lists them in ascending id order; the
    # kernel emits each pair once and gives every flow at least one.
    joined: list[str | None] = [None] * len(fkey)
    for l, f in sorted(graph.bottleneck_pairs):
        prev = joined[f]
        joined[f] = lkey[l] if prev is None else prev + ",\n      " + lkey[l]
    bneck_block = _block([
        f"{k}: []" if ls is None else f"{k}: [\n      {ls}\n    ]"
        for k, ls in zip(fkey, joined)
    ])

    key_of = dict(zip(graph.vertices(), lkey + fkey))
    text = _numbers(sol.level.values())
    level_block = _block(
        [f"{key_of[v]}: {text[n]}" for v, n in sorted(sol.level.items())]
    )

    jain = jain_index(rates) if rates else None
    return (
        "{\n"
        f'  "bottlenecks_of": {bneck_block},\n'
        '  "command": "solve",\n'
        f'  "fair_shares": {share_block},\n'
        f'  "jain_index": {json.dumps(jain)},\n'
        f'  "levels": {level_block},\n'
        '  "network": {\n'
        f'    "flows": {len(net.flows)},\n'
        f'    "links": {len(net.links)}\n'
        "  },\n"
        f'  "rates": {rate_block},\n'
        f'  "schema": {SCHEMA_VERSION}\n'
        "}"
    )


def cmd_solve(args) -> int:
    net = _load(args.file)
    sol = gradient_graph(net)
    if args.format == "dot":
        sys.stdout.write(dot_graph(sol, backward_edges=args.backward_edges))
        return 0
    if args.format == "json":
        print(_solve_json(net, sol))
        return 0
    rates = dict(sorted(sol.rate.items()))
    shares = dict(sorted(sol.fair_share.items()))
    print(f"network: {len(net.links)} links, {len(net.flows)} flows")
    print("\nflow rates:")
    for f, r in rates.items():
        bnecks = ",".join(sol.bottlenecks_of[f])
        print(f"  {f:<12} {_fmt(r):>10}  level {sol.level[f]}  bottlenecks: {bnecks}")
    print("\nlink fair shares:")
    for l, s in shares.items():
        cap = net.link(l).capacity
        print(f"  {l:<12} {_fmt(s):>10}  capacity {_fmt(cap)}  level {sol.level[l]}")
    if rates:
        print(f"\njain index: {jain_index(rates.values()):.4f}")
    return 0


def cmd_grad(args) -> int:
    net = _load(args.file)
    sol = gradient_graph(net)
    direction = -1 if args.direction == "down" else 1
    res = forward_grad(sol, Perturbation(args.target, direction))
    bound = gradient_bound(sol)
    flow_d = res.flow_derivative
    link_d = res.link_derivative
    payload = {
        "target": args.target,
        "direction": args.direction,
        "flow_gradients": dict(sorted(flow_d.items())),
        "link_gradients": dict(sorted(link_d.items())),
        "bound": bound,
    }
    if args.format == "json":
        _print_json(_report("grad", net, payload))
        return 0
    print(f"gradients w.r.t. {args.target} ({args.direction}); "
          f"values are d(rate or fair share)/d(target)")
    nonzero_flows = [(f, g) for f, g in flow_d.items() if g != 0.0 and f != args.target]
    nonzero_links = [(l, g) for l, g in link_d.items() if g != 0.0 and l != args.target]
    if not nonzero_flows and not nonzero_links:
        print("  all gradients zero")
    print("\nflow gradients:")
    for f, g in sorted(nonzero_flows, key=lambda kv: (-abs(kv[1]), kv[0])):
        print(f"  {f:<12} {g:>10.4f}")
    print("\nlink gradients:")
    for l, g in sorted(nonzero_links, key=lambda kv: (-abs(kv[1]), kv[0])):
        print(f"  {l:<12} {g:>10.4f}")
    print(f"\ngradient bound (d^(D/4)): {bound:.4f}")
    return 0


def cmd_route(args) -> int:
    net = _load(args.file)
    # One solve serves the search and the min-hop path's rate.
    rate_on = _prober(net)
    route = _search(net, args.src, args.dst, rate_on)
    hop_path = min_hop_path(net, args.src, args.dst)
    hop_rate = rate_on(hop_path)
    payload = {
        "src": args.src,
        "dst": args.dst,
        "path": list(route.links),
        "predicted_rate": route.predicted_rate,
        "min_hop_path": list(hop_path),
        "min_hop_rate": hop_rate,
    }
    if args.format == "json":
        _print_json(_report("route", net, payload))
        return 0
    print(f"max-rate path {args.src} -> {args.dst}:")
    print(f"  path: {' -> '.join(route.links)}")
    print(f"  predicted rate: {_fmt(route.predicted_rate)}")
    print(f"  min-hop path: {' -> '.join(hop_path)} (rate {_fmt(hop_rate)})")
    if hop_rate > 0:
        gain = 100.0 * (route.predicted_rate - hop_rate) / hop_rate
        print(f"  gain over min-hop: {gain:.2f}%")
    return 0


def cmd_shape(args) -> int:
    net = _load(args.file)
    low = [f.strip() for f in args.low_priority.split(",") if f.strip()]
    plan = accelerate_flow(net, args.target, low, args.floor)
    final = plan.final_solution
    payload = {
        "target": plan.target,
        "low_priority": list(plan.low_priority),
        "floor_rate": plan.floor_rate,
        "baseline_target_rate": plan.baseline_target_rate,
        "final_target_rate": plan.final_target_rate,
        "actions": [
            {
                "stage": a.stage,
                "flow": a.flow,
                "shaper_rate": a.shaper_rate,
                "predicted_target_rate": a.predicted_target_rate,
            }
            for a in plan.actions
        ],
        "final_rates": dict(sorted(final.rate.items())),
        "jain_index": jain_index(final.rate.values()),
    }
    if args.format == "json":
        _print_json(_report("shape", net, payload))
        return 0
    print(f"shaping plan to accelerate {plan.target} "
          f"(floor {_fmt(plan.floor_rate)}):")
    print(f"  baseline target rate: {_fmt(plan.baseline_target_rate)}")
    if not plan.actions:
        print("  empty plan: no helpful candidate")
    for a in plan.actions:
        print(f"  stage {a.stage}: shape {a.flow} to {_fmt(a.shaper_rate)}"
              f" -> target at {_fmt(a.predicted_target_rate)}")
    print(f"  final target rate: {_fmt(plan.final_target_rate)}")
    print(f"  jain index over final rates: {jain_index(final.rate.values()):.4f}")
    return 0


def cmd_taper(args) -> int:
    net = _load(args.file)
    scale = [l.strip() for l in args.scale_links.split(",") if l.strip()]
    report = taper_fold(net, scale, args.lam, args.tau0)
    payload = {
        "scale_links": list(report.scaled_links),
        "leaf_capacity": report.leaf_capacity,
        "tau0": args.tau0,
        "tau_star": report.tau_star,
        "spine_capacity_at_fold": report.spine_capacity_at_fold,
        "level_gradients": {str(k): v for k, v in sorted(report.level_gradients.items())},
        "rates_at_fold": dict(sorted(report.rates_at.items())),
        "method": report.method,
    }
    if args.format == "json":
        _print_json(_report("taper", net, payload))
        return 0
    print(f"tapering {','.join(report.scaled_links)} "
          f"(leaf capacity {_fmt(report.leaf_capacity)}, tau0 {args.tau0}):")
    for rate, grad in sorted(report.level_gradients.items()):
        flows = ",".join(report.level_rates[rate])
        print(f"  level at rate {_fmt(rate)}: gradient {grad:+.4f}  ({flows})")
    print(f"  fold at tau* = {report.tau_star:.6f} "
          f"(scaled capacity {_fmt(report.spine_capacity_at_fold)})")
    rates = sorted(set(report.rates_at.values()))
    print(f"  rates at fold: {', '.join(_fmt(r) for r in rates)}")
    print(f"  method: {report.method}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtbs",
        description="Bottleneck-structure analysis for max-min fair networks",
    )
    parser.add_argument("--version", action="version", version=f"qtbs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="rates, fair shares and the structure")
    p.add_argument("file")
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p.add_argument("--backward-edges", action="store_true",
                   help="include flow->bottleneck edges in DOT output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grad", help="gradients w.r.t. one link or flow")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--direction", choices=["down", "up"], default="down")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_grad)

    p = sub.add_parser("route", help="highest-rate path for a new flow")
    p.add_argument("file")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("shape", help="traffic-shaping plan accelerating a flow")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--low-priority", required=True,
                   help="comma-separated flows that may be shaped")
    p.add_argument("--floor", type=float, default=None,
                   help="minimum rate for shaped flows "
                        "(default: slowest pre-plan rate)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("taper", help="capacity scale at which levels fold")
    p.add_argument("file")
    p.add_argument("--scale-links", required=True,
                   help="comma-separated links whose capacity scales with tau")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="leaf capacity")
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_taper)

    p = sub.add_parser("export", help="Graphviz DOT of the structure "
                                      "(same as solve --format dot)")
    p.add_argument("file")
    p.add_argument("--backward-edges", action="store_true")
    p.set_defaults(func=cmd_solve, format="dot")

    return parser


def main(argv=None) -> int:
    gc_enabled = gc.isenabled()  # never re-enable a collector the caller paused
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return code
        except QtbsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # The reader closed stdout early, as ``| head`` does. Point
            # stdout at devnull so that the flush at exit cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    finally:
        if gc_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

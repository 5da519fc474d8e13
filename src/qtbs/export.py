"""Graphviz DOT rendering of a bottleneck structure.

Links are white boxes labelled with capacity and fair share, flows are gray
ellipses labelled with their rate. Backward edges (flow to its bottleneck
link) render dashed and only when requested. Output is byte-deterministic
for a given solution and flag set.
"""
from __future__ import annotations

from .solver import BottleneckSolution


def _esc(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _q(name: str) -> str:
    return f'"{_esc(name)}"'


def dot_graph(solution: BottleneckSolution, backward_edges: bool = False) -> str:
    net = solution.network
    lines = ["digraph bottleneck_structure {", "  rankdir=TB;"]
    for l in net.links:
        label = f'"{_esc(l.id)}\\nc={l.capacity:.3f} s={solution.fair_share[l.id]:.3f}"'
        lines.append(f"  {_q(l.id)} [shape=box, label={label}];")
    for f in solution.graph.flow_ids:  # ascending, as ``net.flows``
        label = f'"{_esc(f)}\\nr={solution.rate[f]:.3f}"'
        lines.append(
            f"  {_q(f)} [shape=ellipse, style=filled, fillcolor=gray, "
            f"label={label}];"
        )
    for l, f in sorted(solution.graph.bottleneck_edges):
        lines.append(f"  {_q(l)} -> {_q(f)};")
    for f, l in sorted(solution.graph.traversal_edges):
        lines.append(f"  {_q(f)} -> {_q(l)};")
    if backward_edges:
        for f, l in sorted(solution.graph.backward_edges()):
            lines.append(f"  {_q(f)} -> {_q(l)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"

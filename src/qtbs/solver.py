"""Max-min fair-share solution and the bottleneck structure of a network.

``gradient_graph`` computes, in one pass, every flow's max-min rate, every
link's fair share, and the directed structure through which perturbations
propagate: bottleneck edges (link to flow), backward edges (flow to its
bottleneck links) and traversal edges (flow to traversed non-bottleneck
links).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import _kernel
from .errors import SolverError, UnknownVertexError
from .model import EPS, FlowId, LinkId, Network, interned


@dataclass(frozen=True)
class GraphIndex:
    """Integer-indexed form of a ``GradientGraph``.

    Vertex ``i`` is ``ids[i]``: links first, then flows, as in
    ``GradientGraph.vertices()``; ``i < n_links`` is a link.
    """

    ids: tuple[str, ...]
    index_of: Mapping[str, int]
    n_links: int
    # Out-neighbours in ascending id order, as ``GradientGraph.successors``.
    succ: tuple[tuple[int, ...], ...]
    # A flow's bottleneck links in ascending id order; empty for links.
    bottleneck_links: tuple[tuple[int, ...], ...]
    # Per link, the number of flows it bottlenecks.
    n_bottlenecked: tuple[int, ...]
    # Position of each vertex in ascending id order over all vertices.
    rank: tuple[int, ...]


@dataclass(frozen=True)
class GradientGraph:
    """Directed graph over link and flow vertices.

    Edge kinds: bottleneck ``l -> f`` (f is bottlenecked at l), backward
    ``f -> l`` (one per bottleneck edge), traversal ``f -> l`` (f traverses
    l but is not bottlenecked there).
    """

    link_ids: tuple[LinkId, ...]
    flow_ids: tuple[FlowId, ...]
    bottleneck_edges: tuple[tuple[LinkId, FlowId], ...]
    traversal_edges: tuple[tuple[FlowId, LinkId], ...]
    _succ: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _pred_links: Mapping[FlowId, tuple[LinkId, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        succ: dict[str, list[str]] = {v: [] for v in self.vertices()}
        pred_links: dict[str, list[str]] = {f: [] for f in self.flow_ids}
        for l, f in self.bottleneck_edges:
            succ[l].append(f)       # bottleneck edge
            succ[f].append(l)       # backward edge
            pred_links[f].append(l)
        for f, l in self.traversal_edges:
            succ[f].append(l)
        object.__setattr__(
            self, "_succ", {v: tuple(sorted(set(e))) for v, e in succ.items()}
        )
        object.__setattr__(
            self, "_pred_links",
            {f: tuple(sorted(set(e))) for f, e in pred_links.items()},
        )

    def vertices(self) -> tuple[str, ...]:
        return tuple(self.link_ids) + tuple(self.flow_ids)

    @cached_property
    def index(self) -> GraphIndex:
        """The integer-indexed form, built on first use and kept."""
        ids = self.vertices()
        index = {v: i for i, v in enumerate(ids)}
        succ = tuple(tuple(index[w] for w in self._succ[v]) for v in ids)
        n_links = len(self.link_ids)
        rank = [0] * len(ids)
        for r, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
            rank[i] = r
        return GraphIndex(
            ids=ids,
            index_of=index,
            n_links=n_links,
            succ=succ,
            bottleneck_links=((),) * n_links + tuple(
                tuple(index[l] for l in self._pred_links[f]) for f in self.flow_ids
            ),
            n_bottlenecked=tuple(len(succ[l]) for l in range(n_links)),
            rank=tuple(rank),
        )

    def successors(self, vertex: str) -> tuple[str, ...]:
        """All out-neighbours (bottleneck, backward and traversal edges)."""
        if vertex not in self._succ:
            raise UnknownVertexError(vertex)
        return self._succ[vertex]

    def backward_edges(self) -> tuple[tuple[FlowId, LinkId], ...]:
        """Flow-to-bottleneck edges, one per bottleneck edge."""
        return tuple((f, l) for l, f in self.bottleneck_edges)

    def bottlenecked_flows(self, link: LinkId) -> tuple[FlowId, ...]:
        """Flows with a bottleneck edge from this link (its successors)."""
        if link not in self._succ:
            raise UnknownVertexError(link)
        return self._succ[link]

    def bottleneck_links(self, flow: FlowId) -> tuple[LinkId, ...]:
        """The flow's bottleneck links (its predecessors)."""
        if flow not in self._pred_links:
            raise UnknownVertexError(flow)
        return self._pred_links[flow]


@dataclass(frozen=True)
class BottleneckSolution:
    """Everything the solve produces for one network."""

    network: Network
    graph: GradientGraph
    fair_share: Mapping[LinkId, float]
    rate: Mapping[FlowId, float]
    bottlenecks_of: Mapping[FlowId, tuple[LinkId, ...]]
    level: Mapping[str, int]
    pop_order: tuple[LinkId, ...]
    heap_pops: int
    heap_updates: int
    eps: float

    def is_link(self, vertex: str) -> bool:
        return vertex in self.fair_share

    def is_flow(self, vertex: str) -> bool:
        return vertex in self.rate

    def value(self, vertex: str) -> float:
        """Fair share for a link vertex, rate for a flow vertex."""
        if vertex in self.fair_share:
            return self.fair_share[vertex]
        if vertex in self.rate:
            return self.rate[vertex]
        raise UnknownVertexError(vertex)


def _levels(graph: GradientGraph) -> dict[str, int]:
    """Longest-path depth over bottleneck and traversal edges.

    Backward edges are ignored; the remaining DAG is ordered by strictly
    increasing fair share along edges, so a topological pass terminates.
    """
    level: dict[str, int] = {v: 0 for v in graph.vertices()}
    indeg: dict[str, int] = {v: 0 for v in graph.vertices()}
    fwd: dict[str, list[str]] = {v: [] for v in graph.vertices()}
    for l, f in graph.bottleneck_edges:
        fwd[l].append(f)
        indeg[f] += 1
    for f, l in graph.traversal_edges:
        fwd[f].append(l)
        indeg[l] += 1
    queue = sorted(v for v, d in indeg.items() if d == 0)
    out: list[str] = []
    while queue:
        v = queue.pop()
        out.append(v)
        for w in fwd[v]:
            if level[w] < level[v] + 1:
                level[w] = level[v] + 1
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(out) != len(level):
        raise SolverError("bottleneck structure contains a forward cycle")
    return level


def gradient_graph(network: Network, eps: float = EPS) -> BottleneckSolution:
    """Solve the network and build its bottleneck structure.

    Deterministic for a given input: heap ties break by ascending link id,
    and all reported collections iterate in ascending id order. Links that
    end up bottlenecking no flow report their saturation level as the fair
    share: leftover capacity plus the fastest traversing flow's rate (full
    capacity for links no flow traverses), which keeps them strictly above
    every flow they carry.
    """
    link_ids, flow_ids, caps, flow_links, link_flows = interned(network)
    try:
        rate, share, bneck, trav, pop_order, pops, updates = _kernel.solve(
            caps, flow_links, link_flows, eps
        )
    except RuntimeError as exc:
        raise SolverError(str(exc)) from exc

    bneck_edges = tuple((link_ids[l], flow_ids[f]) for l, f in bneck)
    trav_edges = tuple((flow_ids[f], link_ids[l]) for f, l in trav)
    graph = GradientGraph(tuple(link_ids), tuple(flow_ids), bneck_edges, trav_edges)

    bottlenecks_of: dict[FlowId, list[LinkId]] = {f: [] for f in flow_ids}
    for l, f in bneck_edges:
        bottlenecks_of[f].append(l)

    return BottleneckSolution(
        network=network,
        graph=graph,
        fair_share={link_ids[i]: share[i] for i in range(len(link_ids))},
        rate={flow_ids[i]: rate[i] for i in range(len(flow_ids))},
        bottlenecks_of={f: tuple(sorted(ls)) for f, ls in bottlenecks_of.items()},
        level=_levels(graph),
        pop_order=tuple(link_ids[l] for l in pop_order),
        heap_pops=pops,
        heap_updates=updates,
        eps=eps,
    )


def region_of_influence(solution: BottleneckSolution, vertex: str) -> set[str]:
    """Vertices reachable from ``vertex`` along directed edges, excluding it.

    Perturbations of ``vertex`` can only affect members of this set.
    """
    ix = solution.graph.index
    start = ix.index_of.get(vertex)
    if start is None:
        raise UnknownVertexError(vertex)
    succ = ix.succ
    seen: set[int] = set()
    stack = [start]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(start)
    ids = ix.ids
    return {ids[i] for i in seen}


def levels(solution: BottleneckSolution) -> Mapping[str, int]:
    """Topological level of each vertex in the structure.

    Level 0 links have no incoming traversal edges; levels increase along
    bottleneck and traversal edges. Flows at lower levels are resolved
    earlier and receive smaller rates.
    """
    return solution.level


def flow_levels(solution: BottleneckSolution) -> dict[int, tuple[FlowId, ...]]:
    """Flows grouped by structure level, ascending."""
    groups: dict[int, list[FlowId]] = {}
    for f in solution.graph.flow_ids:
        groups.setdefault(solution.level[f], []).append(f)
    return {lv: tuple(sorted(fs)) for lv, fs in sorted(groups.items())}

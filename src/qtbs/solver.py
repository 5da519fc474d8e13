"""Max-min fair-share solution and the bottleneck structure of a network.

``gradient_graph`` computes, in one pass, every flow's max-min rate, every
link's fair share, and the directed structure through which perturbations
propagate: bottleneck edges (link to flow), backward edges (flow to its
bottleneck links) and traversal edges (flow to traversed non-bottleneck
links).
"""
from __future__ import annotations

from dataclasses import dataclass
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
    # Out-neighbours (bottleneck, backward and traversal edges) in ascending
    # id order.
    succ: tuple[tuple[int, ...], ...]
    # A flow's bottleneck links in ascending id order; empty for links.
    bottleneck_links: tuple[tuple[int, ...], ...]
    # Per link, the id of the first flow of its tie, or None if it
    # bottlenecks no flow. A tie is a set of links joined through the flows
    # they bottleneck together; its first flow, in the solve's edge order,
    # is one its first pop resolved.
    tie_flow: tuple[FlowId | None, ...]
    # Every link id, and every flow id, mapped to 0.0 in id order: result
    # templates, to be copied and never handed out.
    link_zeros: Mapping[str, float]
    flow_zeros: Mapping[str, float]


@dataclass(frozen=True)
class GradientGraph:
    """Directed graph over link and flow vertices.

    Edge kinds: bottleneck ``l -> f`` (f is bottlenecked at l), backward
    ``f -> l`` (one per bottleneck edge), traversal ``f -> l`` (f traverses
    l but is not bottlenecked there).

    The solve's edges are kept as the kernel emitted them, in order: two
    parallel arrays of dense indices into ``link_ids`` and ``flow_ids`` per
    edge kind. Every other form (string-keyed edges and adjacency, the
    integer ``index``) is built on first read and kept.
    """

    link_ids: tuple[LinkId, ...]
    flow_ids: tuple[FlowId, ...]
    # Bottleneck edge i runs from link bneck_link[i] to flow bneck_flow[i].
    bneck_link: tuple[int, ...]
    bneck_flow: tuple[int, ...]
    # Traversal edge i runs from flow trav_flow[i] to link trav_link[i].
    trav_flow: tuple[int, ...]
    trav_link: tuple[int, ...]

    def vertices(self) -> tuple[str, ...]:
        return self.link_ids + self.flow_ids

    @cached_property
    def bottleneck_edges(self) -> tuple[tuple[LinkId, FlowId], ...]:
        links, flows = self.link_ids, self.flow_ids
        return tuple(zip(map(links.__getitem__, self.bneck_link),
                         map(flows.__getitem__, self.bneck_flow)))

    @cached_property
    def traversal_edges(self) -> tuple[tuple[FlowId, LinkId], ...]:
        links, flows = self.link_ids, self.flow_ids
        return tuple(zip(map(flows.__getitem__, self.trav_flow),
                         map(links.__getitem__, self.trav_link)))

    @cached_property
    def index(self) -> GraphIndex:
        """The integer-indexed form, built on first use and kept."""
        ids = self.vertices()
        n_links = len(self.link_ids)
        succ_lists: list[list[int]] = [[] for _ in ids]
        # One int object per flow vertex, shared by all its edges: a fresh
        # ``f + n_links`` per edge scatters the index over memory and made
        # ``forward_grad`` and ``gradient_bound`` ~8% slower at 2.5k flows.
        flow_vertex = list(range(n_links, len(ids)))
        for l, f in zip(self.bneck_link, self.bneck_flow):
            f = flow_vertex[f]
            succ_lists[l].append(f)     # bottleneck edge
            succ_lists[f].append(l)     # backward edge
        # Before the traversal edges go in, a flow's successors are exactly
        # its bottleneck links.
        bottleneck_links = ((),) * n_links + tuple(
            tuple(sorted(set(e))) for e in succ_lists[n_links:]
        )
        # The edges come in the solve's pop order: the first edge of a tie
        # names every link of it, reached through the flows they bottleneck.
        tie_flow: list[FlowId | None] = [None] * n_links
        for l, f in zip(self.bneck_link, self.bneck_flow):
            stack = [l]
            while stack:
                if tie_flow[l2 := stack.pop()] is None:
                    tie_flow[l2] = self.flow_ids[f]
                    stack += [l3 for f2 in succ_lists[l2] for l3 in succ_lists[f2]]
        for f, l in zip(self.trav_flow, self.trav_link):
            succ_lists[flow_vertex[f]].append(l)
        # The structure is bipartite, so index order is id order.
        succ = tuple(tuple(sorted(set(e))) for e in succ_lists)
        return GraphIndex(
            ids=ids,
            index_of={v: i for i, v in enumerate(ids)},
            n_links=n_links,
            succ=succ,
            bottleneck_links=bottleneck_links,
            tie_flow=tuple(tie_flow),
            link_zeros=dict.fromkeys(self.link_ids, 0.0),
            flow_zeros=dict.fromkeys(self.flow_ids, 0.0),
        )

    @cached_property
    def _pred_links(self) -> Mapping[FlowId, tuple[LinkId, ...]]:
        links = self.link_ids
        pred: list[list[int]] = [[] for _ in self.flow_ids]
        for l, f in zip(self.bneck_link, self.bneck_flow):
            pred[f].append(l)
        return {
            f: tuple(links[l] for l in sorted(set(ls)))
            for f, ls in zip(self.flow_ids, pred)
        }

    def backward_edges(self) -> tuple[tuple[FlowId, LinkId], ...]:
        """Flow-to-bottleneck edges, one per bottleneck edge."""
        return tuple((f, l) for l, f in self.bottleneck_edges)


@dataclass(frozen=True)
class BottleneckSolution:
    """Everything the solve produces for one network.

    ``bottlenecks_of`` and ``level`` are built on first read and kept.
    """

    network: Network
    graph: GradientGraph
    fair_share: Mapping[LinkId, float]
    rate: Mapping[FlowId, float]
    heap_pops: int
    heap_updates: int

    @cached_property
    def bottlenecks_of(self) -> Mapping[FlowId, tuple[LinkId, ...]]:
        """Each flow's bottleneck links, in ascending id order."""
        return self.graph._pred_links

    @cached_property
    def level(self) -> Mapping[str, int]:
        """Longest-path depth of each vertex, links first, then flows.

        Level 0 links have no incoming traversal edges; levels increase
        along bottleneck and traversal edges, and backward edges are
        ignored. Flows at lower levels are resolved earlier and receive
        smaller rates. ``_levels`` computes it in one sweep over the
        solve's bottleneck edges, in pop order. A hand-built
        ``GradientGraph`` may take up to one sweep per flow, and one with a
        forward cycle raises ``SolverError``; no CLI path or workload
        builds such a graph.
        """
        return _levels(self.graph)

    def is_link(self, vertex: str) -> bool:
        return vertex in self.fair_share


def _levels(graph: GradientGraph) -> dict[str, int]:
    """Longest-path depth over bottleneck and traversal edges.

    Backward edges are ignored. A link's level is one more than the highest
    level of the flows that traverse it without a bottleneck there (0 if
    none); a flow's is one more than its bottleneck links' highest.

    ``_sweep`` runs over the bottleneck edges until it settles, that is
    until every group's link level equals that link's level recomputed from
    the flow levels. Levels only rise, so a settled sweep solves the
    longest-path equations, whose solution is unique on a DAG; a forward
    cycle has none, and raises ``SolverError``. The kernel emits the edges
    grouped by link in pop order: links pop in ascending fair share and
    every kept edge goes to a strictly larger value, so each group's
    traversal in-flows already have their final levels, and the first sweep
    settles. On a hand-built graph whose groups come in another order, the
    number of sweeps can grow to one per flow; no CLI path or workload
    builds such a graph.
    """
    trav_in: list[list[int]] = [[] for _ in graph.link_ids]
    for f, l in zip(graph.trav_flow, graph.trav_link):
        trav_in[l].append(f)
    flow_level = [0] * len(graph.flow_ids)
    # A flow's level is final once the flows before it on its longest path
    # are, so a DAG settles within one sweep per flow.
    for _ in range(max(len(flow_level), 1)):
        link_level = _sweep(graph, trav_in, flow_level)
        if link_level is not None:
            return dict(zip(graph.vertices(), link_level + flow_level))
    raise SolverError("bottleneck structure contains a forward cycle")


def _sweep(
    graph: GradientGraph, trav_in: list[list[int]], flow_level: list[int]
) -> list[int] | None:
    """One pass of ``_levels`` over the bottleneck edges, in edge order.

    Raises each flow in ``flow_level`` to one more than the level its
    bottleneck link's group reads from ``trav_in``. Returns the link levels
    recomputed from the raised flow levels if every group read its link's
    level, else None.
    """
    groups = []  # (link, the level its group used)
    prev = -1
    for l, f in zip(graph.bneck_link, graph.bneck_flow):
        if l != prev:
            prev = l
            ins = trav_in[l]
            up = max(map(flow_level.__getitem__, ins)) + 2 if ins else 1
            groups.append((l, up - 1))
        if flow_level[f] < up:
            flow_level[f] = up
    link_level = [
        max(map(flow_level.__getitem__, ins)) + 1 if ins else 0 for ins in trav_in
    ]
    for l, lv in groups:
        if link_level[l] != lv:
            return None
    return link_level


def resolve(caps, flow_links, link_flows):
    """One kernel solve of interned arrays, as ``interned`` returns them,
    at the library's tie tolerance ``EPS``.

    ``gradient_graph`` is ``interned`` plus this call plus the structure.
    Some callers intern a network and call this on its arrays: routing
    solves the network once and reads its probe table from the output, and
    ``taper_fold`` re-solves its fold with replaced capacities and reads
    the rates.
    They call ``solver.interned`` and ``solver.resolve``, the names
    ``gradient_graph`` uses, so every solve goes through one set of names.
    The kernel only reads its arguments; a kernel failure raises
    ``SolverError``. Returns the kernel's output tuple ``(rate, share,
    bneck_link, bneck_flow, trav_flow, trav_link, pop_order, pops,
    updates)``: flat, parallel edge arrays, no tuple per edge.
    """
    try:
        return _kernel.solve(caps, flow_links, link_flows, EPS)
    except RuntimeError as exc:
        raise SolverError(str(exc)) from exc


def gradient_graph(network: Network) -> BottleneckSolution:
    """Solve the network and build its bottleneck structure.

    Deterministic for a given input: heap ties break by ascending link id,
    and all reported collections iterate in ascending id order. Links that
    end up bottlenecking no flow report their saturation level as the fair
    share: leftover capacity plus the fastest traversing flow's rate (full
    capacity for links no flow traverses), which keeps them strictly above
    every flow they carry.

    Raises ``NetworkFormatError`` or a subclass for a network the kernel
    would solve to a wrong answer; see ``interned``.
    """
    link_ids, flow_ids, caps, flow_links, link_flows = interned(network)
    rate, share, *edges, _, pops, updates = resolve(caps, flow_links, link_flows)
    link_ids = tuple(link_ids)
    flow_ids = tuple(flow_ids)
    return BottleneckSolution(
        network=network,
        graph=GradientGraph(link_ids, flow_ids, *map(tuple, edges)),
        fair_share=dict(zip(link_ids, share)),
        rate=dict(zip(flow_ids, rate)),
        heap_pops=pops,
        heap_updates=updates,
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


def flow_levels(solution: BottleneckSolution) -> dict[int, tuple[FlowId, ...]]:
    """Flows grouped by structure level, ascending."""
    groups: dict[int, list[FlowId]] = {}
    for f in solution.graph.flow_ids:
        groups.setdefault(solution.level[f], []).append(f)
    return {lv: tuple(sorted(fs)) for lv, fs in sorted(groups.items())}

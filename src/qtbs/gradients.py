"""Propagation of infinitesimal perturbations through a bottleneck structure.

``forward_grad`` pushes a unit perturbation of one link capacity, one flow
rate, or the capacities of a set of links moved together through the
structure's directed edges, combining two rules:

* flow rule: a flow's drift is the minimum drift over its bottleneck links;
  a flow with one bottleneck link takes that link's drift as it is;
* link rule: a link's drift is minus the accumulated drift of the flows
  feeding it, split evenly over its not-yet-visited bottlenecked flows.

Gradients are reported directionally: ``gradient[y]`` is the first-order
movement of ``y``'s rate or fair share per unit of perturbation magnitude,
for the chosen perturbation direction. The one-sided derivative with the
conventional sign is ``gradient[y] / direction`` and is exposed as
``derivative``.

Both calls run on the structure's cached integer index
(``GradientGraph.index``), built on the first call for a solution. With
``V`` vertices, ``E`` edges and diameter ``D``, ``forward_grad`` costs
O((V + E) log V) per target: each vertex is visited once, each edge is
relaxed at most once and pushes at most one heap entry (the flow rule also
takes a minimum over the flow's bottleneck links when it has several).
Its Python-level work is the visited region only, plus two C-level dict
copies and the O(V) array set-up: heap keys read the solution's
index-aligned ``values``, and both result dicts start as copies of
all-zero templates kept on the index, with only the visited vertices
written in. On the grad-2k5 benchmark network a call visits ~930 of the
2,830 vertices on average.
``gradient_bound`` runs breadth-first searches from the ``L`` links and
then from the ``C`` candidate flows, whose bottleneck links all have the
largest link eccentricity: O(D * E * (L + C) / 64) machine-word
operations, ``(L + C) / 64`` words of source bitsets carried along each
edge in each of at most ``D + 1`` rounds. ``C`` is often a small share of
the flows (26 of 2,500 on a random 330-link network).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .errors import UnknownVertexError
from .solver import BottleneckSolution

# Sources per breadth-first block in ``gradient_bound``: bounds the bitsets
# at 1024 bits per vertex, so memory stays flat as the structure grows.
BOUND_SOURCE_BLOCK = 1024


@dataclass(frozen=True)
class Perturbation:
    """A signed infinitesimal change of one link capacity or flow rate.

    A tuple of link ids as ``target`` changes all of their capacities
    together, each by the same amount. Any other target type, and a
    ``bool`` direction, are refused.
    """

    target: str | tuple[str, ...]
    direction: int = -1  # -1 tightens (shrink capacity / shape rate down)

    def __post_init__(self):
        if isinstance(self.direction, bool) or self.direction not in (-1, 1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        if isinstance(self.target, tuple):
            if not self.target:
                raise ValueError("a joint perturbation needs at least one link")
            for v in self.target:
                if not isinstance(v, str):
                    raise ValueError(f"a joint target holds link ids, got {v!r}")
        elif not isinstance(self.target, str):
            raise ValueError(f"target must be an id or a tuple of ids, got {self.target!r}")


@dataclass(frozen=True)
class GradientResult:
    """Every link's and flow's gradient for one perturbation, keyed by id,
    and the vertices in the order the propagation visited them."""

    perturbation: Perturbation
    link_gradient: Mapping[str, float]
    flow_gradient: Mapping[str, float]
    visit_order: tuple[str, ...]

    @property
    def link_derivative(self) -> dict[str, float]:
        """One-sided derivative d(fair share)/d(target quantity)."""
        sign = float(self.perturbation.direction)
        return {l: g / sign for l, g in self.link_gradient.items()}

    @property
    def flow_derivative(self) -> dict[str, float]:
        """One-sided derivative d(rate)/d(target quantity)."""
        sign = float(self.perturbation.direction)
        return {f: g / sign for f, g in self.flow_gradient.items()}

    def gradient(self, vertex: str) -> float:
        if vertex in self.link_gradient:
            return self.link_gradient[vertex]
        if vertex in self.flow_gradient:
            return self.flow_gradient[vertex]
        raise UnknownVertexError(vertex)

    def max_magnitude(self) -> float:
        values = list(self.link_gradient.values()) + list(self.flow_gradient.values())
        return max((abs(v) for v in values), default=0.0)


def forward_grad(solution: BottleneckSolution, p: Perturbation) -> GradientResult:
    """Compute all gradients with respect to one perturbed link or flow, or
    to a set of links perturbed together.

    Each vertex is visited at most once, in ascending (value, drift, id)
    heap order, mirroring the order in which the solve resolves the
    structure. Every target link starts with the perturbation as its
    inflow, so flows that reach it before it is visited add theirs to it.
    Vertices outside the targets' region of influence keep a gradient of
    exactly zero.
    """
    ix = solution.graph.index
    ids, succ, rank, n_links = ix.ids, ix.succ, ix.rank, ix.n_links
    joint = not isinstance(p.target, str)
    targets = []
    for v in p.target if joint else (p.target,):
        t = ix.index_of.get(v)
        # A joint target holds links only.
        if t is None or (joint and t >= n_links):
            raise UnknownVertexError(v)
        targets.append(t)
    bottleneck_links = ix.bottleneck_links
    value = solution.values
    sign = float(p.direction)

    n = len(ids)
    drift = [0.0] * n
    inflow = [0.0] * n_links
    # Bottlenecked flows of each link not visited yet (the link-rule split).
    unvisited = list(ix.n_bottlenecked)
    visited = [False] * n
    # Smallest drift pushed per vertex. The value and id parts of a vertex's
    # key are fixed, so it is first popped at this drift and a push with a
    # drift no smaller could only ever pop as a stale entry.
    pushed = [float("inf")] * n
    visit_order: list[int] = []

    heap = []
    for t in targets:
        if t < n_links:
            count = ix.n_bottlenecked[t]
            # The capacity change splits evenly over the bottlenecked flows;
            # a link that bottlenecks no flow absorbs the perturbation
            # silently.
            inflow[t] = sign
            drift[t] = sign / count if count else 0.0
        else:
            drift[t] = sign
        pushed[t] = drift[t]
        heap.append((value[t], drift[t], rank[t], t))
    heapq.heapify(heap)

    while heap:
        y = heapq.heappop(heap)[3]
        if visited[y]:
            continue
        visited[y] = True
        visit_order.append(y)
        for l in bottleneck_links[y]:
            unvisited[l] -= 1
        d_y = drift[y]
        if d_y == 0.0:
            continue  # zero drifts do not propagate
        # The structure is bipartite: a link's successors are flows, a
        # flow's successors are links.
        if y < n_links:
            for f in succ[y]:
                if visited[f]:
                    continue
                # Flow rule: minimum drift over the flow's bottleneck links,
                # ``y`` among them.
                bl = bottleneck_links[f]
                d = d_y if len(bl) == 1 else min([drift[l] for l in bl])
                drift[f] = d
                if d < pushed[f]:
                    pushed[f] = d
                    heapq.heappush(heap, (value[f], d, rank[f], f))
        else:
            for l in succ[y]:
                if visited[l]:
                    continue
                # Link rule: accumulate inflow, split over what remains.
                inflow[l] -= d_y
                remaining = unvisited[l]
                d = inflow[l] / remaining if remaining else 0.0
                drift[l] = d
                if d < pushed[l]:
                    pushed[l] = d
                    heapq.heappush(heap, (value[l], d, rank[l], l))

    # The results are copies of the all-zero templates with each visited
    # vertex's drift written in. They equal dicts over every drift:
    # - a drift is written only to a vertex that is pushed then or was
    #   pushed before, and the heap drains, so every vertex that got a
    #   drift has been visited; the others still hold their initial 0.0;
    # - the copies keep the templates' id order;
    # - each visited vertex is written with its exact drift, including the
    #   sign of zero.
    link_gradient = ix.link_zeros.copy()
    flow_gradient = ix.flow_zeros.copy()
    order = tuple(map(ids.__getitem__, visit_order))
    for v, y in zip(order, visit_order):
        if y < n_links:
            link_gradient[v] = drift[y]
        else:
            flow_gradient[v] = drift[y]
    return GradientResult(
        perturbation=p,
        link_gradient=link_gradient,
        flow_gradient=flow_gradient,
        visit_order=order,
    )


def gradient_bound(solution: BottleneckSolution) -> float:
    """Worst-case gradient magnitude ``d ** (D / 4)``.

    ``d`` is the maximum in/out degree over the full structure (backward
    edges included) and ``D`` its diameter: the longest shortest path over
    ordered vertex pairs that are connected at all.

    ``D`` is the largest eccentricity, and only links and a few flows need
    a search. A breadth-first search from every link gives ``D_L``, the
    largest link eccentricity, and the "deep" links whose eccentricity is
    ``D_L``. A flow ``f`` has only links as successors, and every shortest
    path out of it starts at one of them, so ``ecc(f) <= 1 + D_L``. The
    structure gives ``f`` a backward edge to each of its bottleneck links
    ``b``, so ``b`` is a successor of ``f``; and ``b`` reaches everything
    ``f`` reaches, through its edge ``b -> f``. So ``ecc(f) <= 1 + ecc(b)``,
    and a flow with ``ecc(f) = D_L + 1`` has only deep bottleneck links. The
    search then runs from those candidate flows alone, and ``D`` is the
    larger of the two depths. The argument rests on the backward edges: a
    structure without them would need a search from every flow.
    """
    ix = solution.graph.index
    succ = ix.succ
    n = len(succ)
    indeg = [0] * n
    for out in succ:
        for w in out:
            indeg[w] += 1
    d = max((max(len(out), indeg[v]) for v, out in enumerate(succ)), default=0)
    n_links = ix.n_links
    link_depth, deep_links = _deepest(succ, range(n_links))
    deep = set(deep_links)
    bottleneck_links = ix.bottleneck_links
    candidates = [f for f in range(n_links, n) if deep.issuperset(bottleneck_links[f])]
    flow_depth, _ = _deepest(succ, candidates)
    return float(d) ** (max(link_depth, flow_depth) / 4.0)


def _deepest(succ, sources) -> tuple[int, list[int]]:
    """The largest shortest-path distance from any of ``sources``, and the
    sources from which some vertex is that far.

    A breadth-first search from every source at once, in blocks of
    ``BOUND_SOURCE_BLOCK`` sources: each vertex holds a bitset of the
    sources that reached it, and each round ORs a vertex's newly gained
    sources into its successors. The last round in which any bitset grows
    is the block's largest distance, and the bits gained in it are the
    sources at that distance.
    """
    n = len(succ)
    depth, deepest = 0, []
    for base in range(0, len(sources), BOUND_SOURCE_BLOCK):
        block = sources[base:base + BOUND_SOURCE_BLOCK]
        reach = [0] * n
        frontier: dict[int, int] = {}
        for bit, s in enumerate(block):
            reach[s] = frontier[s] = 1 << bit
        rounds = -1
        while frontier:
            rounds += 1
            # ``frontier`` holds the bits gained ``rounds`` steps from the
            # sources; ``last`` collects them, and ``gained`` the next step.
            last = 0
            gained: dict[int, int] = {}
            while frontier:  # emptied as it goes, to keep the peak low
                v, bits = frontier.popitem()
                last |= bits
                for w in succ[v]:
                    old = reach[w]
                    new = old | bits
                    if new != old:
                        reach[w] = new
                        gained[w] = gained.get(w, 0) | (new ^ old)
            frontier = gained
        if rounds > depth:
            depth, deepest = rounds, []
        if rounds == depth:
            deepest += [s for bit, s in enumerate(block) if last >> bit & 1]
    return depth, deepest

"""Propagation of infinitesimal perturbations through a bottleneck structure.

``forward_grad`` pushes a unit perturbation of one link capacity, one flow
rate, or the capacities of a set of links moved together through the
structure. The derivative of a max-min solve is itself a max-min
water-fill, taken level by level in ascending base rate, where a level is
one tie of the solve: links joined through the flows they bottleneck
together. ``forward_grad`` runs it with one rule: links pop from a lazy
heap in ascending (tie rate, drift, link) order, a link's drift is its
budget split over its bottlenecked flows not yet frozen, and each flow
freezes at the drift of the first of its bottleneck links to pop. At ties
the gradients are exact, as at any other point.

Gradients are reported directionally: ``gradient[y]`` is the first-order
movement of ``y``'s rate or fair share per unit of perturbation magnitude,
for the chosen perturbation direction. The one-sided derivative with the
conventional sign is ``gradient[y] / direction`` and is exposed as
``derivative``.

Both calls run on the structure's cached integer index
(``GradientGraph.index``), built on the first call for a solution. With
``V`` vertices, ``E`` edges and diameter ``D``, ``forward_grad`` costs
O((V + E) log V) per target: each flow freezes once and relaxes each link
it crosses once, each relaxation pushes at most one heap entry or causes
at most one requeue, and each untouched link is queued as a tie partner
at most once. Its Python-level work is the visited region only, plus two
C-level dict copies and the O(V) array set-up: the heap keys are one
C-level map over the links, each tie's rate read through its first flow
(``GraphIndex.tie_flow``), and both result dicts start as copies of
all-zero templates kept on the index, with only the visited vertices
written in. On the grad-2k5 benchmark network a call visits ~930
of the 2,830 vertices on average.
``gradient_bound`` runs breadth-first searches from the ``L`` links and
then from the ``C`` candidate flows, whose bottleneck links all have the
largest link eccentricity: O(D * E * (L + C) / 64) machine-word
operations, ``(L + C) / 64`` words of source bitsets carried along each
edge in each of at most ``D + 1`` rounds. ``C`` is often a small share of
the flows (26 of 2,500 on a random 330-link network).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
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

    The gradients are the derivatives of the max-min solve, which are
    themselves a max-min water-fill, taken tie by tie in ascending base
    rate. Links pop from a lazy heap in ascending (tie rate, drift, link)
    order, the tie rate being the rate of the tie's first flow. A link's
    budget is the perturbation on it minus the drifts of the frozen flows
    that cross it, and its drift is that budget split over its
    bottlenecked flows not yet frozen. When a link pops, those flows freeze
    at its drift, so each flow takes the drift of the first of its
    bottleneck links to pop. A link whose last bottlenecked flow freezes
    elsewhere reports its budget plus its fastest flow's drift, the
    derivative of its saturation level.

    A flow target freezes first, at the direction; an upward one is a
    forced increase. A link target's budget is the direction. A link that
    nothing has touched has drift 0: before a link pops with a positive
    drift, the untouched bottleneck links of its flows are queued at 0, and
    they hold those flows there. Vertices outside the targets' region of
    influence keep a gradient of exactly zero, and a link that bottlenecks
    no flow keeps 0. ``visit_order`` lists the links as they pop or lose
    their last flow and the flows as they freeze.
    """
    ix = solution.graph.index
    ids, succ, n_links, bottleneck_links = ix.ids, ix.succ, ix.n_links, ix.bottleneck_links
    # The level key: a tie's links take the rate of its first flow, so a
    # flow's bottleneck links pop as one level even where their fair shares
    # differ in the last bits. A link that bottlenecks no flow takes its
    # fair share (``fair_share`` iterates in link index order).
    key = list(map(solution.rate.get, ix.tie_flow, solution.fair_share.values()))
    sign = float(p.direction)
    inf = float("inf")

    grad = [0.0] * len(ids)
    done = [False] * len(ids)  # a frozen flow, or a link whose drift is final
    budget = [0.0] * n_links
    # A link's successors are the flows it bottlenecks.
    unfrozen = list(map(len, succ[:n_links]))
    # Each link's smallest queued drift is at most ``queued[l]``, which is
    # inf while nothing has touched the link: its drift is then 0, unqueued.
    queued = [inf] * n_links
    visit_order, heap = [], []
    frozen, d = (), 0.0
    joint = not isinstance(p.target, str)
    for v in p.target if joint else (p.target,):
        t = ix.index_of.get(v)
        # A joint target holds links only.
        if t is None or (joint and t >= n_links):
            raise UnknownVertexError(v)
        if t >= n_links:
            frozen, d = (t,), sign  # a flow target freezes first
        else:
            budget[t] = sign
            queued[t] = sign / unfrozen[t] if unfrozen[t] else 0.0
            heappush(heap, (key[t], queued[t], t))

    while True:
        # Freeze the flows at ``d``: each leaves its bottleneck links' counts
        # and takes ``d`` off the budget of every link it crosses.
        for f in frozen:
            done[f] = True
            grad[f] = d
            visit_order.append(f)
            for l in bottleneck_links[f]:
                unfrozen[l] -= 1
            for l in succ[f]:
                if done[l] or (not d and queued[l] == inf):
                    continue  # a zero drift leaves an untouched link at 0
                b = budget[l] = budget[l] - d
                n = unfrozen[l]
                if not n and succ[l]:
                    # ``f`` was the link's last flow: its saturation level,
                    # leftover plus its fastest flow's rate, moves with both.
                    done[l] = True
                    grad[l] = b + max([grad[g] for g in succ[l]])
                    visit_order.append(l)
                    continue
                d2 = b / n if n else 0.0  # 0 if it bottlenecks no flow
                if d2 < queued[l]:
                    queued[l] = d2
                    heappush(heap, (key[l], d2, l))
        # Pop the next link whose drift is final; stop when none is left.
        while heap:
            _, d, l = heappop(heap)
            if done[l]:
                continue
            n = unfrozen[l]
            if n and d != budget[l] / n:
                # The drift rose since the link was queued: requeue it.
                queued[l] = d = budget[l] / n
                heappush(heap, (key[l], d, l))
            elif d > 0.0 and (held := [
                l2 for f in succ[l] if not done[f]
                for l2 in bottleneck_links[f] if queued[l2] == inf
            ]):
                # Untouched tie partners hold their flows at 0, below ``d``.
                for l2 in held:
                    queued[l2] = 0.0
                    heappush(heap, (key[l2], 0.0, l2))
                heappush(heap, (key[l], d, l))
            else:
                break
        else:
            break
        done[l] = True
        grad[l] = d
        visit_order.append(l)
        frozen = [f for f in succ[l] if not done[f]]

    # The results are copies of the all-zero templates with each visited
    # vertex's gradient written in; every vertex that was not visited has
    # gradient 0.0.
    link_gradient = ix.link_zeros.copy()
    flow_gradient = ix.flow_zeros.copy()
    order = tuple(map(ids.__getitem__, visit_order))
    for v, y in zip(order, visit_order):
        (link_gradient if y < n_links else flow_gradient)[v] = grad[y]
    return GradientResult(p, link_gradient, flow_gradient, order)


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

"""Flow-rate-maximal routing over the router graph.

The search is Dijkstra-shaped, but the distance of a router is the inverse
of the rate a hypothetical new flow would converge to if routed there: the
time to push one bit from the source. Every frontier relaxation asks for
the rate of the tentative flow (the probe) on its path. The network is
interned and solved once per call, and ``_kernel.probe_table`` turns that
solve into one entry per link: the base pop before which the link would pop
with the probe on it, and its fair share then. Until a link of the probe's
path pops, the probed network's solve pops exactly the base links in the
base order, so a probe's rate is the share of the path link with the
smallest (step, share, link) entry, the same float a solve of the probed
network gives. A probe costs a minimum over its path: no solve, no
``Network`` and no structure.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from . import solver
from ._kernel import probe_table
from .errors import (
    MissingEndpointsError,
    NetworkFormatError,
    RoutingError,
    UnreachableError,
)
from .model import EPS, Flow, LinkId, Network, PROBE_FLOW_ID, RouterId
# Not called: the base solve goes through ``solver.resolve``. Kept importable
# as ``qtbs.routing.gradient_graph``, the entry point that perfbench's
# tracer wraps for its ``routing.probes_per_route`` layer.
from .solver import gradient_graph  # noqa: F401


@dataclass(frozen=True)
class RoutePath:
    """A routed path plus the rate the new flow is predicted to receive."""

    links: tuple[LinkId, ...]
    predicted_rate: float


def _prober(network: Network) -> Callable[[Sequence[LinkId]], float]:
    """Solves ``network`` once; returns the rate of a probe on a path.

    The solve runs at the first call, so an unused prober solves nothing.
    It and its ``probe_table`` give each link's ``(step, share, link)``
    entry. The probe resolves at the path link with the smallest entry, at
    that link's share: until then the probed solve pops the base links in
    the base order, and each path link's share moves only with the base's
    resolutions of its own flows (see ``_kernel.probe_table``). So the rate
    is, bit for bit, the probe's rate in
    ``gradient_graph(network.with_flow(Flow(PROBE_FLOW_ID, path)))``.
    Paths must be valid.
    """
    entry = None

    def rate_on(path: Sequence[LinkId]) -> float:
        nonlocal entry
        if entry is None:
            if network.has_link(PROBE_FLOW_ID) or network.has_flow(PROBE_FLOW_ID):
                # The probed network repeats the probe's id: raise what its
                # intern raises (a path cannot change that error).
                solver.interned(network.with_flow(Flow(PROBE_FLOW_ID, ())))
            link_ids, _, caps, flow_links, link_flows = solver.interned(network)
            rate, share, _, _, trav_flow, trav_link, pop_order, _, _ = (
                solver.resolve(caps, flow_links, link_flows)
            )
            step, level, _ = probe_table(
                caps, link_flows, EPS, rate, share, trav_flow, trav_link, pop_order
            )
            entry = dict(zip(link_ids, zip(step, level, range(len(link_ids)))))
        return min(map(entry.__getitem__, path))[1]

    return rate_on


def rate_if_routed(network: Network, path: Sequence[LinkId]) -> float:
    """Rate a probe flow would get on ``path``; the network is untouched.

    Equal, bit for bit, to the probe's rate in
    ``gradient_graph(network.with_flow(Flow(PROBE_FLOW_ID, path)))``, but
    read from one solve of the network itself and its per-link probe table
    (see ``_prober``).
    """
    if not all(isinstance(lid, str) for lid in path):
        raise NetworkFormatError("probe path must contain link ids")
    if not path:
        raise NetworkFormatError("probe path must be non-empty")
    if len(set(path)) != len(path):
        raise NetworkFormatError("probe path repeats a link")
    for lid in path:
        if not network.has_link(lid):
            raise NetworkFormatError(f"probe path references unknown link {lid!r}")
    return _prober(network)(path)


def _router_adjacency(
    network: Network, source: RouterId, dest: RouterId
) -> dict[RouterId, list[tuple[LinkId, RouterId]]]:
    adj: dict[RouterId, list[tuple[LinkId, RouterId]]] = {}
    for r in network.routers:
        adj.setdefault(r, [])
    for l in network.links:
        if l.src is None or l.dst is None:
            raise MissingEndpointsError(
                f"link {l.id!r} lacks src/dst router annotations"
            )
        adj.setdefault(l.src, []).append((l.id, l.dst))
        adj.setdefault(l.dst, [])
    for r in adj:
        adj[r].sort()
    for r in (source, dest):
        if r not in adj:
            raise RoutingError(f"unknown router {r!r}")
    return adj


def max_rate_path(network: Network, source: RouterId, dest: RouterId) -> RoutePath:
    """Find the path on which a new flow would get the highest rate.

    Frontier order is (distance, router id); a neighbour is relaxed only
    when the new distance is smaller beyond ``EPS``, which together with
    the rate-decay property of path extension makes the search exact.
    The network is interned and solved once, at the first relaxation, and
    every candidate path's rate is read from that solve's probe table:
    the share of the path link that would pop first with the probe on it,
    bit for bit the rate a solve of the probed network gives (see
    ``_prober``).
    """
    return _search(network, source, dest, _prober(network))


def _search(network: Network, source: RouterId, dest: RouterId, rate_on) -> RoutePath:
    """``max_rate_path``, probing with ``rate_on``, a ``_prober(network)``."""
    adj = _router_adjacency(network, source, dest)
    if source == dest:
        raise RoutingError("source and destination must differ")

    dist: dict[RouterId, float] = {source: 0.0}
    best_rate: dict[RouterId, float] = {}
    path_to: dict[RouterId, tuple[LinkId, ...]] = {source: ()}
    converged: set[RouterId] = set()
    frontier: list[tuple[float, RouterId]] = [(0.0, source)]

    while frontier:
        d_u, u = heapq.heappop(frontier)
        if u in converged or d_u > dist.get(u, float("inf")):
            continue
        converged.add(u)
        if u == dest:
            break
        for link_id, v in adj[u]:
            if v in converged or link_id in path_to[u]:
                continue
            candidate = path_to[u] + (link_id,)
            rate = rate_on(candidate)
            d_v = 1.0 / rate
            if d_v < dist.get(v, float("inf")) - EPS:
                dist[v] = d_v
                best_rate[v] = rate
                path_to[v] = candidate
                heapq.heappush(frontier, (d_v, v))

    if dest not in converged:
        raise UnreachableError(f"no path from {source!r} to {dest!r}")
    return RoutePath(
        links=path_to[dest],
        predicted_rate=best_rate[dest],
    )


def min_hop_path(
    network: Network, source: RouterId, dest: RouterId
) -> tuple[LinkId, ...]:
    """Fewest-links path, ties broken by the link-id sequence."""
    adj = _router_adjacency(network, source, dest)
    best: dict[RouterId, tuple[int, tuple[LinkId, ...]]] = {source: (0, ())}
    frontier = [source]
    while frontier:
        nxt: list[RouterId] = []
        for u in sorted(frontier):
            hops, path = best[u]
            for link_id, v in adj[u]:
                cand = (hops + 1, path + (link_id,))
                if v not in best or cand < best[v]:
                    best[v] = cand
                    nxt.append(v)
        frontier = nxt
    if dest not in best:
        raise UnreachableError(f"no path from {source!r} to {dest!r}")
    return best[dest][1]

"""Flow-rate-maximal routing over the router graph.

The search is Dijkstra-shaped, but the distance of a router is the inverse
of the rate a hypothetical new flow would converge to if routed there: the
time to push one bit from the source. Every frontier relaxation re-solves
the network with the tentative flow (the probe) added. The network is
interned once per call and each probe is spliced into those arrays, so a
probe costs one kernel solve and builds no ``Network`` or structure. That
solve is rates-only and stops as soon as the probe resolves.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import solver
from .errors import (
    MissingEndpointsError,
    NetworkFormatError,
    RoutingError,
    UnreachableError,
)
from .model import EPS, Flow, LinkId, Network, PROBE_FLOW_ID, RouterId
# Not called: probes are solved through ``solver.resolve``. Kept importable
# as ``qtbs.routing.gradient_graph``, the entry point that perfbench's
# tracer wraps for its ``routing.probes_per_route`` layer.
from .solver import gradient_graph  # noqa: F401


@dataclass(frozen=True)
class RoutePath:
    """A routed path plus the rate the new flow is predicted to receive."""

    links: tuple[LinkId, ...]
    predicted_rate: float
    distance: Mapping[RouterId, float]  # router -> 1 / best rate seen


def _prober(network: Network, eps: float) -> Callable[[Sequence[LinkId]], float]:
    """Interns ``network`` once; returns the rate of a probe on a path.

    The probe takes the next free flow index, but is spliced into each of
    its links' flow lists at its id rank, where ``network.with_flow`` would
    sort it. The kernel reads those lists in order, so it does the same
    arithmetic as on the probed network. It stops once the probe resolves
    (``until``), which leaves the probe's rate exact. Paths must be valid.

    ``interned`` returns fresh outer lists whose inner lists may be shared
    with the network: the probe's path goes in as a new entry of
    ``flow_links``, and each spliced link gets a new list in a copy of
    ``link_flows``; no inner list is edited.
    """
    if network.has_link(PROBE_FLOW_ID) or network.has_flow(PROBE_FLOW_ID):
        # The probed network repeats the probe's id: raise what its intern
        # raises (a path cannot change that error).
        solver.interned(network.with_flow(Flow(PROBE_FLOW_ID, ())))
    link_ids, flow_ids, caps, flow_links, link_flows = solver.interned(network)
    index_of = {lid: i for i, lid in enumerate(link_ids)}
    probe = len(flow_ids)
    rank = bisect_left(flow_ids, PROBE_FLOW_ID)
    flow_links.append([])

    def rate(path: Sequence[LinkId]) -> float:
        links = sorted([index_of[lid] for lid in path])
        flow_links[probe] = links
        spliced = link_flows.copy()
        for l in links:
            flows = link_flows[l]
            at = bisect_left(flows, rank)
            spliced[l] = flows[:at] + [probe] + flows[at:]
        return solver.resolve(caps, flow_links, spliced, eps, until=probe)[probe]

    return rate


def rate_if_routed(network: Network, path: Sequence[LinkId], eps: float = EPS) -> float:
    """Rate a probe flow would get on ``path``; the network is untouched.

    Equal, bit for bit, to the probe's rate in
    ``gradient_graph(network.with_flow(Flow(PROBE_FLOW_ID, path)))``, but
    solved on the interned arrays with the probe spliced in.
    """
    if not path:
        raise NetworkFormatError("probe path must be non-empty")
    if len(set(path)) != len(path):
        raise NetworkFormatError("probe path repeats a link")
    for lid in path:
        if not network.has_link(lid):
            raise NetworkFormatError(f"probe path references unknown link {lid!r}")
    return _prober(network, eps)(path)


def _router_adjacency(network: Network) -> dict[RouterId, list[tuple[LinkId, RouterId]]]:
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
    return adj


def max_rate_path(
    network: Network,
    source: RouterId,
    dest: RouterId,
    eps: float = EPS,
) -> RoutePath:
    """Find the path on which a new flow would get the highest rate.

    Frontier order is (distance, router id); a neighbour is relaxed only
    when the new distance is smaller beyond ``eps``, which together with
    the rate-decay property of path extension makes the search exact.
    The network is interned at the first relaxation and every candidate
    path is one probe re-solve on those arrays (see ``rate_if_routed``).
    """
    adj = _router_adjacency(network)
    if source not in adj or dest not in adj:
        missing = source if source not in adj else dest
        raise RoutingError(f"unknown router {missing!r}")
    if source == dest:
        raise RoutingError("source and destination must differ")

    dist: dict[RouterId, float] = {source: 0.0}
    best_rate: dict[RouterId, float] = {}
    path_to: dict[RouterId, tuple[LinkId, ...]] = {source: ()}
    converged: set[RouterId] = set()
    frontier: list[tuple[float, RouterId]] = [(0.0, source)]
    probe_rate = None

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
            if probe_rate is None:
                probe_rate = _prober(network, eps)
            rate = probe_rate(candidate)
            d_v = 1.0 / rate
            if d_v < dist.get(v, float("inf")) - eps:
                dist[v] = d_v
                best_rate[v] = rate
                path_to[v] = candidate
                heapq.heappush(frontier, (d_v, v))

    if dest not in converged:
        raise UnreachableError(f"no path from {source!r} to {dest!r}")
    return RoutePath(
        links=path_to[dest],
        predicted_rate=best_rate[dest],
        distance=dict(sorted(dist.items())),
    )


def min_hop_path(
    network: Network, source: RouterId, dest: RouterId
) -> tuple[LinkId, ...]:
    """Fewest-links path, ties broken by the link-id sequence."""
    adj = _router_adjacency(network)
    if source not in adj or dest not in adj:
        missing = source if source not in adj else dest
        raise RoutingError(f"unknown router {missing!r}")
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

"""Brute-force verification tools, independent of the main engine.

``waterfill`` is a deliberately naive progressive-filling max-min solver:
no heap, no structure graph, rescanning every live link each round. It
shares only the Network type with the solver so the two can check each
other.
``fd_gradient`` turns it into a finite-difference gradient oracle, and
``random_network`` generates reproducible test instances.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .errors import UnknownVertexError
from .model import EPS, Flow, FlowId, Link, LinkId, Network


@dataclass(frozen=True)
class OracleSolution:
    """Rates and fair shares found by progressive filling."""

    rate: Mapping[FlowId, float]
    fair_share: Mapping[LinkId, float]
    saturation_order: tuple[LinkId, ...]


def waterfill(network: Network) -> OracleSolution:
    """Classic max-min water-filling by repeated scans of the live links.

    Each round finds the smallest headroom-per-active-flow over the links
    that still carry an active flow, and freezes every active flow on every
    link attaining it (ties freeze together). Per link it keeps the
    capacity frozen so far and the count of its active flows, so a round
    rescans every live link once, with no heap and no structure. A link
    that never reaches the minimum reports its saturation level: leftover
    capacity plus its fastest flow's rate (full capacity if untraversed),
    matching the solver's convention for non-bottlenecks.
    """
    link_ids = [l.id for l in network.links]
    capacity = {l.id: l.capacity for l in network.links}
    rate: dict[FlowId, float] = {}
    fair: dict[LinkId, float] = {}
    order: list[LinkId] = []
    active: set[FlowId] = {f.id for f in network.flows}
    frozen_on: dict[LinkId, float] = {lid: 0.0 for lid in link_ids}
    n_active = {lid: len(network.flows_on(lid)) for lid in link_ids}
    live = [lid for lid in link_ids if n_active[lid]]

    while active:
        shares = [(capacity[lid] - frozen_on[lid]) / n_active[lid] for lid in live]
        if not shares:
            raise RuntimeError("active flows remain but no link carries them")
        best = min(shares)
        to_freeze: set[FlowId] = set()
        for lid, share in zip(live, shares):
            if share <= best + EPS:
                fair[lid] = best
                order.append(lid)
                to_freeze.update(f for f in network.flows_on(lid) if f in active)
        for f in sorted(to_freeze):
            rate[f] = best
            active.discard(f)
            for lid in network.links_of(f):
                frozen_on[lid] += best
                n_active[lid] -= 1
        live = [lid for lid in live if n_active[lid]]

    for lid in link_ids:
        if lid not in fair:
            rates_on = [rate[f] for f in network.flows_on(lid)]
            headroom = capacity[lid] - frozen_on[lid]
            fair[lid] = headroom + (max(rates_on) if rates_on else 0.0)
    return OracleSolution(rate=rate, fair_share=fair, saturation_order=tuple(order))


def suggest_delta(network: Network) -> float:
    """A perturbation size safely inside one linear piece of the solution.

    1e-6 times the smallest positive gap between any two distinct base
    rates or fair shares, floored at 1e-12.
    """
    base = waterfill(network)
    values = sorted(set(list(base.rate.values()) + list(base.fair_share.values())))
    gap = min(
        (b - a for a, b in zip(values, values[1:]) if b - a > EPS),
        default=1.0,
    )
    return max(gap * 1e-6, 1e-12)


_FD_SHAPER = "__fd_shaper__"


def fd_gradient(
    network: Network, target: str, direction: int, delta: float
) -> dict[str, float]:
    """Finite-difference gradients of every rate and fair share.

    Reported directionally, like ``forward_grad``: the movement of each
    quantity per unit of perturbation magnitude in the chosen direction.
    Link targets change the capacity by ``direction * delta``. A flow
    target is realized by a private virtual shaper link capping the flow at
    its base rate plus ``direction * delta``; note an upward flow
    perturbation cannot force extra traffic, so its finite difference is
    zero even where ``forward_grad`` reports the hypothetical right
    derivative.

    Fair shares of links that bottleneck no flow in either solution are
    skipped: leftover capacity is a reporting convention with no derivative.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")

    base = waterfill(network)
    if network.has_link(target):
        cap = network.link(target).capacity
        perturbed_net = network.with_capacity(target, cap + direction * delta)
    elif network.has_flow(target):
        shaped = network.with_link(Link(_FD_SHAPER, base.rate[target] + direction * delta))
        flow = shaped.flow(target)
        flows = tuple(
            Flow(f.id, f.path + (_FD_SHAPER,)) if f.id == target else f
            for f in shaped.flows
        )
        perturbed_net = Network(shaped.links, flows, shaped.routers)
    else:
        raise UnknownVertexError(target)

    perturbed = waterfill(perturbed_net)
    out: dict[str, float] = {}
    for f in base.rate:
        out[f] = (perturbed.rate[f] - base.rate[f]) / delta
    base_bnecks = set(base.saturation_order)
    pert_bnecks = set(perturbed.saturation_order)
    for l in base.fair_share:
        if l in base_bnecks and l in pert_bnecks:
            out[l] = (perturbed.fair_share[l] - base.fair_share[l]) / delta
    return out


def random_network(
    seed: int,
    max_links: int = 10,
    max_flows: int = 20,
    max_path_len: int = 4,
) -> Network:
    """Deterministic random instance; every generated link carries a flow.

    Capacities are drawn from [1, 100] with two decimal places. Unused
    links are pruned so the solve always has work on every link.
    """
    if max_links < 1 or max_flows < 1 or max_path_len < 1:
        raise ValueError("limits must be positive")
    rng = random.Random(seed)
    n_links = rng.randint(1, max_links)
    n_flows = rng.randint(1, max_flows)
    link_ids = [f"l{i}" for i in range(1, n_links + 1)]
    caps = {lid: rng.randint(100, 10000) / 100.0 for lid in link_ids}
    flows = []
    used: set[str] = set()
    for i in range(1, n_flows + 1):
        length = rng.randint(1, min(max_path_len, n_links))
        path = tuple(rng.sample(link_ids, length))
        used.update(path)
        flows.append(Flow(f"f{i}", path))
    links = tuple(Link(lid, caps[lid]) for lid in link_ids if lid in used)
    return Network(links, tuple(flows))

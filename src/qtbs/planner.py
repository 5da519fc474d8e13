"""Optimization procedures built on the gradient machinery.

``accelerate_flow`` builds a staged traffic-shaping plan that speeds up one
target flow by throttling low-priority flows, sizing each rate cut at the
first point where the bottleneck structure would change shape.
``taper_fold`` finds the capacity scale at which the levels of a fat-tree
style structure collapse into one, by one upward walk over the linear
pieces of the rates in the scaled capacity: one perturbation of all scaled
links together per piece. Both verify their predictions by re-solving the
modified network. ``taper_fold`` interns its base network once and
re-solves each sampled scale by replacing the scaled links' capacities in
the interned arrays.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from . import solver
from .errors import (
    AlreadyFoldedError,
    DuplicateShaperError,
    PlanError,
    UnknownVertexError,
)
from .gradients import Perturbation, forward_grad
from .model import EPS, Flow, FlowId, Link, LinkId, Network, check_capacity
from .solver import BottleneckSolution, flow_levels, gradient_graph, region_of_influence

SHAPER_PREFIX = "__shaper__"


@dataclass(frozen=True)
class ShapingAction:
    """Install one shaper: cap ``flow`` at ``shaper_rate``."""

    flow: FlowId
    shaper_rate: float
    predicted_target_rate: float
    stage: int


@dataclass(frozen=True)
class ShapingPlan:
    target: FlowId
    low_priority: tuple[FlowId, ...]
    actions: tuple[ShapingAction, ...]
    floor_rate: float
    baseline_target_rate: float
    # The planner's solve of ``apply_plan(network, plan)``, so that callers
    # need not solve it again; None for a plan built by hand. Not part of
    # the plan's value: excluded from repr and equality.
    final_solution: Optional[BottleneckSolution] = field(
        default=None, repr=False, compare=False
    )

    @property
    def final_target_rate(self) -> float:
        if not self.actions:
            return self.baseline_target_rate
        return self.actions[-1].predicted_target_rate


def shaper_link_id(flow: FlowId) -> LinkId:
    return SHAPER_PREFIX + flow


def _with_shaper(network: Network, flow_id: FlowId, cap: float) -> Network:
    lid = shaper_link_id(flow_id)
    if network.has_link(lid):
        raise DuplicateShaperError(f"flow {flow_id!r} already has a shaper")
    if cap <= 0:
        raise PlanError(f"shaper rate for {flow_id!r} must be positive, got {cap}")
    flows = tuple(
        Flow(f.id, f.path + (lid,)) if f.id == flow_id else f
        for f in network.flows
    )
    return Network(network.links + (Link(lid, cap),), flows, network.routers)


def apply_plan(network: Network, plan: ShapingPlan) -> Network:
    """Materialize a plan: one private virtual link per action."""
    out = network
    seen: set[FlowId] = set()
    for action in plan.actions:
        if action.flow in seen:
            raise DuplicateShaperError(
                f"plan shapes flow {action.flow!r} more than once"
            )
        seen.add(action.flow)
        if not out.has_flow(action.flow):
            raise UnknownVertexError(action.flow)
        out = _with_shaper(out, action.flow, action.shaper_rate)
    return out


def _collision_rho(
    solution: BottleneckSolution,
    link_grads: Mapping[LinkId, float],
    region_links: Iterable[LinkId],
) -> Optional[float]:
    """Smallest positive rate cut at which two fair-share lines meet.

    Under a cut of size rho each link moves along s_l - rho * g_l; the first
    intersection anywhere in the perturbed region is the first point where
    the structure, and with it the gradients, can change.
    """
    links = sorted(set(region_links))
    best: Optional[float] = None
    for i, la in enumerate(links):
        for lb in links[i + 1:]:
            ga, gb = link_grads.get(la, 0.0), link_grads.get(lb, 0.0)
            if abs(ga - gb) <= EPS:
                continue
            rho = (solution.fair_share[la] - solution.fair_share[lb]) / (ga - gb)
            if rho > EPS and (best is None or rho < best):
                best = rho
    return best


def accelerate_flow(
    network: Network,
    target: FlowId,
    low_priority: Iterable[FlowId],
    floor_rate: Optional[float] = None,
) -> ShapingPlan:
    """Greedy staged shaping plan that accelerates ``target``.

    Per stage: candidates are unshaped low-priority flows with headroom
    above the floor. For each bottleneck link of the target, the candidate
    whose rate cut raises that link's fair share fastest (most negative
    derivative, then smallest id) is picked, and the picks are cut by a
    common amount: a flow's rate is the smallest fair share of its
    bottleneck links, so the target gains only when every bottleneck's
    share rises. With one bottleneck, this is the target's own
    rate derivative, bit for bit. The cut size is the smallest
    structure-changing collision, clamped to keep every shaped flow at or
    above the floor. Stops when a bottleneck has no helping candidate or
    nothing is gained. The plan's ``final_solution`` is the last solve, of
    the network with every shaper in. ``floor_rate`` must be finite and
    positive; it defaults to the slowest pre-plan rate.
    """
    if not network.has_flow(target):
        raise UnknownVertexError(target)
    low = tuple(sorted(set(low_priority)))
    if not low:
        raise PlanError("low-priority set must be non-empty")
    for f in low:
        if not network.has_flow(f):
            raise UnknownVertexError(f)
    if target in low:
        raise PlanError("target flow cannot be in the low-priority set")
    if floor_rate is not None:
        if not math.isfinite(floor_rate):
            raise PlanError(f"floor rate must be finite, got {floor_rate}")
        if floor_rate <= 0:
            raise PlanError(f"floor rate must be positive, got {floor_rate}")

    current = network
    solution = gradient_graph(current)
    if floor_rate is None:
        floor_rate = min(solution.rate.values())
    baseline = solution.rate[target]

    actions: list[ShapingAction] = []
    shaped: set[FlowId] = set()

    for stage in range(1, len(low) + 1):
        bottlenecks = solution.bottlenecks_of[target]
        if not bottlenecks:
            break
        candidates = [
            f for f in low
            if f not in shaped and solution.rate[f] - floor_rate > EPS
        ]
        if not candidates:
            break

        grads = {
            f: forward_grad(solution, Perturbation(f, -1)).link_derivative
            for f in candidates
        }
        # Per bottleneck, the candidate whose cut raises its share fastest.
        picks = [
            min((g_link.get(b, 0.0), f) for f, g_link in grads.items())
            for b in bottlenecks
        ]
        if any(g_b >= -EPS for g_b, _ in picks):
            break
        chosen = sorted({f for _, f in picks})

        joint_link_grad: dict[LinkId, float] = {}
        region_links: set[LinkId] = set()
        for f in chosen:
            for l, g in grads[f].items():
                joint_link_grad[l] = joint_link_grad.get(l, 0.0) + g
            region_links.update(
                v for v in region_of_influence(solution, f) if solution.is_link(v)
            )

        gain_slope = min(-joint_link_grad.get(b, 0.0) for b in bottlenecks)
        if gain_slope <= EPS:
            break

        rho_collision = _collision_rho(solution, joint_link_grad, region_links)
        rho_floor = min(solution.rate[f] - floor_rate for f in chosen)
        rho = rho_floor if rho_collision is None else min(rho_collision, rho_floor)
        if rho <= EPS:
            break

        before = solution.rate[target]
        for f in chosen:
            current = _with_shaper(current, f, solution.rate[f] - rho)
            shaped.add(f)
            after = gradient_graph(current)
            actions.append(
                ShapingAction(
                    flow=f,
                    shaper_rate=solution.rate[f] - rho,
                    predicted_target_rate=after.rate[target],
                    stage=stage,
                )
            )
        solution = after  # the solve of ``current``, with every shaper in
        if solution.rate[target] - before <= EPS:
            break

    return ShapingPlan(
        target=target,
        low_priority=low,
        actions=tuple(actions),
        floor_rate=floor_rate,
        baseline_target_rate=baseline,
        final_solution=solution,
    )


@dataclass(frozen=True)
class TaperReport:
    """Outcome of the capacity-tapering fold search."""

    tau_star: float
    spine_capacity_at_fold: float
    leaf_capacity: float
    scaled_links: tuple[LinkId, ...]
    level_rates: Mapping[float, tuple[FlowId, ...]]  # base rate -> flows
    level_gradients: Mapping[float, float]  # base rate -> d rate / d spine cap
    rates_below: Mapping[FlowId, float]
    rates_at: Mapping[FlowId, float]
    rates_above: Mapping[FlowId, float]
    slowest_samples: tuple[tuple[float, float], ...]  # (tau, slowest rate)
    # Always "gradient": the walk is the one fold search. Kept while the
    # benchmark harness reads it, in its fingerprint and its trace.
    method: str


def _scaled(network: Network, scale_links: Sequence[LinkId], cap: float) -> Network:
    """A copy of the network with every scaled link's capacity set to ``cap``."""
    scaled = set(scale_links)
    links = tuple(
        Link(l.id, cap, l.src, l.dst) if l.id in scaled else l for l in network.links
    )
    return Network(links, network.flows, network.routers)


def _rate_groups(solution: BottleneckSolution):
    """Flows grouped by structure level, with each group's common rate."""
    groups = []
    for _, flows in flow_levels(solution).items():
        rates = [solution.rate[f] for f in flows]
        groups.append((min(rates), max(rates), flows))
    return groups


def taper_fold(
    network: Network,
    scale_links: Sequence[LinkId],
    leaf_capacity: float,
    tau0: float = 1.0,
) -> TaperReport:
    """Find the scale factor at which the flow levels of the structure fold.

    ``scale_links`` hold capacity ``leaf_capacity * tau``; the remaining
    links are fixed. ``leaf_capacity`` and ``tau0`` must be finite and
    positive. Bands are the structure's flow levels at ``tau0``, in
    ascending rate; the fold is the first scale above ``tau0`` at which the
    slowest flow of a band meets the fastest of the band below, or ``tau0``
    itself if two bands already meet there.

    Rates are piecewise linear in the scaled capacity. One upward walk
    steps over the pieces: per piece, one ``forward_grad`` of all scaled
    links moved up together gives each flow's line, and the walk ends at
    the first meeting of two adjacent bands' lines unless the next
    breakpoint comes first. A breakpoint is where two bottleneck links'
    fair-share lines meet (``_collision_rho``) or where a link that
    bottlenecks no flow drains its leftover; the structure is solved
    again there. A tie goes to the bands. The fold is checked by a
    re-solve: the band gap there must be zero to 1e-9 of the largest rate.

    The report's rates at, below and above the fold and its samples are
    kernel re-solves of the tau0 network, interned once, with the scaled
    links' capacities replaced, of which only the rates are read; each
    distinct capacity is solved once per call. ``caps`` is this call's own
    list, so its entries are assigned in place; the inner lists of
    ``flow_links`` and ``link_flows`` may be shared with the network and
    are only read.
    """
    scale_links = tuple(sorted(set(scale_links)))
    if not scale_links:
        raise PlanError("at least one scaled link is required")
    for lid in scale_links:
        if not network.has_link(lid):
            raise UnknownVertexError(lid)
    for name, v in (("leaf capacity", leaf_capacity), ("tau0", tau0)):
        if not math.isfinite(v):
            raise PlanError(f"{name} must be finite, got {v}")
    if leaf_capacity <= 0 or tau0 <= 0:
        raise PlanError("leaf capacity and tau0 must be positive")

    base_cap = leaf_capacity * tau0
    base_net = _scaled(network, scale_links, base_cap)
    base = gradient_graph(base_net)
    groups = _rate_groups(base)
    if len(groups) < 2:
        raise AlreadyFoldedError(
            "structure already has a single flow level at tau0"
        )

    link_ids, flow_ids, caps, flow_links, link_flows = solver.interned(base_net)
    scaled = [bisect_left(link_ids, lid) for lid in scale_links]  # ids are sorted

    # Rates per scaled capacity, for this call only: the tau0 sample, the
    # fold, ``above_tau`` and a sample at a breakpoint would otherwise
    # repeat a kernel run. The structure solves give tau0's and the
    # breakpoints'.
    solved = {base_cap: list(base.rate.values())}  # ascending flow id

    def rates_at(tau: float) -> list[float]:
        cap = leaf_capacity * tau
        rate = solved.get(cap)
        if rate is None:
            # Every scaled link gets ``cap``: check it as interning would, at
            # the first scaled link in id order.
            check_capacity(scale_links[0], cap)
            for i in scaled:
                caps[i] = cap
            rate = solved[cap] = solver.resolve(caps, flow_links, link_flows)[0]
        return rate

    # Band membership is frozen at tau0; two adjacent bands fold when the
    # upper one's slowest flow meets the lower one's fastest.
    flow_index = {f: i for i, f in enumerate(flow_ids)}
    bands = [[flow_index[f] for f in flows] for _, _, flows in sorted(groups)]

    def band_gap(rate: list[float]) -> float:
        return min(
            min(rate[f] for f in hi) - max(rate[f] for f in lo)
            for lo, hi in zip(bands, bands[1:])
        )

    push = Perturbation(scale_links, +1)
    up = forward_grad(base, push)

    # The report's summary: each level whose flows share one rate and one
    # derivative, keyed by that rate; other levels are left out.
    tol = 1e-6
    level_grad: dict[float, float] = {}
    level_rates: dict[float, tuple[FlowId, ...]] = {}
    for lo, hi, flows in groups:
        grads = [up.flow_gradient[f] for f in flows]
        if hi - lo <= tol and lo not in level_rates and max(grads) - min(grads) <= tol:
            level_rates[lo] = flows
            level_grad[lo] = grads[0]

    # The walk, in the scaled capacity ``c``: each step takes every flow's
    # line rate + g * dc and ends where the first adjacent-band gap closes
    # or at the next breakpoint, where the structure is solved again.
    sol, c, tau_star, rate = base, base_cap, tau0, solved[base_cap]
    while band_gap(rate) > 0:
        g = list(up.flow_gradient.values())  # ascending flow id, as ``rate``
        pts = [{(rate[f], g[f]) for f in band} for band in bands]
        close = min((
            (rh - rf) / (gf - gh)
            for lo, hi in zip(pts, pts[1:])
            for rf, gf in lo for rh, gh in hi if gf - gh > EPS
        ), default=None)
        # Breakpoints: two bottleneck links' fair-share lines meet, or a link
        # that bottlenecks no flow drains its leftover.
        busy = set(sol.graph.bneck_link)
        steps = [_collision_rho(
            sol, {l: -v for l, v in up.link_gradient.items()},
            map(link_ids.__getitem__, busy))]
        for l, fs in enumerate(link_flows):
            if l in busy:
                continue
            grows = l in scaled  # the link's own capacity rises with c
            drift = sum([g[f] for f in fs]) - grows
            if drift > EPS:
                leftover = (c if grows else caps[l]) - sum([rate[f] for f in fs])
                steps.append(leftover / drift)
        # A link drained exactly at c, but not a bottleneck in this solve,
        # is a breakpoint at 0: the next solve is one float above c.
        step = min((s for s in steps if s is not None and s >= 0), default=None)
        # A tie goes to the gap: where the fold is itself a breakpoint,
        # rounding may put the gap's closing a few ulps past it.
        if close is not None and (step is None or close <= step + EPS):
            tau_star = (c + close) / leaf_capacity
            break
        if step is None:
            raise PlanError("no band gap closes while scaling up")
        # Where c is large, a breakpoint closer than c's float spacing would
        # leave c where it is and repeat this step for ever.
        c = max(c + step, math.nextafter(c, math.inf))
        tau_star = c / leaf_capacity
        sol = gradient_graph(_scaled(network, scale_links, c))
        rate = solved[c] = list(sol.rate.values())
        up = forward_grad(sol, push)

    at = rates_at(tau_star)
    gap = band_gap(at)
    if tau_star != tau0 and abs(gap) > 1e-9 * max(at):
        raise PlanError(f"fold verification failed: band gap {gap} at tau*")

    below_tau = 0.5 * (tau0 + tau_star)
    above_tau = tau_star + 0.5 * (tau_star - tau0)
    samples = []
    for i in range(9):
        tau = tau0 + (above_tau - tau0) * i / 8.0
        samples.append((tau, min(rates_at(tau))))

    return TaperReport(
        tau_star=tau_star,
        spine_capacity_at_fold=leaf_capacity * tau_star,
        leaf_capacity=leaf_capacity,
        scaled_links=scale_links,
        level_rates=level_rates,
        level_gradients=level_grad,
        rates_below=dict(zip(flow_ids, rates_at(below_tau))),
        rates_at=dict(zip(flow_ids, at)),
        rates_above=dict(zip(flow_ids, rates_at(above_tau))),
        slowest_samples=tuple(samples),
        method="gradient",
    )

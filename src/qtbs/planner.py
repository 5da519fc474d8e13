"""Optimization procedures built on the gradient machinery.

``accelerate_flow`` builds a staged traffic-shaping plan that speeds up one
target flow by throttling low-priority flows, sizing each rate cut at the
first point where the bottleneck structure would change shape.
``taper_fold`` finds the capacity scale at which the levels of a fat-tree
style structure collapse into one, from one perturbation of all scaled
links together. Both verify their predictions by re-solving the modified
network. ``taper_fold`` interns its base network once and re-solves each
scale by replacing the scaled links' capacities in the interned arrays.
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
    common amount: a flow's drift is the minimum over its bottleneck links
    (the gradient graph's flow rule), so the target gains only when every
    bottleneck's share rises. With one bottleneck, this is the target's own
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
    method: str  # "gradient" or "bisection"


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
    links are fixed. One ``forward_grad`` of all scaled links moved together
    gives each level's rate derivative w.r.t. their common capacity, and so
    each level's line rate(tau); the first intersection of adjacent level
    lines is the fold. Falls back to bisection on the max-min rate gap when
    a level's flows do not share one derivative; it stops once the midpoint
    is an end of the bracket whose gap is already known.

    The structure is solved once, at ``tau0``. Every other scaled capacity
    is one kernel re-solve of that network, interned once, with the scaled
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
    # fold, ``above_tau`` and midpoints that round to one capacity would
    # otherwise repeat a kernel run. The structure solve gives tau0's.
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

    def pair_gap(tau: float) -> float:
        return band_gap(rates_at(tau))

    # Per-level derivative of rate w.r.t. the scaled links' common capacity,
    # from one downward perturbation of all scaled links together.
    tol = 1e-6
    method = "gradient"
    level_grad: dict[float, float] = {}
    level_rates: dict[float, tuple[FlowId, ...]] = {}
    uniform = True
    deriv = forward_grad(base, Perturbation(scale_links, -1)).flow_derivative
    for lo, hi, flows in groups:
        grads = [deriv[f] for f in flows]
        if hi - lo > tol or lo in level_rates or max(grads) - min(grads) > tol:
            uniform = False
            break
        level_rates[lo] = flows
        level_grad[lo] = grads[0]

    tau_star: Optional[float] = None
    if uniform:
        ordered = sorted(level_rates)
        best: Optional[float] = None
        for r_lo, r_hi in zip(ordered, ordered[1:]):
            g_lo, g_hi = level_grad[r_lo], level_grad[r_hi]
            if g_lo - g_hi <= EPS:
                continue  # lines parallel or diverging
            dcap = (r_hi - r_lo) / (g_lo - g_hi)
            if dcap > EPS and (best is None or dcap < best):
                best = dcap
        if best is not None:
            tau_star = (base_cap + best) / leaf_capacity

    if tau_star is None:
        # Bisection on the adjacent-band gap.
        method = "bisection"
        lo_tau, hi_tau = tau0, tau0 * 2.0
        for _ in range(40):
            if pair_gap(hi_tau) <= tol:
                break
            hi_tau *= 2.0
        else:
            raise PlanError("no band gap closes while scaling up")
        lo_known = False  # the gap at tau0 has not been evaluated
        for _ in range(100):
            mid = 0.5 * (lo_tau + hi_tau)
            # Once the floats converge, mid is an end of the bracket. If that
            # end's gap is known, every later step repeats this one.
            if mid == hi_tau or (mid == lo_tau and lo_known):
                break
            if pair_gap(mid) <= tol:
                hi_tau = mid
            else:
                lo_tau, lo_known = mid, True
        tau_star = hi_tau

    at = rates_at(tau_star)
    if band_gap(at) > 1e-3:
        raise PlanError("fold verification failed: bands still split at tau*")

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
        method=method,
    )

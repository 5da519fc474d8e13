"""Output checker: every answer the benchmark times is verified here.

Solves are checked with a max-min certificate computed from the
benchmark's own copy of the input document, and a seeded subset of
answers is compared with ``qtbs.oracle`` (``waterfill``, ``fd_gradient``),
which shares no code with the solver. Each function returns a list of
problems; an empty list means the answer is right. The caller excludes
the time spent here from every metric.
"""
import math

from qtbs import oracle
from qtbs.model import Flow, PROBE_FLOW_ID
from qtbs.planner import apply_plan

# Rates and fair shares are sums of a few dozen doubles of magnitude <= 100,
# so 1e-7 relative leaves ample room for rounding yet catches any real error.
REL_TOL = 1e-7


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def maxmin_certificate(doc, rates):
    """Problems with ``rates`` as a max-min fair allocation of ``doc``.

    Feasible: no link carries more than its capacity. Max-min: every flow
    has a saturated link on its path on which no flow is faster.
    """
    caps = {l["id"]: l["capacity"] for l in doc["links"]}
    paths = {f["id"]: f["links"] for f in doc["flows"]}
    if set(rates) != set(paths):
        return [f"rates cover {len(rates)} flows, network has {len(paths)}"]
    load = dict.fromkeys(caps, 0.0)
    fastest = dict.fromkeys(caps, 0.0)
    problems = []
    for fid, path in paths.items():
        r = rates[fid]
        if not (math.isfinite(r) and r > 0.0):
            problems.append(f"flow {fid}: rate {r} is not positive and finite")
            continue
        for lid in path:
            load[lid] += r
            fastest[lid] = max(fastest[lid], r)
    for lid, cap in caps.items():
        if load[lid] > cap and not _close(load[lid], cap):
            problems.append(f"link {lid}: load {load[lid]} exceeds capacity {cap}")
    for fid, path in paths.items():
        r = rates[fid]
        if not any(
            _close(load[l], caps[l]) and _close(r, fastest[l]) for l in path
        ):
            problems.append(f"flow {fid}: no saturated link where it is fastest")
    return problems


def solve_report(doc, report):
    """Problems with a ``qtbs solve --format json`` report for ``doc``."""
    problems = []
    if report.get("command") != "solve":
        problems.append(f"command is {report.get('command')!r}")
    digest = report.get("network", {})
    if digest != {"links": len(doc["links"]), "flows": len(doc["flows"])}:
        problems.append(f"network digest {digest} does not match the input")
    rates = report.get("rates", {})
    problems += maxmin_certificate(doc, rates)
    shares = report.get("fair_shares", {})
    paths = {f["id"]: f["links"] for f in doc["flows"]}
    for fid, bnecks in report.get("bottlenecks_of", {}).items():
        if not bnecks or not set(bnecks) <= set(paths.get(fid, ())):
            problems.append(f"flow {fid}: bottlenecks {bnecks} not on its path")
            continue
        for lid in bnecks:
            if not _close(shares.get(lid, math.nan), rates.get(fid, math.nan)):
                problems.append(f"flow {fid}: fair share of {lid} != its rate")
    n_vertices = len(doc["links"]) + len(doc["flows"])
    if len(report.get("levels", {})) != n_vertices:
        problems.append("levels do not cover every link and flow")
    return problems


def rates_match_oracle(network, rates):
    """Problems with ``rates`` compared with ``oracle.waterfill``."""
    want = oracle.waterfill(network).rate
    return [
        f"flow {f}: rate {rates.get(f)} but water-filling gives {r}"
        for f, r in sorted(want.items())
        if not _close(rates.get(f, math.nan), r)
    ]


def gradient_matches_oracle(network, result, delta):
    """Problems with a ``GradientResult`` compared with ``fd_gradient``.

    ``delta`` must lie inside one linear piece of the allocation. The
    finite differences' rounding error grows as 1 / delta (about 1e-14 /
    delta on 2.5k-flow networks), which sets the tolerance.
    """
    p = result.perturbation
    fd = oracle.fd_gradient(network, p.target, p.direction, delta)
    tol = max(1e-6, 1e-13 / delta)
    problems = []
    for v, want in sorted(fd.items()):
        got = result.flow_gradient.get(v, result.link_gradient.get(v))
        if got is None or abs(got - want) > tol:
            problems.append(f"{p.target}: d{v} = {got}, finite difference {want}")
    return problems


def route_matches_oracle(network, src, dst, route):
    """Problems with a ``RoutePath``: a real src->dst path at its rate."""
    problems = []
    at = src
    for lid in route.links:
        link = network.link(lid)
        if link.src != at:
            problems.append(f"route {src}->{dst}: {lid} does not start at {at}")
            return problems
        at = link.dst
    if at != dst:
        problems.append(f"route {src}->{dst} ends at {at}")
        return problems
    probed = network.with_flow(Flow(PROBE_FLOW_ID, route.links))
    rate = oracle.waterfill(probed).rate[PROBE_FLOW_ID]
    if not _close(rate, route.predicted_rate):
        problems.append(
            f"route {src}->{dst}: predicted {route.predicted_rate}, "
            f"water-filling gives {rate}"
        )
    return problems


def plan_matches_oracle(network, plan):
    """Problems with a ``ShapingPlan``: its final target rate is realized."""
    rate = oracle.waterfill(apply_plan(network, plan)).rate[plan.target]
    if _close(rate, plan.final_target_rate):
        return []
    return [
        f"shape {plan.target}: predicted {plan.final_target_rate}, "
        f"water-filling gives {rate}"
    ]


def _bands(rates):
    """Flows grouped by equal rate, slowest group first."""
    groups = {}
    for f, r in sorted(rates.items(), key=lambda kv: kv[1]):
        key = next((k for k in groups if _close(k, r)), r)
        groups.setdefault(key, []).append(f)
    return [groups[k] for k in sorted(groups)]


def _band_gap(network, scaled, capacity, bands):
    net = network
    for lid in scaled:
        net = net.with_capacity(lid, capacity)
    rates = oracle.waterfill(net).rate
    return min(
        min(rates[f] for f in hi) - max(rates[f] for f in lo)
        for lo, hi in zip(bands, bands[1:])
    )


def taper_matches_oracle(network, scaled, leaf_capacity, tau0, report):
    """Problems with a ``TaperReport``: the first band gap closes at tau*.

    Bands are the groups of equal rate at ``tau0``; at ``tau_star`` the
    closest pair of adjacent bands must meet, and just below it every
    pair must still be apart.
    """
    base = network
    for lid in scaled:
        base = base.with_capacity(lid, leaf_capacity * tau0)
    bands = _bands(oracle.waterfill(base).rate)
    tau = report.tau_star
    tol = 1e-5 * leaf_capacity
    problems = []
    if len(bands) < 2:
        return [f"taper: a single band at tau0 = {tau0}, nothing to fold"]
    at = _band_gap(network, scaled, leaf_capacity * tau, bands)
    if abs(at) > tol:
        problems.append(f"taper: band gap {at} at tau* = {tau}")
    below = _band_gap(network, scaled, leaf_capacity * (tau0 + 0.99 * (tau - tau0)), bands)
    if below <= tol:
        problems.append(f"taper: bands already meet below tau* = {tau}")
    return problems


def gradient_within_bound(bound, magnitudes):
    """Problems with a gradient bound: it must cover every gradient seen."""
    worst = max(magnitudes, default=0.0)
    if not math.isfinite(bound) or worst > bound + 1e-9:
        return [f"gradient bound {bound} below a realized magnitude {worst}"]
    return []


"""Seeded input generator for the benchmark workloads.

Everything here is built from ``random.Random(seed)`` and plain dicts in
the qtbs network file format, so the inputs depend only on the seed and on
this file, never on the library under test (``qtbs.oracle.random_network``
draws its own flow count, so a library change could move the inputs).
"""
import random

# Why each workload exists; printed with every run and kept next to the
# generator so a change to one is reviewed with the other.
WHY = {
    "solve-10k": (
        "one CLI solve of a ~10k-flow file: parse, validate, intern, kernel, "
        "structure, levels and JSON output each do their largest job; "
        "gradients, routing and planner stay idle"
    ),
    "grad-2k5": (
        "forward_grad on flow and link targets plus gradient_bound on a "
        "2.5k-flow network solved during set-up: the gradients layer does "
        "nearly all timed work, a solver gain may move only setup_s"
    ),
    "plan-mix": (
        "route, shape and taper on small networks: cost is per-call re-solve "
        "overhead, so a change that adds fixed cost per solve shows as a loss"
    ),
}

SOLVE_LINKS, SOLVE_FLOWS, SOLVE_FILES = 500, 10_000, 2
GRAD_LINKS, GRAD_FLOWS = 330, 2_500
GRAD_FLOW_TARGETS, GRAD_LINK_TARGETS = 100, 100
PATH_LEN = (2, 12)
# Capacities are drawn from [1, 100] with two decimals, as in the fixtures.
CAP_CENTS = (100, 10_000)
# Leaf-spine trees for taper: every pods x hosts combination.
TREE_PODS = (2, 3, 4)
TREE_HOSTS = (2, 3, 4)


def flat_network(rng, n_links, n_flows, path_len=PATH_LEN):
    """Document with exactly ``n_links`` links and ``n_flows`` flows.

    Paths are distinct links drawn uniformly; no routers, since only the
    solver and gradients read these networks.
    """
    link_ids = [f"l{i}" for i in range(n_links)]
    links = [
        {"id": lid, "capacity": rng.randint(*CAP_CENTS) / 100.0}
        for lid in link_ids
    ]
    flows = [
        {"id": f"f{i}", "links": rng.sample(link_ids, rng.randint(*path_len))}
        for i in range(n_flows)
    ]
    return {"links": links, "flows": flows}


def leaf_spine(pods, hosts, leaf_capacity):
    """A two-tier tree with all-to-all flows between its hosts.

    Host ``h{p}_{i}`` has one access link of ``leaf_capacity``; pod ``p``
    has one spine link ``s{p}`` that starts at the same capacity (tau0 = 1)
    and is the link ``taper_fold`` scales. Same-pod flows use both access
    links, cross-pod flows add both pods' spine links; this generalizes
    ``fixtures/fat_tree.json`` (which is the 2 x 2 case).
    """
    links = [{"id": f"s{p}", "capacity": leaf_capacity} for p in range(pods)]
    links += [
        {"id": f"h{p}_{i}", "capacity": leaf_capacity}
        for p in range(pods) for i in range(hosts)
    ]
    ends = [(p, i) for p in range(pods) for i in range(hosts)]
    flows = []
    for a in ends:
        for b in ends:
            if a == b:
                continue
            path = [f"h{a[0]}_{a[1]}", f"h{b[0]}_{b[1]}"]
            if a[0] != b[0]:
                path[1:1] = [f"s{a[0]}", f"s{b[0]}"]
            flows.append({"id": f"f{a[0]}.{a[1]}-{b[0]}.{b[1]}", "links": path})
    return {"links": links, "flows": flows}


def solve_inputs(seed, n_links=SOLVE_LINKS, n_flows=SOLVE_FLOWS):
    """Documents for ``solve-10k``: ``SOLVE_FILES`` networks of one size."""
    rng = random.Random(f"solve-10k/{seed}")
    return [flat_network(rng, n_links, n_flows) for _ in range(SOLVE_FILES)]


def _stratified(rng, ids, key, k):
    """One id from each of ``k`` equal strata of ``ids`` ordered by ``key``."""
    ordered = sorted(ids, key=lambda i: (key[i], i))
    return [
        rng.choice(ordered[j * len(ordered) // k:(j + 1) * len(ordered) // k])
        for j in range(k)
    ]


def grad_inputs(seed, n_links=GRAD_LINKS, n_flows=GRAD_FLOWS,
                flow_targets=GRAD_FLOW_TARGETS, link_targets=GRAD_LINK_TARGETS):
    """Document and seeded target lists for ``grad-2k5``.

    The network is the same for every seed and the seed picks the targets.
    One target costs from under 1 ms to ~75 ms depending on how much of the
    structure it reaches, so both choices cut run-to-run noise: the median
    over random networks of this size moves by ~10%, and over 150 random
    targets of one network by ~20%. Targets are therefore drawn one per
    stratum of a fair-share estimate (capacity over flow count, minimized
    along a flow's path), computed here so that no qtbs code picks them.
    Targets are shuffled and alternate flow, link, flow, ...
    """
    doc = flat_network(random.Random("grad-2k5/network"), n_links, n_flows)
    load = {l["id"]: 0 for l in doc["links"]}
    for f in doc["flows"]:
        for lid in f["links"]:
            load[lid] += 1
    share = {l["id"]: l["capacity"] / max(load[l["id"]], 1) for l in doc["links"]}
    flow_share = {f["id"]: min(share[lid] for lid in f["links"]) for f in doc["flows"]}
    rng = random.Random(f"grad-2k5/{seed}")
    flows = _stratified(rng, flow_share, flow_share, flow_targets)
    links = _stratified(rng, share, share, link_targets)
    rng.shuffle(flows)
    rng.shuffle(links)
    targets = []
    for i in range(max(len(flows), len(links))):
        targets += [("flow", t) for t in flows[i:i + 1]]
        targets += [("link", t) for t in links[i:i + 1]]
    return doc, targets


def plan_inputs(seed, pods=TREE_PODS, hosts=TREE_HOSTS):
    """Leaf capacity, trees and a shuffle key for ``plan-mix``.

    The fixtures are read as they are; the seed picks the trees' leaf
    capacity and the order of operations inside each pass. Each tree comes
    with the spine links that ``taper_fold`` scales.
    """
    rng = random.Random(f"plan-mix/{seed}")
    leaf_capacity = rng.randint(1000, 4000) / 100.0
    trees = {
        f"tree{p}x{h}": {
            "network": leaf_spine(p, h, leaf_capacity),
            "scale_links": [f"s{i}" for i in range(p)],
        }
        for p in pods for h in hosts
    }
    return leaf_capacity, trees, rng.random()

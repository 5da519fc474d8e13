"""The lazy-heap kernel against an eager-heap reference.

``_eager_solve`` is the kernel as it was before the heap became lazy: it
pushes one heap entry for every fair-share update and skips entries whose
key no longer matches. The lazy kernel must return exactly the same tuple:
rates, shares, edges in emission order, pop order and both counters.
"""
import heapq
import random

import pytest

from qtbs import Flow, Link, Network, _kernel_py, random_network
from qtbs.model import interned

_INF = float("inf")


def _eager_solve(caps, flow_links, link_flows, eps):
    n_links = len(caps)
    n_flows = len(flow_links)
    avail = list(caps)
    nrem = [len(link_flows[l]) for l in range(n_links)]
    share = [caps[l] if nrem[l] == 0 else caps[l] / nrem[l] for l in range(n_links)]
    dead = [nrem[l] == 0 for l in range(n_links)]
    popped = [False] * n_links
    rate = [_INF] * n_flows
    resolved = [False] * n_flows

    heap = [(share[l], l) for l in range(n_links) if not dead[l]]
    heapq.heapify(heap)

    bneck_edges = []
    trav_edges = []
    pop_order = []
    pops = 0
    updates = 0
    unresolved = n_flows

    def pop_link():
        nonlocal pops
        while heap:
            key, l = heapq.heappop(heap)
            if popped[l] or dead[l] or key != share[l]:
                continue
            popped[l] = True
            pops += 1
            pop_order.append(l)
            return l
        return -1

    while unresolved > 0:
        l = pop_link()
        if l < 0:
            raise RuntimeError("no live link left while flows remain unresolved")
        s_l = share[l]
        for f in link_flows[l]:
            if rate[f] < s_l - eps:
                continue
            bneck_edges.append((l, f))
            if resolved[f]:
                continue
            rate[f] = s_l
            resolved[f] = True
            unresolved -= 1
            for l2 in flow_links[f]:
                if l2 == l or popped[l2] or dead[l2]:
                    continue
                if share[l2] > s_l + eps:
                    trav_edges.append((f, l2))
                    avail[l2] -= s_l
                    nrem[l2] -= 1
                    if nrem[l2] <= 0:
                        dead[l2] = True
                        share[l2] = avail[l2] + s_l
                    else:
                        share[l2] = avail[l2] / nrem[l2]
                        heapq.heappush(heap, (share[l2], l2))
                        updates += 1

    while True:
        l = pop_link()
        if l < 0:
            break
        s_l = share[l]
        for f in link_flows[l]:
            if rate[f] >= s_l - eps:
                bneck_edges.append((l, f))

    return rate, share, bneck_edges, trav_edges, pop_order, pops, updates


def _few_capacities(seed, capacities):
    """A random network whose links take only the given capacities, so fair
    shares tie often and the link-id part of the heap order decides."""
    rng = random.Random(seed)
    n_links = rng.randint(1, 24)
    link_ids = [f"l{i:02d}" for i in range(n_links)]
    flows = tuple(
        Flow(f"f{i:03d}", tuple(rng.sample(link_ids, rng.randint(1, min(5, n_links)))))
        for i in range(rng.randint(1, 90))
    )
    links = tuple(Link(lid, rng.choice(capacities)) for lid in link_ids)
    return Network(links, flows)


EPSILONS = (1e-9, 1e-3)


def _assert_same(net, eps):
    args = interned(net)[2:]
    assert _kernel_py.solve(*args, eps) == _eager_solve(*args, eps)


@pytest.mark.parametrize("eps", EPSILONS)
def test_matches_eager_heap_on_random_networks(eps):
    for seed in range(150):
        _assert_same(random_network(seed, max_links=14, max_flows=40, max_path_len=5), eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("capacities", [(4.0, 6.0), (1.0, 2.0, 3.0), (0.7, 0.1, 0.3)])
def test_matches_eager_heap_on_tied_capacities(eps, capacities):
    for seed in range(120):
        _assert_same(_few_capacities(seed, capacities), eps)


def test_matches_eager_heap_at_scale():
    net = random_network(5, max_links=300, max_flows=3000, max_path_len=10)
    _assert_same(net, 1e-9)


def test_updates_count_share_updates_not_pushes():
    # Two flows leave the 30-link in turn, raising its share twice; the lazy
    # heap requeues it once, when its stale entry reaches the top.
    net = Network(
        (Link("a", 1.0), Link("b", 2.0), Link("c", 30.0)),
        (Flow("f1", ("a", "c")), Flow("f2", ("b", "c")), Flow("f3", ("c",))),
    )
    rate, share, _, _, pop_order, pops, updates = _kernel_py.solve(
        *interned(net)[2:], 1e-9
    )
    assert rate == [1.0, 2.0, 27.0]
    assert pop_order == [0, 1, 2] and pops == 3
    assert updates == 2


def test_matches_eager_heap_when_rounding_lowers_a_share():
    # 34 flows share c; when f00 leaves at a rate two ulps below c's share,
    # c's recomputed share rounds one ulp *below* its old one. It must then
    # pop before b, whose share equals c's old share and whose id is smaller.
    s, c_cap = 12042450062.759798, 409443302133.83325
    b_cap = c_cap / 34
    flows = [Flow("f00", ("a", "c")), Flow("g", ("b",))]
    flows += [Flow(f"f{i:02d}", ("c",)) for i in range(1, 34)]
    net = Network((Link("a", s), Link("b", b_cap), Link("c", c_cap)), tuple(flows))
    out = _kernel_py.solve(*interned(net)[2:], 1e-9)
    assert out[1][2] < b_cap
    assert out[4] == [0, 2, 1]
    _assert_same(net, 1e-9)

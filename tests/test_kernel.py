"""The lazy-heap kernel against an eager-heap reference, and its probe table.

``_eager_solve`` is the kernel as it was before the heap became lazy: it
pushes one heap entry for every fair-share update, skips entries whose
key no longer matches and counts each update as it makes it. The lazy
kernel must return exactly the same tuple: rates, shares, the four edge
arrays in emission order, pop order and both counters. The
probe table must give a probe's rate in a solve of the probed network. The
kernel raises when a flow cannot resolve. The order of each flow's link
list moves only the order of its traversal edges.
"""
import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qtbs import (
    PROBE_FLOW_ID, Flow, Link, Network, SolverError, _kernel, random_network,
)
from qtbs.model import interned
from qtbs.solver import resolve

from conftest import FIXTURES, load

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

    bneck_link, bneck_flow = [], []
    trav_flow, trav_link = [], []
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
            bneck_link.append(l)
            bneck_flow.append(f)
            if resolved[f]:
                continue
            rate[f] = s_l
            resolved[f] = True
            unresolved -= 1
            for l2 in flow_links[f]:
                if l2 == l or popped[l2] or dead[l2]:
                    continue
                if share[l2] > s_l + eps:
                    trav_flow.append(f)
                    trav_link.append(l2)
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
                bneck_link.append(l)
                bneck_flow.append(f)

    return (rate, share, bneck_link, bneck_flow, trav_flow, trav_link,
            pop_order, pops, updates)


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
    assert _kernel.solve(*args, eps) == _eager_solve(*args, eps)


@pytest.mark.parametrize("eps", EPSILONS)
def test_matches_eager_heap_on_random_networks(eps):
    for seed in range(150):
        _assert_same(random_network(seed, max_links=14, max_flows=40, max_path_len=5), eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("capacities", [(4.0, 6.0), (1.0, 2.0, 3.0), (0.7, 0.1, 0.3)])
def test_matches_eager_heap_on_tied_capacities(eps, capacities):
    for seed in range(120):
        _assert_same(_few_capacities(seed, capacities), eps)


def _tie_network():
    # Six links of one capacity and twelve flows: fair shares tie exactly
    # everywhere, so the link-id part of the heap order decides every pop.
    paths = [[0, 1], [0, 4, 5, 2], [0, 4, 5, 3], [1, 0],
             [1, 4, 5, 2], [1, 4, 5, 3], [2, 5, 4, 0], [2, 5, 4, 1],
             [2, 3], [3, 5, 4, 0], [3, 5, 4, 1], [3, 2]]
    links = tuple(Link(f"l{l}", 20.0) for l in range(6))
    flows = tuple(Flow(f"f{f:02d}", tuple(f"l{l}" for l in path))
                  for f, path in enumerate(paths))
    return Network(links, flows)


@pytest.mark.parametrize("eps", EPSILONS)
def test_matches_eager_heap_on_exact_ties(eps):
    _assert_same(_tie_network(), eps)


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
    rate, share, _, _, _, _, pop_order, pops, updates = _kernel.solve(
        *interned(net)[2:], 1e-9
    )
    assert rate == [1.0, 2.0, 27.0]
    assert pop_order == [0, 1, 2] and pops == 3
    assert updates == 2


def _rounding_network():
    # 34 flows share c; when f00 leaves at a rate two ulps below c's share,
    # c's recomputed share rounds one ulp *below* its old one. It must then
    # pop before b, whose share equals c's old share and whose id is smaller.
    s, c_cap = 12042450062.759798, 409443302133.83325
    flows = [Flow("f00", ("a", "c")), Flow("g", ("b",))]
    flows += [Flow(f"f{i:02d}", ("c",)) for i in range(1, 34)]
    return Network((Link("a", s), Link("b", c_cap / 34), Link("c", c_cap)), tuple(flows))


def test_matches_eager_heap_when_rounding_lowers_a_share():
    net = _rounding_network()
    out = _kernel.solve(*interned(net)[2:], 1e-9)
    assert out[1][2] < net.links[1].capacity
    assert out[6] == [0, 2, 1]
    _assert_same(net, 1e-9)


def _rounding_network_with_shared_flow():
    # As above, but flow h crosses b and c, and b's share equals c's old
    # share exactly. c's lowered share must pop first and set h's rate; b
    # popping first would give h c's old share, one ulp higher.
    c_cap = 127530984730.19818
    old = c_cap / 35
    flows = [Flow("f00", ("a", "c")), Flow("g", ("b",)), Flow("h", ("b", "c"))]
    flows += [Flow(f"f{i:02d}", ("c",)) for i in range(1, 34)]
    links = (Link("a", math.nextafter(old, 0)), Link("b", 2 * old), Link("c", c_cap))
    return Network(links, tuple(flows))


def test_matches_eager_heap_when_rounding_lowers_a_shared_flows_share():
    net = _rounding_network_with_shared_flow()
    out = _kernel.solve(*interned(net)[2:], 1e-9)
    assert out[6] == [0, 2, 1]
    assert out[0][interned(net)[1].index("h")] < net.links[2].capacity / 35
    _assert_same(net, 1e-9)


def _rate_corpus():
    """The networks above: random, tied capacities, exact ties and the
    rounding cases."""
    nets = [random_network(seed, max_links=14, max_flows=40, max_path_len=5)
            for seed in range(150)]
    for capacities in [(4.0, 6.0), (1.0, 2.0, 3.0), (0.7, 0.1, 0.3)]:
        nets += [_few_capacities(seed, capacities) for seed in range(120)]
    nets += [_tie_network(), _rounding_network(), _rounding_network_with_shared_flow()]
    return nets


@pytest.mark.parametrize("eps", EPSILONS + (0.2,))
def test_probe_table_gives_the_probed_networks_rate(eps):
    # Six probe paths per network, of two to five links where it has them;
    # each table rate must be the probe's rate in a solve of the probed
    # network at the same tolerance, bit for bit. The tie rule must skip
    # some traversal edges, or the corpus would not test it.
    rng = random.Random(1)
    probes = frozen = 0
    for net in _rate_corpus():
        link_ids, _, caps, flow_links, link_flows = interned(net)
        rate, share, _, _, trav_flow, trav_link, pop_order, _, _ = _kernel.solve(
            caps, flow_links, link_flows, eps
        )
        step, level, skipped = _kernel.probe_table(
            caps, link_flows, eps, rate, share, trav_flow, trav_link, pop_order
        )
        frozen += skipped
        n = len(link_ids)
        for _ in range(6):
            path = rng.sample(range(n), rng.randint(min(2, n), min(5, n)))
            got = min((step[l], level[l], l) for l in path)[1]
            probed = net.with_flow(Flow(PROBE_FLOW_ID, tuple(link_ids[l] for l in path)))
            _, probed_flows, *probed_arrays = interned(probed)
            want = _kernel.solve(*probed_arrays, eps)[0]
            assert got == want[probed_flows.index(PROBE_FLOW_ID)]
            probes += len(path) > 1
    assert probes > 2900  # multi-link paths
    assert frozen > 300


# A flow on no link never resolves: the heap runs out with it unresolved,
# after the other flows' links have popped (first arrays) or at once.
NO_LINK_ARRAYS = [([2.0], [[0], []], [[0]]), ([], [[]], [])]


@pytest.mark.parametrize("arrays", NO_LINK_ARRAYS)
def test_flow_on_no_link_raises(arrays):
    with pytest.raises(RuntimeError, match="^no live link left while flows remain unresolved$"):
        _kernel.solve(*arrays, 1e-9)
    with pytest.raises(SolverError, match="^no live link left while flows remain unresolved$"):
        resolve(*arrays)


# -- the order inside each flow's link list -----------------------------------

def _assert_path_order_ignored(net, rng, eps=1e-9):
    """With every flow's link list shuffled, the kernel's output is bit for
    bit the same, but for the order of each flow's traversal edges inside
    its group; the probe table is the same. Returns whether that order
    moved."""
    _, _, caps, flow_links, link_flows = interned(net)
    shuffled = [rng.sample(ls, len(ls)) for ls in flow_links]
    base = _kernel.solve(caps, flow_links, link_flows, eps)
    out = _kernel.solve(caps, shuffled, link_flows, eps)
    assert out[:5] == base[:5]  # rate, share, bottleneck edges, trav_flow
    assert out[6:] == base[6:]  # pop_order, pops, updates
    for f in set(base[4]):
        assert ({l for g, l in zip(out[4], out[5]) if g == f}
                == {l for g, l in zip(base[4], base[5]) if g == f})
    tables = [
        _kernel.probe_table(caps, link_flows, eps, o[0], o[1], o[4], o[5], o[6])
        for o in (base, out)
    ]
    assert tables[0] == tables[1]
    return out[5] != base[5]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(EPSILONS), st.randoms(use_true_random=False))
def test_kernel_ignores_path_order_on_random_networks(seed, eps, rng):
    net = random_network(seed, max_links=14, max_flows=40, max_path_len=6)
    _assert_path_order_ignored(net, rng, eps)


def test_kernel_ignores_path_order_on_fixtures_and_tied_corpus():
    from test_gradients import _tied_corpus

    rng = random.Random(3)
    nets = [load(path.name) for path in sorted(FIXTURES.glob("*.json"))]
    nets += [net for _, net in _tied_corpus()]
    nets += [_tie_network(), _rounding_network(), _rounding_network_with_shared_flow()]
    moved = sum(_assert_path_order_ignored(net, rng) for net in nets for _ in range(3))
    assert moved > 100  # the shuffles reorder traversal edges

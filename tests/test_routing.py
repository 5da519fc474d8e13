import random

import pytest

from qtbs import (
    PROBE_FLOW_ID,
    DuplicateIdError,
    Flow,
    Link,
    MissingEndpointsError,
    Network,
    NetworkFormatError,
    UnreachableError,
    gradient_graph,
    max_rate_path,
    min_hop_path,
    random_network,
    rate_if_routed,
    waterfill,
)


def _two_router_net():
    return Network(
        (Link("l1", 10.0, "u1", "u2"),),
        (),
        ("u1", "u2"),
    )


def test_idle_network_single_link():
    route = max_rate_path(_two_router_net(), "u1", "u2")
    assert route.links == ("l1",)
    assert route.predicted_rate == pytest.approx(10.0)


def test_probe_on_idle_link_gets_capacity():
    assert rate_if_routed(_two_router_net(), ["l1"]) == pytest.approx(10.0)


def test_rate_if_routed_rejects_bad_paths(b4):
    with pytest.raises(NetworkFormatError):
        rate_if_routed(b4, [])
    with pytest.raises(NetworkFormatError):
        rate_if_routed(b4, ["l15", "l15"])
    with pytest.raises(NetworkFormatError):
        rate_if_routed(b4, ["nope"])


def test_rate_if_routed_refuses_a_path_entry_that_is_not_an_id(b4):
    # An unhashable entry used to raise a bare TypeError from ``set(path)``.
    for path in ([["l1"]], [["l1"], "l1"], ["l15", 3]):
        with pytest.raises(NetworkFormatError) as info:
            rate_if_routed(b4, path)
        assert type(info.value) is NetworkFormatError
        assert str(info.value) == "probe path must contain link ids"


def test_b4_probe_rates(b4):
    assert rate_if_routed(b4, ["l15", "l10"]) == pytest.approx(10.0 / 7.0, abs=1e-9)
    assert rate_if_routed(b4, ["l16", "l8", "l19"]) == pytest.approx(2.5, abs=1e-9)


def test_b4_max_rate_path(b4):
    route = max_rate_path(b4, "DC4", "DC11")
    assert route.links == ("l16", "l8", "l19")
    assert route.predicted_rate == pytest.approx(2.5, abs=1e-9)
    assert min_hop_path(b4, "DC4", "DC11") == ("l15", "l10")


def test_b4_probe_leaves_network_unmodified(b4):
    before = gradient_graph(b4).rate
    rate_if_routed(b4, ["l16", "l8", "l19"])
    assert gradient_graph(b4).rate == before


def test_b4_short_probe_shifts_only_its_tier(b4):
    # placing the probe on the busy short path redistributes the top tier's
    # bandwidth without touching lower-tier flows or the tier's total
    from qtbs import PROBE_FLOW_ID

    base = gradient_graph(b4)
    probed = gradient_graph(b4.with_flow(Flow(PROBE_FLOW_ID, ("l15", "l10"))))
    squeezed = {"f1", "f3", "f4", "f5", "f7", "f8"}
    for f in squeezed:
        assert probed.rate[f] == pytest.approx(10.0 / 7.0, abs=1e-9)
    for f in base.rate:
        if f not in squeezed:
            assert probed.rate[f] == pytest.approx(base.rate[f], abs=1e-9)
    tier = squeezed | {"f2", "f10", "f13", "f14", "f15", "f16"}
    before = sum(base.rate[f] for f in tier)
    after = sum(probed.rate[f] for f in tier) + probed.rate[PROBE_FLOW_ID]
    assert before == pytest.approx(20.0, abs=1e-9)
    assert after == pytest.approx(20.0, abs=1e-9)


def test_missing_endpoints_rejected(fat_tree):
    with pytest.raises(MissingEndpointsError):
        max_rate_path(fat_tree, "a", "b")


def test_unknown_router_rejected(b4):
    from qtbs import RoutingError

    with pytest.raises(RoutingError):
        max_rate_path(b4, "DC4", "DC99")
    with pytest.raises(RoutingError):
        max_rate_path(b4, "DC4", "DC4")


def test_parallel_edges_each_link_is_its_own_edge():
    net = Network(
        (Link("thin", 5.0, "u1", "u2"), Link("wide", 10.0, "u1", "u2")),
        (),
        ("u1", "u2"),
    )
    route = max_rate_path(net, "u1", "u2")
    assert route.links == ("wide",)
    assert route.predicted_rate == pytest.approx(10.0)


def test_unreachable_destination():
    net = Network(
        (Link("l1", 10.0, "u1", "u2"), Link("l2", 10.0, "u3", "u4")),
        (),
        ("u1", "u2", "u3", "u4"),
    )
    with pytest.raises(UnreachableError):
        max_rate_path(net, "u1", "u4")


def test_monotone_rate_decay_under_extension():
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        net = random_network(seed, max_links=8, max_flows=14, max_path_len=4)
        link_ids = [l.id for l in net.links]
        if len(link_ids) < 2:
            continue
        path = rng.sample(link_ids, rng.randint(1, min(3, len(link_ids))))
        rest = [l for l in link_ids if l not in path]
        if not rest:
            continue
        base = rate_if_routed(net, path)
        extended = rate_if_routed(net, path + [rng.choice(rest)])
        assert extended <= base + 1e-9
        checked += 1
    assert checked >= 30


def test_strict_decay_implies_new_bottleneck():
    rng = random.Random(11)
    from qtbs import PROBE_FLOW_ID

    for seed in range(30):
        net = random_network(seed, max_links=8, max_flows=14, max_path_len=4)
        link_ids = [l.id for l in net.links]
        if len(link_ids) < 2:
            continue
        path = rng.sample(link_ids, rng.randint(1, min(3, len(link_ids))))
        rest = [l for l in link_ids if l not in path]
        if not rest:
            continue
        ext = rng.choice(rest)
        base = rate_if_routed(net, path)
        probed = net.with_flow(Flow(PROBE_FLOW_ID, tuple(path + [ext])))
        sol = gradient_graph(probed)
        if sol.rate[PROBE_FLOW_ID] < base - 1e-9:
            assert ext in sol.bottlenecks_of[PROBE_FLOW_ID]


def _random_router_net(seed):
    """Small connected router graph with background flows."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    routers = tuple(f"u{i}" for i in range(n))
    links = []
    for i in range(1, n):  # spanning chain keeps it connected
        j = rng.randrange(i)
        cap = rng.randint(100, 3000) / 100.0
        links.append(Link(f"l{i}a", cap, routers[j], routers[i]))
        links.append(Link(f"l{i}b", cap, routers[i], routers[j]))
    for k in range(rng.randint(0, 3)):  # extra shortcuts
        a, b = rng.sample(range(n), 2)
        links.append(Link(f"x{k}", rng.randint(100, 3000) / 100.0,
                          routers[a], routers[b]))
    net = Network(tuple(links), (), routers)
    flows = []
    ids = [l.id for l in links]
    for k in range(rng.randint(1, 8)):
        flows.append(Flow(f"f{k}", tuple(rng.sample(ids, rng.randint(1, min(3, len(ids)))))))
    return Network(tuple(links), tuple(flows), routers)


def _all_simple_paths(net, src, dst):
    adj = {}
    for l in net.links:
        adj.setdefault(l.src, []).append((l.id, l.dst))
    out = []

    def walk(u, seen_routers, seen_links, acc):
        if u == dst:
            out.append(tuple(acc))
            return
        for lid, v in sorted(adj.get(u, [])):
            if v in seen_routers or lid in seen_links:
                continue
            walk(v, seen_routers | {v}, seen_links | {lid}, acc + [lid])

    walk(src, {src}, set(), [])
    return out


def test_max_rate_path_is_argmax_by_enumeration():
    checked = 0
    for seed in range(25):
        net = _random_router_net(seed)
        routers = net.routers
        src, dst = routers[0], routers[-1]
        if src == dst:
            continue
        paths = _all_simple_paths(net, src, dst)
        if not paths:
            continue
        best = max(waterfill(net.with_flow(Flow("__probe__", p))).rate["__probe__"]
                   for p in paths)
        route = max_rate_path(net, src, dst)
        assert route.predicted_rate == pytest.approx(best, abs=1e-9)
        assert route.links in paths
        checked += 1
    assert checked >= 15


# -- probe rates from one base solve -----------------------------------------
# ``rate_if_routed`` and ``max_rate_path`` read a probe's rate from one solve
# of the network and its per-link probe table; the reference builds the
# probed network and solves it from scratch. The two must agree bit for bit.

def _reference_rate(net, path):
    probed = net.with_flow(Flow(PROBE_FLOW_ID, tuple(path)))
    return gradient_graph(probed).rate[PROBE_FLOW_ID]


def test_probe_splice_matches_probed_network_on_b4_pairs(b4):
    for src in b4.routers:
        for dst in b4.routers:
            if src == dst:
                continue
            route = max_rate_path(b4, src, dst)
            assert route.predicted_rate == _reference_rate(b4, route.links)
            hops = min_hop_path(b4, src, dst)
            assert rate_if_routed(b4, hops) == _reference_rate(b4, hops)


def _id_mixed_net(rng, caps):
    """Flow ids that sort before and after the probe's id."""
    links = tuple(Link(f"l{i}", rng.choice(caps)) for i in range(rng.randint(1, 9)))
    ids = [l.id for l in links]
    prefixes = ("A", "_", "__a", "__q", "f")
    flows = tuple(
        Flow(f"{rng.choice(prefixes)}{k}", tuple(rng.sample(ids, rng.randint(1, min(4, len(ids))))))
        for k in range(rng.randint(0, 16))
    )
    return Network(links, flows)


@pytest.mark.parametrize("caps", [
    tuple(c / 10.0 for c in range(5, 300)),  # mostly distinct capacities
    (2.0, 3.0),                              # ties everywhere
    (1.0, 2.0, 3.0),
])
def test_probe_splice_matches_probed_network_on_random_networks(caps):
    rng = random.Random(len(caps))
    for _ in range(150):
        net = _id_mixed_net(rng, caps)
        ids = [l.id for l in net.links]
        for _ in range(2):
            path = rng.sample(ids, rng.randint(1, min(4, len(ids))))
            assert rate_if_routed(net, path) == _reference_rate(net, path)


def test_route_makes_one_full_solve(b4, monkeypatch):
    # However many paths a route relaxes, the kernel runs once, in full.
    import qtbs.routing
    from qtbs import _kernel

    solves = []
    probes = []
    solve = _kernel.solve
    prober = qtbs.routing._prober

    def recording_solve(*args, **kwargs):
        solves.append(kwargs)
        return solve(*args, **kwargs)

    def counting_prober(network):
        rate_on = prober(network)

        def counted(path):
            probes.append(path)
            return rate_on(path)

        return counted

    monkeypatch.setattr(_kernel, "solve", recording_solve)
    monkeypatch.setattr(qtbs.routing, "_prober", counting_prober)
    most = 0
    for src in b4.routers:
        for dst in b4.routers:
            if src != dst:
                max_rate_path(b4, src, dst)
                assert solves == [{}]
                most = max(most, len(probes))
                solves.clear()
                probes.clear()
    assert most >= 9


@pytest.mark.parametrize("extra", [
    Flow(PROBE_FLOW_ID, ("l15",)),
    Link(PROBE_FLOW_ID, 3.0, "DC4", "DC11"),
])
def test_network_with_probe_id_rejected(b4, extra):
    net = b4.with_flow(extra) if isinstance(extra, Flow) else b4.with_link(extra)
    for call in (lambda: rate_if_routed(net, ["l15"]),
                 lambda: max_rate_path(net, "DC4", "DC11")):
        with pytest.raises(DuplicateIdError, match=PROBE_FLOW_ID):
            call()


def test_route_interns_once_and_builds_no_network(b4, monkeypatch):
    import qtbs.model
    import qtbs.solver

    counts = {"interned": 0, "networks": 0}
    interned = qtbs.solver.interned
    post_init = qtbs.model.Network.__post_init__

    def counting_interned(network):
        counts["interned"] += 1
        return interned(network)

    def counting_post_init(self):
        counts["networks"] += 1
        post_init(self)

    monkeypatch.setattr(qtbs.solver, "interned", counting_interned)
    monkeypatch.setattr(qtbs.model.Network, "__post_init__", counting_post_init)
    max_rate_path(b4, "DC4", "DC11")
    assert counts == {"interned": 1, "networks": 0}

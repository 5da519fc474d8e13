import pytest

from conftest import FIXTURES, load
from qtbs import (
    EPS,
    Flow,
    Link,
    Network,
    fd_gradient,
    forward_grad,
    gradient_graph,
    Perturbation,
    random_network,
    suggest_delta,
    validate,
    waterfill,
)
from qtbs.oracle import OracleSolution


def test_single_link():
    net = Network((Link("l1", 12.0),),
                  (Flow("f1", ("l1",)), Flow("f2", ("l1",)), Flow("f3", ("l1",))))
    sol = waterfill(net)
    assert all(r == pytest.approx(4.0) for r in sol.rate.values())


def test_two_link_chain():
    # hand water-filling: link1 c=10 carries only f1, link2 c=20 carries both
    net = Network(
        (Link("l1", 10.0), Link("l2", 20.0)),
        (Flow("f1", ("l1", "l2")), Flow("f2", ("l2",))),
    )
    sol = waterfill(net)
    assert sol.rate["f1"] == pytest.approx(10.0)
    assert sol.rate["f2"] == pytest.approx(10.0)
    # exhaustive grid check of max-min optimality on a 0.01 lattice: no
    # feasible allocation raises the minimum rate
    best_min = max(
        min(a, b)
        for a in [x * 0.01 for x in range(0, 1001)]
        for b in [x * 0.01 for x in range(0, 2001)]
        if a <= 10.0 and a + b <= 20.0
    )
    assert min(sol.rate.values()) >= best_min - 1e-9


def test_b4_matches_solver(b4):
    oracle = waterfill(b4)
    sol = gradient_graph(b4)
    for f, r in sol.rate.items():
        assert oracle.rate[f] == pytest.approx(r, rel=1e-9)


def test_permutation_invariance():
    net = random_network(7, max_links=8, max_flows=12, max_path_len=4)
    ren_l = {l.id: f"zz{i}" for i, l in enumerate(net.links)}
    ren_f = {f.id: f"qq{i}" for i, f in enumerate(net.flows)}
    renamed = Network(
        tuple(Link(ren_l[l.id], l.capacity) for l in net.links),
        tuple(Flow(ren_f[f.id], tuple(ren_l[x] for x in f.path)) for f in net.flows),
    )
    base = waterfill(net)
    perm = waterfill(renamed)
    for f in net.flows:
        assert perm.rate[ren_f[f.id]] == pytest.approx(base.rate[f.id], rel=1e-12)


def test_random_network_deterministic():
    a = random_network(0, max_links=5, max_flows=10, max_path_len=3)
    b = random_network(0, max_links=5, max_flows=10, max_path_len=3)
    assert a == b
    assert a != random_network(1, max_links=5, max_flows=10, max_path_len=3)


def test_random_network_valid():
    for seed in range(30):
        net = random_network(seed, max_links=9, max_flows=14, max_path_len=4)
        assert validate(net) == []
        assert all(net.flows_on(l.id) for l in net.links)  # pruned


def test_random_network_limits_checked():
    with pytest.raises(ValueError):
        random_network(0, max_links=0)


def test_fd_gradient_rejects_bad_delta(chain):
    with pytest.raises(ValueError):
        fd_gradient(chain, "l1", -1, 0.0)
    with pytest.raises(ValueError):
        fd_gradient(chain, "l1", 2, 0.1)


def test_fd_flow_perturbation_uses_shaper(shaping):
    delta = suggest_delta(shaping)
    fd = fd_gradient(shaping, "f4", -1, delta)
    assert fd["f7"] == pytest.approx(2.0, abs=1e-6)
    assert fd["f4"] == pytest.approx(-1.0, abs=1e-6)


def test_fd_flow_upward_is_inert(shaping):
    # a shaper above the current rate never binds; the realized finite
    # difference is identically zero (upward flow moves are hypothetical)
    fd = fd_gradient(shaping, "f4", 1, suggest_delta(shaping))
    assert all(v == 0.0 for v in fd.values())


def test_solver_matches_oracle_on_seeds():
    for seed in range(60):
        net = random_network(seed, max_links=15, max_flows=40, max_path_len=5)
        sol = gradient_graph(net)
        oracle = waterfill(net)
        for f, r in sol.rate.items():
            assert oracle.rate[f] == pytest.approx(r, rel=1e-6), (seed, f)


def test_fd_matches_forward_grad_on_seeds():
    for seed in range(12):
        net = random_network(seed, max_links=8, max_flows=12, max_path_len=4)
        sol = gradient_graph(net)
        delta = suggest_delta(net)
        targets = [(l.id, d) for l in net.links for d in (-1, 1)]
        targets += [(f.id, -1) for f in net.flows]
        for target, direction in targets:
            fd = fd_gradient(net, target, direction, delta)
            res = forward_grad(sol, Perturbation(target, direction))
            for v, got in fd.items():
                want = res.flow_gradient.get(v, res.link_gradient.get(v))
                assert got == pytest.approx(want, abs=1e-6), (seed, target, direction, v)


def _reference_waterfill(network):
    """``waterfill`` as it was before it kept per-link counts: every round
    rescans every flow of every link, twice."""
    link_ids = [l.id for l in network.links]
    rate = {}
    fair = {}
    order = []
    active = {f.id for f in network.flows}
    frozen_on = {lid: 0.0 for lid in link_ids}

    while active:
        best = None
        for lid in link_ids:
            on_link = [f for f in network.flows_on(lid) if f in active]
            if not on_link:
                continue
            share = (network.link(lid).capacity - frozen_on[lid]) / len(on_link)
            if best is None or share < best:
                best = share
        if best is None:
            raise RuntimeError("active flows remain but no link carries them")
        argmin = []
        for lid in link_ids:
            on_link = [f for f in network.flows_on(lid) if f in active]
            if not on_link:
                continue
            share = (network.link(lid).capacity - frozen_on[lid]) / len(on_link)
            if share <= best + EPS:
                argmin.append(lid)
        to_freeze = set()
        for lid in argmin:
            fair[lid] = best
            order.append(lid)
            to_freeze.update(f for f in network.flows_on(lid) if f in active)
        for f in sorted(to_freeze):
            rate[f] = best
            active.discard(f)
            for lid in network.links_of(f):
                frozen_on[lid] += best

    for lid in link_ids:
        if lid not in fair:
            rates_on = [rate[f] for f in network.flows_on(lid)]
            headroom = network.link(lid).capacity - frozen_on[lid]
            fair[lid] = headroom + (max(rates_on) if rates_on else 0.0)
    return OracleSolution(rate=rate, fair_share=fair, saturation_order=tuple(order))


def _alternate_capacities(net):
    """``net`` with capacities 1 and 2 alternately: fair shares tie."""
    links = tuple(Link(l.id, (1.0, 2.0)[i % 2]) for i, l in enumerate(net.links))
    return Network(links, net.flows)


def test_waterfill_equals_the_full_rescan_bit_for_bit():
    nets = [load(path.name) for path in sorted(FIXTURES.glob("*.json"))]
    nets += [random_network(seed, 12, 24, 5) for seed in range(60)]
    nets += [_alternate_capacities(random_network(5000 + seed, 10, 18, 5))
             for seed in range(100)]
    nets.append(_alternate_capacities(random_network(40, 150, 2200, 6)))
    assert len(nets[-1].flows) == 2147
    for i, net in enumerate(nets):
        assert repr(waterfill(net)) == repr(_reference_waterfill(net)), i


def test_waterfill_raises_for_a_flow_on_no_link():
    net = Network((Link("l1", 2.0),), (Flow("f1", ("l1",)), Flow("f2", ())))
    for solve in (waterfill, _reference_waterfill):
        with pytest.raises(RuntimeError, match="no link carries them"):
            solve(net)

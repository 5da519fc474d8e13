import heapq
import random

import pytest

from conftest import FIXTURES, leaf_spine, load
from qtbs import (
    Flow,
    Link,
    Network,
    Perturbation,
    UnknownVertexError,
    fd_gradient,
    forward_grad,
    gradient_bound,
    gradient_graph,
    random_network,
    region_of_influence,
    suggest_delta,
    waterfill,
)
from qtbs.gradients import BOUND_SOURCE_BLOCK


def test_perturbation_direction_validated():
    with pytest.raises(ValueError):
        Perturbation("l1", 0)


def test_joint_perturbation_needs_a_link():
    with pytest.raises(ValueError):
        Perturbation((), -1)


@pytest.mark.parametrize("target", [5, ["l1", "l2"]])
def test_target_must_be_an_id_or_a_tuple(target):
    with pytest.raises(ValueError):
        Perturbation(target, -1)


def test_joint_target_must_be_links_of_the_solution(fat_tree):
    sol = gradient_graph(fat_tree)
    for target in [("l5", "zz"), ("l5", "f1")]:
        with pytest.raises(UnknownVertexError):
            forward_grad(sol, Perturbation(target, -1))


def _result_fields(res):
    return [repr(getattr(res, name)) for name in (
        "link_gradient", "flow_gradient", "visit_order",
    )]


def test_one_link_joint_target_equals_the_link_target():
    nets = [load(p.name) for p in sorted(FIXTURES.glob("*.json"))]
    nets.append(random_network(7, max_links=12, max_flows=24, max_path_len=5))
    for net in nets:
        sol = gradient_graph(net)
        for link in net.links:
            for d in (-1, 1):
                one = forward_grad(sol, Perturbation(link.id, d))
                joint = forward_grad(sol, Perturbation((link.id,), d))
                assert _result_fields(joint) == _result_fields(one), (link.id, d)


def _joint_difference(network, links, delta):
    """Per flow, its rate's movement when every link in ``links`` loses
    ``delta`` of capacity, per unit of ``delta``."""
    shrunk = network
    for lid in links:
        shrunk = shrunk.with_capacity(lid, network.link(lid).capacity - delta)
    base, moved = waterfill(network).rate, waterfill(shrunk).rate
    return {f: (moved[f] - base[f]) / delta for f in base}


def _spine_trees():
    yield load("fat_tree.json"), ("l5", "l6")
    for pods in (2, 3, 4):
        for hosts in (2, 3, 4):
            net, spines = leaf_spine(pods, hosts, 23.17)
            yield net, tuple(spines)


def test_joint_spine_gradient_matches_a_joint_difference():
    for net, spines in _spine_trees():
        res = forward_grad(gradient_graph(net), Perturbation(spines, -1))
        # 1/100 of the smallest gap between distinct values: inside one
        # linear piece, with rounding far below the tolerance.
        fd = _joint_difference(net, spines, suggest_delta(net) * 1e4)
        for f, g in res.flow_gradient.items():
            assert abs(g - fd[f]) <= 1e-8, (spines, f)


def test_chain_link_gradient(chain):
    sol = gradient_graph(chain)
    res = forward_grad(sol, Perturbation("l1", -1))
    assert res.flow_gradient["f2"] == pytest.approx(0.5, abs=1e-12)
    assert res.flow_gradient["f3"] == pytest.approx(0.5, abs=1e-12)
    assert res.flow_gradient["f1"] == pytest.approx(-1.0, abs=1e-12)
    # capped by the second bottleneck: growing l1 gives f1 nothing
    up = forward_grad(sol, Perturbation("l1", 1))
    assert up.flow_gradient["f1"] == 0.0
    assert up.flow_gradient["f2"] == 0.0


def test_ladder_flow_gradient(ladder):
    sol = gradient_graph(ladder)
    res = forward_grad(sol, Perturbation("f1", -1))
    assert res.flow_gradient["f4"] == pytest.approx(-2.0, abs=1e-12)
    assert res.flow_gradient["f2"] == pytest.approx(1.0, abs=1e-12)
    assert res.flow_gradient["f3"] == pytest.approx(1.0, abs=1e-12)


def test_ladder_realizes_fanout_bound(ladder):
    sol = gradient_graph(ladder)
    bound = gradient_bound(sol)
    assert bound >= 2.0
    realized = max(
        forward_grad(sol, Perturbation(v, d)).max_magnitude()
        for v in sol.graph.vertices()
        for d in (-1, 1)
    )
    assert realized == pytest.approx(2.0, abs=1e-12)
    assert realized <= bound


def test_shaping_fixture_flow_derivatives(shaping):
    sol = gradient_graph(shaping)
    expected = {"f1": 2.0, "f3": -1.0, "f4": -2.0, "f8": 0.0}
    for f, want in expected.items():
        res = forward_grad(sol, Perturbation(f, -1))
        assert res.flow_derivative["f7"] == pytest.approx(want, abs=1e-12), f


def test_shaping_fixture_link_derivatives(shaping):
    sol = gradient_graph(shaping)
    res = forward_grad(sol, Perturbation("f4", -1))
    want = {"l2": -1.0, "l3": 1.0, "l4": -2.0, "l6": 2.0}
    for l, v in want.items():
        assert res.link_derivative[l] == pytest.approx(v, abs=1e-12), l


def test_fat_tree_spine_gradients(fat_tree):
    sol = gradient_graph(fat_tree)
    res = forward_grad(sol, Perturbation("l5", -1))
    deriv = res.flow_derivative
    for f in ("f2", "f3", "f5", "f6", "f7", "f8", "f10", "f11"):
        assert deriv[f] == pytest.approx(0.125, abs=1e-12), f
    for f in ("f1", "f4", "f9", "f12"):
        assert deriv[f] == pytest.approx(-0.25, abs=1e-12), f


def test_non_bottleneck_link_target_all_zero(fat_tree):
    full = fat_tree.with_capacity("l5", 40.0).with_capacity("l6", 40.0)
    sol = gradient_graph(full)
    for d in (-1, 1):
        res = forward_grad(sol, Perturbation("l5", d))
        assert res.max_magnitude() == 0.0


def test_unknown_target(chain):
    sol = gradient_graph(chain)
    with pytest.raises(UnknownVertexError):
        forward_grad(sol, Perturbation("zz", -1))


def test_single_link_bound_is_one(single_link):
    sol = gradient_graph(single_link)
    assert gradient_bound(sol) == pytest.approx(1.0)


def test_fd_matches_forward_on_chain(chain):
    sol = gradient_graph(chain)
    delta = suggest_delta(chain)
    fd = fd_gradient(chain, "l1", -1, delta)
    res = forward_grad(sol, Perturbation("l1", -1))
    assert fd["f2"] == pytest.approx(res.flow_gradient["f2"], abs=1e-6)
    assert fd["f1"] == pytest.approx(res.flow_gradient["f1"], abs=1e-6)


def test_fd_diverges_across_breakpoint(chain):
    # a step far beyond the first structural breakpoint no longer matches
    sol = gradient_graph(chain)
    res = forward_grad(sol, Perturbation("l3", -1))
    fd = fd_gradient(chain, "l3", -1, 9.0)  # crushes l3 below the l1/l2 tier
    assert abs(fd["f1"] - res.flow_gradient["f1"]) > 0.1


def _sweep_targets(net):
    for l in net.links:
        yield l.id, (-1, 1)
    for f in net.flows:
        yield f.id, (-1,)


def test_gradient_support_within_region_and_bound():
    for seed in range(100):
        net = random_network(seed, max_links=10, max_flows=16, max_path_len=4)
        sol = gradient_graph(net)
        bound = gradient_bound(sol)
        for target, directions in _sweep_targets(net):
            region = region_of_influence(sol, target)
            for d in directions:
                res = forward_grad(sol, Perturbation(target, d))
                assert res.max_magnitude() <= bound + 1e-9
                for v, g in list(res.link_gradient.items()) + list(res.flow_gradient.items()):
                    if v != target and g != 0.0:
                        assert v in region, (seed, target, d, v)


def test_region_membership_does_not_imply_nonzero_gradient(chain):
    # reachability is necessary but not sufficient: l2 is reachable from l1
    # (through f1's backward edge) yet its drift dead-ends at zero because
    # f1, its only bottlenecked flow, was already visited
    sol = gradient_graph(chain)
    region = region_of_influence(sol, "l1")
    res = forward_grad(sol, Perturbation("l1", -1))
    assert "l2" in region
    assert res.link_gradient["l2"] == 0.0


def test_link_rule_checksum():
    # conservation: what the feeder flows gave up is exactly what the link
    # redistributes over its remaining bottlenecked flows. Feeders and split
    # counts come from the reference propagation, gradients from the library.
    for seed in range(20):
        net = random_network(seed, max_links=8, max_flows=12, max_path_len=4)
        sol = gradient_graph(net)
        for link in net.links:
            p = Perturbation(link.id, -1)
            res = forward_grad(sol, p)
            *_, inflow_from, split_count = _reference_forward_grad(sol, p)
            for l, feeders in inflow_from.items():
                split = split_count[l]
                if l == link.id or split == 0:
                    continue  # dead ends absorb the drift (structure edge)
                given_up = sum(res.flow_gradient[f] for f in feeders)
                assert given_up + split * res.link_gradient[l] == pytest.approx(
                    0.0, abs=1e-9
                )


def test_index_is_built_on_first_use_and_kept(chain):
    sol = gradient_graph(chain)
    assert "index" not in vars(sol.graph)
    forward_grad(sol, Perturbation("l1", -1))
    ix = sol.graph.index
    assert ix is sol.graph.index
    assert ix.ids == sol.graph.vertices()
    assert [ix.ids[w] for w in ix.succ[ix.index_of["l1"]]] == list(sol.graph.successors("l1"))


def _reference_structure(solution):
    """Successor lists and in-degrees of the full structure, on string ids."""
    graph = solution.graph
    succ = {v: [] for v in graph.vertices()}
    indeg = {v: 0 for v in graph.vertices()}
    for l, f in graph.bottleneck_edges:
        succ[l].append(f)
        succ[f].append(l)
        indeg[f] += 1
        indeg[l] += 1
    for f, l in graph.traversal_edges:
        succ[f].append(l)
        indeg[l] += 1
    return succ, indeg


def _eccentricities(succ):
    """Each vertex's largest shortest-path distance, by one plain BFS."""
    ecc = {}
    for source in succ:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in succ[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        ecc[source] = max(dist.values())
    return ecc


def _reference_bound(solution):
    """``d ** (D / 4)`` by its definition: one plain BFS per source."""
    succ, indeg = _reference_structure(solution)
    d = max((max(len(succ[v]), indeg[v]) for v in succ), default=0)
    diameter = max(_eccentricities(succ).values(), default=0)
    return float(d) ** (diameter / 4.0)


def _chain(n):
    """Links l0..l{n-1}, each flow crossing two neighbours: a long diameter."""
    links = tuple(Link(f"l{i:04d}", 10.0 + i) for i in range(n))
    flows = tuple(Flow(f"f{i:04d}", (f"l{i:04d}", f"l{i + 1:04d}")) for i in range(n - 1))
    return Network(links, flows)


def test_bound_matches_definition_on_random_networks():
    for seed in range(100):
        sol = gradient_graph(random_network(seed, max_links=10, max_flows=16, max_path_len=4))
        assert gradient_bound(sol) == _reference_bound(sol), seed


def test_bound_matches_definition_on_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        sol = gradient_graph(load(path.name))
        assert gradient_bound(sol) == _reference_bound(sol), path.name


def test_bound_matches_definition_with_untraversed_link():
    net = Network(
        (Link("l1", 10.0), Link("l2", 4.0), Link("l3", 6.0)),
        (Flow("f1", ("l1", "l2")), Flow("f2", ("l1",))),
    )
    sol = gradient_graph(net)
    assert sol.graph.successors("l3") == ()
    assert gradient_bound(sol) == _reference_bound(sol)


def test_bound_matches_definition_across_source_blocks():
    sol = gradient_graph(_chain(600))
    assert len(sol.graph.vertices()) > BOUND_SOURCE_BLOCK
    assert gradient_bound(sol) == _reference_bound(sol)


def _check_bounds(nets):
    """Compare each network's bound with the reference. Returns how many
    networks had their diameter set by a flow (one more than the largest
    link eccentricity) and how many by a link, and the largest, over the
    networks, of ``min(links, candidates)``; the candidates are the flows
    whose bottleneck links all have the largest link eccentricity."""
    by_flow = by_link = sources = 0
    for net in nets:
        sol = gradient_graph(net)
        assert gradient_bound(sol) == _reference_bound(sol)
        ecc = _eccentricities(_reference_structure(sol)[0])
        link_depth = max(ecc[l] for l in sol.graph.link_ids)
        if max(ecc.values()) == link_depth + 1:
            by_flow += 1
        else:
            assert max(ecc.values()) == link_depth
            by_link += 1
        candidates = [
            f for f, links in sol.bottlenecks_of.items()
            if all(ecc[l] == link_depth for l in links)
        ]
        sources = max(sources, min(len(sol.graph.link_ids), len(candidates)))
    return by_flow, by_link, sources


def _tied_bound_networks():
    # Capacities 1 and 2 alternately: fair shares tie across many links.
    for seed in range(60):
        net = random_network(seed, max_links=12, max_flows=24, max_path_len=5)
        links = tuple(Link(l.id, (1.0, 2.0)[i % 2]) for i, l in enumerate(net.links))
        yield Network(links, net.flows)


def test_bound_matches_definition_on_tied_capacities():
    by_flow, by_link, _ = _check_bounds(_tied_bound_networks())
    assert by_flow and by_link


def test_bound_matches_definition_on_leaf_spine_trees():
    trees = (leaf_spine(pods, hosts, 23.17)[0] for pods in (2, 3, 4) for hosts in (2, 3, 4))
    by_flow, by_link, _ = _check_bounds(trees)
    assert by_flow and by_link


def test_bound_matches_definition_with_small_source_blocks(monkeypatch):
    monkeypatch.setattr("qtbs.gradients.BOUND_SOURCE_BLOCK", 5)
    nets = (random_network(seed, max_links=12, max_flows=24, max_path_len=5)
            for seed in range(60))
    by_flow, by_link, sources = _check_bounds(nets)
    # Some network has more than one block of links and of candidates.
    assert by_flow and by_link and sources > 5


def _reference_forward_grad(solution, p):
    """The gradient propagation on string ids, with every heap push kept and
    the link rule's bookkeeping: which flows fed each link, and over how
    many unvisited bottlenecked flows its inflow was last split."""
    graph = solution.graph
    link_drift = {l: 0.0 for l in graph.link_ids}
    flow_drift = {f: 0.0 for f in graph.flow_ids}
    inflow = {l: 0.0 for l in graph.link_ids}
    inflow_from = {l: [] for l in graph.link_ids}
    split_count = {}
    sign = float(p.direction)
    if isinstance(p.target, tuple) or solution.is_link(p.target):
        heap = []
        for t in p.target if isinstance(p.target, tuple) else (p.target,):
            succ = graph.bottlenecked_flows(t)
            inflow[t] = sign
            link_drift[t] = sign / len(succ) if succ else 0.0
            split_count[t] = len(succ)
            heap.append((solution.fair_share[t], link_drift[t], t))
        heapq.heapify(heap)
    else:
        flow_drift[p.target] = sign
        heap = [(solution.rate[p.target], sign, p.target)]
    visited, visit_order = set(), []
    while heap:
        _, _, y = heapq.heappop(heap)
        if y in visited:
            continue
        visited.add(y)
        visit_order.append(y)
        d_y = link_drift[y] if y in link_drift else flow_drift[y]
        if d_y == 0.0:
            continue
        for y2 in graph.successors(y):
            if y2 in visited:
                continue
            if y2 in flow_drift:
                d = min(link_drift[l] for l in graph.bottleneck_links(y2))
                flow_drift[y2] = d
                heapq.heappush(heap, (solution.rate[y2], d, y2))
            else:
                inflow[y2] -= d_y
                inflow_from[y2].append(y)
                remaining = [s for s in graph.bottlenecked_flows(y2) if s not in visited]
                split_count[y2] = len(remaining)
                link_drift[y2] = inflow[y2] / len(remaining) if remaining else 0.0
                heapq.heappush(heap, (solution.fair_share[y2], link_drift[y2], y2))
    return (
        link_drift,
        flow_drift,
        tuple(visit_order),
        {l: tuple(v) for l, v in inflow_from.items() if v},
        split_count,
    )


def _sweep_networks():
    for seed in range(40):
        yield seed, random_network(seed, max_links=12, max_flows=24, max_path_len=5)
    # Two capacities only: many links tie on fair share, so the drift and id
    # parts of the heap key decide the visit order.
    for seed in range(60):
        net = random_network(seed, max_links=12, max_flows=24, max_path_len=5)
        rng = random.Random(seed)
        links = tuple(Link(l.id, rng.choice((12.0, 24.0))) for l in net.links)
        yield f"tied{seed}", Network(links, net.flows)


def _all_targets(net):
    for v in [l.id for l in net.links] + [f.id for f in net.flows]:
        for d in (-1, 1):
            yield Perturbation(v, d)


def _flows_with_several_bottlenecks(sol):
    return sum(1 for links in sol.bottlenecks_of.values() if len(links) >= 2)


def test_forward_grad_matches_unpruned_reference():
    several = 0
    for name, net in _sweep_networks():
        sol = gradient_graph(net)
        several += _flows_with_several_bottlenecks(sol)
        for p in _all_targets(net):
            res = forward_grad(sol, p)
            got = (res.link_gradient, res.flow_gradient, res.visit_order)
            assert got == _reference_forward_grad(sol, p)[:3], (name, p)
    # Both branches of the flow rule (one bottleneck link, several) run.
    assert several > 0


def test_joint_forward_grad_matches_unpruned_reference():
    several = 0
    for name, net in _sweep_networks():
        sol = gradient_graph(net)
        several += _flows_with_several_bottlenecks(sol)
        link_ids = [l.id for l in net.links]
        for i, a in enumerate(link_ids):
            for b in link_ids[i + 1:]:
                for d in (-1, 1):
                    p = Perturbation((a, b), d)
                    res = forward_grad(sol, p)
                    got = (res.link_gradient, res.flow_gradient, res.visit_order)
                    assert got == _reference_forward_grad(sol, p)[:3], (name, p)
    assert several > 0


def test_forward_grad_visit_order_invariants():
    for name, net in _sweep_networks():
        sol = gradient_graph(net)
        for p in _all_targets(net):
            res = forward_grad(sol, p)
            order = res.visit_order
            assert order[0] == p.target
            assert len(set(order)) == len(order), (name, p)
            values = [sol.value(v) for v in order]
            # Exact: a successor's rate or fair share never undercuts its
            # predecessor's on these networks (no near-ties within eps).
            assert values == sorted(values), (name, p)
            visited = set(order)
            gradients = list(res.link_gradient.items()) + list(res.flow_gradient.items())
            for v, g in gradients:
                if g != 0.0:
                    assert v in visited, (name, p, v)

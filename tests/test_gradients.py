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
    # ``True == 1``, but a bool is not a direction.
    for direction in (0, True):
        with pytest.raises(ValueError):
            Perturbation("l1", direction)


def test_joint_perturbation_needs_a_link():
    with pytest.raises(ValueError):
        Perturbation((), -1)


@pytest.mark.parametrize("target", [
    5, ["l1", "l2"], (["l5"],), ("l5", 6), ("l5", None),
])
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


def _joint_difference(network, links, delta, direction=-1):
    """Per flow and link, its rate's or fair share's movement when every
    link in ``links`` moves by ``direction * delta`` of capacity, per unit
    of ``delta``. A link with slack reports its saturation level."""
    moved_net = network
    for lid in links:
        moved_net = moved_net.with_capacity(
            lid, network.link(lid).capacity + direction * delta)
    base, moved = waterfill(network), waterfill(moved_net)
    out = {f: (moved.rate[f] - r) / delta for f, r in base.rate.items()}
    out.update(
        (l, (moved.fair_share[l] - s) / delta) for l, s in base.fair_share.items()
    )
    return out


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


def _tied_corpus():
    """Small random networks with capacities 1 and 2 alternately: fair
    shares tie across many links, some only to within rounding."""
    for seed in range(120):
        net = random_network(1000 + seed, max_links=8, max_flows=14, max_path_len=4)
        links = tuple(Link(l.id, (1.0, 2.0)[i % 2]) for i, l in enumerate(net.links))
        yield f"tied-{seed}", Network(links, net.flows)


def _eps_chain():
    """Three links tied within ``EPS`` along a chain: ``f`` is bottlenecked
    at ``l`` and ``l2``, ``g`` at ``l2`` and ``l3``, and the three rates
    differ in their last bits."""
    links = (Link("l", 0.3), Link("l2", 0.6000000000000001), Link("l3", 0.6000000000000002))
    flows = (Flow("f", ("l", "l2")), Flow("g", ("l2", "l3")), Flow("h", ("l3",)))
    return Network(links, flows)


def _oracle_corpus():
    yield from _tied_corpus()
    yield "eps-chain", _eps_chain()
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, load(path.name)
    for pods, hosts in ((2, 2), (2, 3), (3, 2), (3, 3)):
        yield f"leaf-spine {pods}x{hosts}", leaf_spine(pods, hosts, 23.17)[0]


def _agreed(small, large):
    """The entries of a finite difference that a step 10x larger repeats:
    both steps lie inside one linear piece there."""
    return {v: g for v, g in small.items() if abs(g - large[v]) <= 1e-6}


def test_gradients_match_finite_differences_at_ties():
    checked = 0
    for name, net in _oracle_corpus():
        sol = gradient_graph(net)
        delta = suggest_delta(net)
        targets = [(l.id, d) for l in net.links for d in (-1, 1)]
        targets += [(f.id, -1) for f in net.flows]
        for t, d in targets:
            res = forward_grad(sol, Perturbation(t, d))
            fd = _agreed(fd_gradient(net, t, d, delta), fd_gradient(net, t, d, 10 * delta))
            for v, want in fd.items():
                assert abs(res.gradient(v) - want) <= 1e-6, (name, t, d, v)
            checked += 1
    assert checked == 2261


def test_joint_gradients_match_a_joint_difference_at_ties():
    # Links too, where ``fd_gradient`` skips those the step leaves with
    # slack: their saturation level moves with the leftover and the
    # fastest flow.
    checked = 0
    for name, net in _oracle_corpus():
        sol = gradient_graph(net)
        delta = suggest_delta(net)
        ids = [l.id for l in net.links]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                for d in (-1, 1):
                    res = forward_grad(sol, Perturbation((a, b), d))
                    fd = _agreed(_joint_difference(net, (a, b), delta, d),
                                 _joint_difference(net, (a, b), 10 * delta, d))
                    for v, want in fd.items():
                        if sol.is_flow(v) or sol.graph.bottlenecked_flows(v):
                            assert abs(res.gradient(v) - want) <= 1e-6, (name, a, b, d, v)
                    checked += 1
    assert checked == 3320


def test_a_level_is_a_tie_not_a_run_of_close_rates():
    # ``f`` (rate 1) crosses ``H`` without a bottleneck there; H's ten flows
    # resolve 1.2e-9 higher, beyond ``EPS``. ``g``, alone on ``G``, resolves
    # between them. Levels that ran through rates within ``EPS`` of each
    # other would take all twelve flows as one, and ``H``, with the smaller
    # drift, would pop before ``f`` froze.
    links = (Link("A", 1.0), Link("G", 1.0 + 0.6e-9), Link("H", 1.0 + 10 * (1.0 + 1.2e-9)))
    flows = (Flow("f", ("A", "H")), Flow("g", ("G",)))
    flows += tuple(Flow(f"h{i}", ("H",)) for i in range(10))
    net = Network(links, flows)
    sol = gradient_graph(net)
    p = Perturbation(("A", "H"), 1)
    res = forward_grad(sol, p)
    assert res.flow_gradient["f"] == 1.0 and res.flow_gradient["h0"] == 0.0
    # The oracle's rounds take every link within ``EPS`` of their smallest
    # share: a step of 1e-10 or more brings ``H`` that close to ``f``, and
    # ``g`` freezes with ``f`` at f's rate, so the oracle's ``g`` moves with
    # ``A``.
    fd = _joint_difference(net, ("A", "H"), 1e-11, 1)
    for f, g in res.flow_gradient.items():
        if f != "g":
            assert abs(g - fd[f]) <= 1e-6, f
    _assert_matches_level_fill(sol, p, "bridge")


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
    # (through f1's backward edge), yet f1, its only bottlenecked flow,
    # freezes at l1's drift of -1, and l2's saturation level, its leftover
    # plus f1's rate, gains on the one what it loses on the other
    sol = gradient_graph(chain)
    region = region_of_influence(sol, "l1")
    res = forward_grad(sol, Perturbation("l1", -1))
    assert "l2" in region
    assert res.link_gradient["l2"] == 0.0


def _certificate_problems(sol, res):
    """Where ``res`` fails to certify a max-min of the derivatives.

    Feasible: on every link that bottlenecks a flow, the drifts of the flows
    crossing it sum to no more than the link's perturbation. Max-min: every
    flow but a flow target has a bottleneck link where that sum is tight and
    where no flow the link bottlenecks has a larger drift.
    """
    p, graph, drift = res.perturbation, sol.graph, res.flow_gradient
    targets = p.target if isinstance(p.target, tuple) else (p.target,)
    pert = {l: float(p.direction) if l in targets else 0.0 for l in graph.link_ids}
    load = {l: sum(drift[f] for f in sol.network.flows_on(l)) for l in pert}
    problems = [
        l for l in pert
        if graph.bottlenecked_flows(l) and load[l] > pert[l] + 1e-9
    ]
    for f, g in drift.items():
        if f != p.target and not any(
            abs(load[l] - pert[l]) <= 1e-9
            and all(drift[h] <= g + 1e-9 for h in graph.bottlenecked_flows(l))
            for l in sol.bottlenecks_of[f]
        ):
            problems.append(f)
    return problems


def test_derivative_maxmin_certificate():
    # Oracle-free: the gradients are a max-min fair fill of the derivatives.
    # An upward flow target is a forced increase, which the links it crosses
    # need not carry, so it is left out.
    checked = 0
    for name, net in _sweep_networks():
        sol = gradient_graph(net)
        ids = [l.id for l in net.links]
        targets = [Perturbation(l, d) for l in ids for d in (-1, 1)]
        targets += [Perturbation(f.id, -1) for f in net.flows]
        targets += [
            Perturbation((a, b), d)
            for i, a in enumerate(ids) for b in ids[i + 1:] for d in (-1, 1)
        ]
        for p in targets:
            assert _certificate_problems(sol, forward_grad(sol, p)) == [], (name, p)
            checked += 1
    assert checked == 6080


def test_index_is_built_on_first_use_and_kept(chain):
    sol = gradient_graph(chain)
    assert "index" not in vars(sol.graph)
    forward_grad(sol, Perturbation("l1", -1))
    ix = sol.graph.index
    assert ix is sol.graph.index
    assert ix.ids == sol.graph.vertices()
    assert [ix.ids[w] for w in ix.succ[ix.index_of["l1"]]] == list(sol.graph.successors("l1"))


def test_results_are_fresh_dicts(fat_tree):
    # Each result starts as a copy of the index's all-zero templates; writing
    # into a returned result must not reach them or any later result.
    sol = gradient_graph(fat_tree)
    targets = [("f1", -1), ("l5", 1), (("l5", "l6"), -1)]
    for p in (Perturbation(t, d) for t, d in targets):
        first = forward_grad(sol, p)
        want = _result_fields(first)
        for grad in (first.link_gradient, first.flow_gradient):
            for v in grad:
                grad[v] = 99.0
            grad["zz"] = 1.0
        assert _result_fields(forward_grad(sol, p)) == want, p
    ix = sol.graph.index
    assert set(ix.link_zeros.values()) == set(ix.flow_zeros.values()) == {0.0}
    assert tuple(ix.link_zeros) + tuple(ix.flow_zeros) == ix.ids


def _ties(solution):
    """The solve's ties as sets of flows, joined through the links they are
    bottlenecked at together, in ascending order of their smallest rate."""
    rate, ties, seen = solution.rate, [], set()
    for f in sorted(rate, key=rate.__getitem__):
        if f in seen:
            continue
        tie, stack = {f}, [f]
        while stack:
            for l in solution.bottlenecks_of[stack.pop()]:
                for g in solution.graph.bottlenecked_flows(l):
                    if g not in tie:
                        tie.add(g)
                        stack.append(g)
        seen |= tie
        ties.append(tie)
    return ties


def test_tie_flow_is_the_level_key():
    split = 0
    nets = [load(p.name) for p in sorted(FIXTURES.glob("*.json"))]
    nets += [net for _, net in _tied_corpus()] + [_eps_chain()]
    for net in nets:
        sol = gradient_graph(net)
        graph = sol.graph
        tie_flow = dict(zip(graph.link_ids, graph.index.tie_flow))
        for l, t in tie_flow.items():
            assert (t is None) == (not graph.bottlenecked_flows(l)), l
        for tie in _ties(sol):
            links = {l for f in tie for l in sol.bottlenecks_of[f]}
            # One key per tie: a flow of it resolved at its smallest rate.
            (t,) = {tie_flow[l] for l in links}
            assert t in tie and sol.rate[t] == min(sol.rate[f] for f in tie), t
            split += len({sol.fair_share[l] for l in links}) > 1
    # Keyed by fair share, some tie's links would part.
    assert split
    # Keyed by the smallest rate of each link's own flows, ``l3`` would part
    # from ``l`` and ``l2``.
    assert gradient_graph(_eps_chain()).graph.index.tie_flow == ("f", "f", "f")


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


def _level_fill(solution, p):
    """The derivatives as a max-min fill, level by level, on string ids.

    Each level is one of the solve's ties, in ascending base rate. At each
    level, the level's flows are water-filled over their bottleneck
    links by full rescans: the link with the smallest budget per unfixed
    flow fixes them all at that share. A link's budget is its perturbation
    minus the derivatives of the fixed flows that cross it. A flow target
    is fixed first, at the direction. A link that never fixes a flow,
    though it bottlenecks some, takes its budget plus its fastest flow's
    derivative: the derivative of its saturation level.
    """
    net, rate = solution.network, solution.rate
    flows_at = {l: solution.graph.bottlenecked_flows(l) for l in solution.fair_share}
    sign = float(p.direction)
    budget = dict.fromkeys(solution.fair_share, 0.0)
    link_grad = dict.fromkeys(solution.fair_share, 0.0)
    flow_grad = dict.fromkeys(rate, 0.0)
    fixed = set()

    def fix(f, d):
        fixed.add(f)
        flow_grad[f] = d
        for l in net.links_of(f):
            budget[l] -= d

    if isinstance(p.target, tuple) or solution.is_link(p.target):
        for t in p.target if isinstance(p.target, tuple) else (p.target,):
            budget[t] = sign
    else:
        fix(p.target, sign)
    filled = set()
    for tie in _ties(solution):
        active = tie - fixed
        links = sorted({l for f in active for l in solution.bottlenecks_of[f]})
        while active:
            best = None
            for l in links:
                on = [f for f in flows_at[l] if f in active]
                if on and (best is None or budget[l] / len(on) < best[0]):
                    best = (budget[l] / len(on), l, on)
            d, l, on = best
            link_grad[l] = d
            filled.add(l)
            for f in on:
                fix(f, d)
                active.discard(f)
    for l, fs in flows_at.items():
        if fs and l not in filled:
            link_grad[l] = budget[l] + max(flow_grad[f] for f in fs)
    return link_grad, flow_grad


def _assert_matches_level_fill(sol, p, name):
    res = forward_grad(sol, p)
    link_grad, flow_grad = _level_fill(sol, p)
    for got, want in ((res.link_gradient, link_grad), (res.flow_gradient, flow_grad)):
        assert set(got) == set(want)
        for v, g in want.items():
            assert abs(got[v] - g) <= 1e-12, (name, p, v)


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
            _assert_matches_level_fill(sol, p, name)
    # Some flows have several bottleneck links: ties are covered.
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
                    _assert_matches_level_fill(sol, Perturbation((a, b), d), name)
    assert several > 0


def test_forward_grad_visit_order_invariants():
    for name, net in _sweep_networks():
        sol = gradient_graph(net)
        for p in _all_targets(net):
            res = forward_grad(sol, p)
            order = res.visit_order
            # Only tie partners, which hold flows at 0, come before the target.
            for v in order[:order.index(p.target)]:
                assert res.gradient(v) == 0.0, (name, p, v)
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

import pytest

from conftest import FIXTURES, load
from qtbs import (
    EPS,
    Flow,
    GradientGraph,
    Link,
    Network,
    SolverError,
    UnknownVertexError,
    flow_levels,
    gradient_graph,
    random_network,
    region_of_influence,
)
from qtbs.solver import _levels

TOP_FLOWS = ["f1", "f2", "f3", "f4", "f5", "f7", "f8", "f10", "f13", "f14", "f15", "f16"]


def test_single_link_symmetric():
    net = Network(
        (Link("l1", 12.0),),
        (Flow("f1", ("l1",)), Flow("f2", ("l1",)), Flow("f3", ("l1",))),
    )
    sol = gradient_graph(net)
    assert sol.fair_share["l1"] == pytest.approx(4.0)
    assert all(r == pytest.approx(4.0) for r in sol.rate.values())
    assert all(sol.bottlenecks_of[f] == ("l1",) for f in ("f1", "f2", "f3"))
    assert sol.level["l1"] == 0
    assert all(sol.level[f] == 1 for f in ("f1", "f2", "f3"))


def test_b4_rates(b4):
    sol = gradient_graph(b4)
    for f in TOP_FLOWS:
        assert sol.rate[f] == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert sol.rate["f9"] == pytest.approx(15.0 / 7.0, abs=1e-9)
    assert sol.rate["f6"] == pytest.approx(3.0, abs=1e-9)
    lo = min(sol.rate[f"f{i}"] for i in range(1, 25) if f"f{i}" not in TOP_FLOWS)
    hi = max(sol.rate[f"f{i}"] for i in range(1, 25) if f"f{i}" not in TOP_FLOWS)
    assert lo == pytest.approx(15.0 / 7.0, abs=1e-9)
    assert hi == pytest.approx(3.0, abs=1e-9)


def test_b4_two_levels(b4):
    sol = gradient_graph(b4)
    groups = flow_levels(sol)
    fwd_levels = {lv: [f for f in fs if not f.endswith("r") and int(f[1:]) <= 24]
                  for lv, fs in groups.items()}
    fwd_levels = {lv: fs for lv, fs in fwd_levels.items() if fs}
    assert len(fwd_levels) == 2
    top_level, bottom_level = sorted(fwd_levels)
    assert sorted(fwd_levels[top_level]) == sorted(TOP_FLOWS)


def test_fat_tree_tau1(fat_tree):
    sol = gradient_graph(fat_tree)
    fast = {"f1", "f4", "f9", "f12"}
    for f, r in sol.rate.items():
        expected = 5.0 if f in fast else 2.5
        assert r == pytest.approx(expected, abs=1e-9), f
    # top flows are bottlenecked at both spine links (exact tie)
    assert sol.bottlenecks_of["f2"] == ("l5", "l6")
    assert len(flow_levels(sol)) == 2


def test_fat_tree_folded_single_level(fat_tree):
    folded = fat_tree.with_capacity("l5", 80.0 / 3.0).with_capacity("l6", 80.0 / 3.0)
    sol = gradient_graph(folded)
    assert all(r == pytest.approx(10.0 / 3.0, abs=1e-9) for r in sol.rate.values())
    assert len(flow_levels(sol)) == 1


def test_fat_tree_tau2_spines_not_bottlenecks(fat_tree):
    full = fat_tree.with_capacity("l5", 40.0).with_capacity("l6", 40.0)
    sol = gradient_graph(full)
    assert all(r == pytest.approx(10.0 / 3.0, abs=1e-9) for r in sol.rate.values())
    assert sol.graph.bottlenecked_flows("l5") == ()
    assert sol.graph.bottlenecked_flows("l6") == ()
    # saturation-level convention: leftover plus the fastest flow carried
    assert sol.fair_share["l5"] == pytest.approx(40.0 - 8 * 10.0 / 3.0 + 10.0 / 3.0)


def test_shaping_fixture_baseline(shaping):
    sol = gradient_graph(shaping)
    assert sol.fair_share["l2"] == pytest.approx(5.125, abs=1e-9)
    assert sol.fair_share["l3"] == pytest.approx(7.375, abs=1e-9)
    assert sol.fair_share["l4"] == pytest.approx(10.25, abs=1e-9)
    assert sol.fair_share["l6"] == pytest.approx(12.25, abs=1e-9)
    assert sol.rate["f7"] == pytest.approx(10.25, abs=1e-9)


def test_backward_edges_mirror_bottleneck_edges(b4):
    sol = gradient_graph(b4)
    assert sol.graph.backward_edges() == tuple(
        (f, l) for l, f in sol.graph.bottleneck_edges
    )


def test_traversal_edges_exclude_bottlenecks(b4):
    sol = gradient_graph(b4)
    bneck = set(sol.graph.bottleneck_edges)
    for f, l in sol.graph.traversal_edges:
        assert (l, f) not in bneck
        assert l in b4.links_of(f)


def test_capacity_feasibility_and_conservation(b4, fat_tree, shaping):
    for net in (b4, fat_tree, shaping):
        sol = gradient_graph(net)
        for link in net.links:
            load = sum(sol.rate[f] for f in net.flows_on(link.id))
            assert load <= link.capacity + EPS * max(1, len(net.flows_on(link.id)))
            if sol.graph.bottlenecked_flows(link.id):
                assert load == pytest.approx(link.capacity, abs=EPS * max(1, len(net.flows_on(link.id))))


def test_rate_is_min_fair_share_over_path(b4):
    sol = gradient_graph(b4)
    for f in b4.flows:
        path_min = min(sol.fair_share[l] for l in f.path)
        assert sol.rate[f.id] == pytest.approx(path_min, abs=1e-9)
        argmin = {l for l in f.path if abs(sol.fair_share[l] - path_min) <= EPS}
        assert set(sol.bottlenecks_of[f.id]) == argmin


def test_untraversed_link_reports_capacity():
    net = Network(
        (Link("l1", 10.0), Link("l2", 7.0)),
        (Flow("f1", ("l1",)),),
    )
    sol = gradient_graph(net)
    assert sol.fair_share["l2"] == 7.0
    assert sol.graph.bottlenecked_flows("l2") == ()


def test_heap_work_bound(b4):
    sol = gradient_graph(b4)
    n_links = len(b4.links)
    h = max(len(b4.flows_on(l.id)) for l in b4.links)
    assert sol.heap_pops <= n_links
    assert sol.heap_updates <= n_links * h


def test_fair_share_nondecreasing_along_pop_order(b4):
    sol = gradient_graph(b4)
    shares = [sol.fair_share[l] for l in sol.pop_order]
    for a, b in zip(shares, shares[1:]):
        assert b >= a - EPS


def test_fair_share_nondecreasing_along_directed_paths(b4, fat_tree, shaping):
    # bottleneck edge: s_l equals the flow's rate; traversal edge: the next
    # link's share is strictly larger; so shares never decrease on any path
    for net in (b4, fat_tree, shaping):
        sol = gradient_graph(net)
        for l, f in sol.graph.bottleneck_edges:
            assert sol.rate[f] >= sol.fair_share[l] - EPS
        for f, l in sol.graph.traversal_edges:
            assert sol.fair_share[l] >= sol.rate[f] - EPS


def test_determinism(b4):
    a = gradient_graph(b4)
    b = gradient_graph(b4)
    assert a.rate == b.rate
    assert a.fair_share == b.fair_share
    assert a.graph.bottleneck_edges == b.graph.bottleneck_edges
    assert a.pop_order == b.pop_order


def test_region_of_influence_leaf_vertex(shaping):
    sol = gradient_graph(shaping)
    assert region_of_influence(sol, "f8") == {"l6"}


def test_region_unknown_vertex(shaping):
    sol = gradient_graph(shaping)
    with pytest.raises(UnknownVertexError):
        region_of_influence(sol, "nope")


def test_levels_single_link(single_link):
    sol = gradient_graph(single_link)
    assert sol.level == {"l1": 0, "f1": 1}


def test_random_networks_solve_clean():
    for seed in range(25):
        net = random_network(seed, max_links=12, max_flows=30, max_path_len=5)
        sol = gradient_graph(net)
        for link in net.links:
            load = sum(sol.rate[f] for f in net.flows_on(link.id))
            assert load <= link.capacity + 1e-6


# -- lazily built views ------------------------------------------------------

STRING_VIEWS = ("bottleneck_edges", "traversal_edges", "_succ", "_pred_links", "index")


def _solutions():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, gradient_graph(load(path.name))
    for seed in range(100):
        yield seed, gradient_graph(random_network(seed, max_links=12, max_flows=30))


def _eager_views(sol):
    """The string-keyed structure as it was built eagerly in every solve."""
    graph, net = sol.graph, sol.network
    ids = [l.id for l in net.links], [f.id for f in net.flows]
    bneck = tuple((ids[0][l], ids[1][f]) for l, f in graph.bottleneck_pairs)
    trav = tuple((ids[1][f], ids[0][l]) for f, l in graph.traversal_pairs)
    succ = {v: [] for v in ids[0] + ids[1]}
    pred = {f: [] for f in ids[1]}
    for l, f in bneck:
        succ[l].append(f)
        succ[f].append(l)
        pred[f].append(l)
    for f, l in trav:
        succ[f].append(l)
    return {
        "bottleneck_edges": bneck,
        "traversal_edges": trav,
        "_succ": {v: tuple(sorted(set(e))) for v, e in succ.items()},
        "_pred_links": {f: tuple(sorted(set(e))) for f, e in pred.items()},
        "bottlenecks_of": {f: tuple(sorted(ls)) for f, ls in pred.items()},
    }


def _reference_levels(graph):
    """Longest-path depth over bottleneck and traversal edges, by repeated
    relaxation on string keys until nothing changes."""
    level = {v: 0 for v in graph.vertices()}
    edges = list(graph.bottleneck_edges) + list(graph.traversal_edges)
    for _ in range(len(level) + 1):
        changed = False
        for a, b in edges:
            if level[b] < level[a] + 1:
                level[b] = level[a] + 1
                changed = True
        if not changed:
            return level
    raise AssertionError("forward cycle")


def test_solve_builds_no_string_view(b4):
    sol = gradient_graph(b4)
    built = set(vars(sol.graph)) | set(vars(sol))
    assert built.isdisjoint(STRING_VIEWS + ("level", "bottlenecks_of"))
    sol.rate["f1"]
    assert set(vars(sol.graph)).isdisjoint(STRING_VIEWS)


def test_views_equal_eager_build_and_are_kept():
    for name, sol in _solutions():
        eager = _eager_views(sol)
        graph = sol.graph
        for view in ("bottleneck_edges", "traversal_edges", "_succ", "_pred_links"):
            assert getattr(graph, view) == eager[view], (name, view)
            assert getattr(graph, view) is getattr(graph, view)
        assert sol.bottlenecks_of == eager["bottlenecks_of"], name
        assert list(sol.bottlenecks_of) == list(eager["bottlenecks_of"]), name


def test_integer_levels_match_string_reference():
    for name, sol in _solutions():
        assert sol.level == _reference_levels(sol.graph), name
        assert list(sol.level) == list(sol.graph.vertices()), name
        assert sol.level is sol.level


def test_levels_reject_a_forward_cycle():
    cyclic = GradientGraph(("l1",), ("f1",), ((0, 0),), ((0, 0),))
    with pytest.raises(SolverError):
        _levels(cyclic)

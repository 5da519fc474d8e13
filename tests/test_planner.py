import dataclasses
import random
from collections import Counter

import pytest

from conftest import leaf_spine
from qtbs import (
    EPS,
    AlreadyFoldedError,
    CapacityError,
    DuplicateShaperError,
    Flow,
    Link,
    Network,
    PlanError,
    ShapingAction,
    Perturbation,
    ShapingPlan,
    TaperReport,
    accelerate_flow,
    apply_plan,
    flow_levels,
    forward_grad,
    gradient_graph,
    random_network,
    shaper_link_id,
    taper_fold,
    waterfill,
)
from qtbs.model import interned
from qtbs.planner import _collision_rho, _rate_groups, _scaled, _with_shaper
from qtbs.solver import region_of_influence


def test_stage_one_shapes_biggest_helper(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    first = plan.actions[0]
    assert first.flow == "f4"
    assert first.shaper_rate == pytest.approx(1.875, abs=1e-9)  # cut of 0.5
    assert first.predicted_target_rate == pytest.approx(11.25, abs=1e-9)


def test_stage_one_fold(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    stage1 = Network(shaping.links, shaping.flows)
    stage1 = apply_plan(stage1, ShapingPlan("f7", plan.low_priority,
                                            plan.actions[:1], 1.25, 10.25))
    sol = gradient_graph(stage1)
    assert sol.fair_share["l4"] == pytest.approx(11.25, abs=1e-9)
    assert sol.fair_share["l6"] == pytest.approx(11.25, abs=1e-9)
    assert sol.bottlenecks_of["f7"] == ("l4", "l6")


def test_full_plan(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    assert plan.baseline_target_rate == pytest.approx(10.25)
    assert [a.flow for a in plan.actions] == ["f4", "f3", "f8"]
    assert [a.stage for a in plan.actions] == [1, 2, 2]
    assert plan.final_target_rate == pytest.approx(16.875, abs=1e-9)
    by_flow = {a.flow: a.shaper_rate for a in plan.actions}
    assert by_flow["f3"] == pytest.approx(1.25, abs=1e-9)
    assert by_flow["f4"] == pytest.approx(1.875, abs=1e-9)
    assert by_flow["f8"] == pytest.approx(5.625, abs=1e-9)
    # f1 never touched: cutting it would not help the target
    assert "f1" not in by_flow


def test_plan_default_floor_is_slowest_rate(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"])
    assert plan.floor_rate == pytest.approx(1.25)
    assert plan.final_target_rate == pytest.approx(16.875, abs=1e-9)


def test_plan_predictions_reproduce_under_apply(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    for k in range(1, len(plan.actions) + 1):
        partial = ShapingPlan(plan.target, plan.low_priority,
                              plan.actions[:k], plan.floor_rate,
                              plan.baseline_target_rate)
        sol = gradient_graph(apply_plan(shaping, partial))
        assert sol.rate["f7"] == pytest.approx(
            plan.actions[k - 1].predicted_target_rate, abs=1e-9
        )


def test_plan_monotone_and_floor(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    rates = [plan.baseline_target_rate] + [
        a.predicted_target_rate for a in plan.actions
    ]
    assert rates == sorted(rates)
    final = gradient_graph(apply_plan(shaping, plan))
    assert min(final.rate.values()) >= 1.25 - 1e-9


def test_collision_size_is_a_structure_breakpoint(shaping):
    # at the chosen cut the structure folds; just below it does not
    base = gradient_graph(shaping)
    assert base.bottlenecks_of["f7"] == ("l4",)

    def bneck_count(cut):
        shaped = apply_plan(
            shaping,
            ShapingPlan("f7", ("f4",),
                        (ShapingAction("f4", 2.375 - cut, 0.0, 1),), 0.0, 0.0),
        )
        return len(gradient_graph(shaped).bottlenecks_of["f7"])

    assert bneck_count(0.5) == 2
    assert bneck_count(0.5 - 1e-6) == 1


def test_fat_tree_plan_caps_the_flow_at_its_tie(fat_tree):
    # f1 and f4 share their two bottleneck links, l1 and l2, which tie at
    # 5.0; only an exact gradient at that tie shows that capping f4 lifts f1.
    low = [f.id for f in fat_tree.flows if f.id != "f1"]
    plan = accelerate_flow(fat_tree, "f1", low)
    assert [(a.flow, a.shaper_rate, a.predicted_target_rate) for a in plan.actions] == [
        ("f4", 2.5, 7.5)
    ]
    assert waterfill(apply_plan(fat_tree, plan)).rate["f1"] == pytest.approx(7.5, abs=1e-9)


def test_no_negative_candidate_gives_empty_plan(shaping):
    # f8 cannot help f7 and f7 itself is excluded
    plan = accelerate_flow(shaping, "f7", ["f8"])
    assert plan.actions == ()
    assert plan.final_target_rate == pytest.approx(10.25)


def test_floor_above_candidates_gives_empty_plan(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=50.0)
    assert plan.actions == ()


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floor_rejected(shaping, floor):
    with pytest.raises(PlanError, match="floor rate must be finite"):
        accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=floor)


@pytest.mark.parametrize("floor", [0, -3])
def test_floor_below_or_at_zero_rejected(b4, floor):
    low = ["f2", "f3", "f4", "f5", "f6", "f7", "f8"]
    with pytest.raises(PlanError, match=f"^floor rate must be positive, got {floor}$"):
        accelerate_flow(b4, "f1", low, floor_rate=floor)


def test_low_priority_string_rejected():
    # "g1" is one flow id, not the flows g and 1.
    with pytest.raises(PlanError, match="^low-priority set must be a collection "
                       "of flow ids, not a string$"):
        accelerate_flow(_mixed_level_network(), "h3", "g1")


def test_target_in_low_priority_rejected(shaping):
    with pytest.raises(PlanError):
        accelerate_flow(shaping, "f7", ["f7"])


def test_plan_beats_single_flow_grid_search():
    # greedy result is at least as good as any single-flow shaper on a grid
    for seed in (3, 8, 21):
        net = random_network(seed, max_links=6, max_flows=8, max_path_len=3)
        sol = gradient_graph(net)
        flows = sorted(sol.rate)
        target = max(flows, key=lambda f: sol.rate[f])
        low = [f for f in flows if f != target]
        if not low:
            continue
        floor = min(sol.rate.values())
        plan = accelerate_flow(net, target, low, floor_rate=floor)
        best_single = sol.rate[target]
        for f in low:
            cap0 = sol.rate[f]
            steps = int((cap0 - floor) / 0.1)
            for k in range(1, steps + 1):
                cap = cap0 - 0.1 * k
                if cap <= 0:
                    break
                shaped = apply_plan(
                    net,
                    ShapingPlan(target, tuple(low),
                                (ShapingAction(f, cap, 0.0, 1),), floor, 0.0),
                )
                best_single = max(best_single, waterfill(shaped).rate[target])
        assert plan.final_target_rate >= best_single - 1e-6


def test_plan_invariants_on_random_networks():
    checked = 0
    for seed in range(60):
        net = random_network(seed, max_links=10, max_flows=18, max_path_len=4)
        sol = gradient_graph(net)
        flows = sorted(sol.rate)
        if len(flows) < 2:
            continue
        target = max(flows, key=lambda f: (sol.rate[f], f))
        low = [f for f in flows if f != target]
        floor = min(sol.rate.values())
        plan = accelerate_flow(net, target, low, floor_rate=floor)
        seq = [plan.baseline_target_rate] + [
            a.predicted_target_rate for a in plan.actions
        ]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:])), seed
        shaped = [a.flow for a in plan.actions]
        assert len(set(shaped)) == len(shaped), seed
        final_net = apply_plan(net, plan)
        final = gradient_graph(final_net)
        assert final.rate[target] == pytest.approx(plan.final_target_rate, abs=1e-9)
        assert min(final.rate.values()) >= floor - 1e-9, seed
        oracle = waterfill(final_net)
        for f, r in final.rate.items():
            assert oracle.rate[f] == pytest.approx(r, abs=1e-6), (seed, f)
        checked += 1
    assert checked >= 50


# The eight plans on shaping.json, each flow the target and every other flow
# low priority, as (flow, shaper rate, predicted target rate, stage) per
# action. They were recorded before the planner reused its last shaper's
# solve for the next stage.
SHAPING_PLANS = {
    "f1": [("f4", 1.875, 2.875, 1)],
    "f2": [("f4", 1.875, 5.625, 1)],
    "f3": [("f1", 1.4166666666666665, 8.333333333333334, 1)],
    "f4": [("f1", 1.4166666666666665, 3.3333333333333335, 1)],
    "f5": [],
    "f6": [],
    "f7": [("f4", 1.875, 11.25, 1)],
    "f8": [("f1", 1.4166666666666665, 14.166666666666666, 1), ("f7", 1.25, 21.25, 2)],
}


def test_plan_solves_each_network_once(shaping, monkeypatch):
    import qtbs.planner

    solved = []

    def counting_gradient_graph(network):
        solved.append(network)
        return gradient_graph(network)

    monkeypatch.setattr(qtbs.planner, "gradient_graph", counting_gradient_graph)
    n_solves = 0
    for f in shaping.flows:
        low = [g.id for g in shaping.flows if g.id != f.id]
        plan = accelerate_flow(shaping, f.id, low)
        got = [(a.flow, a.shaper_rate, a.predicted_target_rate, a.stage)
               for a in plan.actions]
        assert got == SHAPING_PLANS[f.id], f.id
        assert len({id(n) for n in solved}) == len(solved), f.id
        n_solves += len(solved)
        solved.clear()
    # 22 when each stage solved its last shaper's network a second time.
    assert n_solves == 15


def test_plan_carries_the_solve_of_the_applied_plan(shaping):
    for target, low in [("f8", ["f1", "f2", "f3", "f4", "f5", "f6", "f7"]), ("f7", ["f8"])]:
        plan = accelerate_flow(shaping, target, low)
        applied = apply_plan(shaping, plan)
        assert plan.final_solution.network == applied
        assert plan.final_solution.rate == gradient_graph(applied).rate
        # The solve is not part of the plan's value.
        bare = dataclasses.replace(plan, final_solution=None)
        assert plan == bare and hash(plan) == hash(bare)
        assert repr(plan) == repr(bare) and "final_solution" not in repr(plan)


# -- one shaping rule for any number of bottlenecks ------------------------
# ``accelerate_flow`` picks, per bottleneck of the target, the candidate
# whose cut raises that link's share fastest. The reference below is the
# planner as it was with two rules: a target with one bottleneck took the
# candidate with the most negative derivative of the target's own rate.
# It also returns the target's bottleneck count at each shaping stage.

def _reference_plan(network, target, low, floor_rate=None):
    low = tuple(sorted(set(low)))
    current = network
    solution = gradient_graph(current)
    if floor_rate is None:
        floor_rate = min(solution.rate.values())
    baseline = solution.rate[target]
    actions, shaped, shaped_at = [], set(), []
    for stage in range(1, len(low) + 1):
        bottlenecks = solution.bottlenecks_of[target]
        if not bottlenecks:
            break
        candidates = [f for f in low
                      if f not in shaped and solution.rate[f] - floor_rate > EPS]
        if not candidates:
            break
        grads = {}
        for f in candidates:
            res = forward_grad(solution, Perturbation(f, -1))
            grads[f] = (res.flow_derivative, res.link_derivative)
        if len(bottlenecks) == 1:
            best_grad, best_flow = sorted((g[target], f) for f, (g, _) in grads.items())[0]
            if best_grad >= -EPS:
                break
            chosen = [best_flow]
        else:
            chosen_set, covered = {}, True
            for b in bottlenecks:
                g_b, f_b = sorted((g.get(b, 0.0), f) for f, (_, g) in grads.items())[0]
                if g_b >= -EPS:
                    covered = False
                    break
                chosen_set[f_b] = None
            if not covered:
                break
            chosen = sorted(chosen_set)
        joint, region = {}, set()
        for f in chosen:
            for l, g in grads[f][1].items():
                joint[l] = joint.get(l, 0.0) + g
            region.update(v for v in region_of_influence(solution, f) if solution.is_link(v))
        if min(-joint.get(b, 0.0) for b in bottlenecks) <= EPS:
            break
        rho_collision = _collision_rho(solution, joint, region)
        rho_floor = min(solution.rate[f] - floor_rate for f in chosen)
        rho = rho_floor if rho_collision is None else min(rho_collision, rho_floor)
        if rho <= EPS:
            break
        before = solution.rate[target]
        shaped_at.append(len(bottlenecks))
        for f in chosen:
            current = _with_shaper(current, f, solution.rate[f] - rho)
            shaped.add(f)
            after = gradient_graph(current)
            actions.append(ShapingAction(f, solution.rate[f] - rho, after.rate[target], stage))
        solution = after
        if solution.rate[target] - before <= EPS:
            break
    plan = ShapingPlan(target, low, tuple(actions), floor_rate, baseline)
    return plan, solution, shaped_at


def _tied_network(seed, capacities=(2.0, 3.0, 6.0)):
    """Few distinct capacities, so many flows have several bottlenecks."""
    rng = random.Random(seed)
    ids = [f"l{i}" for i in range(rng.randint(2, 8))]
    flows = tuple(
        Flow(f"f{i:02d}", tuple(rng.sample(ids, rng.randint(1, min(3, len(ids))))))
        for i in range(rng.randint(2, 12))
    )
    return Network(tuple(Link(lid, rng.choice(capacities)) for lid in ids), flows)


def _random_plan_networks():
    """Small random networks, each with the floors to plan at: None, and
    0.1 where shares tie, since the default floor, the slowest rate, leaves
    tied flows no headroom to cut."""
    nets = [(random_network(seed, max_links=8, max_flows=12, max_path_len=4), (None,))
            for seed in range(30)]
    return nets + [(_tied_network(seed), (None, 0.1)) for seed in range(40)]


def _plan_corpus(shaping):
    """(network, target, low priority, floor) of every shaping.json target
    at floor None and 1.25, and of every flow of the random networks."""
    nets = [(shaping, (None, 1.25))] + _random_plan_networks()
    return [(net, f.id, [g.id for g in net.flows if g != f], floor)
            for net, floors in nets for f in net.flows if len(net.flows) > 1
            for floor in floors]


def test_one_rule_matches_the_two_rule_reference(shaping):
    stages = {1: 0, 2: 0}  # shaping stages by the target's bottleneck count
    for net, target, low, floor in _plan_corpus(shaping):
        plan = accelerate_flow(net, target, low, floor)
        want, want_solution, shaped_at = _reference_plan(net, target, low, floor)
        assert plan == want, (target, floor)
        assert plan.final_solution.rate == want_solution.rate
        for n in shaped_at:
            stages[min(n, 2)] += 1
    # Both of the reference's rules shaped flows.
    assert stages[1] > 100 and stages[2] > 20, stages


def test_single_bottleneck_rate_derivative_is_its_links(shaping):
    # A flow freezes at the drift of the first of its bottleneck links to
    # pop; with one bottleneck it takes that link's drift, bit for bit (the
    # sign of a zero included), for any perturbed flow.
    pairs = 0
    for net in [shaping] + [net for net, _ in _random_plan_networks()]:
        # The base solve and the last solve of each flow's plan.
        solutions = [gradient_graph(net)]
        for f in net.flows:
            low = [g.id for g in net.flows if g != f]
            if low:
                solutions.append(accelerate_flow(net, f.id, low, None).final_solution)
        for solution in solutions:
            for f in solution.rate:
                res = forward_grad(solution, Perturbation(f, -1))
                flow_d, link_d = res.flow_derivative, res.link_derivative
                for t, bottlenecks in solution.bottlenecks_of.items():
                    if t != f and len(bottlenecks) == 1:
                        assert flow_d[t].hex() == link_d[bottlenecks[0]].hex(), (f, t)
                        pairs += 1
    assert pairs > 10_000


def test_apply_plan_empty_is_identity(shaping):
    plan = ShapingPlan("f7", ("f4",), (), 1.0, 10.25)
    assert apply_plan(shaping, plan) == shaping


def test_apply_plan_adds_private_links(shaping):
    plan = ShapingPlan("f7", ("f4",),
                       (ShapingAction("f4", 1.875, 11.25, 1),), 1.25, 10.25)
    shaped = apply_plan(shaping, plan)
    lid = shaper_link_id("f4")
    assert shaped.has_link(lid)
    assert shaped.flows_on(lid) == ("f4",)
    assert shaped.link(lid).capacity == pytest.approx(1.875)
    assert shaping.has_link(lid) is False  # original untouched


def test_apply_plan_duplicate_shaper_rejected(shaping):
    plan = ShapingPlan("f7", ("f4",),
                       (ShapingAction("f4", 2.0, 0.0, 1),
                        ShapingAction("f4", 1.5, 0.0, 2)), 0.0, 10.25)
    with pytest.raises(DuplicateShaperError):
        apply_plan(shaping, plan)


def test_taper_fold_binary_tree(fat_tree):
    report = taper_fold(fat_tree, ["l5", "l6"], 20.0, 1.0)
    assert report.method == "gradient"
    assert report.tau_star == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert report.spine_capacity_at_fold == pytest.approx(80.0 / 3.0, abs=1e-3)
    assert all(r == pytest.approx(10.0 / 3.0, abs=1e-3)
               for r in report.rates_at.values())
    assert report.level_gradients[2.5] == pytest.approx(0.125, abs=1e-9)
    assert report.level_gradients[5.0] == pytest.approx(-0.25, abs=1e-9)
    # below the fold two levels, at the fold one
    below = gradient_graph(
        fat_tree.with_capacity("l5", 20.0 * 1.1).with_capacity("l6", 20.0 * 1.1)
    )
    assert len(flow_levels(below)) == 2
    cap = report.spine_capacity_at_fold
    at = gradient_graph(fat_tree.with_capacity("l5", cap).with_capacity("l6", cap))
    assert len(flow_levels(at)) == 1


def test_taper_fold_sweep_cross_check(fat_tree):
    report = taper_fold(fat_tree, ["l5", "l6"], 20.0, 1.0)

    def gap(tau):
        net = fat_tree.with_capacity("l5", 20.0 * tau).with_capacity("l6", 20.0 * tau)
        rates = gradient_graph(net).rate.values()
        return max(rates) - min(rates)

    tau = 1.0
    while tau < 2.0 and gap(tau) > 1e-9:
        tau += 0.001
    assert abs(tau - report.tau_star) < 0.002


def test_taper_refuses_a_string_of_link_ids():
    # "ab" is one string, not the links a and b.
    net = Network(
        (Link("a", 10.0), Link("b", 10.0), Link("c", 30.0)),
        (Flow("f", ("a", "c")), Flow("g", ("b", "c")), Flow("h", ("c",))),
    )
    with pytest.raises(PlanError, match="^scaled links must be a collection of "
                       "link ids, not a string$"):
        taper_fold(net, "ab", 10.0)


def test_taper_already_folded(fat_tree):
    folded = fat_tree.with_capacity("l5", 40.0).with_capacity("l6", 40.0)
    with pytest.raises(AlreadyFoldedError):
        taper_fold(folded, ["l5", "l6"], 20.0, 2.0)


def _mixed_level_network(leaf=10.0):
    # One scaled spine next to a fixed one: the shared level has mixed
    # derivatives (g1 and h1 rise, g2 and h2 stay), and h3 falls to meet h1
    # at s1 = 19.
    links = (Link("s1", leaf), Link("s2", 10.0), Link("b", 24.0))
    flows = (
        Flow("g1", ("s1",)), Flow("h1", ("s1", "b")),
        Flow("g2", ("s2",)), Flow("h2", ("s2", "b")),
        Flow("h3", ("b",)),
    )
    return Network(links, flows)


def test_taper_folds_a_level_with_mixed_derivatives():
    # From tau0 = 0.5 the walk crosses one breakpoint, where s1's share
    # meets s2's, before the bands meet.
    for tau0 in (1.0, 0.5):
        report = taper_fold(_mixed_level_network(), ["s1"], 10.0, tau0)
        assert report.method == "gradient"
        assert abs(report.tau_star - 1.9) <= 1e-12
        assert report.rates_at["h3"] == pytest.approx(report.rates_at["h1"], abs=1e-12)
        # The mixed level is left out of the summary; h3's level stays.
        assert list(report.level_gradients.values()) == [-0.5]


# -- taper re-solves --------------------------------------------------------
# ``taper_fold`` checks its fold by a kernel re-solve of one interned
# network. The reference below solves the fold as a fresh
# ``gradient_graph(_scaled(...))``, at the report's own tau*.

def _reference_samples(network, scale_links, leaf, tau0, tau_star):
    scale_links = tuple(sorted(set(scale_links)))
    return {
        "spine_capacity_at_fold": leaf * tau_star,
        "scaled_links": scale_links,
        "rates_at": gradient_graph(_scaled(network, scale_links, leaf * tau_star)).rate,
    }


def _assert_samples_match_reference(report, network, scale_links, leaf, tau0=1.0):
    want = _reference_samples(network, scale_links, leaf, tau0, report.tau_star)
    for name, value in want.items():
        assert repr(getattr(report, name)) == repr(value), name


def test_taper_matches_full_resolve_reference_on_fat_tree(fat_tree):
    for tau0 in (0.5, 1.0, 1.2):
        args = (fat_tree, ["l5", "l6"], 20.0, tau0)
        report = taper_fold(*args)
        assert abs(report.tau_star - 4.0 / 3.0) <= 1e-12
        _assert_samples_match_reference(report, *args)


@pytest.mark.parametrize("pods", [2, 3, 4])
@pytest.mark.parametrize("hosts", [2, 3, 4])
def test_taper_matches_full_resolve_reference_on_leaf_spine(pods, hosts):
    net, spines = leaf_spine(pods, hosts, 23.17)
    report = taper_fold(net, spines, 23.17)
    # All spines scale together, so each level moves as one: the levels
    # fold where a pod's own flows meet the cross-pod flows.
    assert report.method == "gradient"
    n = pods * hosts
    assert abs(report.tau_star - hosts * (n - hosts) / (n - 1)) <= 1e-12
    _assert_samples_match_reference(report, net, spines, 23.17)


def test_taper_matches_full_resolve_reference_on_mixed_levels():
    for tau0 in (1.0, 0.5):
        args = (_mixed_level_network(), ["s1"], 10.0, tau0)
        report = taper_fold(*args)
        assert abs(report.tau_star - 1.9) <= 1e-12
        _assert_samples_match_reference(report, *args)


def _counting_kernel(monkeypatch):
    import qtbs._kernel

    solve = qtbs._kernel.solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qtbs._kernel, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("pods", [2, 3, 4])
@pytest.mark.parametrize("hosts", [2, 3, 4])
def test_leaf_spine_taper_runs_the_kernel_eleven_times(pods, hosts, monkeypatch):
    # Named for the 11 runs the taper made while it also sampled the rates
    # below, above and around the fold; it now makes 2.
    net, spines = leaf_spine(pods, hosts, 23.17)
    calls = _counting_kernel(monkeypatch)
    taper_fold(net, spines, 23.17)
    # the base structure and the fold check
    assert len(calls) == 2


def test_mixed_level_taper_kernel_runs(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    taper_fold(_mixed_level_network(), ["s1"], 10.0)
    # the base structure and the fold check: the walk folds from the base
    # structure's lines, with no breakpoint between
    assert len(calls) == 2
    calls.clear()
    taper_fold(_mixed_level_network(), ["s1"], 10.0, 0.5)
    # and one more where it crosses the breakpoint at s1 = 10
    assert len(calls) == 3


@pytest.mark.parametrize("tree", [
    "fat_tree", "leaf_spine_3x2", "mixed_levels", "mixed_levels_from_half",
])
def test_taper_solves_each_capacity_once(tree, fat_tree, monkeypatch):
    import qtbs.solver

    tau0, breakpoints = 1.0, []
    if tree == "fat_tree":
        args = (fat_tree, ["l5", "l6"], 20.0)
    elif tree == "leaf_spine_3x2":
        net, spines = leaf_spine(3, 2, 23.17)
        args = (net, spines, 23.17)
    else:
        args = (_mixed_level_network(), ["s1"], 10.0)
        if tree == "mixed_levels_from_half":
            # the walk crosses one breakpoint, where s1's share meets s2's
            tau0, breakpoints = 0.5, [10.0]
    resolve = qtbs.solver.resolve
    vectors = []

    def recording_resolve(caps, *rest, **kwargs):
        vectors.append(tuple(caps))
        return resolve(caps, *rest, **kwargs)

    # ``gradient_graph`` calls ``resolve`` too, so the structure solve at
    # tau0 is recorded with the re-solves.
    monkeypatch.setattr(qtbs.solver, "resolve", recording_resolve)
    report = taper_fold(*args, tau0)
    # The base structure, one structure per breakpoint crossed, and the
    # fold check, each at its own capacity vector.
    net, scaled, leaf = args
    caps = [leaf * tau0, *breakpoints, report.spine_capacity_at_fold]
    assert vectors == [tuple(interned(_scaled(net, scaled, c))[2]) for c in caps]


@pytest.mark.parametrize("leaf, tau0, message", [
    (float("nan"), 1.0, "leaf capacity must be finite, got nan"),
    (float("inf"), 1.0, "leaf capacity must be finite, got inf"),
    (20.0, float("inf"), "tau0 must be finite, got inf"),
    (20.0, float("-inf"), "tau0 must be finite, got -inf"),
    (20.0, float("nan"), "tau0 must be finite, got nan"),
])
def test_taper_leaf_capacity_and_tau0_must_be_finite(fat_tree, leaf, tau0, message):
    with pytest.raises(PlanError, match=f"^{message}$"):
        taper_fold(fat_tree, ["l5", "l6"], leaf, tau0)


def test_taper_scaled_capacity_must_be_finite():
    # A scaled capacity that overflows to inf is rejected by the re-solve,
    # as interning the scaled network would. On the 3 x 2 tree the fold's
    # verification solve overflows. On the second network the walk's
    # re-solve at a breakpoint does: x drains at s = 2e308, where a and b,
    # splitting s, reach x's capacity.
    net, spines = leaf_spine(3, 2, 1.5e308)
    drain = Network(
        (Link("s", 1e308), Link("x", 1e308), Link("y", 1.0)),
        (Flow("a", ("s", "x")), Flow("b", ("s",)), Flow("h", ("y", "s"))),
    )
    for net, scaled, leaf, first in [(net, spines, 1.5e308, "s0"), (drain, ["s"], 1e308, "s")]:
        with pytest.raises(CapacityError, match=rf"link '{first}': capacity must be "
                           r"finite and strictly positive, got inf"):
            taper_fold(net, scaled, leaf)
    # With s1 at 1e308, g1 alone rises and the bands only draw apart.
    with pytest.raises(PlanError, match="^no band gap closes while scaling up$"):
        taper_fold(_mixed_level_network(1e308), ["s1"], 1e308)


def test_taper_fold_below_an_overflowing_scale():
    # The 2 x 2 tree at 1.3e308 folds at a finite 1.733e308. Only scales
    # past the fold overflow (1.5 x 1.3e308 is inf), and the taper solves
    # none of them.
    net, spines = leaf_spine(2, 2, 1.3e308)
    report = taper_fold(net, spines, 1.3e308)
    assert report.tau_star == 1.3333333333333335
    assert report.spine_capacity_at_fold == 1.3e308 * report.tau_star


def _corpus_case(seed):
    net = random_network(9000 + seed, 8, 14, 4)
    ids = [l.id for l in net.links]
    rng = random.Random(seed)
    scaled = rng.sample(ids, rng.randint(1, max(1, len(ids) // 2)))
    return net, scaled, rng.choice((1.0, 5.0, 20.0))


def _oracle_gap(network, scaled, cap, bands):
    """``waterfill``'s adjacent-band gap at scaled capacity ``cap``, and its
    largest rate."""
    rate = waterfill(_scaled(network, scaled, cap)).rate
    gap = min(min(rate[f] for f in hi) - max(rate[f] for f in lo)
              for lo, hi in zip(bands, bands[1:]))
    return gap, max(rate.values())


def test_taper_folds_where_the_oracle_first_closes_a_band_gap():
    # Bands are the tau0 structure's levels, as in ``taper_fold``. Seeds 22,
    # 44, 62, 267 and 293 fold where a drained link bends a band's line,
    # before the base structure's lines meet; seed 232's fold is not where
    # a spread tolerance puts it, and seed 27's exists.
    counts = Counter()
    for seed in range(300):
        net, scaled, leaf = _corpus_case(seed)
        bands = [flows for _, _, flows in sorted(_rate_groups(
            gradient_graph(_scaled(net, scaled, leaf))))]
        try:
            report = taper_fold(net, scaled, leaf)
        except AlreadyFoldedError:
            counts["one level"] += 1
            continue
        except PlanError as exc:
            assert str(exc) == "no band gap closes while scaling up", seed
            for tau in (2.0, 10.0, 1e2, 1e3, 1e4):
                assert _oracle_gap(net, scaled, leaf * tau, bands)[0] > 0, (seed, tau)
            counts["no fold"] += 1
            continue
        if _oracle_gap(net, scaled, leaf, bands)[0] <= 0:
            assert report.tau_star == 1.0, seed
            counts["met at tau0"] += 1
            continue
        gap, top = _oracle_gap(net, scaled, leaf * report.tau_star, bands)
        assert abs(gap) <= 1e-9 * top, (seed, gap)
        for i in range(1, 16):
            tau = 1.0 + (report.tau_star - 1.0) * i / 16
            assert _oracle_gap(net, scaled, leaf * tau, bands)[0] > 0, (seed, tau)
        counts["fold"] += 1
    assert counts == {"one level": 107, "no fold": 33, "met at tau0": 18, "fold": 142}


def test_taper_fold_past_a_drained_link():
    # l1 is scaled from 1. At 38.25 l3 drains, and the fold comes at
    # 45.19, before the base structure's lines meet at 62.54.
    net = random_network(9022, 8, 14, 4)
    report = taper_fold(net, ["l1"], 1.0)
    assert abs(report.tau_star - 45.19285714285714) <= 1e-12


def test_taper_fold_verification_is_two_sided(monkeypatch):
    # A walk blind to every breakpoint, at half the true slopes, folds the
    # mixed-level network at 2.8, where h3 has fallen below h1: the bands
    # have crossed at its tau*, and the verifying re-solve refuses it.
    import qtbs.planner

    real = qtbs.planner.forward_grad

    def blind(solution, p):
        r = real(solution, p)
        return dataclasses.replace(
            r,
            flow_gradient={f: g / 2 for f, g in r.flow_gradient.items()},
            link_gradient=dict.fromkeys(r.link_gradient, 0.0),
        )

    monkeypatch.setattr(qtbs.planner, "forward_grad", blind)
    with pytest.raises(PlanError, match="^fold verification failed: band gap -9.0 "):
        taper_fold(_mixed_level_network(), ["s1"], 10.0)


@pytest.mark.parametrize("seed, scale", [
    (285, 1e9), (199, 1e6), (289, 1e12), (193, 1e6), (175, 1e6),
])
def test_taper_walk_holds_at_large_capacities(seed, scale, monkeypatch):
    # Scaling every capacity scales no tau*. At these scales a breakpoint
    # can lie closer to the scaled capacity than its float spacing, or a
    # link drains exactly without becoming a bottleneck in the solve.
    def fold(network, leaf):
        try:
            return taper_fold(network, scaled, leaf).tau_star
        except PlanError as exc:
            return str(exc)  # seed 199 has no fold

    import qtbs.planner

    net, scaled, leaf = _corpus_case(seed)
    want = fold(net, leaf)
    big = Network(tuple(Link(l.id, l.capacity * scale) for l in net.links), net.flows)
    real, solves = qtbs.planner.gradient_graph, []

    def bounded(network):
        solves.append(network)
        assert len(solves) < 20, "the walk stalls"
        return real(network)

    monkeypatch.setattr(qtbs.planner, "gradient_graph", bounded)
    got = fold(big, leaf * scale)
    assert got == want if isinstance(want, str) else abs(got - want) <= 1e-12 * want

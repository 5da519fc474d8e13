import dataclasses

import pytest

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
from qtbs.planner import _rate_groups, _scaled


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


def test_no_negative_candidate_gives_empty_plan(shaping):
    # f8 cannot help f7 and f7 itself is excluded
    plan = accelerate_flow(shaping, "f7", ["f8"])
    assert plan.actions == ()
    assert plan.final_target_rate == pytest.approx(10.25)


def test_floor_above_candidates_gives_empty_plan(shaping):
    plan = accelerate_flow(shaping, "f7", ["f1", "f3", "f4", "f8"], floor_rate=50.0)
    assert plan.actions == ()


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


def test_taper_already_folded(fat_tree):
    folded = fat_tree.with_capacity("l5", 40.0).with_capacity("l6", 40.0)
    with pytest.raises(AlreadyFoldedError):
        taper_fold(folded, ["l5", "l6"], 20.0, 2.0)


def test_taper_bisection_fallback():
    # one scaled spine next to a fixed one: the shared level has mixed
    # gradients, so the gradient method refuses and bisection takes over
    links = (Link("s1", 10.0), Link("s2", 10.0), Link("b", 24.0))
    flows = (
        Flow("g1", ("s1",)), Flow("h1", ("s1", "b")),
        Flow("g2", ("s2",)), Flow("h2", ("s2", "b")),
        Flow("h3", ("b",)),
    )
    net = Network(links, flows)
    report = taper_fold(net, ["s1"], 10.0, 1.0)
    assert report.method == "bisection"
    assert report.tau_star == pytest.approx(1.9, abs=1e-3)
    assert report.rates_at["h3"] == pytest.approx(report.rates_at["h1"], abs=1e-3)


# -- taper re-solves --------------------------------------------------------
# ``taper_fold`` re-solves each scale on one interned network and stops the
# bisection once the floats converge. The reference below is the plain
# algorithm: every scale is a fresh ``gradient_graph(_scaled(...))`` and the
# bisection always takes its 100 steps.

def _reference_taper(network, scale_links, leaf, tau0=1.0, eps=EPS):
    scale_links = tuple(sorted(set(scale_links)))

    def solve_at(tau):
        return gradient_graph(_scaled(network, scale_links, leaf * tau), eps)

    base_cap = leaf * tau0
    base = gradient_graph(_scaled(network, scale_links, base_cap), eps)
    groups = _rate_groups(base)
    bands = [flows for _, _, flows in sorted(groups)]

    def pair_gap(tau):
        rate = solve_at(tau).rate
        return min(min(rate[f] for f in hi) - max(rate[f] for f in lo)
                   for lo, hi in zip(bands, bands[1:]))

    tol = 1e-6
    per_link = [forward_grad(base, Perturbation(lid, -1)).flow_derivative
                for lid in scale_links]
    level_grad, level_rates, uniform = {}, {}, True
    for lo, hi, flows in groups:
        grads = {deriv[f] for deriv in per_link for f in flows}
        if hi - lo > tol or lo in level_rates or max(grads) - min(grads) > tol:
            uniform = False
            break
        level_rates[lo] = flows
        level_grad[lo] = per_link[0][flows[0]]
    tau_star, method = None, "gradient"
    if uniform:
        ordered = sorted(level_rates)
        dcaps = [(r_hi - r_lo) / (level_grad[r_lo] - level_grad[r_hi])
                 for r_lo, r_hi in zip(ordered, ordered[1:])
                 if level_grad[r_lo] - level_grad[r_hi] > eps]
        dcaps = [d for d in dcaps if d > eps]
        if dcaps:
            tau_star = (base_cap + min(dcaps)) / leaf
    if tau_star is None:
        method = "bisection"
        lo_tau, hi_tau = tau0, tau0 * 2.0
        while pair_gap(hi_tau) > tol:
            hi_tau *= 2.0
        for _ in range(100):
            mid = 0.5 * (lo_tau + hi_tau)
            if pair_gap(mid) <= tol:
                hi_tau = mid
            else:
                lo_tau = mid
        tau_star = hi_tau
    below_tau = 0.5 * (tau0 + tau_star)
    above_tau = tau_star + 0.5 * (tau_star - tau0)
    samples = tuple(
        (tau, min(solve_at(tau).rate.values()))
        for tau in (tau0 + (above_tau - tau0) * i / 8.0 for i in range(9))
    )
    return TaperReport(
        tau_star=tau_star,
        spine_capacity_at_fold=leaf * tau_star,
        leaf_capacity=leaf,
        scaled_links=scale_links,
        level_rates=level_rates,
        level_gradients=level_grad,
        rates_below=solve_at(below_tau).rate,
        rates_at=solve_at(tau_star).rate,
        rates_above=solve_at(above_tau).rate,
        slowest_samples=samples,
        method=method,
    )


def _leaf_spine(pods, hosts, leaf):
    """Hosts with one access link each, one spine link per pod, and a flow
    between every ordered pair of hosts (fat_tree.json is the 2 x 2 case)."""
    links = [Link(f"s{p}", leaf) for p in range(pods)]
    links += [Link(f"h{p}_{i}", leaf) for p in range(pods) for i in range(hosts)]
    ends = [(p, i) for p in range(pods) for i in range(hosts)]
    flows = []
    for a in ends:
        for b in ends:
            if a == b:
                continue
            path = [f"h{a[0]}_{a[1]}", f"h{b[0]}_{b[1]}"]
            if a[0] != b[0]:
                path[1:1] = [f"s{a[0]}", f"s{b[0]}"]
            flows.append(Flow(f"f{a[0]}.{a[1]}-{b[0]}.{b[1]}", tuple(path)))
    return Network(tuple(links), tuple(flows)), [f"s{p}" for p in range(pods)]


def _assert_same_report(got, want):
    for field in dataclasses.fields(TaperReport):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


def test_taper_matches_full_resolve_reference_on_fat_tree(fat_tree):
    for tau0 in (0.5, 1.0, 1.2):
        args = (fat_tree, ["l5", "l6"], 20.0, tau0)
        _assert_same_report(taper_fold(*args), _reference_taper(*args))


@pytest.mark.parametrize("pods", [2, 3, 4])
@pytest.mark.parametrize("hosts", [2, 3, 4])
def test_taper_matches_full_resolve_reference_on_leaf_spine(pods, hosts):
    net, spines = _leaf_spine(pods, hosts, 23.17)
    report = taper_fold(net, spines, 23.17)
    # Several scaled spines give a shared level mixed gradients.
    assert report.method == ("gradient" if pods == 2 else "bisection")
    _assert_same_report(report, _reference_taper(net, spines, 23.17))


def test_taper_bisection_stops_once_floats_converge(monkeypatch):
    import qtbs._kernel

    solve = qtbs._kernel.solve
    calls = []

    def counting_solve(*args):
        calls.append(1)
        return solve(*args)

    net, spines = _leaf_spine(3, 2, 23.17)
    monkeypatch.setattr(qtbs._kernel, "solve", counting_solve)
    report = taper_fold(net, spines, 23.17)
    assert report.method == "bisection"
    # base, one doubling, ~53 bisection steps, the fold, 2 + 9 samples
    # (115 when the bisection ran all 100 steps)
    assert len(calls) <= 70


def test_taper_scaled_capacity_must_be_finite():
    # The first doubling of the scaled capacity overflows to inf; the
    # re-solve rejects it as interning the scaled network would.
    net, spines = _leaf_spine(3, 2, 1.5e308)
    with pytest.raises(CapacityError,
                       match=r"link 's0': capacity must be finite and strictly positive, got inf"):
        taper_fold(net, spines, 1.5e308)

"""Acceptance suite: one test per release criterion, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS lines; any
failure shows up as a normal pytest failure.
"""
import json
import time

import pytest

from qtbs import (
    Perturbation,
    fd_gradient,
    forward_grad,
    gradient_bound,
    gradient_graph,
    jain_index,
    max_rate_path,
    min_hop_path,
    random_network,
    rate_if_routed,
    accelerate_flow,
    apply_plan,
    taper_fold,
    waterfill,
)
from qtbs.cli import main as cli_main

from conftest import FIXTURES, bottlenecked_flows, load

TOP_FLOWS = ["f1", "f2", "f3", "f4", "f5", "f7", "f8", "f10", "f13", "f14", "f15", "f16"]


def report(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_worked_gradients():
    chain = load("chain.json")
    ladder = load("ladder.json")
    sol_c = gradient_graph(chain)
    sol_l = gradient_graph(ladder)
    start = time.perf_counter()
    g_link = forward_grad(sol_c, Perturbation("l1", -1)).flow_gradient["f2"]
    g_flow = forward_grad(sol_l, Perturbation("f1", -1)).flow_gradient["f4"]
    elapsed = time.perf_counter() - start
    ok = (
        abs(g_link - 0.5) <= 1e-9
        and abs(g_flow - (-2.0)) <= 1e-9
        and elapsed < 0.010
    )
    report(1, ok,
           f"link gradient {g_link}, flow gradient {g_flow}, {elapsed * 1e3:.2f} ms")


def test_criterion_2_wan_fixture_routing():
    b4 = load("b4.json")
    sol = gradient_graph(b4)
    top_ok = all(abs(sol.rate[f] - 5.0 / 3.0) <= 1e-3 for f in TOP_FLOWS)
    short = rate_if_routed(b4, ["l15", "l10"])
    long = rate_if_routed(b4, ["l16", "l8", "l19"])
    route = max_rate_path(b4, "DC4", "DC11")
    ok = (
        top_ok
        and abs(short - 1.428) <= 1e-3
        and abs(long - 2.500) <= 1e-3
        and route.links == ("l16", "l8", "l19")
        and min_hop_path(b4, "DC4", "DC11") == ("l15", "l10")
    )
    report(2, ok,
           f"12 top flows at 1.667, probe {short:.3f} vs {long:.3f}, "
           f"max-rate path {'->'.join(route.links)}")


def test_criterion_3_fat_tree_tapering():
    ft = load("fat_tree.json")
    sol = gradient_graph(ft)
    rates = sorted(round(r, 9) for r in sol.rate.values())
    rates_ok = rates == [2.5] * 8 + [5.0] * 4
    deriv = forward_grad(sol, Perturbation("l5", -1)).flow_derivative
    grads_ok = (
        all(abs(deriv[f] - 0.125) <= 1e-9
            for f in ("f2", "f3", "f5", "f6", "f7", "f8", "f10", "f11"))
        and all(abs(deriv[f] + 0.25) <= 1e-9 for f in ("f1", "f4", "f9", "f12"))
    )
    rep = taper_fold(ft, ["l5", "l6"], 20.0, 1.0)
    fold_ok = (
        abs(rep.tau_star - 4.0 / 3.0) <= 1e-6
        and abs(rep.spine_capacity_at_fold - 26.667) <= 1e-3
        and all(abs(r - 10.0 / 3.0) <= 1e-3 for r in rep.rates_at.values())
    )
    full = gradient_graph(
        ft.with_capacity("l5", 40.0).with_capacity("l6", 40.0)
    )
    tau2_ok = (
        bottlenecked_flows(full.graph, "l5") == ()
        and bottlenecked_flows(full.graph, "l6") == ()
    )
    ok = rates_ok and grads_ok and fold_ok and tau2_ok
    report(3, ok,
           f"tau1 rates {{2.5x8, 5x4}}, gradients +0.125/-0.25, "
           f"tau*={rep.tau_star:.6f}, spine {rep.spine_capacity_at_fold:.3f}, "
           f"tau=2 spines idle")


def test_criterion_4_shaping_sequence():
    net = load("shaping.json")
    sol = gradient_graph(net)
    base_ok = (
        abs(sol.fair_share["l2"] - 5.125) <= 1e-6
        and abs(sol.fair_share["l3"] - 7.375) <= 1e-6
        and abs(sol.fair_share["l4"] - 10.25) <= 1e-6
        and abs(sol.fair_share["l6"] - 12.25) <= 1e-6
    )
    plan = accelerate_flow(net, "f7", ["f1", "f3", "f4", "f8"], floor_rate=1.25)
    stage1 = plan.actions[0]
    rho1 = sol.rate["f4"] - stage1.shaper_rate
    after1 = gradient_graph(
        apply_plan(net, type(plan)(plan.target, plan.low_priority,
                                   plan.actions[:1], plan.floor_rate,
                                   plan.baseline_target_rate))
    )
    stage1_ok = (
        stage1.flow == "f4"
        and abs(rho1 - 0.5) <= 1e-9
        and abs(after1.fair_share["l4"] - 11.25) <= 1e-9
        and abs(after1.fair_share["l6"] - 11.25) <= 1e-9
    )
    trajectory = [plan.baseline_target_rate] + [
        a.predicted_target_rate for a in plan.actions
    ]
    final = gradient_graph(apply_plan(net, plan))
    shaped_rates = sorted(round(final.rate[f], 9) for f in ("f3", "f4", "f8"))
    plan_ok = (
        abs(trajectory[0] - 10.25) <= 1e-9
        and abs(trajectory[1] - 11.25) <= 1e-9
        and abs(trajectory[-1] - 16.875) <= 1e-9
        and shaped_rates == [1.25, 1.875, 5.625]
    )
    ok = base_ok and stage1_ok and plan_ok
    report(4, ok,
           f"baseline shares ok, rho1={rho1}, target {trajectory[0]} -> "
           f"{trajectory[1]} -> {trajectory[-1]}, shaped ends {shaped_rates}")


def _sweep_delta(net):
    sol = gradient_graph(net)
    values = sorted(set(list(sol.rate.values()) + list(sol.fair_share.values())))
    gap = min((b - a for a, b in zip(values, values[1:]) if b - a > 1e-9),
              default=1.0)
    bound = gradient_bound(sol)
    return min(max(gap / (8.0 * (bound + 1.0)), 1e-9), 1e-4)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(150):
        net = random_network(seed, max_links=50, max_flows=200, max_path_len=8)
        sol = gradient_graph(net)
        oracle = waterfill(net)
        for f, r in sol.rate.items():
            assert r == pytest.approx(oracle.rate[f], rel=1e-6, abs=1e-9), (seed, f)
        for l, s in sol.fair_share.items():
            assert s == pytest.approx(oracle.fair_share[l], rel=1e-6, abs=1e-9), (seed, l)

    checked = 0
    for seed in range(150, 200):
        net = random_network(seed, max_links=26, max_flows=80, max_path_len=5)
        sol = gradient_graph(net)
        delta = _sweep_delta(net)
        targets = [(l.id, d) for l in net.links for d in (-1, 1)]
        targets += [(f.id, -1) for f in net.flows]
        for target, direction in targets:
            fd = fd_gradient(net, target, direction, delta)
            res = forward_grad(sol, Perturbation(target, direction))
            for v, got in fd.items():
                want = res.flow_gradient.get(v)
                if want is None:
                    want = res.link_gradient[v]
                assert got == pytest.approx(want, abs=1e-6), (seed, target, direction, v)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and checked > 0
    report(5, ok,
           f"200 instances rate/share-matched, {checked} finite-difference "
           f"comparisons, {elapsed:.1f} s")


def test_criterion_6_gradient_bound():
    worst_margin = None
    for seed in range(150, 200):
        net = random_network(seed, max_links=26, max_flows=80, max_path_len=5)
        sol = gradient_graph(net)
        bound = gradient_bound(sol)
        for link in net.links:
            for d in (-1, 1):
                m = forward_grad(sol, Perturbation(link.id, d)).max_magnitude()
                assert m <= bound + 1e-9, (seed, link.id, d)
        for flow in net.flows:
            m = forward_grad(sol, Perturbation(flow.id, -1)).max_magnitude()
            assert m <= bound + 1e-9, (seed, flow.id)
            margin = bound - m
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    ladder = load("ladder.json")
    sol = gradient_graph(ladder)
    realized = max(
        forward_grad(sol, Perturbation(v, d)).max_magnitude()
        for v in sol.graph.vertices()
        for d in (-1, 1)
    )
    ladder_ok = gradient_bound(sol) >= 2.0 and abs(realized - 2.0) <= 1e-9
    report(6, ladder_ok,
           f"sweep bounded (tightest margin {worst_margin:.3g}), "
           f"fan-out-2 block realizes gradient {realized}")


def test_criterion_7_routing_properties():
    import random as _random

    rng = _random.Random(2024)
    extensions = 0
    for seed in range(200):
        if extensions >= 100:
            break
        net = random_network(seed, max_links=10, max_flows=16, max_path_len=4)
        ids = [l.id for l in net.links]
        if len(ids) < 2:
            continue
        path = rng.sample(ids, rng.randint(1, min(3, len(ids))))
        rest = [l for l in ids if l not in path]
        if not rest:
            continue
        base = rate_if_routed(net, path)
        ext = rate_if_routed(net, path + [rng.choice(rest)])
        assert ext <= base + 1e-9, seed
        extensions += 1

    from test_routing import _all_simple_paths, _random_router_net
    from qtbs import Flow

    argmax_checked = 0
    for seed in range(40):
        net = _random_router_net(seed)
        if len(net.routers) > 7:
            continue
        src, dst = net.routers[0], net.routers[-1]
        paths = _all_simple_paths(net, src, dst)
        if not paths:
            continue
        best = max(
            waterfill(net.with_flow(Flow("__probe__", p))).rate["__probe__"]
            for p in paths
        )
        route = max_rate_path(net, src, dst)
        assert route.predicted_rate == pytest.approx(best, abs=1e-9), seed
        assert route.links in paths, seed
        argmax_checked += 1
    ok = extensions >= 100 and argmax_checked >= 15
    report(7, ok,
           f"{extensions} monotone extensions, {argmax_checked} exhaustive "
           f"argmax confirmations")


def test_criterion_8_jain_index():
    exact_one = jain_index([3.3, 3.3, 3.3, 3.3, 3.3])
    quarter = jain_index([1, 0, 0, 0])
    tenth = jain_index([7.0] + [0.0] * 9)
    ok = exact_one == 1.0 and quarter == 0.25 and tenth == pytest.approx(0.1, abs=1e-15)
    report(8, ok, f"J(equal)={exact_one}, J(single of 4)={quarter}")


def test_criterion_9_cli_determinism(capsys):
    ok = True
    for fixture in sorted(FIXTURES.glob("*.json")):
        outputs = []
        for _ in range(2):
            assert cli_main(["solve", str(fixture), "--format", "json"]) == 0
            out_json = capsys.readouterr().out
            assert cli_main(["solve", str(fixture), "--format", "dot",
                             "--backward-edges"]) == 0
            out_dot = capsys.readouterr().out
            outputs.append((out_json.encode(), out_dot.encode()))
        ok = ok and outputs[0] == outputs[1]
        json.loads(outputs[0][0])  # JSON payload is well-formed
    with capsys.disabled():
        report(9, ok, "byte-identical JSON and DOT across runs on every fixture")

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from json.encoder import encode_basestring_ascii

import pytest

import qtbs._kernel
import qtbs.cli
from qtbs import (
    gradient_graph, jain_index, parse_network, random_network, serialize_network, to_document,
)
from qtbs.cli import main

from conftest import FIXTURES

SRC = FIXTURES.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_table(capsys):
    code, out, err = run(capsys, "solve", FIXTURES / "fat_tree.json")
    assert code == 0
    assert "2.500" in out and "5.000" in out
    assert err == ""


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "fat_tree.json",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "solve"
    assert doc["network"] == {"links": 6, "flows": 12}
    assert doc["rates"]["f1"] == pytest.approx(5.0)
    assert 0 < doc["jain_index"] <= 1


def test_solve_dot_single_link(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "single_link.json",
                       "--format", "dot")
    assert code == 0
    assert out.count("->") == 1
    assert '"l1" [shape=box' in out
    assert 'fillcolor=gray' in out

    code, out2, _ = run(capsys, "solve", FIXTURES / "single_link.json",
                        "--format", "dot", "--backward-edges")
    assert out2.count("->") == 2
    assert "style=dashed" in out2


def test_export_matches_solve_dot(capsys):
    _, a, _ = run(capsys, "solve", FIXTURES / "b4.json", "--format", "dot")
    _, b, _ = run(capsys, "export", FIXTURES / "b4.json")
    assert a == b


def test_grad_table_lists_biggest_first(capsys):
    code, out, _ = run(capsys, "grad", FIXTURES / "shaping.json",
                       "--target", "f4", "--direction", "down")
    assert code == 0
    flows_section = out.split("flow gradients:")[1].split("link gradients:")[0]
    first = flows_section.strip().splitlines()[0].split()
    assert first[0] == "f7"
    assert float(first[1]) == pytest.approx(-2.0)
    assert "gradient bound" in out


def test_grad_zero_for_idle_spine(capsys, tmp_path):
    doc = json.loads((FIXTURES / "fat_tree.json").read_text())
    for entry in doc["links"]:
        if entry["id"] in ("l5", "l6"):
            entry["capacity"] = 40.0
    f = tmp_path / "full.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "grad", f, "--target", "l5")
    assert code == 0
    assert "all gradients zero" in out


def test_grad_unknown_target_fails(capsys):
    code, _, err = run(capsys, "grad", FIXTURES / "fat_tree.json",
                       "--target", "nope")
    assert code == 1
    assert err == "error: unknown link or flow id 'nope'\n"


def test_route_b4(capsys):
    code, out, _ = run(capsys, "route", FIXTURES / "b4.json",
                       "--src", "DC4", "--dst", "DC11")
    assert code == 0
    assert "l16 -> l8 -> l19" in out
    assert "2.500" in out
    assert "l15 -> l10" in out
    assert "1.429" in out


# sha256 of the stdout of ``qtbs route`` on b4 over every ordered router
# pair (in sorted order), concatenated, as written when each probe rate was
# a kernel solve of the probed network.
ROUTE_STDOUT = {
    "table": "a82bf01694d8a3458edd8937bef414d01f38dc8d1083d8af16675db6bb62797f",
    "json": "9154bcce47c3f0924469ffdb31719a6ad969ada4b2fcae02fbaf632d9b1ed054",
}


@pytest.mark.parametrize("fmt", list(ROUTE_STDOUT))
def test_route_output_on_every_b4_pair(capsys, fmt):
    routers = parse_network((FIXTURES / "b4.json").read_text()).routers
    digest = hashlib.sha256()
    pairs = 0
    for src in routers:
        for dst in routers:
            if src == dst:
                continue
            code, out, err = run(capsys, "route", FIXTURES / "b4.json",
                                 "--src", src, "--dst", dst, "--format", fmt)
            assert (code, err) == (0, "")
            digest.update(out.encode())
            pairs += 1
    assert pairs == 132
    assert digest.hexdigest() == ROUTE_STDOUT[fmt]


def test_route_makes_one_solve(capsys, monkeypatch):
    # The search and the min-hop path's rate read one solve of the network;
    # a routing error comes before it.
    solves = []
    solve = qtbs._kernel.solve

    def recording_solve(*args, **kwargs):
        solves.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qtbs._kernel, "solve", recording_solve)
    routers = parse_network((FIXTURES / "b4.json").read_text()).routers
    for src in routers:
        for dst in routers:
            if src != dst:
                code, _, _ = run(capsys, "route", FIXTURES / "b4.json",
                                 "--src", src, "--dst", dst)
                assert code == 0
                assert solves == [{}], (src, dst)
                solves.clear()
    for src, dst in [("DC4", "DC99"), ("DC4", "DC4")]:
        code, _, err = run(capsys, "route", FIXTURES / "b4.json", "--src", src, "--dst", dst)
        assert code == 1 and "error" in err
        assert solves == []


def test_route_unreachable_fails(capsys, tmp_path):
    doc = {
        "routers": ["u1", "u2", "u3", "u4"],
        "links": [
            {"id": "l1", "capacity": 10.0, "src": "u1", "dst": "u2"},
            {"id": "l2", "capacity": 10.0, "src": "u3", "dst": "u4"},
        ],
        "flows": [{"id": "f1", "links": ["l1"]}],
    }
    f = tmp_path / "split.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "route", f, "--src", "u1", "--dst", "u4")
    assert code == 1
    assert "error" in err


def test_shape_plan(capsys):
    code, out, _ = run(capsys, "shape", FIXTURES / "shaping.json",
                       "--target", "f7", "--low-priority", "f1,f3,f4,f8",
                       "--floor", "1.25")
    assert code == 0
    assert "16.875" in out
    assert out.count("stage") == 3


def test_shape_empty_plan(capsys):
    code, out, _ = run(capsys, "shape", FIXTURES / "shaping.json",
                       "--target", "f7", "--low-priority", "f8")
    assert code == 0
    assert "empty plan" in out
    assert "10.250" in out


def test_shape_json_jain(capsys):
    code, out, _ = run(capsys, "shape", FIXTURES / "shaping.json",
                       "--target", "f7", "--low-priority", "f1,f3,f4,f8",
                       "--floor", "1.25", "--format", "json")
    doc = json.loads(out)
    assert doc["final_target_rate"] == pytest.approx(16.875)
    assert [a["flow"] for a in doc["actions"]] == ["f4", "f3", "f8"]
    assert 0 < doc["jain_index"] <= 1


# sha256 of stdout, as written when ``shape`` solved the shaped network a
# second time after the planner.
SHAPE_STDOUT = {
    ("f8", "f1,f2,f3,f4,f5,f6,f7", None): (
        "d5c1e7b6102da763f5414942a19b8a1f375aaf9b61c7a0ba107797ca8e07afdc",
        "925179b2ebdedf8eb2d9f7b35de5f758248395f0c3839f9694d30bbde38c0f58",
    ),
    ("f7", "f1,f3,f4,f8", "1.25"): (
        "d803b4fcd91995f29e3bc3bec5cd988711be552d016c3cefa0bba86ce5bd0273",
        "2c038bc5d15ee4316b7cb022777d3f6f160d4aea28e4b001e1939f506964e26d",
    ),
    ("f7", "f8", None): (
        "358bd05c16ca5054d1aa1cd90661b6a1cc41a75ecad060189dd1d5e2ca0870cb",
        "47e1680e54584dffc077fad5a07135eaa7f5e79160034c4d912a4e3fb23b7111",
    ),
}


@pytest.mark.parametrize("target,low,floor", list(SHAPE_STDOUT))
def test_shape_reuses_the_planners_last_solve(capsys, monkeypatch, target, low, floor):
    import qtbs.planner

    solved = []

    def counting_gradient_graph(network):
        solved.append(network)
        return gradient_graph(network)

    monkeypatch.setattr(qtbs.cli, "gradient_graph", counting_gradient_graph)
    monkeypatch.setattr(qtbs.planner, "gradient_graph", counting_gradient_graph)
    argv = ["shape", FIXTURES / "shaping.json", "--target", target, "--low-priority", low]
    if floor is not None:
        argv += ["--floor", floor]
    for fmt, want in zip(("table", "json"), SHAPE_STDOUT[target, low, floor]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt
        # One solve per distinct network: no network is solved twice.
        assert len(set(map(serialize_network, solved))) == len(solved), fmt
        if target == "f8":
            assert len(solved) == 3  # 4 when the CLI solved the last one again
        solved.clear()


def test_taper(capsys):
    code, out, _ = run(capsys, "taper", FIXTURES / "fat_tree.json",
                       "--scale-links", "l5,l6", "--lambda", "20", "--tau0", "1")
    assert code == 0
    assert "1.333333" in out
    assert "26.667" in out
    assert "3.333" in out


def test_eps_env_override(capsys, monkeypatch):
    # The tie tolerance is fixed: the retired QTBS_EPS variable, set to a
    # tolerance that would glue the fat-tree tiers together or to no number
    # at all, changes nothing.
    argv = ("solve", FIXTURES / "fat_tree.json", "--format", "json")
    monkeypatch.delenv("QTBS_EPS", raising=False)
    want = run(capsys, *argv)
    assert want[0] == 0
    for value in ("10.0", "bogus"):
        monkeypatch.setenv("QTBS_EPS", value)
        assert run(capsys, *argv) == want, value


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_shape_rejects_a_non_finite_floor(capsys, floor):
    code, out, err = run(capsys, "shape", FIXTURES / "shaping.json", "--target", "f7",
                         "--low-priority", "f1,f3,f4,f8", f"--floor={floor}",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error: floor rate must be finite")


@pytest.mark.parametrize("floor", ["0", "-3"])
def test_shape_rejects_a_floor_at_or_below_zero(capsys, floor):
    code, out, err = run(capsys, "shape", FIXTURES / "b4.json", "--target", "f1",
                         "--low-priority", "f2,f3,f4,f5,f6,f7,f8", f"--floor={floor}")
    assert (code, out) == (1, "")
    assert err == f"error: floor rate must be positive, got {float(floor)}\n"


@pytest.mark.parametrize("args, message", [
    (["--lambda", "nan"], "leaf capacity must be finite, got nan"),
    (["--lambda", "20", "--tau0", "inf"], "tau0 must be finite, got inf"),
])
def test_taper_rejects_a_non_finite_lambda_or_tau0(capsys, args, message):
    code, out, err = run(capsys, "taper", FIXTURES / "fat_tree.json",
                         "--scale-links", "l5,l6", *args)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_invalid_file_fails(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"links":[{"id":"l1","capacity":-1}],"flows":[]}')
    code, out, err = run(capsys, "solve", bad)
    assert code == 1
    assert out == ""
    assert "capacity" in err


def test_outputs_deterministic(capsys):
    for fixture in sorted(FIXTURES.glob("*.json")):
        for fmt in ("json", "dot"):
            if fmt == "dot":
                args = ("solve", fixture, "--format", "dot", "--backward-edges")
            else:
                args = ("solve", fixture, "--format", "json")
            _, first, _ = run(capsys, *args)
            _, second, _ = run(capsys, *args)
            assert first == second, (fixture.name, fmt)


# -- the solve report, written from the solve's arrays --------------------
# ``qtbs solve --format json`` must print exactly what ``json.dumps`` of the
# report dict printed, built below as ``cmd_solve`` built it.

def _reference_solve_json(path):
    net = parse_network(path.read_bytes())
    sol = gradient_graph(net)
    rates = dict(sorted(sol.rate.items()))
    report = {
        "schema": 1,
        "command": "solve",
        "network": {"links": len(net.links), "flows": len(net.flows)},
        "rates": rates,
        "fair_shares": dict(sorted(sol.fair_share.items())),
        "bottlenecks_of": {f: list(ls) for f, ls in sorted(sol.bottlenecks_of.items())},
        "levels": dict(sorted(sol.level.items())),
        "jain_index": jain_index(rates.values()) if rates else None,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _assert_solve_json(capsys, path):
    code, out, err = run(capsys, "solve", path, "--format", "json")
    assert (code, err) == (0, "")
    assert out == _reference_solve_json(path), path.name
    return out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _random_doc(seed, n_links, n_flows, capacities, max_path_len=4):
    rng = random.Random(seed)
    links = [f"l{i}" for i in range(n_links)]
    return {
        "links": [{"id": l, "capacity": rng.choice(capacities)} for l in links],
        "flows": [
            {"id": f"f{i}", "links": rng.sample(links, rng.randint(1, max_path_len))}
            for i in range(n_flows)
        ],
    }


def test_solve_json_matches_json_dumps_on_fixtures_and_random(capsys, tmp_path):
    for fixture in sorted(FIXTURES.glob("*.json")):
        _assert_solve_json(capsys, fixture)
    for seed in range(100):
        doc = to_document(random_network(seed, 12, 30, 4))
        _assert_solve_json(capsys, _write(tmp_path, f"random-{seed}.json", doc))


def test_solve_json_keeps_integer_levels_apart_from_integral_rates(capsys, tmp_path):
    # Rate 2.0 next to level 2: one shared number table would print one of
    # them with the other's text.
    chain = {
        "links": [{"id": "a", "capacity": 2}, {"id": "b", "capacity": 6}],
        "flows": [{"id": "f1", "links": ["a", "b"]}, {"id": "f2", "links": ["b"]}],
    }
    out = _assert_solve_json(capsys, _write(tmp_path, "chain.json", chain))
    assert '"f1": 2.0' in out and '"b": 2' in out
    for seed in range(30):
        caps = (2.0, 4.0) if seed % 2 else (1.0, 2.0, 4.0)
        doc = _random_doc(seed, 6, 12, caps)
        _assert_solve_json(capsys, _write(tmp_path, f"caps-{seed}.json", doc))


def test_solve_json_escapes_ids_and_sorts_them_raw(capsys, tmp_path):
    links = ['a"q', "a\\q", "A", "z", "\u00e9", "\x01ctl", "\u4e2d", "\U0001f600", "idle"]
    flows = ['f"1', "f\\2", "f\n3", "F", "f\u00e9", "f\U0001f600", "\x7f"]
    ids = links + flows
    # The cases below only test something if escaping reorders the ids.
    assert sorted(ids) != sorted(ids, key=encode_basestring_ascii)
    rng = random.Random(5)
    used = links[:-1]  # "idle" carries no flow
    doc = {
        "links": [{"id": l, "capacity": rng.choice((3.0, 5.0, 7.5))} for l in links],
        "flows": [{"id": f, "links": rng.sample(used, rng.randint(1, 3))} for f in flows],
    }
    _assert_solve_json(capsys, _write(tmp_path, "escaped.json", doc))


def test_solve_json_lists_bottlenecks_in_id_order(capsys, tmp_path):
    # "b" has the smaller share, so the kernel emits its bottleneck edge
    # first; "a" ties with it within eps and is a bottleneck too.
    doc = {
        "links": [{"id": "a", "capacity": 2.000000000001}, {"id": "b", "capacity": 2.0}],
        "flows": [{"id": "f1", "links": ["a", "b"]}],
    }
    path = _write(tmp_path, "near-tie.json", doc)
    assert gradient_graph(parse_network(path.read_bytes())).graph.bottleneck_pairs == (
        (1, 0), (0, 0))
    _assert_solve_json(capsys, path)


def test_solve_json_without_flows(capsys, tmp_path):
    for doc in ({"links": [{"id": "l1", "capacity": 3}], "flows": []},
                {"links": [], "flows": []}):
        report = json.loads(_assert_solve_json(capsys, _write(tmp_path, "empty.json", doc)))
        assert report["jain_index"] is None
        assert report["rates"] == report["bottlenecks_of"] == {}


def test_solve_json_builds_no_string_views(capsys, monkeypatch):
    solved = []

    def solve(*args):
        solved.append(gradient_graph(*args))
        return solved[-1]

    monkeypatch.setattr(qtbs.cli, "gradient_graph", solve)
    _, out, _ = run(capsys, "solve", FIXTURES / "b4.json", "--format", "json")
    (sol,) = solved
    assert json.loads(out)["bottlenecks_of"]
    assert "bottlenecks_of" not in vars(sol)
    for view in ("bottleneck_edges", "traversal_edges", "_succ", "_pred_links", "index"):
        assert view not in vars(sol.graph), view


def test_solve_json_stdout_in_subprocess(capsys, tmp_path):
    capacities = [c / 100 for c in range(100, 10001)]
    big = _write(tmp_path, "random-2k.json", _random_doc(11, 200, 2000, capacities))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for path in (FIXTURES / "b4.json", big):
        proc = subprocess.run(
            [sys.executable, "-m", "qtbs.cli", "solve", str(path), "--format", "json"],
            capture_output=True, env=env, timeout=120, check=True,
        )
        _, out, _ = run(capsys, "solve", path, "--format", "json")
        assert proc.stdout == out.encode(), path.name


def test_closed_stdout_exits_quietly(tmp_path):
    # The reader stops at once, as ``qtbs solve big.json | head -1`` does;
    # the table is far larger than a 64 KiB pipe buffer.
    capacities = [c / 100 for c in range(100, 10001)]
    big = _write(tmp_path, "random-2k.json", _random_doc(11, 200, 2000, capacities))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtbs.cli", "solve", str(big)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


# -- the cyclic collector is paused for a command, and only by the CLI ---------

@pytest.fixture
def gc_state():
    """Sets the collector as a test asks and restores it afterwards."""
    before = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(before)


@pytest.fixture
def kernel_gc(monkeypatch):
    """``gc.isenabled()`` at each kernel solve."""
    during = []
    solve = qtbs._kernel.solve

    def recording(*args, **kwargs):
        during.append(gc.isenabled())
        return solve(*args, **kwargs)

    monkeypatch.setattr(qtbs._kernel, "solve", recording)
    return during


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code, solves", [
    (["solve", str(FIXTURES / "b4.json"), "--format", "json"], 0, 1),
    (["grad", str(FIXTURES / "b4.json"), "--target", "nowhere"], 1, 1),
    (["solve", str(FIXTURES / "missing.json")], 1, 0),
])
def test_main_pauses_gc_and_restores_the_callers_state(
    capsys, gc_state, kernel_gc, enabled, argv, code, solves
):
    gc_state(enabled)
    assert main(argv) == code
    assert gc.isenabled() is enabled
    assert kernel_gc == [False] * solves
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_gc_when_argparse_exits(capsys, gc_state, enabled):
    gc_state(enabled)
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.isenabled() is enabled
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
def test_library_solve_leaves_gc_alone(gc_state, kernel_gc, enabled):
    gc_state(enabled)
    gradient_graph(parse_network((FIXTURES / "b4.json").read_text()))
    assert gc.isenabled() is enabled
    assert kernel_gc == [enabled]

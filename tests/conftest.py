import pathlib

import pytest

from qtbs import Flow, Link, Network, parse_network

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_network(FIXTURES.joinpath(name).read_text())


def bottlenecked_flows(graph, link):
    """The flows with a bottleneck edge from ``link``, in ascending id order:
    the link's successors in the structure's integer index."""
    ix = graph.index
    return tuple(ix.ids[w] for w in ix.succ[ix.index_of[link]])


def leaf_spine(pods, hosts, leaf):
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


@pytest.fixture
def b4():
    return load("b4.json")


@pytest.fixture
def fat_tree():
    return load("fat_tree.json")


@pytest.fixture
def shaping():
    return load("shaping.json")


@pytest.fixture
def chain():
    return load("chain.json")


@pytest.fixture
def ladder():
    return load("ladder.json")


@pytest.fixture
def single_link():
    return load("single_link.json")

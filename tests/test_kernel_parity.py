"""The compiled kernel must be bit-identical to the pure-Python one."""
import pytest

from qtbs import _kernel, _kernel_py, random_network
from qtbs.model import interned

compiled = pytest.importorskip(
    "qtbs._solve_kernel", reason="compiled kernel not built"
)


@pytest.mark.parametrize("seed", range(30))
def test_kernels_agree(seed):
    net = random_network(seed, max_links=14, max_flows=40, max_path_len=5)
    _, _, caps, flow_links, link_flows = interned(net)
    py = _kernel_py.solve(caps, flow_links, link_flows, 1e-9)
    cy = compiled.solve(caps, flow_links, link_flows, 1e-9)
    assert py == cy  # rates, shares, edges, pop order and counters


def test_kernels_agree_on_ties():
    # symmetric capacities force exact ties everywhere
    caps = [20.0] * 6
    flow_links = [[0, 1], [0, 4, 5, 2], [0, 4, 5, 3], [1, 0],
                  [1, 4, 5, 2], [1, 4, 5, 3], [2, 5, 4, 0], [2, 5, 4, 1],
                  [2, 3], [3, 5, 4, 0], [3, 5, 4, 1], [3, 2]]
    flow_links = [sorted(p) for p in flow_links]
    link_flows = [[] for _ in caps]
    for f, path in enumerate(flow_links):
        for l in path:
            link_flows[l].append(f)
    py = _kernel_py.solve(caps, flow_links, link_flows, 1e-9)
    cy = compiled.solve(caps, flow_links, link_flows, 1e-9)
    assert py == cy


@pytest.mark.parametrize("seed", range(30))
def test_rates_only_modes_agree(seed):
    # The compiled kernel answers rates-only and early-exit calls with its
    # full solve; the pure kernel runs its rates-only loop.
    net = random_network(seed, max_links=14, max_flows=40, max_path_len=5)
    args = interned(net)[2:]
    cy = _kernel._with_modes(compiled.solve)
    assert cy(*args, 1e-9, rates_only=True) == _kernel_py.solve(*args, 1e-9, rates_only=True)
    for f in range(len(net.flows)):
        assert cy(*args, 1e-9, until=f)[f] == _kernel_py.solve(*args, 1e-9, until=f)[f]

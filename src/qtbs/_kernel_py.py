"""Pure-Python max-min solve kernel.

Reference implementation of the progressive fair-share refinement loop.
``qtbs._solve_kernel`` is the compiled twin; both must produce identical
output (same floats, same edge order) for any input.
"""
from heapq import heapify, heappop, heappush

IMPL_NAME = "python"

_INF = float("inf")


def solve(caps, flow_links, link_flows, eps):
    """Run the fair-share refinement loop on an interned network.

    caps:       list of link capacities
    flow_links: per flow, sorted list of traversed link indices
    link_flows: per link, sorted list of traversing flow indices
    eps:        absolute tolerance for rate/fair-share ties

    Returns (rate, share, bneck_edges, trav_edges, pop_order, pops, updates):
    rate[f] is each flow's max-min rate, share[l] each link's fair share,
    bneck_edges the (link, flow) bottleneck relation, trav_edges the
    (flow, link) edges to traversed non-bottleneck links, pop_order the
    link resolution order, pops the number of links popped and updates the
    number of fair-share updates (not heap pushes: see below).

    A link that ends up bottlenecking no flow reports its saturation level:
    leftover capacity plus its fastest flow's rate (full capacity when no
    flow traverses it). That keeps every non-bottleneck link strictly above
    the rates of its flows, so each flow's rate is the minimum fair share
    along its path and the minimizers are exactly its bottlenecks.

    The heap is lazy. A share rises when a flow leaves a link, so a link
    keeps its queued entry when its share is updated, and is pushed again at
    its current share only when that entry reaches the top. (Rounding can
    lower a share by an ulp; the link is then pushed below its old entry.)
    Every live link keeps an entry no larger than its share, so links pop
    in ascending (share, link) order, exactly as with one push per update.
    """
    n_links = len(caps)
    n_flows = len(flow_links)
    avail = list(caps)
    nrem = [len(fs) for fs in link_flows]
    # Links with no traversing flows never enter the heap; their fair share
    # is reported as full (leftover) capacity.
    share = [c if n == 0 else c / n for c, n in zip(caps, nrem)]
    # A link is closed once popped or dead (bottlenecking nobody).
    closed = [n == 0 for n in nrem]
    rate = [_INF] * n_flows
    resolved = [False] * n_flows

    heap = [(share[l], l) for l in range(n_links) if not closed[l]]
    heapify(heap)

    bneck_edges = []
    trav_edges = []
    pop_order = []
    bneck_append = bneck_edges.append
    trav_append = trav_edges.append
    updates = 0
    unresolved = n_flows

    def pop_link():
        while heap:
            key, l = heappop(heap)
            if closed[l]:
                continue  # stale entry
            s_l = share[l]
            if key != s_l:
                # The share rose since the link was queued: requeue it.
                heappush(heap, (s_l, l))
                continue
            closed[l] = True
            pop_order.append(l)
            return l
        return -1

    while unresolved > 0:
        l = pop_link()
        if l < 0:
            raise RuntimeError("no live link left while flows remain unresolved")
        s_l = share[l]
        lo = s_l - eps
        hi = s_l + eps
        for f in link_flows[l]:
            if rate[f] < lo:
                continue
            bneck_append((l, f))
            if resolved[f]:
                continue
            rate[f] = s_l
            resolved[f] = True
            unresolved -= 1
            for l2 in flow_links[f]:
                if closed[l2]:
                    continue  # l itself, or already resolved
                if share[l2] > hi:
                    trav_append((f, l2))
                    avail[l2] -= s_l
                    n = nrem[l2] - 1
                    nrem[l2] = n
                    if n <= 0:
                        # No unresolved flow left: the link bottlenecks
                        # nobody; report its saturation level (leftover
                        # plus the fastest flow, which resolved last).
                        closed[l2] = True
                        share[l2] = avail[l2] + s_l
                    else:
                        s2 = avail[l2] / n
                        if s2 < share[l2]:
                            # Rounding lowered the share: queue the link
                            # below its old entry.
                            heappush(heap, (s2, l2))
                        share[l2] = s2
                        updates += 1
                # else: tie within eps; the flow is bottlenecked at l2 as
                # well and picks up its edge when l2 is popped.

    # Drain remaining live links so equal-share links still record their
    # bottleneck edges (multi-bottleneck flows).
    while True:
        l = pop_link()
        if l < 0:
            break
        lo = share[l] - eps
        for f in link_flows[l]:
            if rate[f] >= lo:
                bneck_append((l, f))

    return rate, share, bneck_edges, trav_edges, pop_order, len(pop_order), updates

"""Max-min solve kernel: the progressive fair-share refinement loop.

``solver.resolve`` calls it through the module attribute, as
``_kernel.solve``, on a network's interned arrays, so a wrapper set on that
attribute sees every solve. ``probe_table`` reads a full solve's output to
give routing the rate of one more flow on any path without another solve.
"""
from heapq import heapify, heappop, heappush, heapreplace

IMPLEMENTATION = "python"

_INF = float("inf")


def solve(caps, flow_links, link_flows, eps):
    """Run the fair-share refinement loop on an interned network.

    caps:       list of link capacities
    flow_links: per flow, list of traversed link indices, in any order
                (``interned`` gives path order)
    link_flows: per link, sorted list of traversing flow indices
    eps:        absolute tolerance for rate/fair-share ties

    Returns (rate, share, bneck_link, bneck_flow, trav_flow, trav_link,
    pop_order, pops, updates): rate[f] is each flow's max-min rate,
    share[l] each link's fair share; bottleneck edge i runs from link
    bneck_link[i] to flow bneck_flow[i], and traversal edge i from flow
    trav_flow[i] to the traversed non-bottleneck link trav_link[i], both
    in emission order; pop_order is the link resolution order, pops the
    number of links popped and updates the number of fair-share updates
    (not heap pushes: see below), counted from the traversal edges and
    the links they drained.

    The solve pops links until the heap is empty; once every flow is
    resolved, a pop only records a tied link's bottleneck edges.

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

    The order inside ``flow_links[f]`` changes only the order of ``f``'s
    traversal edges, which are emitted together: a resolved flow's updates
    to distinct links are independent, each link's updates follow
    ``link_flows``, and the heap pops by the total (share, link) order.
    Every other output is the same for any order.
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
    n_live = len(heap)

    bneck_link = []
    bneck_flow = []
    trav_flow = []
    trav_link = []
    pop_order = []
    bl_append = bneck_link.append
    bf_append = bneck_flow.append
    tf_append = trav_flow.append
    tl_append = trav_link.append
    unresolved = n_flows

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
        lo = s_l - eps
        hi = s_l + eps
        for f in link_flows[l]:
            if rate[f] < lo:
                continue
            bl_append(l)
            bf_append(f)
            if resolved[f]:
                continue
            rate[f] = s_l
            resolved[f] = True
            unresolved -= 1
            for l2 in flow_links[f]:
                if closed[l2]:
                    continue  # l itself, or already resolved
                if share[l2] > hi:
                    tf_append(f)
                    tl_append(l2)
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
                # else: tie within eps; the flow is bottlenecked at l2 as
                # well and picks up its edge when l2 is popped.

    if unresolved:
        raise RuntimeError("no live link left while flows remain unresolved")
    # Every live link popped or drained; each traversal edge that did not
    # drain its link updated its share.
    pops = len(pop_order)
    updates = len(trav_link) - (n_live - pops)
    return (rate, share, bneck_link, bneck_flow, trav_flow, trav_link,
            pop_order, pops, updates)


def probe_table(caps, link_flows, eps, rate, share, trav_flow, trav_link, pop_order):
    """Per link, where one extra flow through it would resolve.

    ``caps``, ``link_flows`` and ``eps`` are a full ``solve``'s input, the
    rest its output, with the traversal edges as its two parallel lists
    ``trav_flow`` and ``trav_link``. Returns ``(step, level, frozen)``:
    link ``l`` would pop before base pop ``step[l]`` (``len(pop_order)``
    after the last) at fair share ``level[l]`` if it carried one more
    unresolved flow (the probe); ``frozen`` counts the traversal edges the
    tie rule skipped.

    A probe on path P resolves at the link of P with the smallest
    ``(step[l], level[l], l)``, at rate ``level[l]``, equal bit for bit to
    the probe's rate in a solve of the probed network, because:

    - until a link of P pops, the probed solve pops exactly the base links,
      in the base order: the probe is unresolved, so no link's state moves
      but through the base's resolutions, and a link of P never shares
      more than its base state (one flow more on the same leftover);
    - each link of P follows the base's resolutions of its flows and its
      own share alone: start at ``c/(n+1)``; at each base traversal edge
      from ``f`` to ``l`` take ``rate[f]`` off and one flow off the count,
      exactly as ``solve`` does, but only while the share is
      ``> rate[f] + eps`` (``solve``'s tie rule, which the lower share can
      meet where the base did not; the share then stays);
    - it pops before the first base pop whose ``(share, link)`` key is
      ``>=`` its own, as ``solve``'s heap orders them.

    Each link runs until it pops, so each base pop is checked against the
    links still running, in a lazy heap as in ``solve``.
    """
    n_links = len(caps)
    n_pops = len(pop_order)
    avail = list(caps)
    count = [len(fs) + 1 for fs in link_flows]
    level = [c / n for c, n in zip(caps, count)]
    step = [n_pops] * n_links  # below n_pops once the link has popped
    heap = list(zip(level, range(n_links)))
    heapify(heap)
    # The pop at which each flow resolved: its first popped link.
    resolved_at = [n_pops] * len(rate)
    for j in range(n_pops - 1, -1, -1):
        for f in link_flows[pop_order[j]]:
            resolved_at[f] = j
    frozen = 0
    t = 0
    n_trav = len(trav_flow)

    for j, top in enumerate(pop_order):
        # Every running link whose key is below base pop j's pops first.
        s_top = share[top]
        while heap:
            s, l = heap[0]
            if step[l] < n_pops:
                heappop(heap)  # stale entry of a popped link
            elif s != level[l]:
                heapreplace(heap, (level[l], l))  # the share rose: requeue
            elif s < s_top or (s == s_top and l <= top):
                heappop(heap)
                step[l] = j
            else:
                break
        # Base pop j's traversal edges: the flows it resolved leave their
        # other links. They come in the kernel's order, pop by pop.
        while t < n_trav:
            f = trav_flow[t]
            if resolved_at[f] != j:
                break
            l = trav_link[t]
            t += 1
            if step[l] < n_pops:
                continue
            r = rate[f]
            s = level[l]
            if s > r + eps:
                avail[l] -= r
                n = count[l] - 1
                count[l] = n
                s2 = avail[l] / n
                if s2 < s:
                    heappush(heap, (s2, l))  # rounding lowered the share
                level[l] = s2
            else:
                frozen += 1
    return step, level, frozen

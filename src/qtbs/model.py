"""Core data model: links, flows, networks, and the JSON file format.

Identifiers are plain strings in the file format and throughout the public
API. Internally the solver interns them to dense integer indices; every
iteration order is by ascending id so results are deterministic.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .errors import (
    CapacityError,
    DuplicateIdError,
    NetworkFormatError,
    ReservedIdError,
    UnknownLinkError,
)

LinkId = str
FlowId = str
RouterId = str

#: Flow id reserved for hypothetical flows placed by the routing module.
PROBE_FLOW_ID = "__probe__"

#: Global absolute tolerance for comparing rates and fair shares.
EPS = 1e-9


@dataclass(frozen=True)
class Link:
    """A simplex link with a fixed capacity and optional router endpoints."""

    id: LinkId
    capacity: float
    src: Optional[RouterId] = None
    dst: Optional[RouterId] = None


@dataclass(frozen=True, slots=True)
class Flow:
    """A flow and the ordered list of links it traverses.

    Slotted, with no per-instance dict: reading the flows of a 10k-flow
    document makes 10k of them. ``path`` is always a tuple, and never made
    from a ``str``; a parsed network fills it with the links' own id strings.
    """

    id: FlowId
    path: tuple[LinkId, ...]

    def __init__(self, id: FlowId, path: Iterable[LinkId]):
        object.__setattr__(self, "id", id)
        if isinstance(path, str):  # it would split into one-letter link ids
            raise NetworkFormatError(f"flow {id!r}: path must be a sequence of link ids")
        # ``parse_network`` and derived networks already pass a tuple.
        object.__setattr__(self, "path", path if type(path) is tuple else tuple(path))


@dataclass(frozen=True)
class Violation:
    """One validation finding; validation reports data, it does not raise."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.message}"


@dataclass(frozen=True)
class Network:
    """Immutable network: links with capacities plus flows with paths.

    Construction is permissive so that ``validate`` can report problems as
    data; ``parse_network`` is the strict entry point for documents. Only a
    link, flow or router id that is not a ``str`` is refused here, with a
    ``NetworkFormatError``: no id of another type is solved correctly.

    A network that ``parse_network`` built holds its flows only as the
    interned arrays until ``flows`` is first read; that read builds the
    ``Flow`` records, in id order, and keeps them. Equality, hash and repr
    read ``flows``, so they are those of the same network built through
    the library.
    """

    links: tuple[Link, ...]
    flows: tuple[Flow, ...]
    routers: tuple[RouterId, ...] = ()
    # The interned arrays, set only by ``parse_network``; see ``interned``.
    _arrays: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        by_id = attrgetter("id")
        links, flows, routers = tuple(self.links), tuple(self.flows), tuple(self.routers)
        # Ids are checked before the sort, which a mix of types would break.
        bad = next(((kind, i) for kind, ids in (("link", map(by_id, links)),
                                                ("flow", map(by_id, flows)),
                                                ("router", routers))
                    for i in ids if not isinstance(i, str)), None)
        if bad is not None:
            raise NetworkFormatError("%s requires a string 'id', got %r" % bad)
        object.__setattr__(self, "links", tuple(sorted(links, key=by_id)))
        object.__setattr__(self, "flows", tuple(sorted(flows, key=by_id)))
        object.__setattr__(self, "routers", tuple(sorted(set(routers))))

    def __getattr__(self, name):
        # Called only for a missing attribute: ``flows`` of a parsed
        # network before its first read.
        if name != "flows" or self._arrays is None:
            raise AttributeError(f"'Network' object has no attribute {name!r}")
        link_ids, flow_ids, _, flow_links, _ = self._arrays
        flows = tuple(Flow(fid, tuple(map(link_ids.__getitem__, ls)))
                      for fid, ls in zip(flow_ids, flow_links))
        object.__setattr__(self, "flows", flows)
        return flows

    # The id maps and ``_flows_on`` are built on first use: solves read
    # none of them.

    @cached_property
    def _link_by_id(self) -> Mapping[LinkId, Link]:
        return {l.id: l for l in self.links}

    @cached_property
    def _flow_by_id(self) -> Mapping[FlowId, Flow]:
        return {f.id: f for f in self.flows}

    @cached_property
    def _flows_on(self) -> Mapping[LinkId, tuple[FlowId, ...]]:
        """Flows per link."""
        flows_on: dict[LinkId, list[FlowId]] = {l.id: [] for l in self.links}
        for f in self.flows:
            for lid in f.path:
                if lid in flows_on:
                    flows_on[lid].append(f.id)
        return {lid: tuple(fids) for lid, fids in flows_on.items()}

    # -- lookups ---------------------------------------------------------

    def link(self, link_id: LinkId) -> Link:
        return self._link_by_id[link_id]

    def flow(self, flow_id: FlowId) -> Flow:
        return self._flow_by_id[flow_id]

    def has_link(self, link_id: LinkId) -> bool:
        return link_id in self._link_by_id

    def has_flow(self, flow_id: FlowId) -> bool:
        return flow_id in self._flow_by_id

    def flows_on(self, link_id: LinkId) -> tuple[FlowId, ...]:
        """Flows traversing the link (the incidence set of the link)."""
        return self._flows_on[link_id]

    def links_of(self, flow_id: FlowId) -> tuple[LinkId, ...]:
        """Links traversed by the flow, in path order."""
        return self._flow_by_id[flow_id].path

    # -- derived networks --------------------------------------------------

    def with_flow(self, flow: Flow) -> "Network":
        """A copy of this network with one extra flow."""
        return Network(self.links, self.flows + (flow,), self.routers)

    def with_link(self, link: Link) -> "Network":
        """A copy of this network with one extra link."""
        return Network(self.links + (link,), self.flows, self.routers)

    def with_capacity(self, link_id: LinkId, capacity: float) -> "Network":
        """A copy of this network with one link capacity replaced."""
        if not self.has_link(link_id):
            raise UnknownLinkError(f"unknown link {link_id!r}")
        links = tuple(
            Link(l.id, capacity, l.src, l.dst) if l.id == link_id else l
            for l in self.links
        )
        return Network(links, self.flows, self.routers)


_LINK_KEYS = {"id", "capacity", "src", "dst"}
_FLOW_KEYS = {"id", "links"}
_TOP_KEYS = {"routers", "links", "flows"}


def check_capacity(link_id: LinkId, capacity: float) -> None:
    """Raise ``CapacityError`` unless ``capacity`` is finite and strictly positive."""
    if not 0.0 < capacity < math.inf:  # also false for NaN
        raise CapacityError(
            f"link {link_id!r}: capacity must be finite and strictly positive, "
            f"got {capacity}"
        )


def parse_network(document: str | bytes | dict) -> Network:
    """Parse and validate a JSON network document.

    Accepts a JSON string/bytes or an already-decoded dict. Unknown fields
    are rejected, as are duplicate ids, unknown links in flow paths,
    non-positive or non-finite capacities, and reserved identifiers. Error
    messages are formatted only when a check fails.

    The network keeps the arrays ``interned`` returns, made while the
    document is checked: each flow's link indices in path order. Its
    ``Flow`` records are built from them on the first read of ``flows``,
    which a solve never makes.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # Bytes that are not UTF-8, or arrays nested past the recursion
            # limit, are invalid documents too.
            raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise NetworkFormatError(f"unknown top-level fields: {sorted(unknown)}")
    if "links" not in doc or "flows" not in doc:
        raise NetworkFormatError("document requires 'links' and 'flows' arrays")

    routers = doc.get("routers", [])
    if not (isinstance(routers, list) and all(isinstance(r, str) for r in routers)):
        raise NetworkFormatError("'routers' must be an array of strings")
    seen_routers: set[str] = set()
    for r in routers:
        if r in seen_routers:
            raise DuplicateIdError(f"duplicate router id {r!r}")
        seen_routers.add(r)

    links: list[Link] = []
    seen_links: set[str] = set()
    if not isinstance(doc["links"], list):
        raise NetworkFormatError("'links' must be an array")
    for entry in doc["links"]:
        if not isinstance(entry, dict):
            raise NetworkFormatError("each link must be an object")
        unknown = set(entry) - _LINK_KEYS
        if unknown:
            raise NetworkFormatError(f"unknown link fields: {sorted(unknown)}")
        if not isinstance(entry.get("id"), str):
            raise NetworkFormatError("link requires a string 'id'")
        lid = entry["id"]
        if lid == PROBE_FLOW_ID:
            raise ReservedIdError(f"link id {lid!r} is reserved")
        if lid in seen_links:
            raise DuplicateIdError(f"duplicate link id {lid!r}")
        seen_links.add(lid)
        cap = entry.get("capacity")
        if not isinstance(cap, (int, float)) or isinstance(cap, bool):
            raise CapacityError(f"link {lid!r}: capacity must be a number")
        cap = float(cap)
        if not math.isfinite(cap):
            raise CapacityError(f"link {lid!r}: capacity must be finite")
        if not cap > 0.0:
            raise CapacityError(
                f"link {lid!r}: capacity must be strictly positive, got {cap}")
        src, dst = entry.get("src"), entry.get("dst")
        for name, val in (("src", src), ("dst", dst)):
            if val is not None and not isinstance(val, str):
                raise NetworkFormatError(f"link {lid!r}: '{name}' must be a string")
        links.append(Link(lid, cap, src, dst))
    links.sort(key=attrgetter("id"))
    link_ids = [l.id for l in links]
    index = dict(zip(link_ids, range(len(link_ids))))

    flow_ids: list[str] = []
    flow_links: list[list[int]] = []
    seen_flows: set[str] = set()
    if not isinstance(doc["flows"], list):
        raise NetworkFormatError("'flows' must be an array")
    for entry in doc["flows"]:
        if not isinstance(entry, dict):
            raise NetworkFormatError("each flow must be an object")
        if not entry.keys() <= _FLOW_KEYS:
            unknown = set(entry) - _FLOW_KEYS
            raise NetworkFormatError(f"unknown flow fields: {sorted(unknown)}")
        if not isinstance(entry.get("id"), str):
            raise NetworkFormatError("flow requires a string 'id'")
        fid = entry["id"]
        if fid == PROBE_FLOW_ID:
            raise ReservedIdError(f"flow id {fid!r} is reserved")
        if fid in seen_flows:
            raise DuplicateIdError(f"duplicate flow id {fid!r}")
        # Links and flows share the graph vertex namespace.
        if fid in seen_links:
            raise DuplicateIdError(f"flow id {fid!r} collides with a link id")
        seen_flows.add(fid)
        path = entry.get("links")
        if not (isinstance(path, list) and path):
            raise NetworkFormatError(f"flow {fid!r}: 'links' must be a non-empty array")
        # The path's link indices decide a valid path: every entry is a link
        # id (a string), and the indices are distinct. Only a failing path
        # runs the checks below, whose order picks the error and its
        # message.
        try:
            ls = list(map(index.__getitem__, path))
        except (KeyError, TypeError):  # not a link id, or unhashable
            ls = None
        if ls is None or len(set(ls)) != len(ls):
            if not all(isinstance(x, str) for x in path):
                raise NetworkFormatError(f"flow {fid!r}: 'links' must contain link ids")
            if len(set(path)) != len(path):
                raise NetworkFormatError(f"flow {fid!r}: repeated link in path")
            for lid in path:
                if lid not in seen_links:
                    raise UnknownLinkError(f"flow {fid!r} references unknown link {lid!r}")
        flow_ids.append(fid)
        flow_links.append(ls)

    # Flows in id order, as ``Network`` keeps them, and each link's flows.
    order = sorted(range(len(flow_ids)), key=flow_ids.__getitem__)
    flow_ids = list(map(flow_ids.__getitem__, order))
    flow_links = list(map(flow_links.__getitem__, order))
    link_flows: list[list[int]] = [[] for _ in link_ids]
    for fi, ls in enumerate(flow_links):
        for li in ls:
            link_flows[li].append(fi)
    # Links and routers are already in id order, so ``__post_init__``'s
    # re-sort is skipped; ``flows`` is built on first read.
    network = Network.__new__(Network)
    caps = [l.capacity for l in links]
    vars(network).update(links=tuple(links), routers=tuple(sorted(routers)),
                         _arrays=(link_ids, flow_ids, caps, flow_links, link_flows))
    return network


def to_document(network: Network) -> dict:
    """The canonical JSON-serialisable form of a network."""
    doc: dict = {}
    if network.routers:
        doc["routers"] = list(network.routers)
    doc["links"] = []
    for l in network.links:
        entry: dict = {"id": l.id, "capacity": l.capacity}
        if l.src is not None:
            entry["src"] = l.src
        if l.dst is not None:
            entry["dst"] = l.dst
        doc["links"].append(entry)
    doc["flows"] = [{"id": f.id, "links": list(f.path)} for f in network.flows]
    return doc


def serialize_network(network: Network) -> str:
    """Serialize to JSON text; parse(serialize(n)) round-trips."""
    return json.dumps(to_document(network), indent=2, sort_keys=True)


def validate(network: Network) -> list[Violation]:
    """Check all model invariants; returns an empty list iff they hold."""
    out: list[Violation] = []
    seen: set[str] = set()
    for l in network.links:
        if l.id in seen:
            out.append(Violation("duplicate-id", l.id, "duplicate link id"))
        seen.add(l.id)
        if not math.isfinite(l.capacity) or l.capacity <= 0.0:
            out.append(Violation("bad-capacity", l.id,
                                 f"capacity must be positive, got {l.capacity}"))
    seen = set()
    for f in network.flows:
        if f.id in seen:
            out.append(Violation("duplicate-id", f.id, "duplicate flow id"))
        seen.add(f.id)
        if not f.path:
            out.append(Violation("empty-path", f.id, "flow traverses no links"))
        dupes = {lid for lid in f.path if f.path.count(lid) > 1}
        for lid in sorted(dupes):
            out.append(Violation("repeated-link", f.id,
                                 f"link {lid!r} appears more than once in path"))
        for lid in f.path:
            if not network.has_link(lid):
                out.append(Violation("unknown-link", f.id,
                                     f"flow references unknown link {lid!r}"))
        if f.id == PROBE_FLOW_ID:
            out.append(Violation("reserved-id", f.id, "flow id is reserved"))
        if network.has_link(f.id):
            out.append(Violation("duplicate-id", f.id,
                                 "flow id collides with a link id"))
    return out


def interned(network: Network):
    """Dense index view used by the solve kernel.

    Returns (link_ids, flow_ids, caps, flow_links, link_flows) where ids are
    sorted ascending, ``flow_links[f]`` holds flow ``f``'s link indices in
    path order (not sorted: the kernel's output does not depend on their
    order) and ``link_flows[l]`` the ascending indices of link ``l``'s flows.

    The five outer lists are fresh on every call, but the inner lists of
    ``flow_links`` and ``link_flows`` may be shared with the network and with
    other calls: a caller may assign ``caps[i]``, append to the outer lists
    or replace their entries, but never edit an inner list in place.

    A network that ``parse_network`` built carries these arrays, made while
    the document was checked, so they are copied, not rebuilt. Any other
    ``Network`` (built through the library, or derived by ``with_flow`` and
    the like) is interned here. Its construction is permissive, so this walk
    also rejects, with a typed error, every network the kernel would solve to
    a silently wrong answer: duplicate link or flow ids (a flow id equal to a
    link id included), a capacity that is not finite and strictly positive,
    an empty path, a repeated link in a path, a path entry that is not
    hashable, and a link that does not exist.
    """
    if network._arrays is not None:
        return tuple(a.copy() for a in network._arrays)
    link_ids = [l.id for l in network.links]
    flow_ids = [f.id for f in network.flows]
    ids = link_ids + flow_ids  # links and flows share one vertex namespace
    if len(set(ids)) != len(ids):
        repeated = next(i for i, n in Counter(ids).items() if n > 1)
        raise DuplicateIdError(f"duplicate link or flow id {repeated!r}")
    lidx = {lid: i for i, lid in enumerate(link_ids)}
    caps = [l.capacity for l in network.links]
    for lid, cap in zip(link_ids, caps):
        check_capacity(lid, cap)
    flow_links = []
    try:
        for f in network.flows:  # a failure leaves ``f`` at the failing flow
            flow_links.append([lidx[lid] for lid in f.path])
    except KeyError:
        lid = next(lid for lid in f.path if lid not in lidx)
        raise UnknownLinkError(f"flow {f.id!r} references unknown link {lid!r}") from None
    except TypeError:  # an unhashable entry, which no link id is
        raise NetworkFormatError(f"flow {f.id!r}: 'links' must contain link ids") from None
    for fid, path in zip(flow_ids, flow_links):
        if len(set(path)) != len(path) or not path:
            problem = "repeated link in path" if path else "empty path"
            raise NetworkFormatError(f"flow {fid!r}: {problem}")
    link_flows: list[list[int]] = [[] for _ in link_ids]
    for fi, path in enumerate(flow_links):
        for li in path:
            link_flows[li].append(fi)
    return link_ids, flow_ids, caps, flow_links, link_flows

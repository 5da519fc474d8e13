import copy
import inspect
import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from qtbs import (
    CapacityError,
    DuplicateIdError,
    Flow,
    Link,
    Network,
    NetworkFormatError,
    QtbsError,
    ReservedIdError,
    UnknownLinkError,
    gradient_graph,
    parse_network,
    serialize_network,
    validate,
)
from qtbs.model import PROBE_FLOW_ID, interned

from conftest import FIXTURES


def test_flow_path_is_always_a_tuple():
    for path in (("l1", "l2"), ["l1", "l2"], iter(["l1", "l2"])):
        got = Flow("f", path).path
        assert type(got) is tuple and got == ("l1", "l2")


def test_parsed_paths_hold_the_links_own_ids():
    # Each path entry is the link's id object, not the document's copy of
    # it, and a Flow is slotted, with no per-instance dict.
    for path in sorted(FIXTURES.glob("*.json")):
        net = parse_network(path.read_bytes())
        ids = {l.id: l.id for l in net.links}
        for flow in net.flows:
            assert not hasattr(flow, "__dict__")
            assert all(lid is ids[lid] for lid in flow.path), (path.name, flow.id)
    assert not hasattr(Flow("f", ("l1",)), "__dict__")


def test_parse_minimal():
    net = parse_network('{"links":[{"id":"l1","capacity":10}],'
                        '"flows":[{"id":"f1","links":["l1"]}]}')
    assert len(net.links) == 1
    assert len(net.flows) == 1
    assert net.link("l1").capacity == 10.0
    assert net.flow("f1").path == ("l1",)


def test_parse_b4_fixture(b4):
    assert len(b4.flows) == 48
    assert len(b4.links) == 28
    assert b4.link("l8").capacity == 25.0
    assert b4.link("l10").capacity == 25.0
    assert all(l.capacity == 10.0 for l in b4.links if l.id not in ("l8", "l10", "l8r", "l10r"))


def test_unknown_link_rejected():
    with pytest.raises(UnknownLinkError, match="l99"):
        parse_network('{"links":[{"id":"l1","capacity":10}],'
                      '"flows":[{"id":"f1","links":["l99"]}]}')


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateIdError):
        parse_network('{"links":[{"id":"l1","capacity":1},{"id":"l1","capacity":2}],'
                      '"flows":[]}')
    with pytest.raises(DuplicateIdError):
        parse_network('{"links":[{"id":"l1","capacity":1}],'
                      '"flows":[{"id":"f1","links":["l1"]},{"id":"f1","links":["l1"]}]}')
    # links and flows share the vertex namespace
    with pytest.raises(DuplicateIdError):
        parse_network('{"links":[{"id":"x","capacity":1}],'
                      '"flows":[{"id":"x","links":["x"]}]}')


@pytest.mark.parametrize("capacity", [0, -1, 1e400])
def test_bad_capacity_rejected(capacity):
    doc = {"links": [{"id": "l1", "capacity": capacity}], "flows": []}
    with pytest.raises(CapacityError):
        parse_network(json.dumps(doc))


def test_with_capacity_of_unknown_link_rejected(fat_tree):
    with pytest.raises(UnknownLinkError, match="'nope'"):
        fat_tree.with_capacity("nope", 1.0)
    assert fat_tree.with_capacity("l5", 3.0).link("l5").capacity == 3.0


def test_unknown_fields_rejected():
    with pytest.raises(NetworkFormatError, match="unknown"):
        parse_network('{"links":[{"id":"l1","capacity":1,"color":"red"}],"flows":[]}')
    with pytest.raises(NetworkFormatError, match="unknown"):
        parse_network('{"links":[],"flows":[],"comment":"hi"}')


def test_reserved_probe_id_rejected():
    with pytest.raises(ReservedIdError):
        parse_network('{"links":[{"id":"l1","capacity":1}],'
                      '"flows":[{"id":"__probe__","links":["l1"]}]}')


def test_malformed_document():
    with pytest.raises(NetworkFormatError):
        parse_network("not json")
    with pytest.raises(NetworkFormatError):
        parse_network('{"links":[],"flows":[{"id":"f1","links":[]}]}')


def test_validate_clean_fixture(fat_tree):
    assert validate(fat_tree) == []


def test_validate_reports_bad_capacity():
    net = Network((Link("l1", 0.0),), (Flow("f1", ("l1",)),))
    problems = validate(net)
    assert len(problems) == 1
    assert problems[0].subject == "l1"
    assert problems[0].code == "bad-capacity"


def test_validate_reports_duplicate_path_link():
    net = Network((Link("l1", 5.0),), (Flow("f1", ("l1", "l1")),))
    codes = {(v.code, v.subject) for v in validate(net)}
    assert ("repeated-link", "f1") in codes


def test_validate_reports_unknown_link():
    net = Network((Link("l1", 5.0),), (Flow("f1", ("l1", "l9")),))
    [v] = validate(net)
    assert v.code == "unknown-link" and "l9" in v.message


def test_round_trip(b4, fat_tree, shaping):
    for net in (b4, fat_tree, shaping):
        again = parse_network(serialize_network(net))
        assert again == net
        assert serialize_network(again) == serialize_network(net)


def test_incidence_duality(b4):
    for f in b4.flows:
        for lid in f.path:
            assert f.id in b4.flows_on(lid)
    for l in b4.links:
        for fid in b4.flows_on(l.id):
            assert l.id in b4.links_of(fid)


_ids = st.integers(min_value=1, max_value=30)


@given(
    st.dictionaries(_ids, st.floats(0.01, 1000.0), min_size=1, max_size=8),
    st.lists(st.lists(_ids, min_size=1, max_size=4, unique=True),
             min_size=1, max_size=12),
    st.booleans(),
)
def test_round_trip_random(cap_by_idx, raw_paths, with_endpoints):
    links = tuple(
        Link(f"l{i}", c, f"u{i}" if with_endpoints else None,
             f"u{i + 1}" if with_endpoints else None)
        for i, c in cap_by_idx.items()
    )
    known = [l.id for l in links]
    flows = tuple(
        Flow(f"f{n}", tuple(f"l{i}" for i in path if f"l{i}" in known) or (known[0],))
        for n, path in enumerate(raw_paths)
    )
    net = Network(links, flows)
    assert parse_network(serialize_network(net)) == net


# -- the solve's own checks on networks built through the library -------------


def _solve(links, flows):
    return gradient_graph(Network(tuple(links), tuple(flows)))


def test_solve_rejects_repeated_link_in_path():
    # Solved as given, f1 would count twice on l1 and get 3.33 instead of 5.
    with pytest.raises(NetworkFormatError, match="repeated link"):
        _solve([Link("l1", 10.0)], [Flow("f1", ("l1", "l1")), Flow("f2", ("l1",))])


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 0.0, -1.0])
def test_solve_rejects_bad_capacity(capacity):
    with pytest.raises(CapacityError, match="l2"):
        _solve([Link("l1", 4.0), Link("l2", capacity)],
               [Flow("f1", ("l1", "l2")), Flow("f2", ("l2",))])


def test_solve_rejects_duplicate_flow_id():
    with pytest.raises(DuplicateIdError, match="f1"):
        _solve([Link("l1", 4.0)], [Flow("f1", ("l1",)), Flow("f1", ("l1",))])


def test_solve_rejects_duplicate_link_id():
    with pytest.raises(DuplicateIdError, match="l1"):
        _solve([Link("l1", 4.0), Link("l1", 8.0)], [Flow("f1", ("l1",))])


def test_solve_rejects_flow_id_equal_to_link_id():
    with pytest.raises(DuplicateIdError, match="x"):
        _solve([Link("x", 4.0)], [Flow("x", ("x",))])


def test_solve_rejects_unknown_link_with_typed_error():
    with pytest.raises(UnknownLinkError, match="l9") as info:
        _solve([Link("l1", 4.0)], [Flow("f1", ("l1", "l9"))])
    assert not isinstance(info.value, KeyError)


def test_solve_rejects_empty_path():
    with pytest.raises(NetworkFormatError, match="empty path"):
        _solve([Link("l1", 4.0)], [Flow("f1", ())])


# -- parse_network rejects everything validate reports ------------------------

_LINK = {"id": "l1", "capacity": 4.0}
_FLOW = {"id": "f1", "links": ["l1"]}
VIOLATING_DOCS = {
    "duplicate-id": [
        {"links": [_LINK, {"id": "l1", "capacity": 8.0}], "flows": [_FLOW]},
        {"links": [_LINK], "flows": [_FLOW, _FLOW]},
        {"links": [_LINK], "flows": [{"id": "l1", "links": ["l1"]}]},
    ],
    "bad-capacity": [
        {"links": [{"id": "l1", "capacity": c}], "flows": [_FLOW]}
        for c in (0.0, -1.0, float("inf"), float("nan"))
    ],
    "empty-path": [{"links": [_LINK], "flows": [{"id": "f1", "links": []}]}],
    "repeated-link": [{"links": [_LINK], "flows": [{"id": "f1", "links": ["l1", "l1"]}]}],
    "unknown-link": [{"links": [_LINK], "flows": [{"id": "f1", "links": ["l9"]}]}],
    "reserved-id": [{"links": [_LINK], "flows": [{"id": "__probe__", "links": ["l1"]}]}],
}


def test_parse_rejects_every_violation_code():
    # The CLI relies on this and does not run ``validate`` after parsing.
    codes = set(re.findall(r'Violation\("([a-z-]+)"', inspect.getsource(validate)))
    assert set(VIOLATING_DOCS) == codes
    for code, docs in VIOLATING_DOCS.items():
        for doc in docs:
            net = Network(
                tuple(Link(l["id"], l["capacity"]) for l in doc["links"]),
                tuple(Flow(f["id"], tuple(f["links"])) for f in doc["flows"]),
            )
            assert code in {v.code for v in validate(net)}, doc
            with pytest.raises(QtbsError):
                parse_network(doc)
            with pytest.raises(QtbsError):
                parse_network(json.dumps(doc))


_L1 = {"id": "l1", "capacity": 5}
_F1 = {"id": "f1", "links": ["l1"]}


@pytest.mark.parametrize("doc, error, message", [
    ("[", NetworkFormatError, "invalid JSON: Expecting value: line 1 column 2 (char 1)"),
    ([], NetworkFormatError, "top level must be an object"),
    ({"links": [], "flows": [], "extra": 1}, NetworkFormatError,
     "unknown top-level fields: ['extra']"),
    ({"links": []}, NetworkFormatError, "document requires 'links' and 'flows' arrays"),
    ({"routers": "r", "links": [], "flows": []}, NetworkFormatError,
     "'routers' must be an array of strings"),
    ({"routers": ["a", "a"], "links": [], "flows": []}, DuplicateIdError,
     "duplicate router id 'a'"),
    ({"links": {}, "flows": []}, NetworkFormatError, "'links' must be an array"),
    ({"links": [3], "flows": []}, NetworkFormatError, "each link must be an object"),
    ({"links": [{"id": "l1", "capacity": 1, "x": 2}], "flows": []}, NetworkFormatError,
     "unknown link fields: ['x']"),
    ({"links": [{"capacity": 1}], "flows": []}, NetworkFormatError,
     "link requires a string 'id'"),
    ({"links": [{"id": "__probe__", "capacity": 1}], "flows": []}, ReservedIdError,
     "link id '__probe__' is reserved"),
    ({"links": [_L1, _L1], "flows": []}, DuplicateIdError, "duplicate link id 'l1'"),
    ({"links": [{"id": "l1", "capacity": True}], "flows": []}, CapacityError,
     "link 'l1': capacity must be a number"),
    ({"links": [{"id": "l1", "capacity": float("nan")}], "flows": []}, CapacityError,
     "link 'l1': capacity must be finite"),
    ({"links": [{"id": "l1", "capacity": -2.5}], "flows": []}, CapacityError,
     "link 'l1': capacity must be strictly positive, got -2.5"),
    ({"links": [{"id": "l1", "capacity": 1, "dst": []}], "flows": []}, NetworkFormatError,
     "link 'l1': 'dst' must be a string"),
    ({"links": [_L1], "flows": {}}, NetworkFormatError, "'flows' must be an array"),
    ({"links": [_L1], "flows": [7]}, NetworkFormatError, "each flow must be an object"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l1"], "y": 0}]}, NetworkFormatError,
     "unknown flow fields: ['y']"),
    ({"links": [_L1], "flows": [{"id": 5, "links": ["l1"]}]}, NetworkFormatError,
     "flow requires a string 'id'"),
    ({"links": [_L1], "flows": [{"id": "__probe__", "links": ["l1"]}]}, ReservedIdError,
     "flow id '__probe__' is reserved"),
    ({"links": [_L1], "flows": [_F1, _F1]}, DuplicateIdError, "duplicate flow id 'f1'"),
    ({"links": [_L1], "flows": [{"id": "l1", "links": ["l1"]}]}, DuplicateIdError,
     "flow id 'l1' collides with a link id"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": "l1"}]}, NetworkFormatError,
     "flow 'f1': 'links' must be a non-empty array"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": [1]}]}, NetworkFormatError,
     "flow 'f1': 'links' must contain link ids"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l1", "l1"]}]}, NetworkFormatError,
     "flow 'f1': repeated link in path"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l2"]}]}, UnknownLinkError,
     "flow 'f1' references unknown link 'l2'"),
    # A path that fails the one set test runs the checks above in order.
    ({"links": [_L1], "flows": [{"id": "f1", "links": [["l1"]]}]}, NetworkFormatError,
     "flow 'f1': 'links' must contain link ids"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": [1, "l1", "l1"]}]},
     NetworkFormatError, "flow 'f1': 'links' must contain link ids"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l2", "l1", "l1"]}]},
     NetworkFormatError, "flow 'f1': repeated link in path"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l1", "l2"]}]}, UnknownLinkError,
     "flow 'f1' references unknown link 'l2'"),
    ({"links": [_L1], "flows": [{"id": "f1", "links": ["l2", "l2"], "y": 0}]},
     NetworkFormatError, "unknown flow fields: ['y']"),
    # Bytes that are not UTF-8, and arrays nested past the recursion limit.
    pytest.param(b"\x80{}", NetworkFormatError, "invalid JSON: 'utf-8' codec can't "
                 "decode byte 0x80 in position 0: invalid start byte", id="not-utf8"),
    pytest.param("[" * 200000, NetworkFormatError, "invalid JSON: maximum recursion "
                 "depth exceeded while decoding a JSON array from a unicode string",
                 id="nested-arrays"),
])
def test_parse_error_type_and_message(doc, error, message):
    with pytest.raises(error) as info:
        parse_network(doc)
    assert type(info.value) is error
    assert str(info.value) == message


# -- the interned arrays that parse_network builds ----------------------------

def _library_twin(doc):
    """The network of ``doc`` built through the library, without the parser."""
    links = tuple(
        Link(e["id"], float(e["capacity"]), e.get("src"), e.get("dst"))
        for e in doc["links"]
    )
    flows = tuple(Flow(e["id"], tuple(e["links"])) for e in doc["flows"])
    return Network(links, flows, tuple(doc.get("routers", ())))


def _assert_parse_arrays_match_library(doc):
    parsed = parse_network(json.dumps(doc))
    twin = _library_twin(doc)
    assert parsed._arrays is not None and twin._arrays is None
    assert interned(parsed) == interned(twin)
    assert parsed == twin and hash(parsed) == hash(twin)
    assert repr(parsed) == repr(twin)
    return parsed


def test_parse_arrays_match_library_intern_on_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        _assert_parse_arrays_match_library(json.loads(path.read_text()))


_id_text = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3
).filter(lambda s: s != PROBE_FLOW_ID)


@st.composite
def _documents(draw):
    """Documents whose links and flows come in any order, with escaped and
    non-ASCII ids; some have no flows, some a link no flow uses."""
    ids = draw(st.lists(_id_text, min_size=1, max_size=14, unique=True))
    n_links = draw(st.integers(1, len(ids)))
    link_ids = ids[:n_links]
    links = [{"id": lid, "capacity": draw(st.floats(0.01, 1000.0))} for lid in link_ids]
    flows = [
        {"id": fid, "links": draw(st.lists(st.sampled_from(link_ids), min_size=1,
                                           max_size=4, unique=True))}
        for fid in ids[n_links:]
    ]
    return {"links": draw(st.permutations(links)), "flows": draw(st.permutations(flows))}


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_parse_arrays_match_library_intern_on_random_documents(doc):
    _assert_parse_arrays_match_library(doc)


def test_parse_arrays_match_library_intern_on_edge_documents():
    flowless = {"links": [{"id": "b", "capacity": 2}, {"id": "a", "capacity": 1}],
                "flows": []}
    _assert_parse_arrays_match_library(flowless)
    escaped = {
        "links": [{"id": "z", "capacity": 3}, {"id": "a\"\\", "capacity": 1},
                  {"id": "é", "capacity": 2}, {"id": "idle", "capacity": 9}],
        "flows": [{"id": "☃", "links": ["é", "a\"\\"]},
                  {"id": "f\n", "links": ["z", "é"]},
                  {"id": "A", "links": ["a\"\\"]}],
    }
    parsed = _assert_parse_arrays_match_library(escaped)
    link_ids, flow_ids, _, _, link_flows = interned(parsed)
    assert link_ids == sorted(link_ids) and flow_ids == sorted(flow_ids)
    assert link_flows[link_ids.index("idle")] == []


def test_interned_outer_lists_are_fresh(b4):
    expected = interned(_library_twin(json.loads((FIXTURES / "b4.json").read_text())))
    first = interned(b4)
    first[2][0] = -1.0
    first[3].append([0])
    first[3][1] = [5]
    first[4][0] = []
    for outer in first:
        outer.clear()
    assert interned(b4) == expected


def test_derived_networks_carry_no_arrays(b4):
    lid = b4.links[0].id
    derived = (
        b4.with_flow(Flow("new", (lid,))),
        b4.with_capacity(lid, 3.0),
        b4.with_link(Link("spare", 1.0)),
    )
    for net in derived:
        assert net._arrays is None
        assert interned(net) == interned(Network(net.links, net.flows, net.routers))


def test_parse_fallback_keeps_first_failing_check():
    """Entries the sorted-index lookup rejects by ``KeyError`` or
    ``TypeError`` get the message of the first failing check."""
    cases = [
        ([True], NetworkFormatError, "flow 'f1': 'links' must contain link ids"),
        ([None, "l1"], NetworkFormatError, "flow 'f1': 'links' must contain link ids"),
        ([{"a": 1}], NetworkFormatError, "flow 'f1': 'links' must contain link ids"),
        (["l1", "l9", "l1"], NetworkFormatError, "flow 'f1': repeated link in path"),
        (["l9", "l8"], UnknownLinkError, "flow 'f1' references unknown link 'l9'"),
    ]
    for path, error, message in cases:
        doc = {"links": [_L1], "flows": [{"id": "f0", "links": ["l1"]},
                                         {"id": "f1", "links": path}]}
        with pytest.raises(error) as info:
            parse_network(doc)
        assert type(info.value) is error and str(info.value) == message


# -- Flow records of a parsed network, built on first read --------------------

def test_parsed_flows_are_built_on_first_read():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        net = parse_network(doc)
        assert "flows" not in vars(net)
        gradient_graph(net)
        assert "flows" not in vars(net)  # a solve reads the arrays only
        twin = _library_twin(doc)
        assert net.flows is net.flows and "flows" in vars(net)
        assert net.flows == twin.flows
        assert net == twin and hash(net) == hash(twin) and repr(net) == repr(twin)


def test_parsed_network_copies_and_pickles():
    doc = json.loads((FIXTURES / "b4.json").read_text())
    twin = _library_twin(doc)
    for read_first in (False, True):
        net = parse_network(doc)
        if read_first:
            net.flows
        for clone in (copy.copy(net), copy.deepcopy(net),
                      pickle.loads(pickle.dumps(net))):
            assert clone == twin and hash(clone) == hash(twin)
            assert repr(clone) == repr(twin)
            assert interned(clone) == interned(net)


def test_network_attribute_misses_still_raise():
    parsed = parse_network((FIXTURES / "b4.json").read_bytes())
    library = Network((Link("l", 1.0),), (Flow("f", ("l",)),))
    for net in (parsed, library):
        assert not hasattr(net, "nope")
        with pytest.raises(AttributeError, match="nope"):
            net.nope
    assert "flows" in vars(library)
    assert "flows" in vars(library.with_flow(Flow("g", ("l",))))
    assert "flows" in vars(parsed.with_capacity(parsed.links[0].id, 2.0))


def test_flow_refuses_a_string_path():
    # A string would split into one-letter link ids: "l1" into ("l", "1").
    with pytest.raises(NetworkFormatError, match="^flow 'f': path must be"):
        Flow("f", "l1")


def test_unhashable_path_entry_is_a_format_error():
    links = (Link("l1", 1.0), Link("l2", 1.0))
    net = Network(links, (Flow("e", ("l2",)), Flow("f", (["l1"],)), Flow("g", ({},))))
    with pytest.raises(NetworkFormatError) as info:
        gradient_graph(net)
    assert type(info.value) is NetworkFormatError
    assert str(info.value) == "flow 'f': 'links' must contain link ids"


@pytest.mark.parametrize("build, named", [
    (lambda: Network((Link("a", 1.0), Link(1, 1.0)), ()), "link requires a string 'id', got 1"),
    (lambda: Network((Link("a", 1.0),), (), routers=(1, "a")), "router requires a string 'id', got 1"),
    (lambda: Network((Link(["a"], 1.0),), ()), "link requires a string 'id', got ['a']"),
    (lambda: Network((Link("a", 1.0),), (Flow(3, ("a",)),)), "flow requires a string 'id', got 3"),
    (lambda: Network((Link("a", 1.0),), (Flow(("x",), ("a",)),)),
     "flow requires a string 'id', got ('x',)"),
], ids=["mixed-link-ids", "router", "unhashable-link", "int-flow", "tuple-flow"])
def test_library_network_refuses_a_non_string_id(build, named):
    # Each of these used to fail with a bare TypeError (from the sort, the
    # intern's id set or ``validate``), or, for the flow ids, to solve.
    with pytest.raises(NetworkFormatError) as info:
        build()
    assert type(info.value) is NetworkFormatError
    assert str(info.value) == named

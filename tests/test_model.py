import inspect
import json
import re

import pytest
from hypothesis import given, strategies as st

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
])
def test_parse_error_type_and_message(doc, error, message):
    with pytest.raises(error) as info:
        parse_network(doc)
    assert type(info.value) is error
    assert str(info.value) == message

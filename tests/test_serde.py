"""Unit + property tests for the wire codec."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.ids import FileHandle, GlobalAddress, ManagerId
from repro.serde import clone, dumps, loads, measured_size
from repro.serde.codec import (MAX_DECODE_DEPTH, read_uvarint, write_uvarint,
                               zigzag)


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 127, 128, -128, 2**62, -(2**62),
        2**63 - 1, -(2**63), 2**100, -(2**100), 0.0, -0.0, 1.5, -1.5,
        float("inf"), float("-inf"), 1e-300, "", "ascii", "üñïçödé",
        "line\nbreak", b"", b"\x00\xff" * 10,
    ])
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_nan_roundtrip(self):
        result = loads(dumps(float("nan")))
        assert math.isnan(result)

    def test_bool_is_not_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert not isinstance(loads(dumps(1)), bool)

    def test_big_int_precision(self):
        value = 12345678901234567890123456789012345678901234567890
        assert loads(dumps(value)) == value
        assert loads(dumps(-value)) == -value


class TestContainers:
    @pytest.mark.parametrize("value", [
        [], [1, 2, 3], [1, [2, [3, [4]]]], (), (1, "a"), ((),),
        {}, {"a": 1}, {1: "x", "y": 2}, {(1, 2): [3, 4]},
        set(), {1, 2, 3}, frozenset({1}) and {1},
        [None, True, 1.5, "s", b"b", (1,), {2: 3}, {4}],
    ])
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_list_distinct(self):
        assert loads(dumps((1, 2))) == (1, 2)
        assert loads(dumps([1, 2])) == [1, 2]
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(loads(dumps(value))) == ["z", "a", "m"]

    def test_set_encoding_deterministic(self):
        assert dumps({3, 1, 2}) == dumps({2, 3, 1})


class TestDomainTypes:
    def test_global_address(self):
        addr = GlobalAddress(17, 123456)
        assert loads(dumps(addr)) == addr

    def test_file_handle(self):
        handle = FileHandle(3, 99)
        assert loads(dumps(handle)) == handle

    def test_nested_addresses(self):
        value = {"chain": [GlobalAddress(0, 1), GlobalAddress(2, 3)],
                 "fh": FileHandle(1, 1)}
        assert loads(dumps(value)) == value


class TestErrors:
    def test_unserializable_type_rejected(self):
        with pytest.raises(SerializationError):
            dumps(object())

    def test_function_rejected(self):
        with pytest.raises(SerializationError):
            dumps(lambda: None)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            loads(dumps(1) + b"x")

    def test_truncated_rejected(self):
        data = dumps("hello world")
        with pytest.raises(SerializationError):
            loads(data[:-1])

    def test_empty_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"\x7f")

    def test_bad_utf8_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"S\x02\xff\xfe")


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, pos = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            write_uvarint(bytearray(), -1)

    def test_truncated_varint(self):
        with pytest.raises(SerializationError):
            read_uvarint(b"\x80", 0)


# ---------------------------------------------------------------------------
# property-based round-trips

wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40)
    | st.builds(GlobalAddress,
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**30))
    | st.builds(FileHandle,
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=1000)),
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(wire_values)
def test_roundtrip_property(value):
    assert loads(dumps(value)) == value


@settings(max_examples=100)
@given(wire_values)
def test_encoding_deterministic_property(value):
    assert dumps(value) == dumps(value)


@settings(max_examples=100)
@given(st.integers())
def test_int_roundtrip_property(value):
    assert loads(dumps(value)) == value


# ---------------------------------------------------------------------------
# size accounting, input safety, and robustness against corrupt wire data


class TestMeasuredSize:
    @pytest.mark.parametrize("value", [
        None, True, 0, -1, 127, 128, 2**62, -(2**63), 2**100, -(2**100),
        1.5, float("nan"), "", "ascii", "üñïçödé", b"", b"\x00" * 200,
        [], [1, [2, [3]]], (1, "a"), {}, {"k": [1.5, None]},
        {(1, 2): b"x"}, set(), {1, "a", 2.5},
        GlobalAddress(17, 123456), FileHandle(3, 99),
        {"key": [1, 2, 3], "other": "text"},
    ])
    def test_matches_dumps(self, value):
        assert measured_size(value) == len(dumps(value))

    def test_rejects_like_dumps(self):
        with pytest.raises(SerializationError):
            measured_size(object())

    @settings(max_examples=200)
    @given(wire_values)
    def test_matches_dumps_property(self, value):
        assert measured_size(value) == len(dumps(value))


class TestInputSafety:
    def test_zigzag_out_of_range_raises(self):
        # a silent wrong value here would corrupt wire sizes undetected
        with pytest.raises(SerializationError):
            zigzag(2**63)
        with pytest.raises(SerializationError):
            zigzag(-(2**63) - 1)
        assert zigzag(2**63 - 1) == (2**64 - 2)
        assert zigzag(-(2**63)) == (2**64 - 1)

    def test_decode_depth_guard(self):
        # deeper than MAX_DECODE_DEPTH must fail with SerializationError,
        # not blow the interpreter's recursion limit
        data = dumps("leaf")
        for _ in range(MAX_DECODE_DEPTH + 10):
            data = b"L\x01" + data  # list-of-one wrapper
        with pytest.raises(SerializationError):
            loads(data)

    def test_within_depth_limit_roundtrips(self):
        value = "leaf"
        for _ in range(MAX_DECODE_DEPTH - 2):
            value = [value]
        assert loads(dumps(value)) == value

    def test_loads_accepts_memoryview_and_bytearray(self):
        value = {"nested": [1, 2.5, "s", b"b", (None, True)]}
        data = dumps(value)
        assert loads(memoryview(data)) == value
        assert loads(bytearray(data)) == value
        # a sliced view too (zero-copy framing path)
        padded = b"xx" + data + b"yy"
        assert loads(memoryview(padded)[2:-2]) == value


@settings(max_examples=150)
@given(wire_values)
def test_truncation_never_escapes_serialization_error(value):
    """Every strict prefix of a valid encoding must raise SerializationError
    — never IndexError/struct.error/RecursionError or a silent value."""
    data = dumps(value)
    for cut in range(len(data)):
        with pytest.raises(SerializationError):
            loads(data[:cut])


@settings(max_examples=150)
@given(wire_values, st.data())
def test_corruption_is_contained(value, data_strategy):
    """Flipping one byte either still decodes (to something) or raises
    SerializationError; no other exception type may escape."""
    data = bytearray(dumps(value))
    index = data_strategy.draw(
        st.integers(min_value=0, max_value=len(data) - 1))
    flip = data_strategy.draw(st.integers(min_value=1, max_value=255))
    data[index] ^= flip
    try:
        loads(bytes(data))
    except SerializationError:
        pass


# ---------------------------------------------------------------------------
# clone: the sim network's stand-in for loads(dumps(x))

hashable_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.binary(max_size=8)
    | st.builds(GlobalAddress, st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**30))
    | st.builds(FileHandle, st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=1000)))
hashable_values = st.recursive(
    hashable_leaves, lambda children: st.tuples(children, children),
    max_leaves=6)

clone_values = st.recursive(
    hashable_leaves
    | st.binary(max_size=8).map(bytearray)
    | st.binary(max_size=8).map(memoryview)
    | st.sets(hashable_values, max_size=6)
    | st.frozensets(hashable_values, max_size=6),
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(hashable_values, children, max_size=4)
    ),
    max_leaves=25,
)


def assert_same_tree(got, want):
    """Equal values of identical types all the way down, with dicts and
    sets iterating in the same order."""
    assert type(got) is type(want)
    if type(want) in (list, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_tree(g, w)
    elif type(want) is dict:
        assert len(got) == len(want)
        for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
            assert_same_tree(gk, wk)
            assert_same_tree(gv, wv)
    elif type(want) is set:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_tree(g, w)
    else:
        assert got == want


def containers(value):
    """Every list, dict, set and tuple inside ``value`` (``value`` too)."""
    if type(value) in (list, tuple, set, frozenset):
        yield value
        for item in value:
            yield from containers(item)
    elif type(value) is dict:
        yield value
        for key, val in value.items():
            yield from containers(key)
            yield from containers(val)


def nested(depth):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


class TestClone:
    @settings(max_examples=300)
    @given(clone_values)
    def test_equals_round_trip_with_identical_types(self, value):
        assert_same_tree(clone(value), loads(dumps(value)))

    @settings(max_examples=200)
    @given(st.sets(hashable_values, max_size=20))
    def test_set_iterates_like_the_decoded_set(self, value):
        assert list(clone(value)) == list(loads(dumps(value)))

    def test_maps_types_as_loads_does(self):
        value = [frozenset({3, 1, 2}), bytearray(b"ab"), memoryview(b"cd")]
        result = clone(value)
        assert [type(x) for x in result] == [set, bytes, bytes]
        assert_same_tree(result, loads(dumps(value)))

    def test_shares_immutable_leaves(self):
        leaves = ["text", b"raw", 2**100, 1.5, GlobalAddress(1, 2),
                  FileHandle(3, 4)]
        assert all(a is b for a, b in zip(clone(leaves), leaves))

    @settings(max_examples=200)
    @given(clone_values)
    def test_mutating_the_clone_never_touches_the_original(self, value):
        before = dumps(value)
        copy = clone(value)
        originals = {id(c) for c in containers(value)}
        # the empty tuple is one interpreter-wide object
        assert not [c for c in containers(copy)
                    if id(c) in originals and c != ()]
        for c in containers(copy):
            if type(c) is list:
                c.append("mutated")
            elif type(c) is dict:
                c["mutated"] = 1
            elif type(c) is set:
                c.add("mutated")
        assert dumps(value) == before

    @pytest.mark.parametrize("depth", [MAX_DECODE_DEPTH - 1,
                                       MAX_DECODE_DEPTH,
                                       MAX_DECODE_DEPTH + 1,
                                       MAX_DECODE_DEPTH + 10])
    def test_depth_limit_matches_loads(self, depth):
        value = nested(depth)
        try:
            expected = loads(dumps(value))
        except SerializationError:
            with pytest.raises(SerializationError):
                clone(value)
        else:
            assert clone(value) == expected

    def test_every_container_kind_counts_toward_the_limit(self):
        value = {"k": ({"k": nested(MAX_DECODE_DEPTH - 3)},)}
        assert clone(value) == loads(dumps(value))
        value = {"k": ({"k": [nested(MAX_DECODE_DEPTH - 3)]},)}
        with pytest.raises(SerializationError):
            loads(dumps(value))
        with pytest.raises(SerializationError):
            clone(value)

    @pytest.mark.parametrize("value", [
        object(), [1, object()], {"k": lambda: None}, {1.5j},
        (ManagerId.SITE,),  # an int subclass: the codec wants exact types
    ])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(SerializationError):
            dumps(value)
        with pytest.raises(SerializationError):
            clone(value)

    @pytest.mark.parametrize("value", [
        {frozenset({1}): "key decodes to an unhashable set"},
        {(1, frozenset({2})): "so does a tuple key holding one"},
        {frozenset({1})},
    ])
    def test_unhashable_after_round_trip_raises_like_loads(self, value):
        data = dumps(value)
        with pytest.raises(SerializationError):
            loads(data)
        with pytest.raises(SerializationError):
            clone(value)

"""A compact self-describing binary codec for SDVM payloads.

Design goals:

* **Deterministic**: the same value always encodes to the same bytes
  (dict keys are *not* reordered — insertion order is preserved — so manager
  protocols that hash or compare encodings behave predictably).
* **Closed type set**: only the types managers and microthreads legitimately
  exchange are supported; anything else raises
  :class:`~repro.common.errors.SerializationError` instead of silently
  pickling arbitrary objects (a security consideration the paper's security
  manager motivates).
* **Compact**: varint/zigzag integers, small-value fast paths, length-
  prefixed containers.  Message sizes feed the simulated bandwidth model, so
  compactness directly shapes benchmark numbers, as it did on the paper's
  LAN.
* **Fast**: the codec sits on the sim kernel's hottest path (every remote
  message encodes through it for its exact size), so tag bytes are
  precomputed ints, single-byte varints are inlined, :func:`measured_size`
  computes an encoding's size without materializing bytes, and
  :func:`loads` accepts ``memoryview``/``bytearray`` without copying the
  buffer.  Sender and receiver of a sim message share one process, so the
  sim network hands the receiver a :func:`clone` — the value ``loads``
  would rebuild, at a fraction of the cost — and decodes bytes only where
  they are all that arrives (chaos duplicates and corruption, heir
  forwarding).  The live kernel decodes everything it receives.

Wire grammar (one byte tag, then payload):

====  =======================================================
tag   payload
====  =======================================================
N     none
T/F   true / false
I     zigzag varint
J     big int: varint byte-length + sign byte + magnitude LE
D     float64 big-endian
S     varint length + utf-8 bytes
B     varint length + raw bytes
L     varint count + items            (list)
U     varint count + items            (tuple)
M     varint count + key/value pairs  (dict)
E     varint count + items            (set)
A     packed GlobalAddress varint
H     FileHandle: two varints
====  =======================================================
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple, Union

from repro.common.errors import SerializationError
from repro.common.ids import FileHandle, GlobalAddress

_FLOAT = struct.Struct(">d")

# precomputed wire tags: byte values for the decoder's comparisons, and
# 1-byte `bytes` objects the encoder appends (bytearray += bytes is C-level)
_TAG_NONE = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("I")
_TAG_BIGINT = ord("J")
_TAG_FLOAT = ord("D")
_TAG_STR = ord("S")
_TAG_BYTES = ord("B")
_TAG_LIST = ord("L")
_TAG_TUPLE = ord("U")
_TAG_DICT = ord("M")
_TAG_SET = ord("E")
_TAG_ADDR = ord("A")
_TAG_HANDLE = ord("H")

#: decoder recursion ceiling — a hostile deeply-nested payload must surface
#: as :class:`SerializationError` (which the message manager drops cleanly),
#: not as ``RecursionError`` unwinding through the whole kernel stack
MAX_DECODE_DEPTH = 128

# ---------------------------------------------------------------------------
# varint primitives


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if pos >= length:
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def uvarint_size(value: int) -> int:
    """Encoded length in bytes of ``value`` as an unsigned varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


def zigzag(value: int) -> int:
    """Map a signed 64-bit int onto an unsigned one (small |x| -> small)."""
    if not _MIN_SMALL_INT <= value <= _MAX_SMALL_INT:
        raise SerializationError(
            f"zigzag is defined for 64-bit signed ints, got {value}")
    return (value << 1) ^ (value >> 63)


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ---------------------------------------------------------------------------
# encoding

_MAX_SMALL_INT = (1 << 63) - 1
_MIN_SMALL_INT = -(1 << 63)


def _encode(out: bytearray, value: Any) -> None:
    # Exact-type dispatch: bool is an int subclass, so check it first.
    t = type(value)
    if value is None:
        out.append(_TAG_NONE)
    elif t is bool:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif t is int:
        if _MIN_SMALL_INT <= value <= _MAX_SMALL_INT:
            out.append(_TAG_INT)
            zz = (((value << 1) ^ (value >> 63)) & ((1 << 70) - 1)
                  if value < 0 else value << 1)
            if zz < 0x80:
                out.append(zz)
            else:
                write_uvarint(out, zz)
        else:
            out.append(_TAG_BIGINT)
            sign = 1 if value < 0 else 0
            mag_int = -value if sign else value
            mag = mag_int.to_bytes((mag_int.bit_length() + 7) // 8, "little")
            write_uvarint(out, len(mag))
            out.append(sign)
            out += mag
    elif t is float:
        out.append(_TAG_FLOAT)
        out += _FLOAT.pack(value)
    elif t is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            write_uvarint(out, length)
        out += raw
    elif t is bytes or t is bytearray or t is memoryview:
        raw = bytes(value)
        out.append(_TAG_BYTES)
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            write_uvarint(out, length)
        out += raw
    elif t is list or t is tuple:
        out.append(_TAG_LIST if t is list else _TAG_TUPLE)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            write_uvarint(out, count)
        # container items are overwhelmingly small ints, strings, and
        # floats; duplicating those branches here (and in the dict loop
        # below) saves a recursive call per leaf on the sim's hottest path
        for item in value:
            ti = type(item)
            if ti is int and _MIN_SMALL_INT <= item <= _MAX_SMALL_INT:
                out.append(_TAG_INT)
                zz = (((item << 1) ^ (item >> 63)) & ((1 << 70) - 1)
                      if item < 0 else item << 1)
                if zz < 0x80:
                    out.append(zz)
                else:
                    write_uvarint(out, zz)
            elif ti is str:
                raw = item.encode("utf-8")
                out.append(_TAG_STR)
                length = len(raw)
                if length < 0x80:
                    out.append(length)
                else:
                    write_uvarint(out, length)
                out += raw
            elif ti is float:
                out.append(_TAG_FLOAT)
                out += _FLOAT.pack(item)
            elif ti is bytes:
                out.append(_TAG_BYTES)
                length = len(item)
                if length < 0x80:
                    out.append(length)
                else:
                    write_uvarint(out, length)
                out += item
            else:
                _encode(out, item)
    elif t is dict:
        out.append(_TAG_DICT)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            write_uvarint(out, count)
        for key, val in value.items():
            if type(key) is str:
                raw = key.encode("utf-8")
                out.append(_TAG_STR)
                length = len(raw)
                if length < 0x80:
                    out.append(length)
                else:
                    write_uvarint(out, length)
                out += raw
            else:
                _encode(out, key)
            tv = type(val)
            if tv is int and _MIN_SMALL_INT <= val <= _MAX_SMALL_INT:
                out.append(_TAG_INT)
                zz = (((val << 1) ^ (val >> 63)) & ((1 << 70) - 1)
                      if val < 0 else val << 1)
                if zz < 0x80:
                    out.append(zz)
                else:
                    write_uvarint(out, zz)
            elif tv is float:
                out.append(_TAG_FLOAT)
                out += _FLOAT.pack(val)
            else:
                _encode(out, val)
    elif t is set or t is frozenset:
        out.append(_TAG_SET)
        write_uvarint(out, len(value))
        # canonical order so encodings are deterministic
        for item in sorted(value, key=_set_sort_key):
            _encode(out, item)
    elif t is GlobalAddress:
        out.append(_TAG_ADDR)
        write_uvarint(out, value.pack())
    elif t is FileHandle:
        out.append(_TAG_HANDLE)
        write_uvarint(out, value.site)
        write_uvarint(out, value.local)
    else:
        raise SerializationError(
            f"type {t.__name__!r} is not serializable on the SDVM wire")


def _set_sort_key(item: Any) -> Tuple[str, Any]:
    return (type(item).__name__, repr(item))


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to bytes."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def measured_size(value: Any) -> int:
    """Exact size in bytes of ``dumps(value)`` — without building the bytes.

    Sizes drive the simulated bandwidth/CPU cost models, so they are asked
    for far more often than actual encodings are sent; this walks the value
    and sums field widths instead of materializing (and discarding) the
    whole byte string.  Invariant: ``measured_size(x) == len(dumps(x))``
    for every encodable ``x``, and the same :class:`SerializationError` is
    raised for anything unencodable.
    """
    t = type(value)
    if value is None or t is bool:
        return 1
    if t is int:
        if _MIN_SMALL_INT <= value <= _MAX_SMALL_INT:
            zz = (((value << 1) ^ (value >> 63)) & ((1 << 70) - 1)
                  if value < 0 else value << 1)
            return 1 + (1 if zz < 0x80 else (zz.bit_length() + 6) // 7)
        mag_int = -value if value < 0 else value
        mag_len = (mag_int.bit_length() + 7) // 8
        return 2 + uvarint_size(mag_len) + mag_len
    if t is float:
        return 9
    if t is str:
        raw_len = len(value) if value.isascii() else len(value.encode("utf-8"))
        return 1 + uvarint_size(raw_len) + raw_len
    if t is bytes or t is bytearray or t is memoryview:
        raw_len = len(value)
        return 1 + uvarint_size(raw_len) + raw_len
    if t is list or t is tuple:
        total = 1 + uvarint_size(len(value))
        for item in value:
            total += measured_size(item)
        return total
    if t is dict:
        total = 1 + uvarint_size(len(value))
        for key, val in value.items():
            total += measured_size(key) + measured_size(val)
        return total
    if t is set or t is frozenset:
        # size is order-independent: no need to sort like the encoder does
        total = 1 + uvarint_size(len(value))
        for item in value:
            total += measured_size(item)
        return total
    if t is GlobalAddress:
        return 1 + uvarint_size(value.pack())
    if t is FileHandle:
        return 1 + uvarint_size(value.site) + uvarint_size(value.local)
    raise SerializationError(
        f"type {t.__name__!r} is not serializable on the SDVM wire")


# ---------------------------------------------------------------------------
# decoding

_Buffer = Union[bytes, memoryview]


def _decode(data: _Buffer, pos: int, depth: int = 0) -> Tuple[Any, int]:
    size = len(data)
    if pos >= size:
        raise SerializationError("truncated value")
    tag = data[pos]
    pos += 1
    # scalars first, hottest (I/S) leading; containers recurse with a depth
    # guard so hostile nesting raises SerializationError, not RecursionError
    if tag == _TAG_INT:
        if pos >= size:
            raise SerializationError("truncated varint")
        raw = data[pos]
        if raw < 0x80:
            pos += 1
        else:
            raw, pos = read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _TAG_STR:
        if pos >= size:
            raise SerializationError("truncated varint")
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = read_uvarint(data, pos)
        if pos + length > size:
            raise SerializationError("truncated string")
        try:
            chunk = data[pos:pos + length]
            text = (chunk.decode("utf-8") if type(chunk) is bytes
                    else str(chunk, "utf-8"))
            return text, pos + length
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid utf-8 on wire: {exc}") from exc
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        if depth >= MAX_DECODE_DEPTH:
            raise SerializationError(
                f"payload nested deeper than {MAX_DECODE_DEPTH}")
        if pos >= size:
            raise SerializationError("truncated varint")
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = read_uvarint(data, pos)
        items: List[Any] = []
        append = items.append
        child_depth = depth + 1
        # leaf ints/floats are inlined (mirroring the encoder): one
        # recursive call per *container*, not per element, on the hottest
        # message shapes
        for _ in range(count):
            leaf = data[pos] if pos < size else -1
            if leaf == _TAG_INT:
                ipos = pos + 1
                if ipos >= size:
                    raise SerializationError("truncated varint")
                raw = data[ipos]
                if raw < 0x80:
                    pos = ipos + 1
                else:
                    raw, pos = read_uvarint(data, ipos)
                append((raw >> 1) ^ -(raw & 1))
            elif leaf == _TAG_FLOAT:
                if pos + 9 > size:
                    raise SerializationError("truncated float")
                append(_FLOAT.unpack_from(data, pos + 1)[0])
                pos += 9
            else:
                item, pos = _decode(data, pos, child_depth)
                append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_DICT:
        if depth >= MAX_DECODE_DEPTH:
            raise SerializationError(
                f"payload nested deeper than {MAX_DECODE_DEPTH}")
        if pos >= size:
            raise SerializationError("truncated varint")
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = read_uvarint(data, pos)
        result: Dict[Any, Any] = {}
        child_depth = depth + 1
        # try/except is free unless it fires: a corrupt stream can decode
        # an unhashable key (e.g. a list), which must surface as
        # SerializationError, not TypeError
        try:
            for _ in range(count):
                key, pos = _decode(data, pos, child_depth)
                if pos < size and data[pos] == _TAG_INT:
                    ipos = pos + 1
                    if ipos >= size:
                        raise SerializationError("truncated varint")
                    raw = data[ipos]
                    if raw < 0x80:
                        pos = ipos + 1
                    else:
                        raw, pos = read_uvarint(data, ipos)
                    result[key] = (raw >> 1) ^ -(raw & 1)
                else:
                    val, pos = _decode(data, pos, child_depth)
                    result[key] = val
        except TypeError as exc:
            raise SerializationError(
                f"unhashable dict key on wire: {exc}") from exc
        return result, pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_FLOAT:
        if pos + 8 > size:
            raise SerializationError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_BYTES:
        length, pos = read_uvarint(data, pos)
        if pos + length > size:
            raise SerializationError("truncated bytes")
        chunk = data[pos:pos + length]
        return (chunk if type(chunk) is bytes else bytes(chunk)), pos + length
    if tag == _TAG_SET:
        if depth >= MAX_DECODE_DEPTH:
            raise SerializationError(
                f"payload nested deeper than {MAX_DECODE_DEPTH}")
        count, pos = read_uvarint(data, pos)
        out = set()
        child_depth = depth + 1
        try:
            for _ in range(count):
                item, pos = _decode(data, pos, child_depth)
                out.add(item)
        except TypeError as exc:
            raise SerializationError(
                f"unhashable set element on wire: {exc}") from exc
        return out, pos
    if tag == _TAG_ADDR:
        raw, pos = read_uvarint(data, pos)
        return GlobalAddress.unpack(raw), pos
    if tag == _TAG_HANDLE:
        site, pos = read_uvarint(data, pos)
        local, pos = read_uvarint(data, pos)
        return FileHandle(site, local), pos
    if tag == _TAG_BIGINT:
        length, pos = read_uvarint(data, pos)
        if pos + 1 + length > size:
            raise SerializationError("truncated big int")
        sign = data[pos]
        pos += 1
        mag = int.from_bytes(data[pos:pos + length], "little")
        return (-mag if sign else mag), pos + length
    raise SerializationError(f"unknown wire tag 0x{tag:02x}")


def loads(data: _Buffer) -> Any:
    """Deserialize a value previously produced by :func:`dumps`.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` — the latter two are
    read through a zero-copy view, so decoding a slice of a larger receive
    buffer never duplicates it.  Trailing garbage is an error — a frame must
    contain exactly one value.
    """
    if type(data) is not bytes:
        data = memoryview(data)
    value, pos = _decode(data, 0)
    if pos != len(data):
        raise SerializationError(
            f"{len(data) - pos} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# cloning

#: leaf types ``loads`` rebuilds as an equal, immutable value of the same
#: type — a clone shares them with the original instead of copying
_SHARED = frozenset((type(None), bool, int, float, str, bytes,
                     GlobalAddress, FileHandle))


def _clone(value: Any, depth: int) -> Any:
    t = type(value)
    if t in _SHARED:
        return value
    if t is bytearray or t is memoryview:
        return bytes(value)
    if depth >= MAX_DECODE_DEPTH:
        raise SerializationError(
            f"payload nested deeper than {MAX_DECODE_DEPTH}")
    child_depth = depth + 1
    if t is list or t is tuple:
        items = [item if type(item) in _SHARED else _clone(item, child_depth)
                 for item in value]
        return items if t is list else tuple(items)
    if t is dict:
        # a frozenset key comes back as an unhashable set, as from loads
        try:
            return {
                (key if type(key) in _SHARED else _clone(key, child_depth)):
                (val if type(val) in _SHARED else _clone(val, child_depth))
                for key, val in value.items()}
        except TypeError as exc:
            raise SerializationError(
                f"unhashable dict key on wire: {exc}") from exc
    if t is set or t is frozenset:
        # inserted in the encoder's canonical order, so the clone iterates
        # exactly like the set loads would rebuild
        out = set()
        try:
            for item in sorted(value, key=_set_sort_key):
                out.add(_clone(item, child_depth))
        except TypeError as exc:
            raise SerializationError(
                f"unhashable set element on wire: {exc}") from exc
        return out
    raise SerializationError(
        f"type {t.__name__!r} is not serializable on the SDVM wire")


def clone(value: Any) -> Any:
    """A private copy of ``value`` equal to ``loads(dumps(value))``.

    Same types all the way down: every list, tuple, dict and set is
    rebuilt, ``frozenset`` becomes ``set`` and ``bytearray``/``memoryview``
    become ``bytes``, while immutable leaves (``None``, ``bool``, ``int``,
    ``float``, ``str``, ``bytes``, :class:`GlobalAddress`,
    :class:`FileHandle`) are shared.  Raises :class:`SerializationError`
    wherever the round trip would: an unsupported type, nesting deeper than
    :data:`MAX_DECODE_DEPTH`, or a key or set element that the round trip
    leaves unhashable.  Costs a fraction of the round trip, which is why
    the sim network delivers a clone instead of decoding.
    """
    return _clone(value, 0)

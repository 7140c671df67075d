"""Message size accounting for the communication cost model.

The paper reports communication in MB (Table 1) and message counts
(Section 3). We charge each value shipped between workers a byte size that
approximates a compact binary wire encoding (what MPICH2 would move), not
Python object overhead: 8 bytes per number, UTF-8 length for strings, and
recursive totals for containers. This keeps relative communication volumes
meaningful across engines.
"""

from __future__ import annotations

from array import array as _array

_NUMERIC_BYTES = 8
_BOOL_BYTES = 1

#: Exact-type fast path for the scalars that dominate real payloads.
#: bool precedes int in the isinstance chain below, so the table must
#: key on exact types only — subclasses fall through to the slow path.
_SCALAR_SIZES = {
    type(None): 1,
    bool: _BOOL_BYTES,
    int: _NUMERIC_BYTES,
    float: _NUMERIC_BYTES,
}


def value_size(value: object) -> int:
    """Approximate wire size of one value in bytes."""
    size = _SCALAR_SIZES.get(type(value))
    if size is not None:
        return size
    return _value_size_slow(value)


def _iter_size(items) -> int:
    scalars = _SCALAR_SIZES
    total = 0
    for item in items:
        s = scalars.get(type(item))
        total += s if s is not None else _value_size_slow(item)
    return total


def _dict_size(value: dict) -> int:
    scalars = _SCALAR_SIZES
    total = 0
    for k, v in value.items():
        ks = scalars.get(type(k))
        total += ks if ks is not None else _value_size_slow(k)
        vs = scalars.get(type(v))
        total += vs if vs is not None else _value_size_slow(v)
    return total


def _buffer_size(typecode: str, count: int, nbytes: int) -> int:
    # Typed buffers carry their element kind, so they can be charged
    # exactly in O(1): raw byte buffers cost their length (like bytes),
    # numeric buffers cost 8 bytes per element (like a list of numbers —
    # the CSR stores ship adjacency/weight columns as array('q')/('d')).
    if typecode in ("b", "B", "c"):
        return nbytes
    if typecode in ("h", "H", "i", "I", "l", "L", "q", "Q", "f", "d"):
        return count * _NUMERIC_BYTES
    return nbytes


def _value_size_slow(value: object) -> int:
    # Exact-type dispatch first (the hot shapes); isinstance fallbacks
    # below keep subclasses charged exactly as before.
    t = type(value)
    if t is tuple or t is list or t is set or t is frozenset:
        return _iter_size(value)
    if t is dict:
        return _dict_size(value)
    if t is str:
        return len(value.encode("utf-8"))
    if t is _array or isinstance(value, _array):
        return _buffer_size(value.typecode, len(value), len(value) * value.itemsize)
    if t is memoryview:
        itemsize = value.itemsize or 1
        return _buffer_size(value.format, value.nbytes // itemsize, value.nbytes)
    if isinstance(value, bool):
        return _BOOL_BYTES
    if isinstance(value, (int, float)):
        return _NUMERIC_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return _dict_size(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return _iter_size(value)
    # Dataclass-like objects: charge their public attributes.
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return sum(
            value_size(v) for k, v in attrs.items() if not k.startswith("_")
        )
    return _NUMERIC_BYTES


def message_size(payload: object) -> int:
    """Wire size of a message payload plus a fixed per-message header."""
    return 16 + value_size(payload)

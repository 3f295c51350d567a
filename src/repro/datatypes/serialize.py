"""Wire encoding of flattened datatypes.

Section 5.3's central trade: the new implementation sends each
aggregator the client's *flattened filetype* (D offset/length pairs plus
a small header) instead of the pre-intersected per-aggregator request
lists (m_i pairs, summing to M).  These helpers produce the byte-exact
payloads so the network cost model charges real message sizes, and
reconstruct the type on the receiving side.
"""

from __future__ import annotations

import struct as _struct

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.flatten import FlatType

__all__ = ["encode_flat", "decode_flat", "wire_size", "PAIR_BYTES", "HEADER_BYTES"]

#: Bytes per offset/length pair on the wire (two int64s).
PAIR_BYTES = 16
#: Fixed header: magic, extent, segment count (int64 each).
HEADER_BYTES = 24

_MAGIC = 0x464C4154  # "FLAT"


def wire_size(flat: FlatType) -> int:
    """Encoded size in bytes (what the network is charged)."""
    return HEADER_BYTES + PAIR_BYTES * flat.num_segments


def encode_flat(flat: FlatType) -> bytes:
    """Serialize a flattened datatype to bytes."""
    header = _struct.pack("<qqq", _MAGIC, flat.extent, flat.num_segments)
    body = np.stack([flat.offsets, flat.lengths], axis=1).astype("<i8").tobytes()
    return header + body


def decode_flat(payload: bytes) -> FlatType:
    """Reconstruct a flattened datatype from :func:`encode_flat` output."""
    if len(payload) < HEADER_BYTES:
        raise DatatypeError("flattened-datatype payload too short")
    magic, extent, count = _struct.unpack_from("<qqq", payload, 0)
    if magic != _MAGIC:
        raise DatatypeError("flattened-datatype payload has a bad magic number")
    expected = HEADER_BYTES + PAIR_BYTES * count
    if len(payload) != expected:
        raise DatatypeError(
            f"flattened-datatype payload has {len(payload)} bytes, expected {expected}"
        )
    body = np.frombuffer(payload, dtype="<i8", offset=HEADER_BYTES).reshape(count, 2)
    # encode_flat ships a FlatType's own pairs, canonical already: no
    # coalescing pass (a non-positive length is still refused).
    return FlatType.canonical(
        body[:, 0].astype(np.int64), body[:, 1].astype(np.int64), int(extent)
    )

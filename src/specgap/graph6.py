"""Codec for the graph6 text format.

graph6 is the line-oriented ASCII format used by the standard small-graph
collections: a length field N(m) followed by the strict upper triangle of
the adjacency matrix, column-major, packed 6 bits per printable byte
(offset 63).  Orders up to 258047 are supported here (1- and 4-byte length
fields); the 8-byte form is rejected.
"""

from __future__ import annotations

from .graphs import Graph, pair_count

HEADER = ">>graph6<<"

_MAX_ORDER = 258047

_HEADER = HEADER.encode()
_VALID = bytes(range(63, 127))
# every 6-bit chunk value with its bits reversed: graph6 puts the first pair
# of a chunk in its high bit, the edge bitset puts it in the low bit
_REVERSED = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class InvalidCharError(Graph6Error):
    """A byte outside the printable graph6 range 63..126."""


class TruncatedPayloadError(Graph6Error):
    """Fewer payload bytes than the order requires."""


class NonzeroPaddingError(Graph6Error):
    """Padding bits beyond the last vertex pair were set."""


def decode(line: str | bytes) -> Graph:
    """Parse one graph6 line (optional ``>>graph6<<`` header allowed)."""
    if isinstance(line, str):
        # non-ASCII text becomes bytes above 127, which the range check rejects
        data = line.encode("utf-8", "surrogatepass")
    else:
        data = bytes(line)
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string")
    bad = data.translate(None, _VALID)
    if bad:
        raise InvalidCharError(f"byte {bad[0]} outside graph6 range 63..126")

    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("orders above 258047 are not supported")
        if len(data) < 4:
            raise TruncatedPayloadError("long order field needs 4 bytes")
        # data[1] <= 125, so order <= 62*4096 + 63*64 + 63 = _MAX_ORDER
        order = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        payload = data[4:]
    else:
        order = data[0] - 63
        payload = data[1:]
    if order < 1:
        raise Graph6Error("graph order must be at least 1")

    n_bits = pair_count(order)
    n_bytes = (n_bits + 5) // 6
    if len(payload) < n_bytes:
        raise TruncatedPayloadError(
            f"order {order} needs {n_bytes} payload bytes, got {len(payload)}"
        )
    if len(payload) > n_bytes:
        raise Graph6Error("trailing bytes after graph6 payload")

    bits = 0
    for byte in reversed(payload):
        bits = bits << 6 | _REVERSED[byte - 63]
    if bits >> n_bits:
        raise NonzeroPaddingError("set bit in graph6 padding")
    return Graph(order, bits)


def encode(g: Graph) -> str:
    """Serialize a graph to its canonical graph6 line (no trailing newline)."""
    m = g.order
    if m > _MAX_ORDER:
        raise Graph6Error(f"order {m} above supported maximum {_MAX_ORDER}")
    if m <= 62:
        head = bytes([m + 63])
    else:
        head = bytes([126, ((m >> 12) & 63) + 63, ((m >> 6) & 63) + 63, (m & 63) + 63])

    # pair p is bit p of the bitset and the (p % 6)-th bit from the top of
    # payload byte p // 6: the reversed binary string reads the pairs in
    # payload order
    width = 6 * ((pair_count(m) + 5) // 6)
    pairs = format(g.bits, "b")[::-1] if g.bits else ""
    pairs = pairs.ljust(width, "0")
    payload = bytes(int(pairs[i:i + 6], 2) + 63 for i in range(0, width, 6))
    return (head + payload).decode("ascii")

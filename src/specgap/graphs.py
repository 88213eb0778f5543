"""Simple undirected graphs stored as upper-triangle edge bitsets.

A graph on ``order`` vertices keeps its edges in a single Python integer:
bit ``pair_index(i, j)`` is set iff the edge {i, j} is present.  Pairs are
numbered column-major over the strict upper triangle, i.e. (0,1), (0,2),
(1,2), (0,3), ..., which makes the bitset order-compatible with the graph6
serialization and lets a vertex-relabeling act as a pure bit permutation.
from_edges is the one edge-list builder: relabel and the named families
hand it their edges, and it builds the bitset in one pass.

A batch of same-order graphs travels as its order and its pair-bit
matrix, one 0/1 row per graph in bitset order: graph6.decode_block builds
it from file lines, _pair_bits from a list of graphs (the one check that
such a list is non-empty and of one order).  Every array of a batch is
built from its pair bits here: adjacency stacks, and the (n, m) neighbor
masks of _neighbors, one per graph and vertex in the narrowest unsigned
word that holds m bits (uint8 up to 8 vertices, then uint16, uint32 and
uint64; beyond 64, Python ints, each its packed adjacency row), which
census ingestion, extension and verify all read.  The structure tests run
on those masks, each step over the whole batch (_connected_rows,
_bipartite_rows, _multipartite_rows).  Every per-graph structure call
(Graph.edges, neighbor_masks and degrees, is_connected, bipartition and
detect_complete_multipartite) is the one-graph case of these arrays.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InvalidParamsError(ValueError):
    """A graph family was asked for parameters it does not admit."""


def pair_count(order: int) -> int:
    """Number of vertex pairs (= payload bits) for a graph of this order."""
    return order * (order - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Bit position of the unordered pair {i, j}, column-major upper triangle."""
    if i == j:
        raise ValueError("self-loops have no pair index")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph: vertex count plus edge bitset."""

    order: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("graph order must be at least 1")
        if self.bits < 0 or self.bits.bit_length() > pair_count(self.order):
            raise ValueError("edge bitset has bits outside the upper triangle")

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.bits >> pair_index(i, j)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges (i, j), i < j, in bitset order: the batch's set pair columns."""
        m, bits = _pair_bits([self])
        ju, iu = _pairs(m)
        cols = np.flatnonzero(bits[0])
        return list(zip(iu[cols].tolist(), ju[cols].tolist()))

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks: the one-graph case of _neighbors."""
        return _neighbors(*_pair_bits([self]))[0].tolist()

    def degrees(self) -> list[int]:
        return [mask.bit_count() for mask in self.neighbor_masks()]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64)."""
        return _adjacency(*_pair_bits([self]))[0]

    def complement(self) -> "Graph":
        return Graph(self.order, ~self.bits & ((1 << pair_count(self.order)) - 1))


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph of this order with these edges, in either orientation and
    repeats allowed, built in one pass: each edge sets its pair's bit in a
    byte buffer that grows only to the highest pair set, and the buffer
    becomes the bitset once."""
    buf = bytearray()
    for i, j in edges:
        if not (0 <= i < order and 0 <= j < order):
            raise ValueError(f"edge ({i}, {j}) out of range for order {order}")
        p = pair_index(i, j)
        if p >> 3 >= len(buf):
            buf.extend(bytes((p >> 3) + 1 - len(buf)))
        buf[p >> 3] |= 1 << (p & 7)
    return Graph(order, int.from_bytes(buf, "little"))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex relabeling i -> perm[i], built by
    from_edges."""
    if sorted(perm) != list(range(g.order)):
        raise ValueError("perm must be a permutation of range(order)")
    return from_edges(g.order, ((perm[i], perm[j]) for i, j in g.edges()))


# ---------------------------------------------------------------------------
# named families

def complete(m: int) -> Graph:
    if m < 1:
        raise InvalidParamsError("complete graph needs at least one vertex")
    return Graph(m, (1 << pair_count(m)) - 1)


def path(m: int) -> Graph:
    if m < 1:
        raise InvalidParamsError("path needs at least one vertex")
    return from_edges(m, [(i, i + 1) for i in range(m - 1)])


def cycle(m: int) -> Graph:
    if m < 3:
        raise InvalidParamsError("cycle needs at least three vertices")
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def star(m: int) -> Graph:
    """Star on m vertices: center 0 joined to every other vertex."""
    if m < 1:
        raise InvalidParamsError("star needs at least one vertex")
    return from_edges(m, [(0, i) for i in range(1, m)])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertex blocks follow the given part order."""
    parts = list(parts)
    if not parts or any(int(p) != p or p < 1 for p in parts):
        raise InvalidParamsError("parts must be positive integers")
    if len(parts) < 2:
        raise InvalidParamsError("need at least two parts")
    ends = list(itertools.accumulate(map(int, parts)))
    # each vertex of a part is joined to every vertex before the part
    return from_edges(ends[-1], ((i, j) for start, end in zip([0] + ends, ends)
                                 for j in range(start, end) for i in range(start)))


def kmm_minus_e(m: int) -> Graph:
    """Balanced complete bipartite graph on 2m vertices with one edge removed.

    Parts are {0..m-1} and {m..2m-1}; the deleted edge is (0, m).
    """
    if m < 2:
        raise InvalidParamsError("needs part size at least 2 to stay connected")
    g = complete_multipartite([m, m])
    return Graph(g.order, g.bits & ~(1 << pair_index(0, m)))


def kmm_plus_e(m: int) -> Graph:
    """Balanced complete bipartite graph on 2m vertices plus one edge.

    Parts are {0..m-1} and {m..2m-1}; the added edge is (0, 1) inside the
    first part.
    """
    if m < 2:
        raise InvalidParamsError("needs part size at least 2 to host an extra edge")
    g = complete_multipartite([m, m])
    return Graph(g.order, g.bits | (1 << pair_index(0, 1)))


# ---------------------------------------------------------------------------
# structure tests

def is_connected(g: Graph) -> bool:
    """Whether g is connected: the one-graph case of _connected_rows."""
    return bool(_connected_rows(*_pair_bits([g]))[0])


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two color classes of a connected bipartite graph, or None.

    The class containing vertex 0 comes first; classes are sorted tuples.
    """
    ok, even = _bipartite_rows(*_pair_bits([g]))
    if not ok[0]:
        return None
    side0 = int(even[0])
    return (tuple(i for i in range(g.order) if side0 >> i & 1),
            tuple(i for i in range(g.order) if not side0 >> i & 1))


def detect_complete_multipartite(g: Graph) -> tuple[int, ...] | None:
    """Part sizes (ascending) if g is complete multipartite with >= 2 parts,
    else None; vertex v lies in a part of m - deg(v) vertices."""
    nb = _neighbors(*_pair_bits([g]))
    if not _multipartite_rows(nb)[0]:
        return None
    sizes = [g.order - mask.bit_count() for mask in nb[0].tolist()]
    return tuple(s for s in sorted(set(sizes))
                 for _ in range(sizes.count(s) // s))


# ---------------------------------------------------------------------------
# batches of same-order graphs
#
# The pair-bit matrix of a batch of order m is (n, pair_count(m)) uint8:
# row k holds the edge bitset of graph k, pair p in column p.

def _pair_bits(graphs: Sequence[Graph]) -> tuple[int, np.ndarray]:
    """The order and pair-bit matrix of a batch of same-order graphs;
    ValueError if the batch is empty or mixes orders."""
    if not graphs:
        raise ValueError("a batch holds at least one graph")
    m = graphs[0].order
    if any(g.order != m for g in graphs):
        raise ValueError("a batch holds graphs of one order")
    n_pairs = pair_count(m)
    size = (n_pairs + 7) // 8
    raw = b"".join(g.bits.to_bytes(size, "little") for g in graphs)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(graphs), size),
                         axis=1, count=n_pairs, bitorder="little")
    return m, bits


def _to_graphs(m: int, bits: np.ndarray) -> list[Graph]:
    """The graphs of a batch's pair-bit rows."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [Graph(m, int.from_bytes(row, "little")) for row in packed]


@functools.lru_cache(maxsize=16)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The larger and smaller vertex of each pair of order m, in bitset
    order; computed once per order and read-only, since callers share them."""
    ju, iu = np.tril_indices(m, -1)
    ju.flags.writeable = iu.flags.writeable = False
    return ju, iu


def _adjacency(m: int, bits: np.ndarray) -> np.ndarray:
    """The (n, m, m) symmetric 0/1 adjacency matrices of a batch."""
    mats = np.zeros((len(bits), m, m))
    flat = mats.reshape(len(bits), m * m)
    ju, iu = _pairs(m)
    flat[:, iu * m + ju] = bits
    flat[:, ju * m + iu] = bits
    return mats


@functools.lru_cache(maxsize=16)
def _incidence(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex v of order m <= 64, as (m, m - 1) tables over the other
    vertices u: the pair column of {u, v}, and u's bit in v's neighbor
    mask, in the narrowest unsigned word that holds m bits; computed once
    per order and read-only, since callers share them."""
    k, v = np.arange(m - 1), np.arange(m)[:, None]
    other = k + (k >= v)
    hi, lo = np.maximum(other, v), np.minimum(other, v)
    word = next(w for w in (np.uint8, np.uint16, np.uint32, np.uint64)
                if m <= np.iinfo(w).bits)
    columns = hi * (hi - 1) // 2 + lo
    # shifting a one of the word itself keeps bit 63 exact at 64 vertices
    weights = word(1) << other.astype(word)
    columns.flags.writeable = weights.flags.writeable = False
    return columns, weights


def _neighbors(m: int, bits: np.ndarray) -> np.ndarray:
    """The (n, m) neighbor masks of a batch: entry [g, v] has bit u set iff
    u and v are adjacent in graph g, in the narrowest unsigned word that
    holds m bits.  Up to 64 vertices each mask gathers its vertex's m - 1
    pair columns, each weighted by the other endpoint's bit; the weights
    are distinct powers of two, so their sum is exact.  Past 64 a mask is
    a Python int: its vertex's adjacency row, packed little-endian."""
    if m > 64:
        rows = np.packbits(_adjacency(m, bits) != 0, axis=2, bitorder="little")
        return np.array([[int.from_bytes(row, "little") for row in graph]
                         for graph in rows], object).reshape(len(bits), m)
    columns, weights = _incidence(m)
    return (bits[:, columns] * weights).sum(2, dtype=weights.dtype)


def _unpack(masks: np.ndarray, m: int) -> np.ndarray:
    """Bits 0..m-1 of every mask, as 0/1 of the masks' dtype on a new
    first axis."""
    vert = np.arange(m).astype(masks.dtype)
    return masks >> vert.reshape(m, *[1] * masks.ndim) & 1


def _bfs(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bitmask breadth-first search from vertex 0, for a batch's (n, m)
    neighbor masks at once, one whole layer per step.

    Per graph: the vertices reached, those at even distance from vertex 0,
    and whether an edge joins two vertices of one layer (an odd cycle).
    """
    nb = np.ascontiguousarray(nb.T)  # vertex-major: each op runs along the batch
    layers = [np.ones_like(nb[0]), np.zeros_like(nb[0])]  # even, odd
    clash = np.zeros_like(layers[0])
    frontier, depth = layers[0], 0
    while frontier.any():
        step = np.bitwise_or.reduce(nb * _unpack(frontier, len(nb)), 0)
        clash |= step & frontier
        depth += 1
        frontier = step & ~(layers[0] | layers[1])
        layers[depth % 2] = layers[depth % 2] | frontier
    return layers[0] | layers[1], layers[0], clash != 0


def _connected_rows(m: int, bits: np.ndarray) -> np.ndarray:
    """Which graphs of a batch (order and pair bits) are connected."""
    return _bfs(_neighbors(m, bits))[0] == (1 << m) - 1


def _bipartite_rows(m: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which graphs of a batch (order and pair bits) are connected and
    bipartite, and the mask of each one's vertices at even distance from
    vertex 0."""
    reached, even, clash = _bfs(_neighbors(m, bits))
    return (reached == (1 << m) - 1) & ~clash, even


def _multipartite_rows(nb: np.ndarray) -> np.ndarray:
    """Which graphs of a batch (its _neighbors masks) are complete
    multipartite with at least two parts: those with an edge in which every
    two non-adjacent vertices have the same neighbors (non-adjacency is then
    an equivalence relation, and its classes are the parts)."""
    nb = np.ascontiguousarray(nb.T)  # [v, g], as in _bfs
    adjacent = _unpack(nb, len(nb)) != 0  # [u, v, g]: u in v's mask
    same = nb[:, None] == nb
    return (nb != 0).any(0) & (adjacent | same).all((0, 1))

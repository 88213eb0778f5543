"""Simple undirected graphs stored as upper-triangle edge bitsets.

A graph on ``order`` vertices keeps its edges in a single Python integer:
bit ``pair_index(i, j)`` is set iff the edge {i, j} is present.  Pairs are
numbered column-major over the strict upper triangle, i.e. (0,1), (0,2),
(1,2), (0,3), ..., which makes the bitset order-compatible with the graph6
serialization and lets a vertex-relabeling act as a pure bit permutation.

This module alone turns a batch (a list of same-order graphs) into arrays:
adjacency stacks and per-vertex neighbor masks.  _order is the one check
that a batch is non-empty and of one order, and _neighbors the one place
that cuts between uint64 edge masks (up to 63 vertex pairs) and per-graph
neighbor masks.  The structure tests come in batch forms on those masks:
_connected, bipartite_batch and complete_multipartite_batch, whose
one-graph calls are bipartition and detect_complete_multipartite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def _bits_of(mask: int) -> Iterator[int]:
    # yield set-bit positions, lowest first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


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
        """All edges (i, j) with i < j, in bitset order."""
        return [(i, j) for j in range(1, self.order)
                for i in _bits_of((self.bits >> pair_count(j)) & ((1 << j) - 1))]

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor sets as bitmasks over vertex indices."""
        nb = [0] * self.order
        for i, j in self.edges():
            nb[i] |= 1 << j
            nb[j] |= 1 << i
        return nb

    def degrees(self) -> list[int]:
        return [mask.bit_count() for mask in self.neighbor_masks()]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64)."""
        return _adjacency_stack([self])[0]

    def complement(self) -> "Graph":
        return Graph(self.order, ~self.bits & ((1 << pair_count(self.order)) - 1))


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    bits = 0
    for i, j in edges:
        if not (0 <= i < order and 0 <= j < order):
            raise ValueError(f"edge ({i}, {j}) out of range for order {order}")
        bits |= 1 << pair_index(i, j)
    return Graph(order, bits)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex relabeling i -> perm[i]."""
    if sorted(perm) != list(range(g.order)):
        raise ValueError("perm must be a permutation of range(order)")
    bits = 0
    for i, j in g.edges():
        bits |= 1 << pair_index(perm[i], perm[j])
    return Graph(g.order, bits)


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
    label = [k for k, p in enumerate(parts) for _ in range(int(p))]
    m = len(label)
    return from_edges(m, [(i, j) for j in range(m) for i in range(j)
                          if label[i] != label[j]])


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
    nb = g.neighbor_masks()
    visited = frontier = 1
    while frontier:
        step = 0
        for i in _bits_of(frontier):
            step |= nb[i]
        frontier = step & ~visited
        visited |= frontier
    return visited == (1 << g.order) - 1


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two color classes of a connected bipartite graph, or None.

    The class containing vertex 0 comes first; classes are sorted tuples.
    """
    ok, even = bipartite_batch([g])
    if not ok[0]:
        return None
    side0 = int(even[0])
    return (tuple(i for i in range(g.order) if side0 >> i & 1),
            tuple(i for i in range(g.order) if not side0 >> i & 1))


def detect_complete_multipartite(g: Graph) -> tuple[int, ...] | None:
    """Part sizes (ascending) if g is complete multipartite with >= 2 parts,
    else None; vertex v lies in a part of m - deg(v) vertices."""
    if not complete_multipartite_batch([g])[0]:
        return None
    sizes = [g.order - d for d in g.degrees()]
    return tuple(s for s in sorted(set(sizes))
                 for _ in range(sizes.count(s) // s))


# ---------------------------------------------------------------------------
# batches of same-order graphs
#
# Every array of a batch is built here.  Each builder starts with _order,
# the one check that a batch is non-empty and of one order, and _neighbors
# alone knows the 63-pair cut of uint64 edge masks.

def _order(graphs: Sequence[Graph]) -> int:
    """The order of a batch; ValueError if it is empty or mixes orders."""
    if not graphs:
        raise ValueError("a batch holds at least one graph")
    m = graphs[0].order
    if any(g.order != m for g in graphs):
        raise ValueError("a batch holds graphs of one order")
    return m


def _adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The (n, m, m) float adjacency matrices of same-order graphs, from
    the little-endian bytes of each edge bitset."""
    m = _order(graphs)
    n_pairs = pair_count(m)
    size = (n_pairs + 7) // 8
    raw = b"".join(g.bits.to_bytes(size, "little") for g in graphs)
    cols = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(graphs), size),
                         axis=1, count=n_pairs, bitorder="little")
    mats = np.zeros((len(graphs), m, m))
    ju, iu = np.tril_indices(m, -1)  # the pairs (i, j) in bitset order
    mats[:, iu, ju] = cols
    mats[:, ju, iu] = cols
    return mats


def _neighbors(graphs: Sequence[Graph]) -> list[np.ndarray]:
    """For each vertex v, v's neighbor mask in every graph of a batch:
    from uint64 edge masks up to 63 vertex pairs, else from each graph's
    neighbor_masks, as uint64 up to 64 vertices and Python ints beyond."""
    m = _order(graphs)
    if pair_count(m) > 63:
        dtype = np.uint64 if m <= 64 else object
        return list(np.array([g.neighbor_masks() for g in graphs], dtype=dtype).T)
    masks = np.fromiter((g.bits for g in graphs), dtype=np.uint64,
                        count=len(graphs))
    nb = [np.zeros_like(masks) for _ in range(m)]
    p = 0
    for j in range(1, m):
        for i in range(j):
            edge = (masks >> p) & 1
            nb[i] |= edge << j
            nb[j] |= edge << i
            p += 1
    return nb


def _bfs(nb: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bitmask breadth-first search from vertex 0, for a whole batch at once.

    Per graph: the vertices reached, those at even distance from vertex 0,
    and whether an edge joins two vertices of one layer (an odd cycle).
    """
    layers = [np.ones_like(nb[0]), np.zeros_like(nb[0])]  # even, odd
    clash = np.zeros_like(nb[0])
    frontier, depth = layers[0], 0
    while frontier.any():
        step = np.zeros_like(frontier)
        for v, x in enumerate(nb):
            step |= x * ((frontier >> v) & 1)
        clash |= step & frontier
        depth += 1
        frontier = step & ~(layers[0] | layers[1])
        layers[depth % 2] = layers[depth % 2] | frontier
    return layers[0] | layers[1], layers[0], clash != 0


def _connected(graphs: Sequence[Graph]) -> np.ndarray:
    """Which of a batch of same-order graphs are connected."""
    nb = _neighbors(graphs)
    return _bfs(nb)[0] == (1 << len(nb)) - 1


def bipartite_batch(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Which of a batch of same-order graphs are connected and bipartite,
    and the mask of each one's vertices at even distance from vertex 0."""
    nb = _neighbors(graphs)
    reached, even, clash = _bfs(nb)
    return (reached == (1 << len(nb)) - 1) & ~clash, even


def complete_multipartite_batch(graphs: Sequence[Graph]) -> np.ndarray:
    """Which of a batch of same-order graphs are complete multipartite
    with at least two parts: those with an edge in which every two
    non-adjacent vertices have the same neighbors (non-adjacency is then an
    equivalence relation, and its classes are the parts)."""
    nb = _neighbors(graphs)
    ok = np.logical_or.reduce([x != 0 for x in nb])
    for v in range(1, len(nb)):
        for u in range(v):
            ok &= (((nb[u] >> v) & 1) != 0) | (nb[u] == nb[v])
    return ok

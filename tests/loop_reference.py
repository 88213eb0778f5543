"""Per-graph structure by plain Python loops over the edge bitset: the
reference that the columnar masks and connectivity are tested against.
None of it calls specgap code beyond Graph's order and bits."""

from specgap.graphs import pair_count


def set_bits(mask):
    """Set-bit positions of an int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def loop_edges(g):
    """g's edges (i, j), i < j, in pair-bit order."""
    return [(i, j) for j in range(1, g.order)
            for i in set_bits((g.bits >> pair_count(j)) & ((1 << j) - 1))]


def loop_masks(g):
    """Each vertex's neighbor mask, as Python ints."""
    nb = [0] * g.order
    for i, j in loop_edges(g):
        nb[i] |= 1 << j
        nb[j] |= 1 << i
    return nb


def loop_connected(g):
    """Whether g is connected, by breadth-first search from vertex 0."""
    nb = loop_masks(g)
    visited = frontier = 1
    while frontier:
        step = 0
        for i in set_bits(frontier):
            step |= nb[i]
        frontier = step & ~visited
        visited |= frontier
    return visited == (1 << g.order) - 1

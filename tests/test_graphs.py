"""Bitset graph type, constructors and structure predicates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import graphs
from specgap.graphs import (
    Graph,
    InvalidParamsError,
    bipartition,
    complete,
    complete_multipartite,
    cycle,
    detect_complete_multipartite,
    from_edges,
    is_connected,
    kmm_minus_e,
    kmm_plus_e,
    pair_count,
    pair_index,
    path,
    relabel,
    star,
)

from loop_reference import loop_connected, loop_edges, loop_masks


def test_pair_indexing():
    assert pair_count(1) == 0
    assert pair_count(4) == 6
    assert pair_index(0, 1) == 0
    assert pair_index(0, 2) == 1
    assert pair_index(1, 2) == 2
    assert pair_index(2, 3) == 5
    # strict upper triangle, column major: all indices hit exactly once
    seen = {pair_index(i, j) for j in range(5) for i in range(j)}
    assert seen == set(range(pair_count(5)))


def test_graph_basics():
    g = from_edges(3, [(0, 1), (2, 1)])
    assert g.order == 3
    assert g.edge_count == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.degrees() == [1, 2, 1]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, 0)
    with pytest.raises(ValueError):
        Graph(2, 2)  # only one pair bit exists for order 2
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(2, [(-1, 0)])


def test_adjacency_matrix():
    a = path(3).adjacency()
    expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(a, expect)
    assert a.dtype == np.float64


def test_complement():
    g = path(4)
    h = g.complement()
    assert h.edge_count == pair_count(4) - g.edge_count
    assert g.complement().complement() == g
    assert complete(5).complement().edge_count == 0


def test_families():
    assert complete(4).edge_count == 6
    assert path(5).edge_count == 4
    assert cycle(5).edge_count == 5
    assert star(5).edge_count == 4
    assert star(5).degrees() == [4, 1, 1, 1, 1]
    assert cycle(4).degrees() == [2, 2, 2, 2]
    # complete bipartite via the multipartite constructor
    g = complete_multipartite([2, 3])
    assert g.order == 5
    assert g.edge_count == 6
    assert sorted(g.degrees()) == [2, 2, 2, 3, 3]


def test_family_validation():
    with pytest.raises(InvalidParamsError):
        cycle(2)
    with pytest.raises(InvalidParamsError):
        complete(0)
    with pytest.raises(InvalidParamsError):
        complete_multipartite([5])
    with pytest.raises(InvalidParamsError):
        complete_multipartite([2, 0])
    with pytest.raises(InvalidParamsError):
        kmm_minus_e(1)


def test_kmm_minus_e_shape():
    # removing one edge from K_{2,2} leaves a path on four vertices
    g = kmm_minus_e(2)
    assert g.order == 4 and g.edge_count == 3
    assert sorted(g.degrees()) == [1, 1, 2, 2]
    g = kmm_minus_e(3)
    assert g.order == 6 and g.edge_count == 8
    assert sorted(g.degrees()) == [2, 2, 3, 3, 3, 3]


def test_kmm_plus_e_shape():
    # adding one edge inside a side of K_{2,2} gives the diamond
    g = kmm_plus_e(2)
    assert g.order == 4 and g.edge_count == 5
    assert sorted(g.degrees()) == [2, 2, 3, 3]
    g = kmm_plus_e(4)
    assert g.order == 8 and g.edge_count == 17


def test_relabel_preserves_structure():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = relabel(g, [2, 0, 3, 1])
    assert h.edge_count == g.edge_count
    assert sorted(h.degrees()) == sorted(g.degrees())
    with pytest.raises(ValueError):
        relabel(g, [0, 1, 1, 2])


def test_is_connected():
    assert is_connected(Graph(1, 0))
    assert is_connected(path(7))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(from_edges(3, [(0, 1)]))
    assert is_connected(complete(6))


def test_bipartition():
    sides = bipartition(path(4))
    assert sides is not None
    assert set(sides[0]) | set(sides[1]) == {0, 1, 2, 3}
    assert 0 in sides[0]
    assert bipartition(complete(3)) is None
    assert bipartition(cycle(6)) is not None
    assert bipartition(cycle(5)) is None
    # disconnected graphs are rejected even when 2-colorable
    assert bipartition(from_edges(4, [(0, 1), (2, 3)])) is None


def test_detect_complete_multipartite():
    assert detect_complete_multipartite(complete_multipartite([1, 2, 3])) \
        == (1, 2, 3)
    assert detect_complete_multipartite(cycle(4)) == (2, 2)
    assert detect_complete_multipartite(star(5)) == (1, 4)
    assert detect_complete_multipartite(complete(4)) == (1, 1, 1, 1)
    assert detect_complete_multipartite(path(4)) is None
    assert detect_complete_multipartite(cycle(6)) is None


def test_detect_round_trip():
    from specgap.verify import partitions

    for total in range(2, 9):
        for parts in partitions(total):
            g = complete_multipartite(parts)
            assert detect_complete_multipartite(g) == tuple(sorted(parts))


def test_neighbor_masks():
    g = cycle(4)
    masks = g.neighbor_masks()
    assert masks[0] == (1 << 1) | (1 << 3)
    assert masks[2] == (1 << 1) | (1 << 3)


# ---------------------------------------------------------------------------
# the batch structure tests against brute-force oracles


def _adjacency_lists(g):
    adj = [[] for _ in range(g.order)]
    for i, j in g.edges():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _two_colouring(g):
    """Colour classes from a depth-first two-colouring search from vertex 0,
    or None when a vertex is unreachable or an edge joins one colour."""
    adj = _adjacency_lists(g)
    colour = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in colour:
                colour[w] = 1 - colour[v]
                stack.append(w)
            elif colour[w] == colour[v]:
                return None
    if len(colour) < g.order:
        return None
    return tuple(tuple(v for v in range(g.order) if colour[v] == c)
                 for c in (0, 1))


def _complement_cliques(g):
    """Sorted part sizes when the complement is a disjoint union of at
    least two cliques, else None."""
    co = g.complement()
    adj = _adjacency_lists(co)
    seen, parts = set(), []
    for s in range(g.order):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if any(not co.has_edge(u, v) for u in comp for v in comp if u < v):
            return None
        parts.append(len(comp))
    return tuple(sorted(parts)) if len(parts) >= 2 else None


def _check_structure(batch, one_graph_calls=True):
    m, bits = graphs._pair_bits(batch)
    bipartite, even = graphs._bipartite_rows(m, bits)
    multi = graphs._multipartite_rows(graphs._neighbors(m, bits))
    assert len(bipartite) == len(even) == len(multi) == len(batch)
    for g, bip, side, mul in zip(batch, bipartite.tolist(), even.tolist(),
                                 multi.tolist()):
        sides = _two_colouring(g)
        parts = _complement_cliques(g)
        assert bip == (sides is not None), g
        if sides is not None:
            assert side == sum(1 << v for v in sides[0]), g
        assert mul == (parts is not None), g
        if one_graph_calls:
            assert bipartition(g) == sides
            assert detect_complete_multipartite(g) == parts


def _labelled(order, labels, drop=0):
    """Edges between differently labelled vertices, less the pairs whose
    bit is set in ``drop``."""
    return from_edges(order, [(i, j) for j in range(order) for i in range(j)
                              if labels[i] != labels[j]
                              and not drop >> pair_index(i, j) & 1])


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 11), data=st.data())
def test_batch_structure_matches_brute_force(order, data):
    n = pair_count(order)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=30))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=order,
                                max_size=order))
    drop = data.draw(st.integers(0, (1 << n) - 1))
    sparse = data.draw(st.integers(0, (1 << n) - 1))
    batch = [Graph(order, b) for b in masks]
    # complete multipartite, complete bipartite and bipartite graphs, which
    # random masks seldom give
    batch += [_labelled(order, labels),
              _labelled(order, [x % 2 for x in labels]),
              _labelled(order, [x % 2 for x in labels], drop & sparse)]
    _check_structure(batch)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_batch_structure_exhaustive_small_orders(order):
    _check_structure([Graph(order, b) for b in range(1 << pair_count(order))])


def _is_multipartite_by_definition(g):
    """At least one edge, and every two non-adjacent vertices have the same
    neighbors."""
    nb = g.neighbor_masks()
    return g.bits != 0 and all(
        nb[u] == nb[v] for v in range(g.order) for u in range(v)
        if not nb[u] >> v & 1)


# the orders on both sides of every neighbor-mask word width
@pytest.mark.parametrize("order", [1, 2, 8, 9, 16, 17, 32, 33, 64, 65])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_mask_tests_at_the_word_width_edges(order, data):
    n = pair_count(order)
    dense = data.draw(st.integers(0, (1 << n) - 1))
    sparse = dense & data.draw(st.integers(0, (1 << n) - 1))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=order,
                                max_size=order))
    parent = [data.draw(st.integers(0, v - 1)) for v in range(1, order)]
    tree = from_edges(order, [(v, parent[v - 1]) for v in range(1, order)])
    few = data.draw(st.integers(1, order))  # vertices from few on are isolated
    batch = [Graph(order, dense), Graph(order, sparse & (sparse >> 1)),
             Graph(order, dense % (1 << pair_count(few))), tree,
             Graph(order, tree.bits | sparse),
             _labelled(order, labels),
             _labelled(order, [x % 2 for x in labels], sparse),
             complete(order), Graph(order, 0)]
    m, bits = graphs._pair_bits(batch)
    nb = graphs._neighbors(m, bits)
    widths = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
    assert nb.dtype == next((np.dtype(w) for b, w in widths.items()
                             if order <= b), np.dtype(object))
    assert nb.shape == (len(batch), order)
    assert [list(map(int, row)) for row in nb] == [loop_masks(g)
                                                   for g in batch]
    assert graphs._connected_rows(m, bits).tolist() == [loop_connected(g)
                                                        for g in batch]
    bipartite, even = graphs._bipartite_rows(m, bits)
    for g, bip, side in zip(batch, bipartite.tolist(), even.tolist()):
        sides = _two_colouring(g)
        assert bip == (sides is not None), g
        if sides is not None:
            assert side == sum(1 << v for v in sides[0]), g
    assert graphs._multipartite_rows(nb).tolist() == [
        _is_multipartite_by_definition(g) for g in batch]


@pytest.mark.parametrize("order", [12, 13])
def test_batch_structure_past_the_edge_mask_cut(order):
    rng = np.random.default_rng(order)
    n = pair_count(order)
    batch = [Graph(order, int.from_bytes(rng.bytes(16), "little") % (1 << n))
             for _ in range(20)]
    batch += [path(order), cycle(order), star(order), complete(order),
              Graph(order, 0), complete_multipartite([6, order - 6]),
              complete_multipartite([2, 3, order - 5]),
              _labelled(order, [v % 2 for v in range(order)], 0b1011 << 20)]
    assert pair_count(order) > 63
    _check_structure(batch)


def test_structure_at_order_100():
    minus = kmm_minus_e(50)
    halves = (tuple(range(50)), tuple(range(50, 100)))
    assert bipartition(minus) == halves
    assert detect_complete_multipartite(minus) is None
    kmm = complete_multipartite([50, 50])
    assert bipartition(kmm) == halves
    assert detect_complete_multipartite(kmm) == (50, 50)
    three = complete_multipartite([40, 30, 30])
    assert bipartition(three) is None
    assert detect_complete_multipartite(three) == (30, 30, 40)
    _check_structure([minus, kmm, three, cycle(100), path(100)],
                     one_graph_calls=False)


@pytest.mark.parametrize("build", [graphs._pair_bits])
def test_batch_builders_reject_mixed_orders_and_no_graphs(build):
    with pytest.raises(ValueError, match="one order"):
        build([path(3), cycle(5)])
    with pytest.raises(ValueError, match="at least one graph"):
        build([])


def _or_edges(order, edges):
    # the per-edge reference: OR each edge's pair bit into an int
    bits = 0
    for i, j in edges:
        if not (0 <= i < order and 0 <= j < order):
            raise ValueError(f"edge ({i}, {j}) out of range for order {order}")
        bits |= 1 << pair_index(i, j)
    return Graph(order, bits)


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 70), data=st.data())
def test_from_edges_and_relabel_match_a_per_edge_or(order, data):
    vertex = st.integers(0, order - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), max_size=80))
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=10)
                       if edges else st.just([]))  # repeats
    edges = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in edges]
    g = from_edges(order, edges)
    assert g == _or_edges(order, edges)
    perm = data.draw(st.permutations(range(order)))
    assert relabel(g, perm) == _or_edges(
        order, [(perm[i], perm[j]) for i, j in edges])
    bad = data.draw(st.sampled_from([(0, order), (order + 3, 0), (-1, 0),
                                     (0, 0), (order - 1, order - 1),
                                     (order, order)]))  # range error first
    at = data.draw(st.integers(0, len(edges)))
    with pytest.raises(ValueError) as want:
        _or_edges(order, edges[:at] + [bad] + edges[at:])
    with pytest.raises(ValueError) as got:
        from_edges(order, edges[:at] + [bad] + edges[at:])
    assert str(got.value) == str(want.value)


def test_dense_builds_are_linear(time_limit):
    # growing the bitset int one edge at a time took about 30 s for this on
    # a 2-vCPU Xeon, and a buffer of every pair up front would not fit a
    # million vertices
    with time_limit(10):
        kmm = complete_multipartite([1200, 1200])
        assert relabel(kmm, range(2399, -1, -1)) == kmm
    assert kmm.edge_count == 1200 * 1200
    with time_limit(5):
        assert from_edges(10 ** 6, [(0, 1)]).bits == 1


# ---------------------------------------------------------------------------
# the per-graph calls against the per-edge loops and the BFS they replaced,
# kept in loop_reference.py


def _random_graph(data, order):
    # sparse densities too, where large graphs fall apart
    density = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 0.1)
                        | st.floats(0, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    bits = np.packbits(rng.random(pair_count(order)) < density,
                       bitorder="little")
    return Graph(order, int.from_bytes(bits.tobytes(), "little"))


# orders 63-65 on both sides of the last numpy mask word
@settings(max_examples=100, deadline=None)
@given(order=st.sampled_from([63, 64, 65]) | st.integers(1, 130),
       data=st.data())
def test_per_graph_structure_matches_the_loops_it_replaced(order, data):
    g = _random_graph(data, order)
    masks = loop_masks(g)
    assert g.edges() == loop_edges(g)
    assert g.neighbor_masks() == masks
    assert g.degrees() == [mask.bit_count() for mask in masks]
    assert is_connected(g) is loop_connected(g)
    m = data.draw(st.integers(60, 70))
    batch = [_random_graph(data, m) for _ in range(3)]
    nb = graphs._neighbors(*graphs._pair_bits(batch))
    assert [list(map(int, row)) for row in nb] == [loop_masks(h)
                                                   for h in batch]


def test_structure_of_a_large_graph_is_fast_and_lean(time_limit):
    # Python-int weights per pair made K_{600,600}'s bipartition peak at
    # 273 MB under tracemalloc, and a per-edge loop built every mask
    kmm = complete_multipartite([1200, 1200])
    halves = (tuple(range(1200)), tuple(range(1200, 2400)))
    with time_limit(10):
        assert bipartition(kmm) == halves
    with time_limit(10):
        assert is_connected(kmm)
    with time_limit(10):
        masks = kmm.neighbor_masks()
    assert masks == [((1 << 1200) - 1) << 1200] * 1200 + [(1 << 1200) - 1] * 1200
    half = complete_multipartite([600, 600])
    tracemalloc.start()
    try:
        assert bipartition(half) == (tuple(range(600)), tuple(range(600, 1200)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6

"""Canonical enumeration, graph6 ingest, streaming census, CSV output."""

import functools
import hashlib
import itertools
import math
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import census, eigen, graph6
from specgap.census import (
    KNOWN_CONNECTED_COUNTS,
    DisconnectedInputError,
    EmptySourceError,
    Graph6FileError,
    Graph6Source,
    Histogram,
    MixedOrdersError,
    OrderTooLargeError,
    canonical_bits,
    enumerate_connected,
    extend_census,
    extremal,
    run_census,
    write_histogram_csvs,
    write_stats_csv,
)
from specgap.graphs import (
    Graph,
    _adjacency,
    _connected_rows,
    _pair_bits,
    _to_graphs,
    complete,
    complete_multipartite,
    cycle,
    from_edges,
    is_connected,
    pair_count,
    pair_index,
    path,
    relabel,
    star,
)
from specgap.indices import DegenerateSpectrumError, compute_indices


def test_known_counts_table():
    assert KNOWN_CONNECTED_COUNTS == {
        1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
        8: 11117, 9: 261080, 10: 11716571,
    }


def test_enumeration_counts(census4, census5, census6, census7):
    assert len(enumerate_connected(1)) == 1
    assert len(enumerate_connected(2)) == 1
    assert len(enumerate_connected(3)) == 2
    assert len(census4) == 6
    assert len(census5) == 21
    assert len(census6) == 112
    assert len(census7) == 853


def test_enumeration_properties(census5):
    bits_seen = set()
    for g in census5:
        assert g.order == 5
        assert is_connected(g)
        assert canonical_bits(g) == g.bits  # stored in canonical form
        bits_seen.add(g.bits)
    assert len(bits_seen) == 21
    assert [g.bits for g in census5] == sorted(bits_seen)


def _no_extension(m, parents, complete):
    raise AssertionError(f"order {m} was extended")


def test_enumeration_order_cap(monkeypatch):
    # the known class counts bound the enumeration, the int64 forms the
    # search; both raise before any extension, so a wrong cap fails fast
    monkeypatch.setattr(census, "_extend", _no_extension)
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(OrderTooLargeError, match="stops at order 10"):
        enumerate_connected(11)
    with pytest.raises(OrderTooLargeError, match="order 12 overflow"):
        canonical_bits(Graph(12, 0))
    with pytest.raises(OrderTooLargeError, match="order 12 overflow"):
        extend_census([complete(12)])


# ---------------------------------------------------------------------------
# canonical forms against a brute-force oracle


@functools.lru_cache(maxsize=None)
def _perm_pair_targets(m):
    """(m!, pairs) array: where each pair bit lands under each relabeling."""
    pairs = [(i, j) for j in range(1, m) for i in range(j)]
    return np.asarray(
        [[pair_index(p[i], p[j]) for i, j in pairs]
         for p in itertools.permutations(range(m))],
        dtype=np.int64,
    ).reshape(-1, len(pairs))


def _oracle(m, bits):
    """Smallest edge bitset over all m! relabelings, by brute force."""
    present = [b for b in range(pair_count(m)) if bits >> b & 1]
    if not present:
        return 0
    images = (np.int64(1) << _perm_pair_targets(m)[:, present]).sum(axis=1)
    return int(images.min())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_canonical_bits_matches_oracle_exhaustively(m):
    for bits in range(1 << pair_count(m)):
        assert canonical_bits(Graph(m, bits)) == _oracle(m, bits), bits


def _random_masks(m, count):
    rng = np.random.default_rng(1000 + m)
    return rng.integers(0, 1 << pair_count(m), size=count).tolist()


@pytest.mark.parametrize("m,count", [(6, 300), (7, 200), (8, 200)])
def test_canonical_bits_matches_oracle_on_random_masks(m, count):
    for bits in _random_masks(m, count):
        assert canonical_bits(Graph(m, bits)) == _oracle(m, bits), bits


def _cube():
    return from_edges(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                          if u < u ^ (1 << b)])


@pytest.mark.parametrize("name,g", [
    ("empty", Graph(8, 0)),
    ("K8", complete(8)),
    ("K4,4", complete_multipartite([4, 4])),
    ("Q3", _cube()),
    ("K2,2,2,2", complete_multipartite([2, 2, 2, 2])),
    ("C8", cycle(8)),
    ("C8 complement", cycle(8).complement()),
])
def test_canonical_bits_symmetric_order8(name, g):
    want = _oracle(8, g.bits)
    assert canonical_bits(g) == want
    perm = np.random.default_rng(8).permutation(8).tolist()
    assert canonical_bits(relabel(g, perm)) == want


@st.composite
def _graph_and_perm(draw):
    m = draw(st.integers(1, 8))
    bits = draw(st.integers(0, (1 << pair_count(m)) - 1))
    return Graph(m, bits), draw(st.permutations(range(m)))


@settings(max_examples=200, deadline=None)
@given(_graph_and_perm())
def test_canonical_bits_properties(case):
    g, perm = case
    c = canonical_bits(g)
    assert canonical_bits(relabel(g, perm)) == c
    assert canonical_bits(Graph(g.order, c)) == c
    assert c <= g.bits


@pytest.mark.parametrize("m,count", [(6, 300), (7, 200), (8, 200)])
def test_canonical_forms_rows_never_interact(m, count):
    masks = _random_masks(m, count)
    _, bits = _pair_bits([Graph(m, b) for b in masks])
    whole = census._canonical_forms(m, bits)
    assert whole.dtype == np.int64
    assert whole.tolist() == [_oracle(m, b) for b in masks]
    order = np.random.default_rng(m).permutation(count)
    for size in (1, 7, count):
        got = np.concatenate([census._canonical_forms(m, bits[order[k:k + size]])
                              for k in range(0, count, size)])
        assert got.tolist() == whole[order].tolist(), size


def test_canonical_forms_up_to_their_int64_bound():
    assert census.FORM_MAX_ORDER == 11  # pair_count(11) = 55 bits
    rng = np.random.default_rng(11)
    for m in (10, 11):
        g = Graph(m, int(rng.integers(0, 1 << pair_count(m))))
        moved = relabel(g, rng.permutation(m).tolist())
        first, second = census._canonical_forms(*_pair_bits([g, moved])).tolist()
        assert first == second <= g.bits and first.bit_count() == g.edge_count
    with pytest.raises(ValueError, match="overflow"):
        census._canonical_forms(12, np.zeros((1, pair_count(12)), np.uint8))
    # the state keys hold 2^(63 - 4m) rows, 2^19 at order 11, so a batch
    # of any size is searched EXTEND_BLOCK rows at a time: sliced at 7
    # rows, the forms are those of the unsliced search
    bits = _pair_bits([Graph(10, int(b)) for b in
                       rng.integers(0, 1 << pair_count(10), 50)])[1]
    whole = census._canonical_forms(10, bits)
    with mock.patch.object(census, "EXTEND_BLOCK", 7), mock.patch.object(
            census, "_canonical_forms", wraps=census._canonical_forms) as spy:
        assert spy(10, bits).tolist() == whole.tolist()
    assert [len(c.args[1]) for c in spy.call_args_list] == [50] + [7] * 7 + [1]
    k11 = complete(11)
    assert census._canonical_forms(*_pair_bits([k11])).tolist() == [k11.bits]
    assert census._canonical_forms(3, np.zeros((0, 3), np.uint8)).size == 0


@st.composite
def _graphs_and_perms(draw):
    m = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, (1 << pair_count(m)) - 1),
                          min_size=1, max_size=6))
    return m, masks, [draw(st.permutations(range(m))) for _ in masks]


@settings(max_examples=100, deadline=None)
@given(_graphs_and_perms())
def test_canonical_forms_of_relabeled_rows(case):
    # orders up to 9, past canonical_bits and the brute-force oracle
    m, masks, perms = case
    graphs = [Graph(m, b) for b in masks]
    forms = census._canonical_forms(*_pair_bits(graphs)).tolist()
    moved = [relabel(g, p) for g, p in zip(graphs, perms)]
    assert census._canonical_forms(*_pair_bits(moved)).tolist() == forms
    for g, form in zip(graphs, forms):
        assert form.bit_count() == g.edge_count and form <= g.bits


# sha256 prefixes of the comma-joined enumeration bits, as a min over all m!
# relabelings picks them: the representative convention must not drift
_ENUM_DIGESTS = {
    1: "5feceb66ffc86f38", 2: "6b86b273ff34fce1", 3: "adc0d2b391a5218d",
    4: "e5bdfdbb43507245", 5: "d8a8c53243f49444", 6: "b77180fea051a59f",
    7: "436de30d73f530b9",
}


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_is_the_canonical_connected_set(m):
    graphs = enumerate_connected(m)
    bits = [g.bits for g in graphs]
    assert bits == sorted(set(bits))
    assert all(is_connected(g) and canonical_bits(g) == g.bits for g in graphs)
    if m <= 5:
        assert set(bits) == {
            _oracle(m, b) for b in range(1 << pair_count(m))
            if is_connected(Graph(m, b))
        }
    else:  # distinct canonical connected classes, as many as there are
        assert len(bits) == KNOWN_CONNECTED_COUNTS[m]
    text = ",".join(str(b) for b in bits)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _ENUM_DIGESTS[m]


def test_canonical_bits_is_isomorphism_invariant():
    rng = np.random.default_rng(5)
    for order in (4, 5, 6, 7):
        for _ in range(25):
            bits = int(rng.integers(0, 1 << (order * (order - 1) // 2)))
            g = Graph(order, bits)
            c = canonical_bits(g)
            perm = rng.permutation(order).tolist()
            assert canonical_bits(relabel(g, perm)) == c


def test_canonical_bits_distinguishes():
    assert canonical_bits(path(4)) != canonical_bits(star(4))
    # two non-isomorphic trees sharing the degree sequence [3,2,2,1,1,1]
    t1 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    t2 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert sorted(t1.degrees()) == sorted(t2.degrees())
    assert canonical_bits(t1) != canonical_bits(t2)


def test_extend_census(census4, census5, census6, census7):
    got = extend_census(census4)
    assert len(got) == 21
    assert {g.bits for g in got} == {g.bits for g in census5}
    assert extend_census(census6) == census7
    with pytest.raises(EmptySourceError):
        extend_census([])
    with pytest.raises(MixedOrdersError):
        extend_census([Graph(3, 3), Graph(4, 7)])
    # K9 plus a vertex joined to 1 to 9 of its vertices; order 12 overflows
    # in the search of the first candidates
    assert sorted(g.edge_count for g in extend_census([complete(9)])) == list(
        range(37, 46))
    with pytest.raises(OrderTooLargeError, match="order 12 overflow"):
        extend_census([complete(11)])


def test_extend_census_rejects_disconnected_input(census4):
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedInputError, match="graph 0 is not"):
        extend_census([two_edges])
    with pytest.raises(DisconnectedInputError, match="graph 6 is not"):
        extend_census([*census4, two_edges])
    assert issubclass(DisconnectedInputError, ValueError)


def _brute_extension(graphs):
    """Canonical bits of every nonempty attach set of every graph, sorted;
    one batch search over all of them, as canonical_bits would find each."""
    m = graphs[0].order
    _, bits = _pair_bits([Graph(m + 1, g.bits | attach << pair_count(m))
                          for g in graphs for attach in range(1, 1 << m)])
    return sorted(set(census._canonical_forms(m + 1, bits).tolist()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extend_census_matches_brute_force(census4, census5, census6, data):
    # relabeled inputs exercise twin pruning off the canonical labeling; a
    # draw of all six order-4 classes takes the canonical-deletion filter,
    # the other draws the path without it
    whole = data.draw(st.sampled_from([census4, census5, census6]))
    m = whole[0].order
    size = data.draw(st.integers(1, min(20, len(whole))))
    picks = data.draw(st.permutations(range(len(whole))))[:size]
    graphs = [relabel(whole[k], data.draw(st.permutations(range(m))))
              for k in picks]
    assert [g.bits for g in extend_census(graphs)] == _brute_extension(graphs)


def _count_searches(monkeypatch):
    """Rows handed to the batch refinement search, one per searched graph."""
    calls = [0]
    search = census._canonical_forms

    def counted(m, bits):
        calls[0] += len(bits)
        return search(m, bits)

    monkeypatch.setattr(census, "_canonical_forms", counted)
    return calls


def test_extend_census_of_a_relabeled_shuffled_census(census4, census6, census7,
                                                      monkeypatch):
    rng = np.random.default_rng(6)
    graphs = [relabel(g, rng.permutation(6).tolist()) for g in census6]
    rng.shuffle(graphs)
    calls = _count_searches(monkeypatch)
    assert extend_census(graphs) == census7
    assert calls[0] < 2000  # the canonical-deletion filter ran
    # as many graphs as classes, but one class twice: no filter, same classes
    graphs = [*census4[1:], relabel(census4[1], [3, 2, 1, 0])]
    assert [g.bits for g in extend_census(graphs)] == _brute_extension(graphs)


def test_enumeration_searches_few_candidates(monkeypatch):
    # what the twin pruning and the canonical-deletion filter keep, exactly;
    # one search per candidate made 7,815 at order 7
    calls = _count_searches(monkeypatch)
    assert len(enumerate_connected(7)) == 853
    assert calls[0] == 1685
    calls[0] = 0
    assert len(enumerate_connected(8)) == 11117
    assert calls[0] == 21114


def test_search_calls_stay_within_one_block(census7, monkeypatch):
    # a block of parents holds under EXTEND_BLOCK + 2**m - 1 candidates (one
    # parent's attach sets), and only its survivors share a search call
    calls = []
    search = census._canonical_forms

    def recorded(order, bits):
        calls.append((order - 1, len(bits)))
        return search(order, bits)

    monkeypatch.setattr(census, "_canonical_forms", recorded)
    enumerate_connected(7)
    sample = np.random.default_rng(90125).choice(853, 32, replace=False)
    extend_census([census7[i] for i in sample])
    assert {m for m, _ in calls} == set(range(1, 8))
    assert all(rows <= census.EXTEND_BLOCK + 2**m - 2 for m, rows in calls)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_canonical_deletion_filter_loses_no_class(m):
    # whole censuses, against the extension that searches every twin-pruned
    # candidate
    _, bits = _pair_bits(enumerate_connected(m))
    order, got = census._extend(m, bits, complete=True)
    unfiltered = census._extend(m, bits, complete=False)
    assert order == unfiltered[0] == m + 1 and np.array_equal(got, unfiltered[1])
    assert got.dtype == np.int64 and (got[1:] > got[:-1]).all()


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 9), data=st.data())
def test_parent_tables_match_explicit_candidates(m, data):
    # random connected parents: random pair bits over a random spanning tree
    graphs = []
    for _ in range(data.draw(st.integers(1, 3))):
        perm = data.draw(st.permutations(range(m)))
        tree = from_edges(m, [(perm[v], perm[data.draw(st.integers(0, v - 1))])
                              for v in range(1, m)])
        extra = data.draw(st.integers(0, (1 << pair_count(m)) - 1))
        graphs.append(Graph(m, tree.bits | extra))
    _, bits = _pair_bits(graphs)
    nb, lowtwin = census._twin_masks(m, bits)
    reach = census._components(m, nb)
    assert (reach[:, np.arange(m), np.arange(m)] == (1 << m) - 1).all()
    sets = np.arange(1, 1 << m)
    attach = (sets[:, None] >> np.arange(m) & 1).astype(np.uint8)
    ju, iu = np.tril_indices(m, -1)
    for p, g in enumerate(graphs):
        # neighbor and lower-twin masks against a pairwise twin test
        a = g.adjacency()
        for v in range(m):
            assert nb[p, v] == g.neighbor_masks()[v]
            twins = [u for u in range(v)
                     if all(a[u, x] == a[v, x] for x in range(m) if x not in (u, v))]
            assert lowtwin[p, v] == sum(1 << u for u in twins)
        # "H - w connected" against the connectivity of the explicit H - w,
        # for every attach set and every old vertex w
        h = _adjacency(m + 1, np.concatenate(
            [np.repeat(bits[p:p + 1], len(sets), 0), attach], 1)).astype(np.uint8)
        for w in range(m):
            rest = np.delete(np.arange(m + 1), w)
            explicit = _connected_rows(m, h[:, rest][:, :, rest][:, ju, iu])
            table = (reach[p, w] & sets[:, None] != 0).all(1)
            assert np.array_equal(table, explicit)


def test_enumeration_checks_each_count(monkeypatch):
    monkeypatch.setitem(census.KNOWN_CONNECTED_COUNTS, 5, 20)
    with pytest.raises(RuntimeError, match="order 5: built 21 classes, not 20"):
        enumerate_connected(6)


@pytest.mark.slow
def test_extend_census_regenerates_committed_file(census8_path):
    # enumerate_connected(8) is extend_census run from the one-vertex graph
    regenerated = [graph6.encode(g) for g in enumerate_connected(8)]
    with open(census8_path) as fh:
        stored = [line.strip() for line in fh if line.strip()]
    assert regenerated == stored


@pytest.mark.slow
def test_order9_extension_of_committed_census8(census9):
    # the whole order-9 census: every connected class, pinned by its digest
    order, forms = census9
    assert order == 9 and len(forms) == KNOWN_CONNECTED_COUNTS[9]
    assert _connected_rows(9, census._form_bits(9, forms)).all()
    text = ",".join(map(str, forms.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "7d9e795bafed0197"


def test_order9_census_holds_every_sampled_connected_graph(census9):
    # completeness without the extension: the canonical form of each
    # connected graph among 60,000 random order-9 edge sets is a class
    _, forms = census9
    assert (forms[1:] > forms[:-1]).all()
    masks = np.random.default_rng(90125).integers(0, 1 << 36, size=60000,
                                                 dtype=np.uint64)
    bits = census._form_bits(9, masks)
    bits = bits[_connected_rows(9, bits)]
    assert len(bits) == 57878
    sampled = census._canonical_forms(9, bits)
    assert np.isin(sampled, forms).all()


def test_committed_census8(census8_path):
    graphs = list(Graph6Source(census8_path))
    assert len(graphs) == 11117
    assert all(g.order == 8 for g in graphs)
    # spot-check: every graph connected, no duplicates
    assert all(is_connected(g) for g in graphs[:200])
    assert len({g.bits for g in graphs}) == 11117


# ---------------------------------------------------------------------------
# graph6 file ingest


def test_graph6_source(tmp_path):
    f = tmp_path / "mix.g6"
    f.write_text(">>graph6<<Bw\n\nBo\nA_\n")
    src = Graph6Source(str(f))
    got = list(src)
    assert [g.order for g in got] == [3, 3, 2]
    assert src.rejected_disconnected == 0


def test_graph6_source_skips_disconnected(tmp_path):
    f = tmp_path / "d.g6"
    # B? is the edgeless graph on 3 vertices
    f.write_text("Bw\nB?\nBo\n")
    src = Graph6Source(str(f))
    assert len(list(src)) == 2
    assert src.rejected_disconnected == 1


def test_graph6_source_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("Bw\nB\x19w\n")
    with pytest.raises(Graph6FileError) as err:
        list(Graph6Source(str(f)))
    assert "bad.g6:2:" in str(err.value)


def test_graph6_source_missing_file():
    with pytest.raises(OSError):
        list(Graph6Source("/nonexistent/path.g6"))


def test_graph6_source_crlf_line_endings(tmp_path):
    f = tmp_path / "crlf.g6"
    f.write_bytes(b"C~\r\nC?\r\n\r\nCr\r\n")
    src = Graph6Source(str(f))
    assert list(src) == [graph6.decode("C~"), graph6.decode("Cr")]
    assert (src.read, src.rejected_disconnected) == (3, 1)


def test_graph6_source_truncated_last_line(tmp_path):
    # a file cut short mid-line: the last line names its own line number
    f = tmp_path / "cut.g6"
    f.write_bytes(b"Dr{\nD?{\nDQ")
    with pytest.raises(Graph6FileError) as err:
        list(Graph6Source(str(f)))
    assert str(err.value) == (
        f"{f}:3: order 5 needs 2 payload bytes, got 1")
    assert isinstance(err.value.__cause__, graph6.TruncatedPayloadError)


def test_graph6_source_header_in_mid_file(tmp_path):
    # a header on a line of its own is skipped; one before a graph is stripped
    f = tmp_path / "cat.g6"
    f.write_text(">>graph6<<Bw\nBo\n>>graph6<<\n>>graph6<<BW\n")
    src = Graph6Source(str(f))
    assert list(src) == [graph6.decode(s) for s in ("Bw", "Bo", "BW")]
    assert src.read == 3


def _per_line_reference(path):
    """(graph, read, rejected) at each yield of a reader that decodes one
    line at a time and tests each graph's connectivity on its own, the
    final (read, rejected), and the Graph6FileError text it stops with, if
    any: the behaviour the block reader must reproduce."""
    read = rejected = 0
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith(graph6.HEADER.encode()):
                line = line[len(graph6.HEADER):]
            if not line:
                continue
            try:
                g = graph6.decode(line)
            except graph6.Graph6Error as exc:
                return out, read, rejected, f"{path}:{lineno}: {exc}"
            read += 1
            if is_connected(g):
                out.append((g, read, rejected))
            else:
                rejected += 1
    return out, read, rejected, None


def _malformed(line, defect):
    """A graph6 line (no ending) broken in one way."""
    body = line[1:] if line[0] != 126 else line[4:]
    if defect == "bad byte":
        return line[:-1] + b"\x19"
    if defect == "set padding bit" and body and pair_count(
            graph6.decode(line).order) % 6:
        return line[:-1] + bytes([((line[-1] - 63) | 1) + 63])
    if defect == "truncated payload" and body:
        return line[:-1]
    return line + b"?"  # a trailing byte


@st.composite
def _graph6_files(draw):
    """The bytes of a graph6 file: runs of graphs of orders 1-13 and at most
    one run of order 65 (long-form order field), with blank lines, headers
    on their own or before a graph, LF or CRLF endings with up to two lines
    ending in the other, at most one malformed line or line of another
    order inside a run, and maybe no final newline."""
    orders = draw(st.lists(st.integers(1, 13), min_size=1, max_size=4))
    if draw(st.booleans()):
        orders.insert(draw(st.integers(0, len(orders))), 65)
    lines = []
    for m in orders:
        masks = st.integers(0, (1 << pair_count(m)) - 1)
        for bits in draw(st.lists(masks, min_size=1, max_size=12)):
            lines.append(graph6.encode(Graph(m, bits)).encode())
    defect = draw(st.sampled_from([None, "bad byte", "set padding bit",
                                   "truncated payload", "trailing byte",
                                   "another order"]))
    if defect is not None:
        k = draw(st.integers(0, len(lines) - 1))
        if defect == "another order":
            m = graph6.decode(lines[k]).order
            lines[k] = graph6.encode(path(m % 13 + 1)).encode()
        else:
            lines[k] = _malformed(lines[k], defect)
    eol, other = draw(st.permutations([b"\n", b"\r\n"]))
    ends = [eol] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        extra = draw(st.sampled_from([b"", b">>graph6<<", b"  "]))
        lines.insert(k, extra)
        ends.insert(k, eol)
    for k in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
        ends[k] = other
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        if not lines[k].startswith(b">"):
            lines[k] = b">>graph6<<" + lines[k]
    if draw(st.booleans()):
        ends[-1] = b""
    return b"".join(x + e for x, e in zip(lines, ends))


@settings(max_examples=200, deadline=None)
@given(data=_graph6_files(), block=st.integers(1, 9))
def test_graph6_source_blocks_match_the_per_line_reader(data, block,
                                                        tmp_path_factory):
    # small blocks, so that a file holds both blocks of one order byte and
    # width (decoded columnar) and blocks decoded line by line
    f = tmp_path_factory.mktemp("g6") / "f.g6"
    f.write_bytes(data)
    want, read, rejected, error = _per_line_reference(f)
    src = Graph6Source(f)
    got = []
    with mock.patch.object(census, "SOURCE_BLOCK", block):
        try:
            for g in src:
                got.append((g, src.read, src.rejected_disconnected))
        except Graph6FileError as exc:
            # the graphs before the bad line's block come out first
            assert str(exc) == error
            assert got == want[:len(got)]
        else:
            assert error is None
            assert got == want
            assert (src.read, src.rejected_disconnected) == (read, rejected)


def test_graph6_source_decodes_uniform_blocks_without_decode(tmp_path,
                                                             monkeypatch):
    # blocks of one order byte and width never reach the per-line decoder
    rng = np.random.default_rng(9)
    masks = rng.integers(0, 1 << 36, size=3 * census.SOURCE_BLOCK + 5)
    f = tmp_path / "order9.g6"
    f.write_text("".join(graph6.encode(Graph(9, int(x))) + "\n" for x in masks))
    want = _per_line_reference(f)
    monkeypatch.setattr(graph6, "decode", None)
    src = Graph6Source(f)
    got = [(g, src.read, src.rejected_disconnected) for g in src]
    assert (got, src.read, src.rejected_disconnected, None) == want


def test_graph6_source_decodes_crlf_blocks_without_decode(tmp_path,
                                                          census8_path,
                                                          monkeypatch):
    # a file of CRLF lines reads as the same blocks as its LF original
    with open(census8_path, "rb") as fh:
        lf = fh.read()
    crlf = tmp_path / "crlf.g6"
    crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
    want = list(Graph6Source(census8_path)._batches())
    decoded = []
    decode = graph6.decode
    monkeypatch.setattr(graph6, "decode",
                        lambda line: decoded.append(line) or decode(line))
    got = list(Graph6Source(crlf)._batches())
    assert decoded == []
    assert len(got) == len(want) > 1
    for (m, bits, reads), (m0, bits0, reads0) in zip(got, want):
        assert m == m0 == 8
        assert np.array_equal(bits, bits0) and np.array_equal(reads, reads0)


def test_graph6_source_crlf_bad_byte_names_its_line(tmp_path, census8_path):
    with open(census8_path, "rb") as fh:
        lines = fh.read().splitlines()[:100]
    lines[56] = lines[56][:-1] + b"\x19"
    f = tmp_path / "bad.g6"
    f.write_bytes(b"".join(line + b"\r\n" for line in lines))
    with pytest.raises(Graph6FileError) as err:
        list(Graph6Source(f))
    assert str(err.value) == f"{f}:57: byte 25 outside graph6 range 63..126"
    # a trailing byte on every line stands where a CR would; it ends no line
    f.write_bytes(b"".join(line + b"?\n" for line in lines))
    with pytest.raises(Graph6FileError) as err:
        list(Graph6Source(f))
    assert str(err.value) == f"{f}:1: trailing bytes after graph6 payload"


@settings(max_examples=40, deadline=None)
@given(order=st.integers(2, 8), data=st.data())
def test_census_of_a_file_matches_the_census_of_its_graphs(order, data,
                                                           tmp_path_factory):
    # most graphs get a spanning path, so that chunks fill up
    spanned = st.tuples(st.integers(0, (1 << pair_count(order)) - 1),
                        st.integers(0, 3))
    masks = [b | path(order).bits if spans else b for b, spans
             in data.draw(st.lists(spanned, min_size=1, max_size=60))]
    lines = [graph6.encode(Graph(order, b)) for b in masks]
    lines.insert(data.draw(st.integers(0, len(lines))), graph6.encode(path(order)))
    lines.insert(data.draw(st.integers(0, len(lines))), "")
    d = tmp_path_factory.mktemp("census")
    f = d / "f.g6"
    f.write_text("\n".join(lines) + "\n")
    block = data.draw(st.integers(1, 9))
    payload = census._chunk_payload
    with mock.patch.object(census, "SOURCE_BLOCK", block):
        graphs = list(Graph6Source(f))
        for chunk_size, threads in itertools.product((1, 7, 2048), (1, 2)):
            src = Graph6Source(f)
            outputs, cuts = [], []
            for source in (src, graphs):
                cut = []
                cuts.append(cut)

                def spy(m, bits, zero_tol, cut=cut):
                    cut.append(len(bits))
                    return payload(m, bits, zero_tol)

                with mock.patch.object(census, "_chunk_payload", spy):
                    report = run_census(source, threads=threads,
                                        chunk_size=chunk_size)
                out = d / f"{len(outputs)}"
                out.mkdir(exist_ok=True)
                write_stats_csv(report, out / "stats.csv")
                paths = write_histogram_csvs(report, out)
                outputs.append([open(p, "rb").read()
                                for p in [out / "stats.csv", *paths]])
            assert outputs[0] == outputs[1]
            # the same chunk sizes; threads may solve them in any order
            assert sorted(cuts[0]) == sorted(cuts[1])
            assert src.rejected_disconnected == len(masks) + 1 - len(graphs)


def test_enumeration_source_batches_are_source_blocks(monkeypatch):
    # the built-in census reaches _chunks in the block shape of a graph6
    # file: SOURCE_BLOCK rows a batch, numbered on from 1
    monkeypatch.setattr(census, "SOURCE_BLOCK", 100)
    batches = list(census._census_source(7, None)._batches())
    assert [len(bits) for _, bits, _ in batches] == [100] * 8 + [53]
    assert {m for m, _, _ in batches} == {7}
    _, forms = census._enumerate(7)
    assert np.array_equal(np.concatenate([bits for _, bits, _ in batches]),
                          _pair_bits([Graph(7, f) for f in forms.tolist()])[1])
    assert np.array_equal(np.concatenate([reads for *_, reads in batches]),
                          np.arange(1, 854))


@pytest.mark.parametrize("lines", [0, 1, census.SOURCE_BLOCK,
                                   census.SOURCE_BLOCK + 1])
def test_graph6_source_block_edges(tmp_path, lines):
    f = tmp_path / "n.g6"
    f.write_text("Bw\nB?\n" * (lines // 2) + "Bo\n" * (lines % 2))
    src = Graph6Source(str(f))
    assert len(list(src)) == lines - lines // 2
    assert (src.read, src.rejected_disconnected) == (lines, lines // 2)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 13) | st.just(65), data=st.data())
def test_block_connectivity_matches_is_connected(order, data):
    # order 65 takes Python-int neighbor masks, the others uint64
    n = pair_count(order)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=40))
    graphs = [Graph(order, b) for b in masks]
    got = _connected_rows(*_pair_bits(graphs))
    assert got.tolist() == [is_connected(g) for g in graphs]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_block_connectivity_exhaustive_small_orders(order):
    graphs = [Graph(order, b) for b in range(1 << pair_count(order))]
    got = _connected_rows(*_pair_bits(graphs))
    assert got.tolist() == [is_connected(g) for g in graphs]


def test_graph6_source_past_the_mask_cut_checks_each_graph(tmp_path):
    # order 12 has 66 vertex pairs, more than a uint64 mask holds
    rng = np.random.default_rng(12)
    graphs = [Graph(12, int(x) | int(y) << 33)
              for x, y in rng.integers(0, 1 << 33, size=(60, 2))]
    graphs += [path(12), Graph(12, 0), complete(12)]
    assert pair_count(12) > 63
    f = tmp_path / "order12.g6"
    f.write_text("".join(graph6.encode(g) + "\n" for g in graphs))
    want, read, rejected, _ = _per_line_reference(f)
    src = Graph6Source(str(f))
    got = [(g, src.read, src.rejected_disconnected) for g in src]
    assert got == want
    assert (src.read, src.rejected_disconnected) == (read, rejected)
    assert 1 <= rejected < read - 1


# ---------------------------------------------------------------------------
# census pipeline


def test_census_stats_match_direct_computation(census5):
    report = run_census(census5)
    assert report.order == 5
    assert report.count == 21
    gaps = [compute_indices(eigen.spectrum(g)).gap for g in census5]
    s = report.stats["gap"]
    assert s.mean == pytest.approx(np.mean(gaps), rel=1e-12)
    assert s.std() == pytest.approx(np.std(gaps, ddof=1), rel=1e-10)
    assert s.minimum == pytest.approx(min(gaps))
    assert s.maximum == pytest.approx(max(gaps))


def test_census_chunk_size_invariance(census6):
    base = run_census(census6, chunk_size=2048).stats["pow"]
    for size in (1, 7, 64):
        other = run_census(census6, chunk_size=size).stats["pow"]
        assert other.count == base.count
        assert other.mean == pytest.approx(base.mean, rel=1e-12)
        assert other.m2 == pytest.approx(base.m2, rel=1e-9)
        assert other.m4 == pytest.approx(base.m4, rel=1e-8)


def test_census_thread_determinism(census6, tmp_path):
    paths = []
    for threads in (1, 4):
        report = run_census(census6, threads=threads, chunk_size=16)
        p = tmp_path / f"t{threads}.csv"
        write_stats_csv(report, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize("kwargs", [{"chunk_size": 0}, {"chunk_size": -7},
                                    {"threads": 0}, {"threads": -2}])
def test_census_rejects_chunk_size_and_threads_below_one(census4, kwargs):
    with pytest.raises(ValueError,
                       match="^threads and chunk_size must be at least 1$"):
        run_census(census4, **kwargs)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(2, 7), data=st.data())
def test_census_is_invariant_to_chunk_size_and_threads(order, data,
                                                       tmp_path_factory):
    # nonempty edge sets, so every spectrum has eigenvalues of both signs;
    # drawn from a small pool, so the stream repeats graphs and a whole
    # index may be one value up to rounding
    pool = data.draw(st.lists(st.integers(1, (1 << pair_count(order)) - 1),
                              min_size=1, max_size=6))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=120))
    graphs = [Graph(order, b) for b in picks]
    base = run_census(graphs, chunk_size=1)
    size = data.draw(st.integers(1, 50))
    other = run_census(graphs, chunk_size=size)
    assert (other.order, other.count) == (order, len(graphs))
    for name in census.INDEX_NAMES:
        want, got = base.stats[name].finalize(), other.stats[name].finalize()
        for field in ("count", "minimum", "maximum", "min_witnesses",
                      "max_witnesses", "min_overflow", "max_overflow"):
            assert getattr(got, field) == getattr(want, field), (name, field)
        for field in ("mean", "std", "skewness", "kurtosis"):
            w, g = getattr(want, field), getattr(got, field)
            assert (g is None) == (w is None), (name, field)
            if w is not None:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (name, field)
        assert other.histograms[name].counts == base.histograms[name].counts
    out = tmp_path_factory.mktemp("threads")
    for threads in (1, 3):
        write_stats_csv(run_census(graphs, threads=threads, chunk_size=size),
                        out / f"t{threads}.csv")
    assert (out / "t1.csv").read_bytes() == (out / "t3.csv").read_bytes()


def test_blocks_cut_at_order_changes_and_every_size_graphs():
    pulled = []

    def stream(graphs):
        for g in graphs:
            pulled.append(g)
            yield g

    def blocks(graphs, size):
        return (_to_graphs(*block) for block in census._blocks(graphs, size))

    graphs = [path(3)] * 5 + [path(4)] * 2 + [path(3)]
    cut = blocks(stream(graphs), 2)
    # a full block comes out before the next graph is pulled
    assert next(cut) == [path(3)] * 2 and len(pulled) == 2
    assert next(cut) == [path(3)] * 2 and len(pulled) == 4
    # a partial block comes out once the next graph has another order
    assert next(cut) == [path(3)] and len(pulled) == 6
    assert list(cut) == [[path(4)] * 2, [path(3)]]
    assert len(pulled) == len(graphs)
    assert list(blocks(iter([]), 3)) == []
    assert list(blocks(graphs, 1)) == [[g] for g in graphs]
    assert list(blocks(graphs, 100)) == [graphs[:5], graphs[5:7], graphs[7:]]


def test_census_skips_a_disconnected_run_of_another_order(tmp_path):
    # only connected graphs make up the census, so the order-4 run is no
    # order change
    f = tmp_path / "runs.g6"
    f.write_text("Bw\nBo\n" + "C?\n" * 5 + "BW\n")
    for chunk_size in (1, 2, 7):
        report = run_census(Graph6Source(f), chunk_size=chunk_size)
        assert (report.order, report.count) == (3, 3)
        assert report.rejected_disconnected == 5


def test_census_empty_source():
    with pytest.raises(EmptySourceError):
        run_census([])


def test_census_mixed_orders():
    with pytest.raises(MixedOrdersError):
        run_census([complete(3), complete(4)])
    # the order is checked before the chunk is solved: the one-vertex graph
    # alone would raise DegenerateSpectrumError
    for threads in (1, 2):
        with pytest.raises(MixedOrdersError,
                           match="^census mixes orders 3 and 1$"):
            run_census([complete(3), Graph(1, 0)], threads=threads)
    # a failing chunk read before the order change wins, at any threads,
    # though it may still be in flight when the order change is read
    for threads in (1, 2, 3):
        with pytest.raises(DegenerateSpectrumError,
                           match="^graph @: spectrum lacks eigenvalues"):
            run_census([Graph(1, 0), complete(2)], threads=threads,
                       chunk_size=1)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 9), data=st.data())
def test_chunks_cut_one_order_then_refuse_the_next(size, data):
    # batches of one or two orders, empty ones among them: the chunks are
    # full but the last, hold the first order's rows in order, and
    # MixedOrdersError follows them as soon as a row of the other is read
    orders = data.draw(st.lists(st.integers(0, 10), min_size=2, max_size=2,
                                unique=True))
    shape = data.draw(st.lists(st.tuples(st.sampled_from(orders),
                                         st.integers(0, 5)), max_size=12))
    batches, start = [], 0
    for m, n in shape:
        batches.append((m, np.arange(start, start + n).reshape(n, 1), None))
        start += n
    pulled = []

    def source():
        for batch in batches:
            pulled.append(batch)
            yield batch

    chunks, error = [], None
    try:
        for chunk in census._chunks(source(), size):
            chunks.append(chunk)
    except MixedOrdersError as exc:
        error = str(exc)
    nonempty = [(m, bits) for m, bits, _ in batches if len(bits)]
    first = nonempty[0][0] if nonempty else None
    cut = next((k for k, (m, _) in enumerate(nonempty) if m != first),
               len(nonempty))
    sizes = [len(bits) for _, bits in chunks]
    assert all(n == size for n in sizes[:-1]) and all(0 < n <= size for n in sizes)
    assert {m for m, _ in chunks} <= {first}
    assert [r for _, bits in chunks for r in bits.ravel().tolist()] == \
        [r for _, bits in nonempty[:cut] for r in bits.ravel().tolist()]
    if cut == len(nonempty):
        assert (error, len(pulled)) == (None, len(batches))
    else:
        assert error == f"census mixes orders {first} and {nonempty[cut][0]}"
        assert pulled[-1][1] is nonempty[cut][1]


class _FnError(Exception):
    pass


class _ProducerError(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(threads=st.integers(1, 4), data=st.data())
def test_ordered_window_matches_serial_map(threads, data):
    # fn fails on some items and the producer may fail in place of one
    # item; the window gives what map gives, and raises what map raises
    n = data.draw(st.integers(0, 24))
    fn_fails = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    producer_fails = data.draw(st.none() | st.integers(0, n))
    pauses = data.draw(st.lists(st.sampled_from((0.0, 0.001)), min_size=n,
                                max_size=n))
    pulled = 0

    def items():
        nonlocal pulled
        for i in range(n + 1):
            if i == producer_fails:
                raise _ProducerError(i)
            if i == n:
                return
            pulled += 1
            yield i

    def fn(i):
        time.sleep(pauses[i])  # results complete out of order
        if i in fn_fails:
            raise _FnError(i)
        return i * i

    def run(results):
        nonlocal pulled
        pulled, got = 0, []
        try:
            for r in results:
                got.append(r)
                # the item just received and at most threads + 1 more
                assert pulled - (len(got) - 1) <= threads + 2
        except (_FnError, _ProducerError) as exc:
            return got, (type(exc), exc.args)
        return got, None

    serial = run(map(fn, items()))
    assert run(census._ordered(fn, items(), threads)) == serial


def test_census_single_graph():
    report = run_census([complete(4)])
    assert report.count == 1
    s = report.stats["gap"].finalize()
    assert s.mean == pytest.approx(4.0)
    assert s.std == 0.0
    assert s.skewness is None


# ---------------------------------------------------------------------------
# extremal search


def test_extremal_min_gap_order4(census4):
    res = extremal(census4, "gap", "min")
    assert res.value == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-9)
    assert res.count == 6
    assert len(res.witnesses) == 1
    g = graph6.decode(res.witnesses[0])
    assert sorted(g.degrees()) == [1, 1, 2, 2]  # the path


def test_extremal_max_everything_is_complete(census5):
    for index in ("lambda_max", "gap", "ind"):
        res = extremal(census5, index, "max")
        assert res.witnesses == (graph6.encode(complete(5)),)


def test_extremal_min_pow_is_star(census6):
    res = extremal(census6, "pow", "min")
    assert res.value == pytest.approx(2.0 * math.sqrt(5.0), abs=1e-9)
    assert len(res.witnesses) == 1
    assert sorted(graph6.decode(res.witnesses[0]).degrees()) == \
        [1, 1, 1, 1, 1, 5]


def test_extremal_validation(census4):
    with pytest.raises(ValueError):
        extremal(census4, "nope", "min")
    with pytest.raises(ValueError):
        extremal(census4, "gap", "sideways")
    with pytest.raises(ValueError, match="^threads must be at least 1$"):
        extremal(census4, "gap", "max", threads=0)


# ---------------------------------------------------------------------------
# histograms and CSV output


def test_histogram_binning():
    h = Histogram()
    h.update_many(np.array([0.05, 0.05, 0.17, 2.31]))
    rows = h.rows()
    assert rows[0] == (pytest.approx(0.0), pytest.approx(0.1), 2)
    assert rows[1] == (pytest.approx(0.1), pytest.approx(0.2), 1)
    assert rows[2] == (pytest.approx(2.3), pytest.approx(2.4), 1)
    assert sum(h.counts.values()) == 4
    h.update_many(np.array([]))
    assert h.counts == {0: 2, 1: 1, 23: 1}
    h.update_many(np.array([-0.05, -2.31, 0.06]))
    assert h.counts == {-24: 1, -1: 1, 0: 3, 1: 1, 23: 1}


def test_histogram_absorb():
    a = Histogram()
    a.update_many(np.array([0.05, 1.0]))
    b = Histogram()
    b.update_many(np.array([0.08]))
    a.absorb(b)
    assert sum(a.counts.values()) == 3
    assert a.rows()[0][2] == 2


def test_stats_csv_golden(tmp_path):
    report = run_census(enumerate_connected(3))
    p = tmp_path / "stats.csv"
    write_stats_csv(report, p)
    assert p.read_text() == (
        "index,count,mean,std,skewness,kurtosis,min,max,argmin_g6,argmax_g6\n"
        "lambda_max,2,1.707107,0.414214,0.000000,1.000000,1.414214,2.000000,Bo,Bw\n"
        "lambda_min,2,-1.207107,0.292893,0.000000,1.000000,-1.414214,-1.000000,Bo,Bw\n"
        "gap,2,2.914214,0.121320,0.000000,1.000000,2.828427,3.000000,Bo,Bw\n"
        "ind,2,1.707107,0.414214,0.000000,1.000000,1.414214,2.000000,Bo,Bw\n"
        "pow,2,3.414214,0.828427,0.000000,1.000000,2.828427,4.000000,Bo,Bw\n"
    )


def test_histogram_csvs(tmp_path, census4):
    report = run_census(census4)
    paths = write_histogram_csvs(report, tmp_path)
    assert sorted(os.path.basename(p) for p in paths) == [
        "hist_gap.csv", "hist_ind.csv", "hist_lambda_max.csv",
        "hist_lambda_min.csv", "hist_pow.csv",
    ]
    for p in paths:
        lines = open(p).read().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 6


def test_census_rejected_count_flows_through(tmp_path):
    f = tmp_path / "src.g6"
    f.write_text("Bw\nB?\nBo\n")
    report = run_census(Graph6Source(str(f)))
    assert report.count == 2
    assert report.rejected_disconnected == 1


@pytest.mark.parametrize("order", [12, 13, 100])
def test_adjacency_stack_past_the_edge_mask_cut(order):
    rng = np.random.default_rng(order)
    n = pair_count(order)
    graphs = [Graph(order, int.from_bytes(rng.bytes(n // 8 + 1), "little")
                    % (1 << n)) for _ in range(6)]
    graphs += [Graph(order, 0), complete(order), path(order)]
    stack = _adjacency(*_pair_bits(graphs))
    assert stack.shape == (len(graphs), order, order)
    for mat, g in zip(stack, graphs):
        want = np.zeros((order, order))
        for j in range(1, order):
            for i in range(j):
                if g.bits >> pair_index(i, j) & 1:
                    want[i, j] = want[j, i] = 1.0
        assert np.array_equal(mat, want)

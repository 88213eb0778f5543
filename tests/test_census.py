"""Canonical enumeration, graph6 ingest, streaming census, CSV output."""

import functools
import hashlib
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import census, eigen, graph6
from specgap.census import (
    KNOWN_CONNECTED_COUNTS,
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
from specgap.indices import compute_indices


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


def test_enumeration_order_cap():
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(OrderTooLargeError):
        enumerate_connected(9)
    with pytest.raises(OrderTooLargeError):
        canonical_bits(Graph(9, 0))
    with pytest.raises(OrderTooLargeError):
        extend_census([Graph(8, 1)])


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


@pytest.mark.parametrize("m,count", [(6, 300), (7, 200), (8, 200)])
def test_canonical_bits_matches_oracle_on_random_masks(m, count):
    rng = np.random.default_rng(1000 + m)
    for bits in rng.integers(0, 1 << pair_count(m), size=count).tolist():
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
    with pytest.raises(OrderTooLargeError):
        extend_census([Graph(8, 1)])


@pytest.mark.slow
def test_extend_census_regenerates_committed_file(census8_path):
    # enumerate_connected(8) is extend_census run from the one-vertex graph
    regenerated = [graph6.encode(g) for g in enumerate_connected(8)]
    with open(census8_path) as fh:
        stored = [line.strip() for line in fh if line.strip()]
    assert regenerated == stored


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


def _per_line_reference(lines):
    """(graph, read, rejected) at each yield of the one-graph-at-a-time
    reader: the behaviour the block reader must reproduce."""
    read = rejected = 0
    out = []
    for line in lines:
        if not line.strip():
            continue
        g = graph6.decode(line)
        read += 1
        if is_connected(g):
            out.append((g, read, rejected))
        else:
            rejected += 1
    return out, read, rejected


def test_graph6_source_blocks_match_the_per_line_reader(tmp_path):
    rng = np.random.default_rng(4)
    lines = []
    # more than one block of order 6, sparse enough that many are
    # disconnected, an order change inside the second block, then order 7
    for order, count in ((6, census.SOURCE_BLOCK + 700), (7, 900)):
        n = pair_count(order)
        masks = (rng.integers(0, 1 << n, size=count, dtype=np.uint64)
                 & rng.integers(0, 1 << n, size=count, dtype=np.uint64))
        lines += [graph6.encode(Graph(order, int(x))) for x in masks]
    lines.insert(5, "")
    f = tmp_path / "blocks.g6"
    f.write_text("\n".join(lines) + "\n")
    want, read, rejected = _per_line_reference(lines)
    assert 100 < rejected < len(lines) - 100

    src = Graph6Source(str(f))
    got = [(g, src.read, src.rejected_disconnected) for g in src]
    assert got == want
    assert (src.read, src.rejected_disconnected) == (read, rejected)


@pytest.mark.parametrize("lines", [0, 1, census.SOURCE_BLOCK,
                                   census.SOURCE_BLOCK + 1])
def test_graph6_source_block_edges(tmp_path, lines):
    f = tmp_path / "n.g6"
    f.write_text("Bw\nB?\n" * (lines // 2) + "Bo\n" * (lines % 2))
    src = Graph6Source(str(f))
    assert len(list(src)) == lines - lines // 2
    assert (src.read, src.rejected_disconnected) == (lines, lines // 2)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 13), data=st.data())
def test_block_connectivity_matches_is_connected(order, data):
    # orders 12 and 13 lie past the 63-pair cut of uint64 edge masks
    n = pair_count(order)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=40))
    graphs = [Graph(order, b) for b in masks]
    got = census._connected(graphs)
    assert got.tolist() == [is_connected(g) for g in graphs]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_block_connectivity_exhaustive_small_orders(order):
    graphs = [Graph(order, b) for b in range(1 << pair_count(order))]
    got = census._connected(graphs)
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
    want, read, rejected = _per_line_reference(graph6.encode(g) for g in graphs)
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

    graphs = [path(3)] * 5 + [path(4)] * 2 + [path(3)]
    blocks = census._blocks(stream(graphs), 2)
    # a full block comes out before the next graph is pulled
    assert next(blocks) == [path(3)] * 2 and len(pulled) == 2
    assert next(blocks) == [path(3)] * 2 and len(pulled) == 4
    # a partial block comes out once the next graph has another order
    assert next(blocks) == [path(3)] and len(pulled) == 6
    assert list(blocks) == [[path(4)] * 2, [path(3)]]
    assert len(pulled) == len(graphs)
    assert list(census._blocks(iter([]), 3)) == []
    assert list(census._blocks(graphs, 1)) == [[g] for g in graphs]
    assert list(census._blocks(graphs, 100)) == [graphs[:5], graphs[5:7],
                                                 graphs[7:]]


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
    stack = census._adjacency_stack(graphs)
    assert stack.shape == (len(graphs), order, order)
    for mat, g in zip(stack, graphs):
        want = np.zeros((order, order))
        for j in range(1, order):
            for i in range(j):
                if g.bits >> pair_index(i, j) & 1:
                    want[i, j] = want[j, i] = 1.0
        assert np.array_equal(mat, want)
